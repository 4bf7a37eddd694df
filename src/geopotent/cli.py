"""Command line interface.

Subcommands map one-to-one onto the solver pipelines:

    direct    surface energy balance -> at-infinity potential
    inverse   at-infinity potential -> characteristic radius + boundaries
    profile   tabulated profile -> mass, mean density, grad-P, diagnostics
    anomaly   buried sphere -> sensitivity pairs and signal rows
    pulse     cavity schedule -> precursor time series

Reports embed the full constant set used. CSV output carries numbers at
10 significant digits for readability, or in full where 10 digits would
read back as inf; JSON carries full precision. Exit
codes: 0 success, 2 for an ``InputError``, 3 for a ``DomainError`` or an
arithmetic failure. A report is rendered whole before it is written, and
a non-finite number in it is a ``DomainError``, so an exit-0 report holds
only finite numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from bisect import bisect_right
from collections import namedtuple
from itertools import repeat

from . import __version__
from .anomaly import (
    BackgroundState,
    detectability_report,
    sensitivity_coefficients,
)
from .config import (
    ENV_CONFIG,
    RunConfig,
    read_schedule_json,
    read_text,
    resolve_config,
)
from .core import (
    LINE_BREAKS,
    AnomalySource,
    RadialProfile,
)
from .errors import (
    DomainError,
    InputError,
    MissingPressureSourceError,
)
from .profiles import (
    core_equilibrium_gravity,
    enclosed_mass,
    mean_density,
    pressure_gradient_max,
)
from .pulse import evaluate_schedule, surface_background
from .solver import (
    compression_potential,
    direct_problem,
    homogeneity_bound,
    inverse_problem,
    locate_boundary,
)

PROFILE_HEADER = "radius_m,density_kg_m3,pressure_pa"
PULSE_COLUMNS = ("t_s", "source_radius_m", "potential_j_kg", "delta_u_j_kg",
                 "delta_g_m_s2", "delta_v_s_m_s")
PULSE_HEADER = ",".join(PULSE_COLUMNS)

# Largest --num-samples accepted. Every sample is held as a row of the
# series' columns and as rendered text until the report is written; a
# fresh run at the ceiling peaks near 62 MB RSS for CSV and 97 MB for
# JSON.
PULSE_MAX_SAMPLES = 100_000

# The smallest float whose 10 significant digits read back as inf: a
# finite float below it in magnitude is written "%.10g", any other in full
_FMT_LIMIT = 1.7976931345e308

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3


# -- input files -------------------------------------------------------------

def read_profile_csv(path):
    """Parse a profile CSV; errors carry 1-based line numbers.

    Blank lines are skipped. The body is split into cells in one pass
    and ``RadialProfile`` parses and validates them; a body with a row
    that is not 3 numbers is scanned line by line only to word that row.
    """
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != PROFILE_HEADER:
        got = lines[0].strip() if lines else "<empty file>"
        raise InputError(
            f"{path}:1: bad header {got!r}; expected {PROFILE_HEADER!r}")
    body = list(filter(str.strip, lines[1:]))
    linenos = (range(2, len(lines) + 1) if len(body) == len(lines) - 1 else
               [n for n, line in enumerate(lines[1:], start=2) if line.strip()])
    del lines
    # a row of other than 3 cells would shift every later row's columns
    if not set(map(str.count, body, repeat(","))) <= {2}:
        raise _bad_row(path, body, linenos)
    # hold one form of the body at a time, so peak RSS does not grow
    text = ",".join(body)
    del body
    cells = text.split(",") if text else []
    del text
    try:
        return RadialProfile(cells[0::3], cells[1::3], cells[2::3])
    except InputError as exc:
        if exc.index is not None:
            # the columns are parsed radius first, so a reported
            # non-number lies at or after the first one in the file
            head = cells[:3 * (exc.index + 1)]
            bad = _bad_row(path, map(",".join, zip(*[iter(head)] * 3)),
                           linenos)
            if bad is not None:
                raise bad from None
        line = f":{linenos[exc.index]}" if exc.index is not None else ""
        raise InputError(f"{path}{line}: {exc}") from exc


def _bad_row(path, body, linenos):
    """The error for the first line of `body` that is not 3 numbers."""
    for lineno, line in zip(linenos, body):
        parts = line.split(",")
        if len(parts) != 3:
            return InputError(f"{path}:{lineno}: expected 3 comma-separated "
                              f"values, got {len(parts)}")
        try:
            list(map(float, parts))
        except ValueError:
            return InputError(
                f"{path}:{lineno}: non-numeric value in {line!r}")


def _quoted_path(path, flag):
    """`path`, which the report's preamble quotes, if it has no line break."""
    if not LINE_BREAKS.isdisjoint(path):
        raise InputError(f"{flag} path must not hold a line break, "
                         f"got {path!r}")
    return path


# -- report rendering --------------------------------------------------------

def _not_finite(where, value):
    """The error for a non-finite report cell, named `where`."""
    return DomainError(f"report cell {where} is not finite: {value!r}")


def _fmt(value, where=""):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _not_finite(where, value)
        return f"{value:.10g}" if abs(value) < _FMT_LIMIT else repr(value)
    return str(value)


def _preamble(report):
    lines = [f"# geopotent {report['command']}"]
    for section in ("constants", "earth", "inputs"):
        for key, value in report.get(section, {}).items():
            lines.append(f"# {section}.{key}={_fmt(value, f'{section}.{key}')}")
    return lines


class Table(namedtuple("Table", "columns data name", defaults=("rows",))):
    """The rows of a report table, held as columns.

    ``columns`` names the columns and ``data`` holds one tuple of cells
    per column. JSON writes a table as its array of row objects, CSV as
    a header line and one line per row. ``name`` names the table in
    errors; the pulse series is the report's ``rows``.
    """

    __slots__ = ()


def _table(name, columns):
    """A named report table, from a mapping of column name to cells."""
    table = Table(tuple(columns), tuple(map(tuple, columns.values())), name)
    return {"name": name, "columns": list(table.columns), "rows": table}


def _row_slots(table, fast, limit, slow):
    """The row-template slots of a table's columns, and its rows to fill.

    A column of floats whose magnitudes sum below `limit` takes the
    `fast` slot and goes in as is; a nan or an inf fails the sum. Any
    other column takes a ``%s`` slot, filled with ``slow(cell,
    "<table>.<column>")``. Those cells are made as the rows are read, so
    a non-finite cell raises at the first one in row-major order.
    """
    slots, cells = [], []
    for name, col in zip(table.columns, table.data):
        if set(map(type, col)) <= {float} and sum(map(abs, col)) < limit:
            slots.append(fast)
            cells.append(col)
        else:
            slots.append("%s")
            cells.append(map(slow, col, repeat(f"{table.name}.{name}")))
    return slots, zip(*cells)


def _csv_lines(table):
    """CSV lines of a table: its header, then one line per row.

    A float column below ``_FMT_LIMIT`` fills a ``%.10g`` slot: ``%``
    and ``format`` both format a float with ``.10g`` through
    ``PyOS_double_to_string``, so it reads as ``_fmt`` writes it.
    """
    slots, rows = _row_slots(table, "%.10g", _FMT_LIMIT, _fmt)
    return [",".join(table.columns), *map(",".join(slots).__mod__, rows)]


def render_csv(report):
    lines = _preamble(report)
    if report.get("result"):
        lines.append("field,value")
        for key, value in report["result"].items():
            lines.append(f"{key},{_fmt(value, f'result.{key}')}")
    # the pulse series, or the rows of each named table
    tables = ([report["rows"]] if "rows" in report
              else [table["rows"] for table in report.get("tables", ())])
    for table in tables:
        lines.extend(_csv_lines(table))
    lines.append("")
    return "\n".join(lines)


def _json_cell(value, where):
    if isinstance(value, float) and not math.isfinite(value):
        raise _not_finite(where, value)
    return json.dumps(value)


def _json_rows(table, indent, out):
    """Append a table to `out` as ``json.dumps(..., indent=2)`` writes it.

    Every row fills one template. A finite float column fills a ``%r``
    slot: ``float.__repr__``, which ``json`` uses too.
    """
    inner = indent + "  "
    slots, rows = _row_slots(table, "%r", math.inf, _json_cell)
    fields = ",\n".join(
        f"{inner}  {json.dumps(name).replace('%', '%%')}: {slot}"
        for name, slot in zip(table.columns, slots))
    template = f"{inner}{{\n{fields}\n{inner}}}"
    rows = ",\n".join(map(template.__mod__, rows))
    out.extend(("[\n", rows, f"\n{indent}]") if rows else ("[]",))


def _json(value, indent, out, where=""):
    """Append `value` to `out` as ``json.dumps(value, indent=2)`` writes
    it at `indent`, with each Table written by ``_json_rows``. `where`
    is the dotted path of keys to `value`, which names a bad cell."""
    inner = indent + "  "
    if isinstance(value, Table):
        _json_rows(value, indent, out)
    elif isinstance(value, dict) and value:
        sep = "{"
        for key, item in value.items():
            out.append(f"{sep}\n{inner}{json.dumps(key)}: ")
            _json(item, inner, out, f"{where}.{key}" if where else key)
            sep = ","
        out.append(f"\n{indent}}}")
    elif isinstance(value, (list, tuple)) and value:
        sep = "["
        for item in value:
            out.append(f"{sep}\n{inner}")
            _json(item, inner, out, where)
            sep = ","
        out.append(f"\n{indent}]")
    else:
        out.append(_json_cell(value, where))


def render_json(report):
    out = []
    _json(report, "", out)
    out.append("\n")
    return "".join(out)


def emit(report, fmt, out_path):
    """Write the rendered report to `out_path`; no path or "-" is stdout."""
    text = render_json(report) if fmt == "json" else render_csv(report)
    if out_path and out_path != "-":
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(
                f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _base_report(command, cfg: RunConfig):
    return {
        "command": command,
        "constants": {"gamma": cfg.constants.gamma},
        "earth": {**cfg.earth._asdict(),
                  "gm": cfg.constants.gamma * cfg.earth.mass},
    }


# -- subcommands -------------------------------------------------------------

def cmd_direct(cfg: RunConfig, args):
    if args.p_g is not None:
        p_g, source = args.p_g, "flag"
    elif cfg.p_g_override is not None:
        p_g, source = cfg.p_g_override, "config_override"
    elif args.profile:
        grad = _on_profile(args.profile, pressure_gradient_max,
                           read_profile_csv(args.profile))
        p_g, source = grad.pressure_at_max, "profile_grad_p_max"
    else:
        raise MissingPressureSourceError(
            "no pressure source: pass --p-g, set p_g_override in the "
            "config, or pass --profile")
    phi_g = compression_potential(p_g, cfg.earth.mean_density)
    breakdown = direct_problem(cfg.earth, phi_g, cfg.constants.gamma)
    report = _base_report("direct", cfg)
    report["inputs"] = {"p_g": p_g, "p_g_source": source,
                        "rho_g": cfg.earth.mean_density}
    report["result"] = {
        "u_surface_j_kg": breakdown.u_surface,
        "equipotential_surface_j_kg": breakdown.equipotential_surface,
        "compression_potential_j_kg": breakdown.compression_potential,
        "u_infinity_j_kg": breakdown.u_infinity,
    }
    return report


def cmd_inverse(cfg: RunConfig, args):
    result = inverse_problem(cfg.constants.gamma * cfg.earth.mass, args.u_inf,
                             cfg.earth.mean_radius)
    report = _base_report("inverse", cfg)
    report["inputs"] = {"u_infinity": args.u_inf}
    report["result"] = {
        "r0_m": result.r0,
        "depth_m": result.depth,
        "trend": result.trend.value,
    }
    refs = cfg.boundaries
    located = [locate_boundary(result, ref) for ref in refs]
    report["tables"] = [_table("boundaries", {
        "boundary": [ref.name for ref in refs],
        "radius_m": [ref.radius for ref in refs],
        "offset_m": [offset for offset, _ in located],
        "within_layer": [within for _, within in located],
    })]
    return report


def _on_profile(path, func, *args):
    """func(*args), with the profile `path` prefixed to its DomainError."""
    try:
        return func(*args)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def cmd_profile(cfg: RunConfig, args):
    path = _quoted_path(args.profile, "--profile")
    return _on_profile(path, _profile_report, cfg, path,
                       read_profile_csv(path))


def _profile_report(cfg, path, profile):
    gamma = cfg.constants.gamma
    total = enclosed_mass(profile, profile.body_radius)
    rho_mean = mean_density(profile)
    grad = pressure_gradient_max(profile)
    bound = homogeneity_bound(profile, gamma)
    report = _base_report("profile", cfg)
    report["inputs"] = {"profile": path}
    report["result"] = {
        "body_radius_m": profile.body_radius,
        "total_mass_kg": total,
        "mean_density_kg_m3": rho_mean,
        "grad_p_radius_m": grad.radius_at_max,
        "grad_p_pressure_pa": grad.pressure_at_max,
        "grad_p_gradient_pa_m": grad.gradient_magnitude,
        "homogeneity_integral_j_kg": bound.integral_side,
        "homogeneity_uniform_j_kg": bound.uniform_side,
        "homogeneity_holds": bound.holds,
        "homogeneity_relative_gap": bound.relative_gap,
    }
    inside = [ref for ref in cfg.boundaries
              if 0.0 < ref.radius < profile.body_radius]
    report["tables"] = [_table("core_equilibrium", {
        "boundary": [ref.name for ref in inside],
        "radius_m": [ref.radius for ref in inside],
        "equilibrium_gravity_m_s2": [
            core_equilibrium_gravity(profile, ref.radius) for ref in inside],
    })]
    return report


def _parse_float_list(text, flag):
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise InputError(f"{flag} must be a comma-separated list of "
                         f"numbers, got {text!r}") from None
    if not values:
        raise InputError(f"{flag} is empty")
    return values


def _background(cfg: RunConfig, args):
    default = surface_background(cfg.earth, cfg.constants.gamma)
    flags = (args.u0, args.g0, args.u_inf)
    return BackgroundState(*(d if f is None else f
                             for f, d in zip(flags, default)))


def cmd_anomaly(cfg: RunConfig, args):
    source = AnomalySource(depth=args.depth, radius=args.radius,
                           density_contrast=args.density_contrast)
    offsets = _parse_float_list(args.offsets, "--offsets")
    background = _background(cfg, args)
    gamma = cfg.constants.gamma
    signals = detectability_report(source, offsets, background, gamma)
    pairs = [sensitivity_coefficients(row.offset, source.radius, gamma)
             for row in signals]
    report = _base_report("anomaly", cfg)
    report["inputs"] = {
        "depth": source.depth,
        "radius": source.radius,
        "density_contrast": source.density_contrast,
        "u0": background.u0,
        "g0": background.g0,
        "u_infinity": background.u_infinity,
    }
    report["tables"] = [_table("signals", {
        "offset_m": [row.offset for row in signals],
        "k1": [pair.k1 for pair in pairs],
        "k2": [pair.k2 for pair in pairs],
        "k_ratio": [pair.ratio for pair in pairs],
        "delta_u_j_kg": [row.delta_u for row in signals],
        "delta_g_m_s2": [row.delta_g for row in signals],
        "delta_v_s_m_s": [row.delta_v_s for row in signals],
        "relative_u": [row.relative_u for row in signals],
        "relative_g": [row.relative_g for row in signals],
        "advantage": [row.advantage for row in signals],
    })]
    return report


def cmd_pulse(cfg: RunConfig, args):
    path = _quoted_path(args.schedule, "--schedule")
    schedule = read_schedule_json(path)
    if args.times is not None:
        times = sorted(_parse_float_list(args.times, "--times"))
    else:
        n = args.num_samples
        if n < 2:
            raise InputError(f"--num-samples must be >= 2, got {n}")
        if n > PULSE_MAX_SAMPLES:
            raise InputError(
                f"--num-samples must be <= {PULSE_MAX_SAMPLES}, got {n}")
        t_start, t_end = schedule.t_start, schedule.t_end
        span = t_end - t_start
        if not math.isfinite(span * (n - 1)):
            raise InputError(
                f"--num-samples {n} over the schedule span [{t_start}, "
                f"{t_end}] overflows the float range; pass --times instead")
        times = [t_start + span * i / (n - 1) for i in range(n)]
        # the grid never decreases, but its tail can round one ulp past
        # t_end
        k = bisect_right(times, t_end)
        times[k:] = repeat(t_end, n - k)
    gamma = cfg.constants.gamma
    table = evaluate_schedule(schedule, times,
                              background=surface_background(cfg.earth, gamma),
                              gamma=gamma)
    report = _base_report("pulse", cfg)
    report["inputs"] = {
        "schedule": path,
        "source_mass": schedule.source_mass,
        "observer_radius": schedule.observer_radius,
        "host_density_contrast": schedule.host_density_contrast,
    }
    report["rows"] = Table(PULSE_COLUMNS, table.columns())
    return report


# -- entry point -------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="geopotent",
        description="Absolute gravitational potential toolkit for "
                    "spherically symmetric bodies.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.set_defaults(handler=handler)
        p.add_argument("--config", help=f"JSON config path (default: "
                                        f"${ENV_CONFIG} if set)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default: csv)")
        p.add_argument("--out", default=None,
                       help='output path (default: stdout, as is "-")')

    p = sub.add_parser("direct", help="surface balance -> at-infinity potential")
    common(p, cmd_direct)
    p.add_argument("--p-g", type=float, default=None, dest="p_g",
                   help="characteristic pressure, Pa")
    p.add_argument("--profile", help="profile CSV supplying the pressure curve")

    p = sub.add_parser("inverse", help="at-infinity potential -> "
                                       "characteristic radius")
    common(p, cmd_inverse)
    p.add_argument("--u-inf", type=float, required=True, dest="u_inf",
                   help="at-infinity potential, J/kg")

    p = sub.add_parser("profile", help="profile CSV -> mass, mean density, "
                                       "grad-P, diagnostics")
    common(p, cmd_profile)
    p.add_argument("--profile", required=True, help="profile CSV path")

    p = sub.add_parser("anomaly", help="buried sphere -> detectability table")
    common(p, cmd_anomaly)
    p.add_argument("--depth", type=float, required=True,
                   help="source center depth, m")
    p.add_argument("--radius", type=float, required=True,
                   help="source radius, m")
    p.add_argument("--density-contrast", type=float, required=True,
                   dest="density_contrast",
                   help="signed density contrast, kg/m^3")
    p.add_argument("--offsets", required=True,
                   help="comma-separated observation distances, m")
    p.add_argument("--u0", type=float, default=None,
                   help="background potential at the observer, J/kg")
    p.add_argument("--g0", type=float, default=None,
                   help="background gravity at the observer, m/s^2")
    p.add_argument("--u-inf", type=float, default=None, dest="u_inf",
                   help="background at-infinity potential, J/kg")

    p = sub.add_parser("pulse", help="cavity schedule -> precursor time series")
    common(p, cmd_pulse)
    p.add_argument("--schedule", required=True, help="schedule JSON path")
    p.add_argument("--times", default=None,
                   help="comma-separated sample times, s")
    p.add_argument("--num-samples", type=int, default=25, dest="num_samples",
                   help="uniform sample count when --times is absent "
                        f"(2 to {PULSE_MAX_SAMPLES})")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = resolve_config(args.config)
        report = args.handler(cfg, args)
        emit(report, args.format, args.out)
        return EXIT_OK
    except InputError as exc:
        print(f"geopotent: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"geopotent: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ArithmeticError as exc:
        # str() of an errno-style OverflowError is "(34, '...')": keep the text
        detail = exc.args[-1] if exc.args else ""
        print(f"geopotent: domain error: {args.command}: "
              f"{type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_DOMAIN


def entry():
    """The console script and ``python -m geopotent``."""
    sys.exit(main())
