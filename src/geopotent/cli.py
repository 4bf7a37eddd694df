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
import dataclasses
import json
import math
import sys
from typing import NamedTuple

from . import __version__
from .anomaly import (
    BackgroundState,
    detectability_report,
    sensitivity_coefficients,
)
from .config import (
    ENV_CONFIG,
    RunConfig,
    _check_keys,
    _number,
    read_json,
    read_text,
    resolve_config,
)
from .core import (
    SEGMENT_KINDS,
    SEGMENT_PARAMS,
    AnomalySource,
    CavitySchedule,
    ScheduleSegment,
    validate_profile,
)
from .errors import (
    DomainError,
    InputError,
    MissingPressureSourceError,
    ScheduleError,
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

# The smallest float whose 10 significant digits read back as inf: below
# it, "{:.10g}" alone is the rule of _fmt for a finite float
_FMT_LIMIT = 1.7976931345e308

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3


# -- input files -------------------------------------------------------------

def read_profile_csv(path):
    """Parse a profile CSV; errors carry 1-based line numbers."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != PROFILE_HEADER:
        got = lines[0].strip() if lines else "<empty file>"
        raise InputError(
            f"{path}:1: bad header {got!r}; expected {PROFILE_HEADER!r}")
    rows, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise InputError(
                f"{path}:{lineno}: expected 3 comma-separated values, "
                f"got {len(parts)}")
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError:
            raise InputError(
                f"{path}:{lineno}: non-numeric value in {line!r}") from None
        linenos.append(lineno)
    try:
        return validate_profile(rows)
    except InputError as exc:
        line = f":{linenos[exc.index]}" if exc.index is not None else ""
        raise InputError(f"{path}{line}: {exc}") from exc


def read_schedule_json(path):
    """Parse a cavity schedule JSON; errors name the offending segment."""
    data = read_json(path)
    keys = ("source_mass", "observer_radius", "host_density_contrast",
            "segments")
    seg_keys = ("t_start", "t_end", "kind", "params")
    try:
        _check_keys(data, keys, "schedule", required=keys)
        if not isinstance(data["segments"], list):
            raise InputError("segments must be an array")
        segments = []
        for i, seg in enumerate(data["segments"]):
            where = f"segment {i}"
            _check_keys(seg, seg_keys, where, required=seg_keys)
            kind = seg["kind"]
            if kind not in SEGMENT_KINDS:  # names the params to read
                raise InputError(
                    f"{where}: unknown kind {kind!r}; expected one of "
                    f"{sorted(SEGMENT_KINDS)}")
            param_keys = SEGMENT_PARAMS[kind]
            params = seg["params"]
            _check_keys(params, param_keys, f"{where}.params",
                        required=param_keys)
            try:
                segments.append(ScheduleSegment(
                    t_start=_number(seg, "t_start", where),
                    t_end=_number(seg, "t_end", where), kind=kind,
                    params=tuple(_number(params, k, f"{where}.params")
                                 for k in param_keys)))
            except ScheduleError as exc:
                raise ScheduleError(f"{where}: {exc}", index=i) from exc
        return CavitySchedule(
            segments=tuple(segments),
            source_mass=_number(data, "source_mass", "schedule"),
            observer_radius=_number(data, "observer_radius", "schedule"),
            host_density_contrast=_number(data, "host_density_contrast",
                                          "schedule"))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


# -- report rendering --------------------------------------------------------

def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"report holds a non-finite value: {value!r}")
        text = f"{value:.10g}"
        return text if math.isfinite(float(text)) else repr(value)
    return str(value)


def _preamble(report):
    lines = [f"# geopotent {report['command']}"]
    for section in ("constants", "earth", "inputs"):
        for key, value in report.get(section, {}).items():
            lines.append(f"# {section}.{key}={_fmt(value)}")
    return lines


class Table(NamedTuple):
    """The rows of a report table, held as columns.

    ``columns`` names the columns and ``data`` holds one tuple of cells
    per column. JSON writes a table as its array of row objects, CSV as
    a header line and one line per row.
    """

    columns: tuple
    data: tuple


def _table(name, columns):
    """A named report table, from a mapping of column name to cells."""
    table = Table(tuple(columns), tuple(map(tuple, columns.values())))
    return {"name": name, "columns": list(table.columns), "rows": table}


def _finite_floats(col):
    return set(map(type, col)) <= {float} and all(map(math.isfinite, col))


def _csv_lines(table):
    """CSV lines of a table: its header, then one line per row.

    A table of finite floats that all print in 10 digits fills one
    ``%.10g`` row template per line; ``%`` and ``format`` both format a
    float with ``.10g`` through ``PyOS_double_to_string``. Any other
    table goes through ``_fmt`` cell by cell in row-major order, so a
    non-finite cell raises at the first one.
    """
    rows = zip(*table.data)
    if all(_finite_floats(col) and max(map(abs, col), default=0.0) < _FMT_LIMIT
           for col in table.data):
        lines = map(",".join(["%.10g"] * len(table.columns)).__mod__, rows)
    else:
        lines = (",".join(map(_fmt, row)) for row in rows)
    return [",".join(table.columns), *lines]


def render_csv(report):
    lines = _preamble(report)
    if report.get("result"):
        lines.append("field,value")
        for key, value in report["result"].items():
            lines.append(f"{key},{_fmt(value)}")
    # the pulse series, or the rows of each named table
    tables = ([report["rows"]] if "rows" in report
              else [table["rows"] for table in report.get("tables", ())])
    for table in tables:
        lines.extend(_csv_lines(table))
    lines.append("")
    return "\n".join(lines)


def _json_cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"report holds a non-finite value: {value!r}")
    return json.dumps(value)


def _json_rows(table, indent, out):
    """Append a table to `out` as ``json.dumps(..., indent=2)`` writes it.

    Every row fills one template. A column of finite floats goes in as
    is, through ``%r``: ``float.__repr__``, which ``json`` uses too. Any
    other column goes through ``_json_cell`` in row-major order, so a
    non-finite cell raises at the first one.
    """
    inner, slots, cells = indent + "  ", [], []
    for name, col in zip(table.columns, table.data):
        fast = _finite_floats(col)
        key = json.dumps(name).replace("%", "%%")
        slots.append(f"{inner}  {key}: {'%r' if fast else '%s'}")
        cells.append(col if fast else map(_json_cell, col))
    template = f"{inner}{{\n" + ",\n".join(slots) + f"\n{inner}}}"
    rows = ",\n".join(map(template.__mod__, zip(*cells)))
    out.extend(("[\n", rows, f"\n{indent}]") if rows else ("[]",))


def _json(value, indent, out):
    """Append `value` to `out` as ``json.dumps(value, indent=2)`` writes
    it at `indent`, with each Table written by ``_json_rows``."""
    inner = indent + "  "
    if isinstance(value, Table):
        _json_rows(value, indent, out)
    elif isinstance(value, dict) and value:
        sep = "{"
        for key, item in value.items():
            out.append(f"{sep}\n{inner}{json.dumps(key)}: ")
            _json(item, inner, out)
            sep = ","
        out.append(f"\n{indent}}}")
    elif isinstance(value, (list, tuple)) and value:
        sep = "["
        for item in value:
            out.append(f"{sep}\n{inner}")
            _json(item, inner, out)
            sep = ","
        out.append(f"\n{indent}]")
    else:
        out.append(_json_cell(value))


def render_json(report):
    out = []
    _json(report, "", out)
    out.append("\n")
    return "".join(out)


def emit(report, fmt, out_path):
    text = render_json(report) if fmt == "json" else render_csv(report)
    if out_path:
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
        "earth": dataclasses.asdict(cfg.earth),
    }


# -- subcommands -------------------------------------------------------------

def cmd_direct(cfg: RunConfig, args):
    if args.p_g is not None:
        p_g, source = args.p_g, "flag"
    elif cfg.p_g_override is not None:
        p_g, source = cfg.p_g_override, "config_override"
    elif args.profile:
        grad = pressure_gradient_max(read_profile_csv(args.profile))
        p_g, source = grad.pressure_at_max, "profile_grad_p_max"
    else:
        raise MissingPressureSourceError(
            "no pressure source: pass --p-g, set p_g_override in the "
            "config, or pass --profile")
    phi_g = compression_potential(p_g, cfg.earth.mean_density)
    breakdown = direct_problem(cfg.earth, phi_g)
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
    result = inverse_problem(cfg.earth.gm, args.u_inf, cfg.earth.mean_radius)
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


def cmd_profile(cfg: RunConfig, args):
    profile = read_profile_csv(args.profile)
    gamma = cfg.constants.gamma
    total = enclosed_mass(profile, profile.body_radius)
    rho_mean = mean_density(profile)
    grad = pressure_gradient_max(profile)
    bound = homogeneity_bound(profile, gamma)
    report = _base_report("profile", cfg)
    report["inputs"] = {"profile": args.profile}
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
    default = surface_background(cfg.earth)
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
    schedule = read_schedule_json(args.schedule)
    if args.times:
        times = sorted(_parse_float_list(args.times, "--times"))
    else:
        n = args.num_samples
        if n < 2:
            raise InputError(f"--num-samples must be >= 2, got {n}")
        if n > PULSE_MAX_SAMPLES:
            raise InputError(
                f"--num-samples must be <= {PULSE_MAX_SAMPLES}, got {n}")
        span = schedule.t_end - schedule.t_start
        # t_start + span*(n-1)/(n-1) can round one ulp past t_end
        times = [min(schedule.t_start + span * i / (n - 1), schedule.t_end)
                 for i in range(n)]
    table = evaluate_schedule(schedule, times,
                              background=surface_background(cfg.earth),
                              gamma=cfg.constants.gamma)
    report = _base_report("pulse", cfg)
    report["inputs"] = {
        "schedule": args.schedule,
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

    def common(p):
        p.add_argument("--config", help=f"JSON config path (default: "
                                        f"${ENV_CONFIG} if set)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default: config or csv)")
        p.add_argument("--out", default=None,
                       help="output path (default: config or stdout)")

    p = sub.add_parser("direct", help="surface balance -> at-infinity potential")
    common(p)
    p.add_argument("--p-g", type=float, default=None, dest="p_g",
                   help="characteristic pressure, Pa")
    p.add_argument("--profile", help="profile CSV supplying the pressure curve")

    p = sub.add_parser("inverse", help="at-infinity potential -> "
                                       "characteristic radius")
    common(p)
    p.add_argument("--u-inf", type=float, required=True, dest="u_inf",
                   help="at-infinity potential, J/kg")

    p = sub.add_parser("profile", help="profile CSV -> mass, mean density, "
                                       "grad-P, diagnostics")
    common(p)
    p.add_argument("--profile", required=True, help="profile CSV path")

    p = sub.add_parser("anomaly", help="buried sphere -> detectability table")
    common(p)
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
    common(p)
    p.add_argument("--schedule", required=True, help="schedule JSON path")
    p.add_argument("--times", default=None,
                   help="comma-separated sample times, s")
    p.add_argument("--num-samples", type=int, default=25, dest="num_samples",
                   help="uniform sample count when --times is absent "
                        f"(2 to {PULSE_MAX_SAMPLES})")

    return parser


_COMMANDS = {
    "direct": cmd_direct,
    "inverse": cmd_inverse,
    "profile": cmd_profile,
    "anomaly": cmd_anomaly,
    "pulse": cmd_pulse,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = resolve_config(args.config)
        report = _COMMANDS[args.command](cfg, args)
        fmt = args.format or cfg.output_format
        out_path = args.out or cfg.output_path
        emit(report, fmt, out_path)
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
    sys.exit(main())
