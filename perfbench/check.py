"""Output contract and oracle comparison for one CLI invocation.

The contract (README exit codes, ROADMAP aim 3): the exit code is 0, 2
or 3, nothing prints a traceback, and an exit-0 report holds no ``nan``
or ``inf`` cell. Valid inputs must exit 0 and agree with ``oracle``;
malformed inputs must exit 2 or 3.

Tolerances, each relative to the scale named at its use:

- ``EXACT``: closed forms. CSV cells carry 10 significant digits, so
  rounding alone reaches 5e-10.
- ``GRID``: the steepest gradient, a central difference on a float grid
  a few metres wide at radii of 1e6 m.
- ``QUAD``: the centre-to-surface potential integral, which the program
  approximates with refined-grid Simpson (up to 2.3e-5 off when the
  first radius is above zero).
- ``DELTA_V``: ``delta_v_s`` is formed as the difference of two speeds of
  about 7.9e3 m/s, so it carries ~1e-12 m/s of roundoff against signals
  as small as 1e-6 m/s.
"""

import json
import math

import numpy as np

import oracle

EXACT = 1e-9
GRID = 1e-6
QUAD = 1e-4
DELTA_V = 1e-5

OK_EXITS = {0, 2, 3}


def _cell(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text):
    """CSV report -> the dict shape of the JSON report."""
    lines = text.splitlines()
    report = {"command": lines[0].split()[-1], "result": {}, "tables": []}
    i = 1
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        section, _, name = key.partition(".")
        report.setdefault(section, {})[name] = _cell(value)
        i += 1
    rest = [line.split(",") for line in lines[i:]]
    if report["command"] == "pulse":
        header = rest[0]
        report["rows"] = [dict(zip(header, map(_cell, r))) for r in rest[1:]]
        return report
    if rest and rest[0] == ["field", "value"]:
        i = 1
        while i < len(rest) and len(rest[i]) == 2:
            report["result"][rest[i][0]] = _cell(rest[i][1])
            i += 1
        rest = rest[i:]
    if rest:
        header = rest[0]
        report["tables"].append({"columns": header, "rows": [
            dict(zip(header, map(_cell, r))) for r in rest[1:]]})
    return report


def _non_finite(obj):
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(_non_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_non_finite(v) for v in obj)
    return False


class Compare:
    """Collects relative errors per output and the checks that missed."""

    def __init__(self):
        self.errors = {}
        self.misses = []

    def close(self, name, got, want, tol, scale=None):
        scale = abs(want) if scale is None else scale
        diff = abs(got - want)
        err = diff / scale if scale > 0.0 else (0.0 if diff == 0.0 else math.inf)
        # one entry per output column, whatever the row
        key = name.split("[")[0].split()[-1]
        self.errors[key] = max(self.errors.get(key, 0.0), err)
        if not err <= tol:
            self.misses.append(f"{name}: got {got!r}, want {want!r} "
                               f"(rel {err:.3g} > {tol:g})")

    def equal(self, name, got, want):
        if got != want:
            self.misses.append(f"{name}: got {got!r}, want {want!r}")

    def truth(self, name, cond):
        if not cond:
            self.misses.append(name)


def _check_constants(cmp, report):
    cmp.close("constants.gamma", report["constants"]["gamma"], oracle.GAMMA,
              EXACT)
    for key, want in oracle.EARTH.items():
        cmp.close(f"earth.{key}", report["earth"][key], want, EXACT)


def _check_direct(cmp, report, spec, ctx):
    p_g = report["inputs"]["p_g"]
    if "p_g" in spec:
        cmp.close("inputs.p_g", p_g, spec["p_g"], EXACT)
    else:
        # the pressure at the steepest point lies inside the steepest segment
        prof = ctx["profiles"][spec["profile"]]
        seg, _ = prof.steepest_segment()
        hi, lo = prof.p[seg], prof.p[seg + 1]
        cmp.truth(f"inputs.p_g {p_g!r} outside steepest segment "
                  f"[{lo!r}, {hi!r}]",
                  lo * (1 - EXACT) <= p_g <= hi * (1 + EXACT))
    for key, want in oracle.direct_report(p_g).items():
        cmp.close(key, report["result"][key], want, EXACT)


def _check_inverse(cmp, report, spec, ctx):
    want = oracle.inverse_report(spec["u_inf"])
    result = report["result"]
    cmp.close("r0_m", result["r0_m"], want["r0_m"], EXACT)
    cmp.close("depth_m", result["depth_m"], want["depth_m"], EXACT,
              scale=oracle.EARTH["mean_radius"])
    cmp.equal("trend", result["trend"], want["trend"])
    _check_rows(cmp, report["tables"][0]["rows"], want["rows"],
                {"radius_m": EXACT, "offset_m": EXACT},
                scales={"offset_m": oracle.EARTH["mean_radius"]})


def _check_rows(cmp, got_rows, want_rows, tols, scales=None):
    scales = scales or {}
    cmp.equal("row count", len(got_rows), len(want_rows))
    for k, (got, want) in enumerate(zip(got_rows, want_rows)):
        for key, value in want.items():
            if key in tols:
                cmp.close(f"row {k} {key}", got[key], value, tols[key],
                          scale=scales.get(key))
            else:
                cmp.equal(f"row {k} {key}", got[key], value)


def _check_profile(cmp, report, spec, ctx):
    prof = ctx["profiles"][spec["profile"]]
    want = ctx["profile_reports"][spec["profile"]]
    result = report["result"]
    for key in ("body_radius_m", "total_mass_kg", "mean_density_kg_m3",
                "homogeneity_uniform_j_kg"):
        cmp.close(key, result[key], want[key], EXACT)
    cmp.close("homogeneity_integral_j_kg", result["homogeneity_integral_j_kg"],
              want["homogeneity_integral_j_kg"], QUAD)
    # the gap is itself a ratio: compare it absolutely
    cmp.close("homogeneity_relative_gap", result["homogeneity_relative_gap"],
              want["homogeneity_relative_gap"], QUAD, scale=1.0)
    cmp.equal("homogeneity_holds", result["homogeneity_holds"],
              want["homogeneity_relative_gap"] <= 1e-9)
    cmp.close("grad_p_gradient_pa_m", result["grad_p_gradient_pa_m"],
              want["grad_p_gradient_pa_m"], GRID)
    lo, hi = want["grad_p_segment"]
    radius = result["grad_p_radius_m"]
    cmp.truth(f"grad_p_radius_m {radius!r} outside steepest segment "
              f"[{lo!r}, {hi!r}]",
              lo * (1 - EXACT) <= radius <= hi * (1 + EXACT))
    cmp.close("grad_p_pressure_pa", result["grad_p_pressure_pa"],
              prof.pressure_at(radius), EXACT, scale=float(prof.p[0]))
    _check_rows(cmp, report["tables"][0]["rows"], want["rows"],
                {"radius_m": EXACT, "equilibrium_gravity_m_s2": EXACT})


_ANOMALY_TOLS = {key: EXACT for key in (
    "offset_m", "k1", "k2", "k_ratio", "delta_u_j_kg", "delta_g_m_s2",
    "relative_u", "relative_g", "advantage")}
_ANOMALY_TOLS["delta_v_s_m_s"] = DELTA_V


def _check_anomaly(cmp, report, spec, ctx):
    background = oracle.surface_background()
    want = oracle.anomaly_rows(spec["depth"], spec["radius"],
                               spec["density_contrast"], spec["offsets"],
                               background)
    _check_rows(cmp, report["tables"][0]["rows"], want, _ANOMALY_TOLS)


def _check_pulse(cmp, report, spec, ctx):
    schedule = ctx["schedules"][spec["schedule"]]
    rows = report["rows"]
    want = oracle.pulse_rows(schedule, spec["times"],
                             oracle.surface_background())
    cmp.equal("row count", len(rows), len(spec["times"]))
    if len(rows) != len(spec["times"]):
        return
    for key, col in want.items():
        got = np.array([row[key] for row in rows], dtype=np.float64)
        if key.startswith("delta_"):
            # deltas start at exactly zero: judge them on the column's scale
            scale = float(np.max(np.abs(col)))
            tol = DELTA_V if key == "delta_v_s_m_s" else EXACT
            cmp.close(key, float(np.max(np.abs(got - col))), 0.0, tol,
                      scale=scale)
        else:
            rel = np.abs(got - col) / np.where(col != 0.0, np.abs(col), 1.0)
            worst = int(np.argmax(rel))
            cmp.close(f"{key}[{worst}]", float(got[worst]), float(col[worst]),
                      EXACT)


_CHECKS = {"direct": _check_direct, "inverse": _check_inverse,
           "profile": _check_profile, "anomaly": _check_anomaly,
           "pulse": _check_pulse}


def check_field(cmp, stdout, spec, ctx):
    """``field_batch.py`` prints its own oracle comparison as JSON."""
    summary = json.loads(stdout.splitlines()[-1])
    cmp.equal("samples", summary["samples"], spec["radii"])
    cmp.truth("non-finite field values", summary["non_finite"] == 0)
    cmp.close("sample_field", summary["rel_err_max"], 0.0, EXACT, scale=1.0)


def check(inv, exit_code, stdout, stderr, ctx):
    """Judge one invocation.

    Returns (ok, reason, errors): ``reason`` says why the invocation
    failed, or is empty, and ``errors`` maps each output compared with
    the oracle to its largest relative error.
    """
    if "Traceback (most recent call last)" in stderr:
        return False, f"traceback, exit {exit_code}", {}
    if exit_code not in OK_EXITS:
        return False, f"exit {exit_code} not in {{0, 2, 3}}", {}
    spec = inv["check"]
    if spec["kind"] == "error":
        if exit_code == 0:
            return False, "malformed input accepted with exit 0", {}
        return True, "", {}
    if exit_code != 0:
        return False, (f"valid input failed with exit {exit_code}: "
                       f"{stderr.strip()[-200:]}"), {}
    cmp = Compare()
    try:
        if spec["kind"] == "field":
            check_field(cmp, stdout, spec, ctx)
        else:
            fmt = spec["format"]
            report = json.loads(stdout) if fmt == "json" else parse_csv(stdout)
            if _non_finite(report):
                return False, "nan/inf cell in an exit-0 report", {}
            cmp.equal("command", report["command"], spec["kind"])
            _check_constants(cmp, report)
            _CHECKS[spec["kind"]](cmp, report, spec, ctx)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return False, f"unreadable output: {exc!r}", cmp.errors
    return not cmp.misses, "; ".join(cmp.misses[:3]), cmp.errors
