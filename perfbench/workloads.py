"""The four workloads: one cycle of invocations each, built from a seed.

A workload is a closed loop over its cycle: one client starts the next
invocation only after the previous one exits, as scripts and people who
wait for each answer do. Each cycle entry is a JSON-ready dict:

- ``argv``: arguments after ``python -m geopotent`` (or after
  ``field_batch.py`` for ``field-batch``);
- ``check``: what ``check.check`` compares the output with;
- ``items``: work units the invocation completes;
- ``known_defect``: set on inputs that fail at the time of writing, so
  the report can say whether a failure is new.

Why each workload exists:

- ``cli-small``: everyday use on fixture-sized inputs. Import, config and
  render dominate; the only workload reaching ``solver.direct_problem``
  with ``--p-g``, ``inverse_problem`` and ``sphere_anomaly``.
- ``profile-dense``: parsing, validation, profile quadrature and the
  grad-P grid carry the work. Narrow knot pairs drive the grid size and
  the first knot sits above the centre, where Simpson is least exact.
- ``pulse-long``: ``segment_at``, the pulse loop, ``point_mass_signal``
  and CSV rendering dominate; profiles stay idle.
- ``field-batch``: ``sample_field`` is library-only; the only path
  through ``field`` and ``kernels.field_arrays``.
"""

import os

import numpy as np

import inputs
import oracle

# Sizes at which one invocation takes about a second or less, so a run
# holds enough invocations for a median and a tail with ten beyond it.
DENSE_KNOTS = 40_000
DENSE_MIN_GAP_M = 20.0
DENSE_PAIRS = 4
PULSE_SEGMENTS = 1_000
PULSE_SAMPLES = 20_000
FIELD_RADII = 150_000


class Workload:
    """Inputs on disk plus what checking and reporting need."""

    def __init__(self, name, import_target, item_unit):
        self.name = name
        self.import_target = import_target
        self.item_unit = item_unit
        self.cycle = []
        self.properties = {}
        self.ctx = {"profiles": {}, "profile_reports": {}, "schedules": {}}

    def add(self, argv, check, items=1, known_defect=None, mode="cli"):
        self.cycle.append({"argv": [str(a) for a in argv], "check": check,
                           "items": items, "known_defect": known_defect,
                           "mode": mode})

    def add_profile(self, key, prof):
        exact = oracle.ExactProfile(prof["radii"], prof["densities"],
                                    prof["pressures"])
        self.ctx["profiles"][key] = exact
        self.ctx["profile_reports"][key] = oracle.profile_report(exact)


def _both_formats(wl, argv, check):
    for fmt in ("csv", "json"):
        wl.add([*argv, "--format", fmt], {**check, "format": fmt})


def cli_small(rng, tmp):
    wl = Workload("cli-small", "geopotent.cli", "invocations")
    widths = [float(w) for w in rng.uniform(2e4, 4e4, size=2)]
    prof = inputs.make_profile(rng, 20, 0.0, widths)
    path = os.path.join(tmp, "prem_like.csv")
    inputs.write_profile(path, prof)
    wl.add_profile("prem_like", prof)

    schedule = inputs.make_schedule(rng, 10, span=86400.0)
    sched_path = os.path.join(tmp, "schedule.json")
    inputs.write_json(sched_path, schedule)
    wl.ctx["schedules"]["small"] = schedule
    inner = [schedule["segments"][k]["t_start"] for k in (3, 6)]
    times = sorted([0.0, *inner, 86400.0,
                    *(float(t) for t in rng.uniform(0.0, 86400.0, size=4))])

    p_g = float(rng.uniform(1e11, 4e11))
    u_inf = float(rng.uniform(5e7, 1.5e8))
    case = inputs.anomaly_case(rng)

    _both_formats(wl, ["direct", "--p-g", repr(p_g)],
                  {"kind": "direct", "p_g": p_g})
    _both_formats(wl, ["direct", "--profile", path],
                  {"kind": "direct", "profile": "prem_like"})
    _both_formats(wl, ["inverse", "--u-inf", repr(u_inf)],
                  {"kind": "inverse", "u_inf": u_inf})
    _both_formats(wl, ["profile", "--profile", path],
                  {"kind": "profile", "profile": "prem_like"})
    _both_formats(wl, inputs.anomaly_argv(case), {"kind": "anomaly", **case})
    _both_formats(wl, ["pulse", "--schedule", sched_path,
                       "--times", inputs.fmt_list(times)],
                  {"kind": "pulse", "schedule": "small", "times": times})

    # malformed inputs, one per error class the README documents
    error = {"kind": "error"}
    for kind in ("bad_header", "non_numeric", "non_monotone"):
        bad = os.path.join(tmp, f"{kind}.csv")
        inputs.write_text(bad, inputs.malformed_profile_lines(rng, prof, kind))
        wl.add(["profile", "--profile", bad], error)
    bad_schedule = {**schedule, "segments": [dict(s) for s in
                                             schedule["segments"]]}
    bad_schedule["segments"][int(rng.integers(0, 10))]["kind"] = "exponential"
    bad_path = os.path.join(tmp, "unknown_kind.json")
    inputs.write_json(bad_path, bad_schedule)
    wl.add(["pulse", "--schedule", bad_path], error)
    wl.add(["inverse", "--u-inf", repr(-u_inf)], error)
    wl.add(["direct", "--p-g", "nan"], error)
    wl.add(inputs.anomaly_argv(case, ["--g0", "inf"]), error,
           known_defect="anomaly --g0 inf: ZeroDivisionError traceback, exit 1")
    wl.add(inputs.anomaly_argv(case, ["--u0", "nan"]), error,
           known_defect="anomaly --u0 nan: exit 0 with nan cells")

    wl.properties = {"profile": prof["properties"],
                     "schedule": inputs.schedule_properties(schedule,
                                                            len(times)),
                     "anomaly_offsets": len(case["offsets"]),
                     "invocations_per_cycle": len(wl.cycle),
                     "malformed_per_cycle": sum(
                         1 for inv in wl.cycle
                         if inv["check"]["kind"] == "error")}
    return wl


def profile_dense(rng, tmp):
    wl = Workload("profile-dense", "geopotent.cli", "knots")
    widths = [DENSE_MIN_GAP_M] + [
        float(w) for w in rng.uniform(2.0, 4.0, size=DENSE_PAIRS - 1)
        * DENSE_MIN_GAP_M]
    first = float(rng.uniform(50.0, 150.0))
    prof = inputs.make_profile(rng, DENSE_KNOTS, first, widths)
    path = os.path.join(tmp, "dense.csv")
    inputs.write_profile(path, prof)
    wl.add_profile("dense", prof)
    knots = prof["properties"]["knots"]
    # JSON carries full precision, so the quadrature error is not hidden
    # under the 10 digits of a CSV cell
    for command in ("profile", "direct"):
        wl.add([command, "--profile", path, "--format", "json"],
               {"kind": command, "profile": "dense", "format": "json"},
               items=knots)
    wl.properties = {"profile": prof["properties"]}
    return wl


def pulse_long(rng, tmp):
    wl = Workload("pulse-long", "geopotent.cli", "samples")
    schedule = inputs.make_schedule(rng, PULSE_SEGMENTS)
    path = os.path.join(tmp, "long_schedule.json")
    inputs.write_json(path, schedule)
    wl.ctx["schedules"]["long"] = schedule
    times = inputs.uniform_times(0.0, schedule["segments"][-1]["t_end"],
                                 PULSE_SAMPLES)
    wl.add(["pulse", "--schedule", path, "--num-samples", PULSE_SAMPLES],
           {"kind": "pulse", "schedule": "long", "times": times,
            "format": "csv"},
           items=PULSE_SAMPLES)
    wl.properties = {"schedule": inputs.schedule_properties(schedule,
                                                            PULSE_SAMPLES)}
    return wl


def field_batch(rng, tmp):
    wl = Workload("field-batch", "geopotent", "radii")
    radius = float(rng.uniform(1e6, 7e6))
    mass = float(4.0 / 3.0 * np.pi * radius ** 3 * rng.uniform(3000.0, 6000.0))
    radii = inputs.make_radii(rng, FIELD_RADII, radius)
    path = os.path.join(tmp, "radii.npy")
    np.save(path, radii)
    wl.add([path, repr(mass), repr(radius)],
           {"kind": "field", "radii": FIELD_RADII}, items=FIELD_RADII,
           mode="field")
    wl.properties = {"radii": FIELD_RADII,
                     "inside_share": float(np.mean(radii <= radius)),
                     "includes_zero_and_surface": bool(
                         np.any(radii == 0.0) and np.any(radii == radius))}
    return wl


BY_NAME = {"cli-small": cli_small, "profile-dense": profile_dense,
            "pulse-long": pulse_long, "field-batch": field_batch}
WORKLOADS = tuple(BY_NAME)


def build(name, seed, tmp):
    return BY_NAME[name](np.random.default_rng(seed), tmp)
