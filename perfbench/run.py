"""geopotent benchmark: fresh-process workloads, checked against an oracle.

Run from the repository root; the package is used from ``src`` as is:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload

``--trace 0`` runs the workload as users do: a closed loop of fresh
``python -m geopotent ...`` processes (``PYTHONPATH=src``), timed from
spawn to exit, with each child's CPU time and peak RSS from ``os.wait4``.
It reports the end-to-end metrics (see ``untraced_run``). ``--trace 1``
runs the same cycle in-process with spans around the program's public
functions (``tracer.py``) and reports the per-layer metrics, per cycle.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is the full report:
environment, input properties, failure reasons, ``failed_frac`` and
``rel_err_max`` against the oracle, and the traced call tree.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 15
BLOCK_S = 2.5
IMPORTTIME_RUNS = 5
# One run must end within 180 s, set-up included.
WATCHDOG_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "wall_p50_s": "s", "wall_tail_s": "s", "cpu_p50_s": "s",
    "items_per_s": "items/s", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "import.numpy_s": "s", "import.geopotent_s": "s",
    "config.resolve_config_s": "s",
    "cli.read_profile_csv_s": "s", "core.validate_profile_s": "s",
    "cli.read_schedule_json_s": "s", "core.schedule_build_s": "s",
    "cli.render_s": "s", "cli.output_bytes": "B", "cli.self_s": "s",
    "core.segment_at_s": "s", "core.segment_at_calls": "count",
    "core.segments_scanned": "count",
    "profiles.enclosed_mass_s": "s", "profiles.mean_density_s": "s",
    "profiles.surface_potential_integral_s": "s",
    "profiles.core_equilibrium_gravity_s": "s",
    "profiles.pressure_gradient_max_s": "s", "profiles.self_s": "s",
    "profiles.knots": "count",
    "kernels.mass_table_builds": "count", "kernels.grid_points": "count",
    "kernels.cumulative_mass_s": "s", "kernels.integral_m_over_r2_s": "s",
    "kernels.grad_grid_points": "count", "kernels.max_abs_gradient_s": "s",
    "profiles.pressure_gradient_max_peak_mb": "MB",
    "kernels.computed_bytes": "B",
    "solver.homogeneity_bound_s": "s",
    "anomaly.point_mass_signal_s": "s", "anomaly.point_mass_signal_calls": "count",
    "pulse.evaluate_schedule_s": "s", "pulse.samples": "count",
    "field.sample_field_s": "s", "kernels.field_arrays_s": "s",
    "field.samples": "count", "field.sample_field_peak_mb": "MB",
    "trace.overhead_frac": "frac",
}


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def child_env(root):
    env = {k: v for k, v in os.environ.items()
           if k not in ("GEOPOTENT_CONFIG", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(argv, env, cwd, out_path, err_path):
    """Run one child to completion: (exit code, wall s, rusage)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    # the child is reaped: tell Popen, which would otherwise wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def command(inv):
    if inv["mode"] == "field":
        return [sys.executable, os.path.join(HERE, "field_batch.py"),
                *inv["argv"]]
    return [sys.executable, "-m", "geopotent", *inv["argv"]]


def probe(root, env, tmp, code, flags=()):
    out, err = os.path.join(tmp, "probe.out"), os.path.join(tmp, "probe.err")
    rc, wall, _ = spawn([sys.executable, *flags, "-c", code], env, root, out,
                        err)
    if rc != 0:
        raise RuntimeError(f"python -c {code!r} failed: {_read(err)[-500:]}")
    return wall, _read(out), _read(err)


def environment(root, env, tmp):
    _, out, _ = probe(root, env, tmp, (
        "import json, numpy, geopotent, geopotent.cli, geopotent.kernels as k;"
        "print(json.dumps({'numpy': numpy.__version__,"
        " 'geopotent': geopotent.__version__,"
        " 'using_numba': bool(getattr(k, 'USING_NUMBA', False))}))"))
    record = json.loads(out)
    record.update(python=platform.python_version(), nproc=os.cpu_count(),
                  cpus_usable=len(os.sched_getaffinity(0)),
                  machine=platform.machine())
    return record


def import_breakdown(root, env, tmp, target):
    """Median cumulative import seconds from ``-X importtime``.

    Covers numpy and every geopotent module; ``import.numpy_s`` is numpy's
    share and ``import.geopotent_s`` the rest of importing `target`.
    """
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        _, _, err = probe(root, env, tmp, f"import {target}",
                          ("-X", "importtime"))
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 \
                    and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        runs.append(cumulative)
    names = [n for n in runs[0]
             if n == "numpy" or n == "geopotent" or n.startswith("geopotent.")]
    return {n: statistics.median(r.get(n, 0.0) for r in runs) for n in names}


def tail(walls):
    """Highest percentile with at least ten invocations beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def blocks(records, cycle_len):
    """Consecutive whole cycles grouped into blocks of >= BLOCK_S of walls."""
    out, block = [], []
    for i in range(0, len(records), cycle_len):
        block += records[i:i + cycle_len]
        if sum(r["wall"] for r in block) >= BLOCK_S:
            out.append(block)
            block = []
    if block:  # the short remainder joins the last block
        if out:
            out[-1] += block
        else:
            out.append(block)
    return out


def untraced_run(wl, root, env, tmp, seconds):
    """Closed loop of fresh processes over whole cycles for `seconds`.

    Set-up probes (a fresh interpreter that imports what the workload
    imports, then exits) are spread over the run, so they see the same
    machine load as the invocations.

    The machine a run shares can slow down for seconds at a time, which
    makes the median of single short invocations jump between a fast and
    a slow mode from run to run. ``wall_p50_s``, ``cpu_p50_s`` and
    ``items_per_s`` are therefore medians over blocks of whole cycles at
    least BLOCK_S long, of the per-invocation mean within each block.
    The tail is taken over single invocations.
    """
    out, err = os.path.join(tmp, "inv.out"), os.path.join(tmp, "inv.err")
    setup_code = f"import {wl.import_target}"
    records, setup = [], []
    start = time.perf_counter()
    cycle_s = 0.0
    # whole cycles only, so every run has the same mix of invocations
    while not records or time.perf_counter() - start + cycle_s / 2 < seconds:
        cycle_start = time.perf_counter()
        for inv in wl.cycle:
            if len(setup) < SETUP_RUNS * (time.perf_counter() - start) / seconds:
                setup.append(probe(root, env, tmp, setup_code)[0])
            code, wall, usage = spawn(command(inv), env, root, out, err)
            ok, reason, errors = check.check(inv, code, _read(out),
                                             _read(err), wl.ctx)
            records.append({"wall": wall,
                            "cpu": usage.ru_utime + usage.ru_stime,
                            "rss_kb": usage.ru_maxrss, "ok": ok,
                            "reason": reason, "errors": errors,
                            "items": inv["items"],
                            "known_defect": inv["known_defect"]})
        cycle_s = time.perf_counter() - cycle_start
    while len(setup) < SETUP_RUNS:
        setup.append(probe(root, env, tmp, setup_code)[0])
    groups = blocks(records, len(wl.cycle))
    tail_s, tail_pct = tail([r["wall"] for r in records])
    metrics = {
        "wall_p50_s": statistics.median(
            statistics.mean(r["wall"] for r in b) for b in groups),
        "wall_tail_s": tail_s,
        "cpu_p50_s": statistics.median(
            statistics.mean(r["cpu"] for r in b) for b in groups),
        # over the program's own time, not the benchmark's checks
        "items_per_s": statistics.median(
            sum(r["items"] for r in b) / sum(r["wall"] for r in b)
            for b in groups),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
        "setup_s": statistics.median(setup),
    }
    extra = {"cycles": len(records) // len(wl.cycle), "blocks": len(groups),
             "invocations": len(records),
             "wall_tail_percentile": round(tail_pct, 1),
             "setup_runs_s": setup}
    return metrics, records, extra


def _median_over_cycles(cycles, fn):
    return statistics.median(fn(c) for c in cycles)


def _span(cycle, name, field):
    entry = cycle["spans"].get(name)
    return entry[field] if entry else 0


def per_layer(result, imports, import_target):
    cycles = result["cycles"]
    calls, incl, own = 0, 1, 2

    def self_s(*names):
        return _median_over_cycles(
            cycles, lambda c: sum(_span(c, n, own) for n in names))

    def layer_self(prefix):
        return _median_over_cycles(cycles, lambda c: sum(
            v[own] for k, v in c["spans"].items() if k.startswith(prefix)))

    first = cycles[0]
    counts = first["counts"]
    metrics = {
        "import.numpy_s": imports.get("numpy", 0.0),
        "import.geopotent_s": imports[import_target]
        - imports.get("numpy", 0.0),
        "config.resolve_config_s": self_s("config.resolve_config"),
        "cli.read_profile_csv_s": self_s("cli.read_profile_csv"),
        "core.validate_profile_s": self_s("core.validate_profile"),
        "cli.read_schedule_json_s": self_s("cli.read_schedule_json"),
        "core.schedule_build_s": self_s("core.schedule_build"),
        "cli.render_s": self_s("cli.render_csv", "cli.render_json"),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "cli.self_s": self_s("cli.main", "cli.build_parser", "cli.emit"),
        "core.segment_at_s": self_s("core.segment_at"),
        "core.segment_at_calls": _span(first, "core.segment_at", calls),
        "core.segments_scanned": counts.get("core.segments_scanned", 0),
        "profiles.enclosed_mass_s": self_s("profiles.enclosed_mass"),
        "profiles.mean_density_s": self_s("profiles.mean_density"),
        "profiles.surface_potential_integral_s":
            self_s("profiles.surface_potential_integral"),
        "profiles.core_equilibrium_gravity_s":
            self_s("profiles.core_equilibrium_gravity"),
        "profiles.pressure_gradient_max_s": _median_over_cycles(
            cycles, lambda c: _span(c, "profiles.pressure_gradient_max", incl)),
        "profiles.self_s": layer_self("profiles."),
        "profiles.knots": counts.get("profiles.knots", 0),
        "kernels.mass_table_builds":
            _span(first, "kernels.cumulative_mass", calls),
        "kernels.grid_points": counts.get("kernels.grid_points", 0),
        "kernels.cumulative_mass_s": self_s("kernels.cumulative_mass"),
        "kernels.integral_m_over_r2_s": self_s("kernels.integral_m_over_r2"),
        "kernels.grad_grid_points": counts.get("kernels.grad_grid_points", 0),
        "kernels.max_abs_gradient_s": self_s("kernels.max_abs_gradient"),
        "profiles.pressure_gradient_max_peak_mb": result["peak_bytes"].get(
            "profiles.pressure_gradient_max", 0) / 2 ** 20,
        "kernels.computed_bytes": counts.get("kernels.computed_bytes", 0),
        "solver.homogeneity_bound_s": self_s("solver.homogeneity_bound"),
        "anomaly.point_mass_signal_s": self_s("anomaly.point_mass_signal"),
        "anomaly.point_mass_signal_calls":
            _span(first, "anomaly.point_mass_signal", calls),
        "pulse.evaluate_schedule_s": self_s("pulse.evaluate_schedule"),
        "pulse.samples": counts.get("pulse.samples", 0),
        "field.sample_field_s": self_s("field.sample_field"),
        "kernels.field_arrays_s": self_s("kernels.field_arrays"),
        "field.samples": counts.get("field.samples", 0),
        "field.sample_field_peak_mb": result["peak_bytes"].get(
            "field.sample_field", 0) / 2 ** 20,
        # cycles alternate untraced and traced: compare each pair
        "trace.overhead_frac": statistics.median(
            t / u for t, u in zip(result["traced_cycle_s"],
                                  result["untraced_cycle_s"])) - 1.0,
    }
    return metrics


def traced_run(wl, root, env, tmp, seconds):
    spec_path = os.path.join(tmp, "trace_spec.json")
    out_path = os.path.join(tmp, "trace_out.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"cycle": wl.cycle, "seconds": seconds}, fh)
    code, _, _ = spawn([sys.executable, os.path.join(HERE, "tracer.py"),
                        spec_path, out_path], env, root,
                       os.path.join(tmp, "trace.out"),
                       os.path.join(tmp, "trace.err"))
    if code != 0:
        raise RuntimeError("traced run failed: "
                           + _read(os.path.join(tmp, "trace.err"))[-2000:])
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    records = []
    for inv, (rc, out, err) in zip(wl.cycle, result["reference"]):
        ok, reason, errors = check.check(inv, rc, out, err, wl.ctx)
        records.append({"ok": ok, "reason": reason, "errors": errors,
                        "known_defect": inv["known_defect"]})
    return result, records


def summarize(records, cycles=1, mismatches=0):
    failed = [r for r in records if not r["ok"]]
    reasons = {}
    for r in failed:
        reasons[r["reason"]] = reasons.get(r["reason"], 0) + cycles
    unexpected = [r for r in failed if not r["known_defect"]]
    errors = {}
    for r in records:
        for key, err in r["errors"].items():
            errors[key] = max(errors.get(key, 0.0), err)
    return {
        "attempted": len(records) * cycles,
        "failed": len(failed) * cycles + mismatches,
        "unexpected_failures": len(unexpected) * cycles + mismatches,
        "rel_err_max": max(errors.values(), default=0.0),
        "rel_err_by_output": dict(sorted(errors.items(),
                                         key=lambda kv: -kv[1])),
        "failure_reasons": reasons,
        "known_defects_still_failing": sorted({r["known_defect"]
                                               for r in failed
                                               if r["known_defect"]}),
    }


def run_workload(name, seed, seconds, trace, root):
    env = child_env(root)
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    try:
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, tmp)
        report = {"workload": name, "seed": seed, "trace": trace,
                  "seconds": seconds, "loop": "closed, one client",
                  "item_unit": wl.item_unit, "inputs": wl.properties,
                  "import_target": wl.import_target,
                  "input_generation_s": time.perf_counter() - t0,
                  "environment": environment(root, env, tmp)}
        if trace:
            imports = import_breakdown(root, env, tmp, wl.import_target)
            result, records = traced_run(wl, root, env, tmp, seconds)
            cycles = len(result["traced_cycle_s"])
            summary = summarize(records, cycles, result["mismatches"])
            metrics = per_layer(result, imports, wl.import_target)
            units = PER_LAYER_UNITS
            report.update(
                importtime_cumulative_s=imports,
                traced_cycles=cycles,
                untraced_cycles=len(result["untraced_cycle_s"]),
                stdout_mismatches=result["mismatches"],
                wrappers_removed=result["wrappers_removed"],
                missing_spans=result["missing_spans"],
                counts_repeat=all(c["counts"] == result["cycles"][0]["counts"]
                                  for c in result["cycles"]),
                call_tree=result["cycles"][0]["edges"])
            correct = (summary["unexpected_failures"] == 0
                       and result["wrappers_removed"])
        else:
            metrics, records, extra = untraced_run(wl, root, env, tmp,
                                                   seconds)
            summary = summarize(records)
            units = END_TO_END_UNITS
            report.update(extra)
            correct = summary["unexpected_failures"] == 0
        report.update(summary)
        report["failed_frac"] = summary["failed"] / summary["attempted"]
        result_line = {
            "correct": correct,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units},
        }
        return report, result_line
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run still uses it
            pass


def print_table(name, report, result_line):
    for key, m in result_line["metrics"].items():
        print(f"{name:14s} {key:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:14s} {'failed_frac':42s} {report['failed_frac']:14.6g} 1")
    print(f"{name:14s} {'rel_err_max':42s} {report['rel_err_max']:14.6g} 1")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "geopotent", "cli.py")):
        print("perfbench: run from the repository root; src/geopotent is "
              "missing here", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if len(names) == 1:
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(WATCHDOG_S)
    results = {}
    for name in names:
        report, result_line = run_workload(name, args.seed, args.seconds,
                                           args.trace, root)
        if len(names) > 1:
            print_table(name, report, result_line)
        print(json.dumps({"report": report}))
        results[name] = result_line
    signal.alarm(0)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
