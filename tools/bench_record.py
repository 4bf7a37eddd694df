"""Record the benchmark's end-to-end figures of two commits as a JSON file.

Compares a base commit of this repository with the head: the tree under
review, that is the tracked files as they stand in the working tree
(``git stash create`` makes a commit of them without changing anything),
or ``HEAD`` when they hold no change. Each is extracted into a temporary
tree:

    python3 tools/bench_record.py --base <commit> --out BENCH_<n>.json

Runs ``perfbench/run.py --trace 0`` per workload that ``BENCHMARK.json``
names, each alone in a fresh process, because ``--workload all`` reports
one peak RSS across workloads, for the run length ``BENCHMARK.json`` sets.
The base and the head run in alternation, ``PAIRS`` pairs per workload,
and which side runs first swaps from one pair to the next, so that drift
on the machine falls on both sides alike. Per metric it writes the pairs,
both medians and quartiles, the head's win count (pairs where the head is
better, by the metric's ``better``) and the median ratio head / base,
with the two commits and the environment the figures depend on.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
PAIRS = 10
SIDES = ("base", "head")


def _run(argv, checkout):
    return subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          check=True).stdout


def _workload(spec, name, checkout):
    """The result line and the report of one run of workload `name`."""
    *_, report, result = _run(
        [sys.executable, *spec["command"][1:], "--workload", name,
         *_flags(spec)], checkout).splitlines()
    return json.loads(result), json.loads(report)["report"]


def _flags(spec):
    return ["--seed", str(SEED), "--seconds", str(spec["run_seconds"]),
            "--trace", "0"]


def _environment(report, checkout):
    """What the figures depend on; `report` holds what perfbench measured
    in its own children."""
    measured = report["environment"]
    return {
        "python": measured["python"],
        "numpy": measured["numpy"],
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "site_preloads_typing": _run(
            [sys.executable, "-c",
             "import sys; print('typing' in sys.modules)"],
            checkout).strip() == "True",
        "cpu_count": measured["nproc"],
    }


def summarize(pairs, better):
    """The medians, quartiles, head wins and median ratio of `pairs`, a
    list of [base, head] values of one metric."""
    base, head = zip(*pairs)
    base_median, head_median = statistics.median(base), statistics.median(head)
    return {
        "base_median": base_median,
        "base_quartiles": _quartiles(base),
        "head_median": head_median,
        "head_quartiles": _quartiles(head),
        "head_wins": sum(h < b if better == "lower" else h > b
                         for b, h in pairs),
        "median_ratio": head_median / base_median,
    }


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _extract(commit, tree):
    """Write the files of `commit` into `tree`; return its full hash."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return _run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
                ROOT).strip()


def _pair_workload(spec, name, trees):
    """Workload `name` run ``PAIRS`` times on each tree, in alternation,
    and the last run's report."""
    runs, results, report = [], [], None
    for k in range(PAIRS):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        run, result = {"first": order[0]}, {}
        for side in order:
            result[side], report = _workload(spec, name, trees[side])
            run[side] = {key: result[side][key]
                         for key in ("correct", "attempted", "failed")}
        runs.append(run)
        results.append(result)
    metrics = {}
    for metric in spec["end_to_end"]:
        values = [[result[side]["metrics"][metric["name"]]["value"]
                   for side in SIDES] for result in results]
        metrics[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"],
            "pairs": values, **summarize(values, metric["better"])}
    return {"runs": runs, "metrics": metrics}, report


def _head():
    """The commit of the tracked files as they stand in the working tree:
    the one ``git stash create`` makes, or ``HEAD`` when they are
    unchanged."""
    return _run(["git", "stash", "create"], ROOT).strip() or "HEAD"


def record_pairs(spec, base):
    """The pair record of commit `base` and the head (see the module
    docstring)."""
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        commits = {side: _extract(commit, trees[side])
                   for side, commit in zip(SIDES, (base, _head()))}
        workloads = {}
        for workload in spec["workloads"]:
            workloads[workload["name"]], report = _pair_workload(
                spec, workload["name"], trees)
        environment = _environment(report, trees["head"])
    return {
        "command": [*spec["command"], "--workload", "<name>", *_flags(spec)],
        "environment": environment,
        "commits": commits,
        "pairs": PAIRS,
        "workloads": workloads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="commit to compare the head against")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    record = record_pairs(spec, args.base)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
