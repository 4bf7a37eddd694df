"""Record the benchmark's end-to-end figures for one commit as a JSON file.

Runs ``perfbench/run.py --trace 0`` of a git checkout once per workload
that ``BENCHMARK.json`` names, each alone in a fresh process, because
``--workload all`` reports one peak RSS across workloads, for the run
length ``BENCHMARK.json`` sets. Writes each workload's result line and the
environment the figures depend on:

    python3 tools/bench_record.py --checkout <git checkout> --out BENCH_31.json

The checkout is measured as committed; run it from a clean clone of the
commit to record.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def _run(argv, checkout):
    return subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          check=True).stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    flags = ["--seed", str(SEED), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"]
    workloads = {}
    for workload in spec["workloads"]:
        *_, report, result = _run(
            [sys.executable, *spec["command"][1:], "--workload",
             workload["name"], *flags], checkout).splitlines()
        workloads[workload["name"]] = json.loads(result)
    # the report line holds what perfbench measured in its own children
    measured = json.loads(report)["report"]["environment"]
    record = {
        "command": [*spec["command"], "--workload", "<name>", *flags],
        "environment": {
            "python": measured["python"],
            "numpy": measured["numpy"],
            "PYTHONDONTWRITEBYTECODE":
                os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "site_preloads_typing": _run(
                [sys.executable, "-c",
                 "import sys; print('typing' in sys.modules)"],
                checkout).strip() == "True",
            "cpu_count": measured["nproc"],
            "commit": _run(["git", "rev-parse", "HEAD"], checkout).strip(),
        },
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
