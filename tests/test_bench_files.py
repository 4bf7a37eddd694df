import glob
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENVIRONMENT = {"python", "numpy", "PYTHONDONTWRITEBYTECODE",
               "site_preloads_typing", "cpu_count", "commit"}


def test_every_bench_file_holds_each_workload_and_its_environment():
    # a committed BENCH_<n>.json names every workload of BENCHMARK.json,
    # each run correct with no failure and with the six end-to-end
    # metrics in their units, the run length BENCHMARK.json sets, and the
    # environment its figures were measured in
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        command = record["command"]
        assert command[:len(spec["command"])] == spec["command"], path
        assert float(command[command.index("--seconds") + 1]) \
            == spec["run_seconds"], path
        environment = record["environment"]
        assert set(environment) == ENVIRONMENT, path
        assert all(environment[key] is not None for key in
                   ENVIRONMENT - {"PYTHONDONTWRITEBYTECODE"}), path
        assert list(record["workloads"]) == workloads, path
        for name, result in record["workloads"].items():
            assert result["correct"] is True and result["failed"] == 0, \
                (path, name)
            metrics = result["metrics"]
            assert {key: m["unit"] for key, m in metrics.items()} == units, \
                (path, name)
            assert all(isinstance(m["value"], float) and m["value"] > 0.0
                       for m in metrics.values()), (path, name)
