import glob
import json
import os
import re
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENVIRONMENT = {"python", "numpy", "PYTHONDONTWRITEBYTECODE",
               "site_preloads_typing", "cpu_count"}
SIDES = ("base", "head")
MIN_PAIRS = 10


def records():
    """Each committed BENCH_<n>.json, by path, and BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    found = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            found[path] = json.load(fh)
    return found, spec


def test_every_bench_file_holds_each_workload_and_its_environment():
    # a committed BENCH_<n>.json names every workload of BENCHMARK.json,
    # each with the six end-to-end metrics in their units, the run length
    # BENCHMARK.json sets, and the environment its figures were measured
    # in. A one-run file names its commit in the environment and holds
    # each workload's result line, correct with no failure; a pair file
    # names its two commits apart (see the test below).
    found, spec = records()
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for path, record in found.items():
        command = record["command"]
        assert command[:len(spec["command"])] == spec["command"], path
        assert float(command[command.index("--seconds") + 1]) \
            == spec["run_seconds"], path
        one_run = "commits" not in record
        environment = record["environment"]
        assert set(environment) == ENVIRONMENT | ({"commit"} if one_run
                                                  else set()), path
        assert all(environment[key] is not None for key in
                   set(environment) - {"PYTHONDONTWRITEBYTECODE"}), path
        assert list(record["workloads"]) == workloads, path
        for name, result in record["workloads"].items():
            metrics = result["metrics"]
            assert {key: m["unit"] for key, m in metrics.items()} == units, \
                (path, name)
            if one_run:
                assert result["correct"] is True and result["failed"] == 0, \
                    (path, name)
                assert all(isinstance(m["value"], float) and m["value"] > 0.0
                           for m in metrics.values()), (path, name)


def test_pair_files_compare_two_commits_and_agree_with_their_pairs():
    # a pair file holds both commits, at least MIN_PAIRS pairs per
    # workload with the side that runs first swapped each pair, and every
    # run correct with 0 failed. Per metric it holds its pairs, and the
    # medians, quartiles, head wins and median ratio of those pairs.
    found, spec = records()
    pair_files = {path: r for path, r in found.items() if "commits" in r}
    assert pair_files
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for path, record in pair_files.items():
        commits = record["commits"]
        assert list(commits) == list(SIDES), path
        assert all(re.fullmatch("[0-9a-f]{40}", commit)
                   for commit in commits.values()), path
        assert commits["base"] != commits["head"], path
        pairs = record["pairs"]
        assert isinstance(pairs, int) and pairs >= MIN_PAIRS, path
        for name, workload in record["workloads"].items():
            where = (path, name)
            runs = workload["runs"]
            assert [run["first"] for run in runs] \
                == [SIDES[k % 2] for k in range(pairs)], where
            assert all(run[side]["correct"] is True
                       and run[side]["failed"] == 0
                       for run in runs for side in SIDES), where
            for key, metric in workload["metrics"].items():
                where = (path, name, key)
                assert metric["better"] == better[key], where
                assert len(metric["pairs"]) == pairs, where
                assert all(isinstance(value, float) and value > 0.0
                           for pair in metric["pairs"] for value in pair), \
                    where
                columns = dict(zip(SIDES, zip(*metric["pairs"])))
                for side, column in columns.items():
                    q1, _, q3 = statistics.quantiles(column, n=4)
                    assert metric[f"{side}_median"] \
                        == statistics.median(column), where
                    assert metric[f"{side}_quartiles"] == [q1, q3], where
                wins = sum(head < base if better[key] == "lower"
                           else head > base for base, head in metric["pairs"])
                assert metric["head_wins"] == wins, where
                assert metric["median_ratio"] \
                    == metric["head_median"] / metric["base_median"], where
