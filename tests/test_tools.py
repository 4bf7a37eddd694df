import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_prem_fixture_rebuilds_byte_identical(tmp_path):
    # the tool writes tests/fixtures/prem20.csv relative to its working
    # directory, so it runs in a scratch tree, never in the repo
    (tmp_path / "tests" / "fixtures").mkdir(parents=True)
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "build_prem_fixture.py")],
        cwd=tmp_path, check=True, capture_output=True, timeout=120)
    built = (tmp_path / "tests" / "fixtures" / "prem20.csv").read_bytes()
    with open(os.path.join(ROOT, "tests", "fixtures", "prem20.csv"),
              "rb") as fh:
        assert built == fh.read()


def test_bench_record_summarizes_pairs_by_the_better_side():
    # a win is a pair where the head is better in the metric's direction;
    # a tie is no win, and the ratio is of the medians, head over base
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        from bench_record import summarize
    finally:
        sys.path.pop(0)
    pairs = [[2.0, 1.0], [4.0, 4.0], [1.0, 3.0], [3.0, 2.0], [5.0, 5.0]]
    lower, higher = summarize(pairs, "lower"), summarize(pairs, "higher")
    assert (lower["head_wins"], higher["head_wins"]) == (2, 1)
    assert lower["base_median"] == 3.0 and lower["head_median"] == 3.0
    assert lower["median_ratio"] == 1.0
    assert lower["base_quartiles"] == [1.5, 4.5]
    assert lower["head_quartiles"] == [1.5, 4.5]
    assert {k: v for k, v in lower.items() if k != "head_wins"} \
        == {k: v for k, v in higher.items() if k != "head_wins"}
