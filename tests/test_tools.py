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
