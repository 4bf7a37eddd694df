"""Self-tests of the benchmark: ``python -m pytest perfbench -q`` from the root."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli_small(tmp_path_factory):
    return workloads.build("cli-small", 7, str(tmp_path_factory.mktemp("in")))


def _traced(invs):
    tr = tracer.Tracer()
    tr.install()
    try:
        out = []
        for k, inv in enumerate(invs):
            tr.begin(k)
            out.append(tracer.run_one(inv))
        return out, tr
    finally:
        tr.uninstall()


def test_traced_stdout_is_byte_identical_to_fresh_process(cli_small, tmp_path):
    env = run.child_env(ROOT)
    out_path, err_path = str(tmp_path / "out"), str(tmp_path / "err")
    traced, _ = _traced(cli_small.cycle)
    for inv, (code, stdout, _) in zip(cli_small.cycle, traced):
        fresh_code, _, _ = run.spawn(run.command(inv), env, ROOT, out_path,
                                     err_path)
        with open(out_path, "rb") as fh:
            assert fh.read() == stdout.encode("utf-8"), inv["argv"]
        assert fresh_code == code, inv["argv"]


def test_only_known_defects_fail(cli_small):
    traced, _ = _traced(cli_small.cycle)
    failed = set()
    for inv, (code, out, err) in zip(cli_small.cycle, traced):
        ok, reason, _ = check.check(inv, code, out, err, cli_small.ctx)
        if not ok:
            failed.add(inv["known_defect"] or reason)
    known = {inv["known_defect"] for inv in cli_small.cycle
             if inv["known_defect"]}
    assert failed == known


def test_oracle_agrees_with_quad():
    integrate = pytest.importorskip("scipy.integrate")
    prof = inputs.make_profile(np.random.default_rng(5), 40, 3.0e5,
                               [25.0, 80.0])
    exact = oracle.ExactProfile(prof["radii"], prof["densities"],
                                prof["pressures"])
    knots = exact.r.tolist()

    def rho(s):
        return np.interp(s, exact.r, exact.rho)

    for radius in (1.0e5, 1.0e6, 3.48e6, exact.body_radius):
        want, _ = integrate.quad(lambda s: 4 * np.pi * s * s * rho(s), 0.0,
                                 radius, points=[k for k in knots if k < radius],
                                 limit=500, epsabs=0.0, epsrel=1e-13)
        assert exact.mass(radius) == pytest.approx(want, rel=1e-12)
    want, _ = integrate.quad(lambda s: exact.mass(s) / s ** 2, knots[0],
                             knots[-1], points=knots[1:-1], limit=500,
                             epsabs=0.0, epsrel=1e-13)
    assert exact.potential_integral() == pytest.approx(want, rel=1e-12)


def test_counters_on_prem_fixture():
    fixture = os.path.join(ROOT, "tests", "fixtures", "prem20.csv")
    inv = {"mode": "cli", "argv": ["profile", "--profile", fixture]}
    [(code, _, _)], tr = _traced([inv])
    assert code == 0
    spans, _ = tr.reduce()
    assert spans["kernels.cumulative_mass"][0] == 8
    assert tr.counts["kernels.grid_points"] == 1248
    assert tr.counts["kernels.grad_grid_points"] == 5793


def test_wrappers_are_removed_after_the_traced_run(cli_small):
    import geopotent.cli
    before = tracer.snapshot_bindings()
    main = geopotent.cli.main
    tr = tracer.Tracer()
    tr.install()
    assert geopotent.cli.main is not main
    assert not tracer.bindings_restored(before)
    tr.uninstall()
    assert geopotent.cli.main is main
    assert tracer.bindings_restored(before)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_csv_and_json_reports_parse_alike(cli_small):
    pairs = [inv for inv in cli_small.cycle
             if inv["check"]["kind"] == "profile"]
    (_, csv_out, _), (_, json_out, _) = _traced(pairs)[0]
    from_csv = check.parse_csv(csv_out)
    from_json = json.loads(json_out)
    assert from_csv["result"].keys() == from_json["result"].keys()
    assert from_csv["tables"][0]["columns"] == from_json["tables"][0]["columns"]
