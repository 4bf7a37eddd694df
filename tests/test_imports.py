"""What a fresh process imports: numpy only where arrays are used.

Each test starts a new interpreter, because numpy, once imported by any
earlier test, stays in this process's ``sys.modules``.
"""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import geopotent

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEDULE = "tests/fixtures/growth_schedule.json"

SCALAR_COMMANDS = {
    "direct": ["direct", "--p-g", "3.6e11"],
    "inverse": ["inverse", "--u-inf", "111652000"],
    "anomaly": ["anomaly", "--depth", "5000", "--radius", "500",
                "--density-contrast", "-2700", "--offsets", "5000,10000"],
    "pulse": ["pulse", "--schedule", SCHEDULE],
}


def fresh(statements):
    """Run `statements` in a new interpreter; return the dict it reports.

    The statements may set ``result``; the report holds it and whether
    numpy was imported by the end of the run.
    """
    report = ("\nimport json, sys\n"
              "print(json.dumps({'result': globals().get('result'),"
              " 'numpy': 'numpy' in sys.modules}))\n")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", statements + report],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_main(argv):
    return fresh(f"import geopotent.cli\nresult = geopotent.cli.main({argv!r})")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(SCALAR_COMMANDS))
def test_scalar_commands_never_import_numpy(name, fmt):
    run = run_main(SCALAR_COMMANDS[name] + ["--format", fmt])
    assert run == {"result": 0, "numpy": False}


def test_input_errors_never_import_numpy(tmp_path):
    assert run_main(["direct", "--p-g", "nan"]) == {"result": 2,
                                                    "numpy": False}
    bad = tmp_path / "bad_header.csv"
    bad.write_text("r,rho,p\n0,1,1\n")
    assert run_main(["profile", "--profile", str(bad)]) == {"result": 2,
                                                           "numpy": False}


def test_package_import_never_imports_numpy():
    assert fresh("import geopotent")["numpy"] is False


def test_profile_command_imports_numpy():
    run = run_main(["profile", "--profile", "tests/fixtures/prem20.csv"])
    assert run == {"result": 0, "numpy": True}


def test_cli_import_loads_every_module():
    # perfbench/tracer.py compares the loaded geopotent modules before and
    # after a traced run, so a lazily imported module fails --trace 1.
    names = sorted(f"geopotent.{m.name}"
                   for m in pkgutil.iter_modules(geopotent.__path__)
                   if m.name != "__main__")
    run = fresh("import sys, geopotent.cli\n"
                f"result = [n for n in {names!r} if n not in sys.modules]")
    assert run["result"] == []
