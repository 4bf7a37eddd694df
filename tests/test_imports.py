"""What a fresh process imports: numpy only for ``sample_field`` and
``FieldTable``, whose callers work with arrays, and neither dataclasses,
inspect nor typing at all. No CLI command imports numpy, and an install
without the ``field`` extra has none.

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

from test_profile_csv import MALFORMED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEDULE = "tests/fixtures/growth_schedule.json"

SCALAR_COMMANDS = {
    "direct": ["direct", "--p-g", "3.6e11"],
    "inverse": ["inverse", "--u-inf", "111652000"],
    "anomaly": ["anomaly", "--depth", "5000", "--radius", "500",
                "--density-contrast", "-2700", "--offsets", "5000,10000"],
    "pulse": ["pulse", "--schedule", SCHEDULE],
}


def fresh(statements, flags=()):
    """Run `statements` in a new interpreter; return the dict it reports.

    The statements may set ``result``; the report holds it and whether
    numpy was imported by the end of the run. `flags` go to the
    interpreter.
    """
    report = ("\nimport json, sys\n"
              "print(json.dumps({'result': globals().get('result'),"
              " 'numpy': 'numpy' in sys.modules}))\n")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, *flags, "-c", statements + report],
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["profile", "direct"])
def test_profile_commands_never_import_numpy(command, fmt):
    run = run_main([command, "--profile", "tests/fixtures/prem20.csv",
                    "--format", fmt])
    assert run == {"result": 0, "numpy": False}


@pytest.mark.parametrize("kind", ["non_numeric", "non_monotone"])
def test_malformed_profiles_never_import_numpy(kind, tmp_path):
    bad = tmp_path / f"{kind}.csv"
    bad.write_text(MALFORMED[kind][0])
    assert run_main(["profile", "--profile", str(bad)]) == {"result": 2,
                                                           "numpy": False}


def test_sample_field_imports_numpy():
    run = fresh("import geopotent\n"
                "sphere = geopotent.UniformSphere.from_mass_radius("
                "5.9737e24, 6.371e6)\n"
                "result = len(geopotent.sample_field(sphere, [0.0, 1.0e7]))")
    assert run == {"result": 2, "numpy": True}


@pytest.mark.parametrize("table", [
    "geopotent.sample_field(sphere, [0.0, 1.0e7])",
    "geopotent.FieldTable(*[[1.0, 2.0]] * 5)",
])
def test_field_without_numpy_names_the_extra(table):
    run = fresh("import sys\n"
                "sys.modules['numpy'] = None  # as if it were not installed\n"
                "import geopotent\n"
                "sphere = geopotent.UniformSphere.from_mass_radius("
                "5.9737e24, 6.371e6)\n"
                "try:\n"
                f"    {table}\n"
                "except ImportError as exc:\n"
                "    result = str(exc)\n")
    assert run["result"] == ("sample_field needs numpy: "
                             "pip install 'geopotent[field]'")


def test_cli_import_loads_every_module():
    # perfbench/tracer.py compares the loaded geopotent modules before and
    # after a traced run, so a lazily imported module fails --trace 1.
    names = sorted(f"geopotent.{m.name}"
                   for m in pkgutil.iter_modules(geopotent.__path__)
                   if m.name != "__main__")
    run = fresh("import sys, geopotent.cli\n"
                f"result = [n for n in {names!r} if n not in sys.modules]")
    assert run["result"] == []


@pytest.mark.parametrize("statements", [
    "import geopotent",
    "import geopotent.cli",
    "import geopotent.cli\ngeopotent.cli.main(['direct', '--p-g', '3.6e11'])",
])
def test_startup_never_imports_dataclasses_or_inspect(statements):
    # the records are named tuples and __slots__ classes, built with no
    # generated code; dataclasses alone would import inspect
    run = fresh(f"import sys\n{statements}\nresult = [m for m in "
                "('dataclasses', 'inspect') if m in sys.modules]")
    assert run["result"] == []


def test_schedule_constructor_is_on_the_class():
    # perfbench/tracer.py times CavitySchedule.__init__ as the
    # core.schedule_build span, so it must be defined on the class itself
    run = fresh("from geopotent import CavitySchedule\n"
                "result = '__init__' in vars(CavitySchedule)")
    assert run["result"] is True


def test_startup_without_site_never_imports_typing():
    # the result records are collections.namedtuple classes; -S keeps
    # site and any .pth file from loading typing first
    run = fresh("import sys, geopotent.cli\n"
                "code = geopotent.cli.main(['direct', '--p-g', '3.6e11'])\n"
                "result = [code, 'typing' in sys.modules]", flags=["-S"])
    assert run == {"result": [0, False], "numpy": False}
