"""The CLI contract under arbitrary numeric flags and input files.

Whatever the flag values, and whatever numbers the profile, schedule
and config files hold, `cli.main` returns 0, 2 or 3, lets no exception
escape, prints no traceback, and an exit-0 report holds only finite
numbers, in CSV and in JSON.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from decimal import Decimal
from itertools import accumulate

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from geopotent.cli import PULSE_MAX_SAMPLES, main

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
GROWTH = os.path.join(FIXTURES, "growth_schedule.json")  # span [0, 86400]
PREM = os.path.join(FIXTURES, "prem20.csv")
CONFIG = os.path.join(FIXTURES, "earth_config.json")
NOT_UTF8 = os.path.join(FIXTURES, "not_utf8.csv")
MISSING = os.path.join(FIXTURES, "no_such_dir", "no_such_file")

EXTREMES = ["nan", "inf", "-inf", "0", "-0", "-1", "5e-324", "1e-320",
            "2.2250738585072014e-308", "1e308", "-1e308",
            "1.7976931348623157e308"]

number = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(min_value=1e-3, max_value=1e8).map(repr),
    st.floats().map(repr),
)


offsets = st.one_of(
    st.sampled_from(["", " ", " , ", ","]),
    st.lists(number, min_size=1, max_size=4).map(",".join),
)


def flags(values):
    # --name=value, so argparse reads "-inf" as a value and not a flag
    return [f"{name}={value}" for name, value in values.items()]


@st.composite
def direct(draw):
    p_g = flags({"--p-g": draw(number)})
    return ["direct"] + draw(st.sampled_from([[], p_g]))


@st.composite
def inverse(draw):
    return ["inverse"] + flags({"--u-inf": draw(number)})


@st.composite
def anomaly(draw):
    # a valid buried source seen from valid offsets, then up to three
    # flags (background flags included) set to arbitrary values
    radius = draw(st.floats(1.0, 1e4))
    depth = radius * draw(st.floats(1.01, 100.0))
    values = {
        "--radius": repr(radius),
        "--depth": repr(depth),
        "--density-contrast": draw(st.sampled_from(["-2700", "500"])),
        "--offsets": ",".join(repr(depth * f) for f in draw(
            st.lists(st.floats(1.0, 1e3), min_size=1, max_size=3))),
    }
    replaced = draw(st.lists(st.sampled_from(
        list(values) + ["--u0", "--g0", "--u-inf"]), max_size=3))
    for name in replaced:
        values[name] = draw(offsets if name == "--offsets" else number)
    return ["anomaly"] + flags(values)


# the growth fixture's span ends and values outside it
SPAN_EDGES = ["nan", "inf", "-inf", "-1", "0", "86400", "86400.5", "1e9"]

# around the lower bound and above the ceiling; a run at the ceiling
# itself takes about 2 s, so tests/test_cli.py checks that count with
# the series stubbed out
num_samples = st.one_of(
    st.integers(-1, 5),
    st.sampled_from([PULSE_MAX_SAMPLES + 1, PULSE_MAX_SAMPLES + 2,
                     2**31, 10**8]),
)


@st.composite
def pulse(draw):
    if draw(st.booleans()):
        # in-span times plus up to two edge or outside entries
        times = draw(st.lists(st.floats(0.0, 86400.0).map(repr),
                              max_size=4))
        times += draw(st.lists(st.sampled_from(SPAN_EDGES), max_size=2))
        values = {"--times": ",".join(times)}
    else:
        values = {"--num-samples": draw(num_samples)}
    return ["pulse"] + flags({"--schedule": GROWTH, **values})


argv = st.tuples(st.one_of(direct(), inverse(), anomaly(), pulse()),
                 st.sampled_from([[], ["--format=json"]])).map(
    lambda parts: parts[0] + parts[1])

ANOMALY = ["anomaly", "--depth=5000", "--radius=500",
           "--density-contrast=-2700"]


def non_finite_csv_cells(text):
    for line in text.splitlines():
        cells = line.split("=", 1)[1:] if line.startswith("# ") \
            else line.split(",")
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:  # a name, a header or a flag
                continue
            if not math.isfinite(value):
                yield cell


def non_finite_json_numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from non_finite_json_numbers(item)
    elif isinstance(node, float) and not math.isfinite(node):
        yield node


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argv)
@example(argv=ANOMALY + ["--offsets=5000", "--g0=inf"])
@example(argv=ANOMALY + ["--offsets=5000", "--u0=nan"])
@example(argv=ANOMALY + ["--offsets=5000", "--u-inf=inf"])
@example(argv=ANOMALY + ["--offsets=5000", "--g0=1e-320"])
@example(argv=ANOMALY + ["--offsets=5000", "--u0=1e-320"])
@example(argv=ANOMALY + ["--offsets=1e308"])
@example(argv=ANOMALY + ["--offsets=5000", "--radius=1e-200"])
@example(argv=ANOMALY + ["--offsets=5000", "--g0=1e-320", "--format=json"])
@example(argv=["direct", "--p-g=nan"])
@example(argv=["direct", "--p-g=1e-320"])
@example(argv=["inverse", "--u-inf=5e-324"])
@example(argv=["direct", "--p-g=1.7976931348623157e308"])
@example(argv=["inverse", "--u-inf=1e8", f"--out={MISSING}"])
@example(argv=["profile", f"--profile={FIXTURES}"])
@example(argv=["profile", f"--profile={NOT_UTF8}"])
@example(argv=["profile", f"--profile={MISSING}"])
@example(argv=["pulse", f"--schedule={NOT_UTF8}"])
@example(argv=["pulse", f"--schedule={MISSING}"])
@example(argv=["direct", "--p-g=1e11", f"--config={NOT_UTF8}"])
@example(argv=["direct", "--p-g=1e11", f"--config={FIXTURES}"])
def test_exit_code_and_finite_report(argv):
    assert_contract(argv)


def assert_contract(argv):
    """Run `argv` and check the contract; return the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        return code
    text = out.getvalue()
    if "--format=json" in argv:
        bad = list(non_finite_json_numbers(json.loads(text)))
    else:
        bad = list(non_finite_csv_cells(text))
    assert not bad, (argv, bad)
    return code


# -- generated input files ---------------------------------------------------
#
# Each file is a fixture with one or two numbers set to EXTREMES values,
# or with all its radii or all its densities scaled by 10**k. A wholly
# random file would almost never pass validation, so it would reach
# only the rejection paths.

exponents = st.one_of(st.integers(-12, 12), st.integers(-330, 330))


def scaled(number, k):
    """`number` (a float or its text) times 10**k, correctly rounded."""
    return float(Decimal(str(number)).scaleb(k))


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@st.composite
def profile_text(draw):
    header, *lines = read(PREM).splitlines()
    rows = [line.split(",") for line in lines]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, 2))] = draw(st.sampled_from(EXTREMES))
    else:
        column, k = draw(st.sampled_from([0, 1])), draw(exponents)
        for row in rows:  # the radii or the densities
            row[column] = repr(scaled(row[column], k))
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def number_paths(node, path=()):
    """The key paths of every number in a parsed JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from number_paths(value, (*path, key))
    elif type(node) in (int, float):
        yield path


def update(data, path, change):
    """Replace the number at key `path` in `data` by change(number)."""
    *parents, key = path
    for parent in parents:
        data = data[parent]
    data[key] = change(data[key])


@st.composite
def json_text(draw, fixture):
    data = json.loads(read(fixture))
    paths = list(number_paths(data))
    if draw(st.booleans()):
        for path in draw(st.lists(st.sampled_from(paths), min_size=1,
                                  max_size=2)):
            extreme = float(draw(st.sampled_from(EXTREMES)))
            update(data, path, lambda _: extreme)
    else:
        word, k = draw(st.sampled_from(["radius", "density"])), draw(exponents)
        for path in paths:  # the radii or the densities
            if word in str(path[-1]):
                update(data, path, lambda number: scaled(number, k))
    return json.dumps(data)  # nan and inf as NaN and Infinity


# the runs of each generated file, which is written to {path}
FILE_RUNS = {
    "profile.csv": (profile_text(), [
        ["profile", "--profile={path}"],
        ["direct", "--profile={path}"],
    ]),
    "schedule.json": (json_text(GROWTH), [
        ["pulse", "--schedule={path}"],
        ["pulse", "--schedule={path}", "--times=0,43200,64800,86400"],
    ]),
    "config.json": (json_text(CONFIG), [
        ["direct", "--config={path}"],
        ["inverse", "--u-inf=111652000", "--config={path}"],
        ["profile", f"--profile={PREM}", "--config={path}"],
        ANOMALY + ["--offsets=5000,10000", "--config={path}"],
        ["pulse", f"--schedule={GROWTH}", "--config={path}"],
    ]),
}


@st.composite
def generated_run(draw):
    name = draw(st.sampled_from(sorted(FILE_RUNS)))
    text, runs = FILE_RUNS[name]
    return name, draw(text), draw(st.sampled_from(runs))


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=generated_run(), fmt=st.sampled_from([[], ["--format=json"]]))
def test_generated_files_keep_the_contract(run, fmt):
    name, text, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert_contract([arg.format(path=path) for arg in argv] + fmt)


# -- valid Earth-scale profiles ----------------------------------------------
#
# A profile that passes validation at Earth scale always gets a report,
# wherever its first radius falls against the default ICB and CMB: a
# boundary below the first knot, where the pressure is unknown, is left
# out of the core_equilibrium table, not reported as exit 3.

EARTH_RADIUS = 6.371e6


def fractions(steps):
    """The running sums of `steps` over their total, from 0 to exactly 1."""
    sums = list(accumulate(steps))
    return [0.0] + [s / sums[-1] for s in sums]


@st.composite
def earth_profile(draw):
    n = draw(st.integers(4, 40))
    steps = st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1)
    first = draw(st.one_of(st.just(0.0), st.floats(
        0.0, 0.95 * EARTH_RADIUS, exclude_max=True)))
    radii = [first + (EARTH_RADIUS - first) * f for f in fractions(
        draw(steps))]
    radii[-1] = EARTH_RADIUS
    densities = draw(st.lists(st.floats(1e3, 1.4e4), min_size=n,
                              max_size=n))
    top = draw(st.floats(1e5, 4e11))
    pressures = [top * (1.0 - f) for f in fractions(draw(steps))]
    rows = (f"{r!r},{d!r},{p!r}" for r, d, p in zip(radii, densities,
                                                     pressures))
    return "\n".join(["radius_m,density_kg_m3,pressure_pa", *rows]) + "\n"


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=earth_profile())
def test_valid_earth_profiles_get_a_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for fmt in ([], ["--format=json"]):
            assert assert_contract(["profile", f"--profile={path}", *fmt]) \
                == 0, text
