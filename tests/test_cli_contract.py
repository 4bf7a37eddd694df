"""The CLI contract under arbitrary numeric flags and unreadable files.

Whatever the flag values, `cli.main` returns 0, 2 or 3, lets no
exception escape, prints no traceback, and an exit-0 report holds only
finite numbers, in CSV and in JSON.
"""

import contextlib
import io
import json
import math
import os

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from geopotent.cli import PULSE_MAX_SAMPLES, main

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
GROWTH = os.path.join(FIXTURES, "growth_schedule.json")  # span [0, 86400]
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        return
    text = out.getvalue()
    if "--format=json" in argv:
        bad = list(non_finite_json_numbers(json.loads(text)))
    else:
        bad = list(non_finite_csv_cells(text))
    assert not bad, (argv, bad)
