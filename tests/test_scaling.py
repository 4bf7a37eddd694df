"""Scale invariance to the bit: lengths by 2**a, densities by 2**b.

Every correctly rounded + - * / and sqrt scales exactly by a power of
two, away from overflow and underflow. So each output must equal the
unscaled output times 2 ** (its length exponent * a + its density
exponent * b), bit for bit. No second implementation is needed: a
constant written in metres, a term of the wrong dimension or a libm
``pow`` that misses the last bit each break the equality. b is even, so
a speed, the square root of a potential, scales by a power of two too.
"""

import ast
import math
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from geopotent import (
    BackgroundState,
    CavitySchedule,
    PulseSample,
    ScheduleSegment,
    UniformSphere,
    evaluate_schedule,
)
from geopotent.core import SEGMENT_PARAMS, _cbrt

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "geopotent")

# (length exponent, density exponent) of each quantity. Gamma is held
# fixed, so a mass is a density times a volume, a potential gamma*M/r and
# gravity gamma*M/r^2.
UNITS = {
    "time": (0, 0),
    "length": (1, 0),
    "density": (0, 1),
    "mass": (3, 1),
    "potential": (2, 1),
    "gravity": (1, 1),
    "speed": (1, 0.5),
}

PULSE_UNITS = dict(zip(PulseSample._fields, (
    "time", "length", "potential", "potential", "gravity", "speed")))

exponents = st.tuples(st.integers(-40, 40),
                      st.integers(-20, 20).map(lambda k: 2 * k))


def scaled(value, quantity, a, b):
    length, density = UNITS[quantity]
    return math.ldexp(value, int(length * a + density * b))


def hexes(values):
    return [float.hex(v) for v in values]


@st.composite
def pulse_cases(draw):
    """Segments, source mass, contrast, background and sample times of a
    valid schedule, in unscaled units."""
    radius = st.floats(1.0, 1e4)
    segments = draw(st.lists(st.tuples(st.sampled_from(sorted(SEGMENT_PARAMS)),
                                       st.floats(1.0, 1e3),
                                       st.tuples(radius, radius)),
                             min_size=1, max_size=4))
    mass = draw(st.floats(1e6, 1e15))
    contrast = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 5e3))
    u0 = draw(st.floats(1e6, 1e8))
    background = (u0, draw(st.floats(1.0, 20.0)),
                  u0 * draw(st.floats(1.5, 3.0)))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    return segments, mass, contrast, background, fractions


def run_pulse(case, a, b):
    segments, mass, contrast, (u0, g0, u_inf), fractions = case
    t, built = 0.0, []
    for kind, duration, radii in segments:
        params = [scaled(r, "length", a, b)
                  for r in radii[:len(SEGMENT_PARAMS[kind])]]
        built.append(ScheduleSegment(t, t + duration, kind, params))
        t += duration
    # four times the largest radius lies outside any coalesced cavity
    observer = 4.0 * max(max(seg.params) for seg in built)
    schedule = CavitySchedule(built, scaled(mass, "mass", a, b), observer,
                              scaled(contrast, "density", a, b))
    background = BackgroundState(scaled(u0, "potential", a, b),
                                 scaled(g0, "gravity", a, b),
                                 scaled(u_inf, "potential", a, b))
    return evaluate_schedule(schedule, [f * t for f in fractions], background)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=pulse_cases(), ab=exponents)
def test_pulse_columns_scale_to_the_bit(case, ab):
    a, b = ab
    unscaled, table = run_pulse(case, 0, 0), run_pulse(case, a, b)
    for name, quantity in PULSE_UNITS.items():
        assert hexes(getattr(table, name)) == hexes(
            scaled(v, quantity, a, b) for v in getattr(unscaled, name)), name


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mass=st.floats(1e3, 1e30), radius=st.floats(1e-3, 1e7),
       ab=exponents)
def test_uniform_sphere_scales_to_the_bit(mass, radius, ab):
    a, b = ab
    sphere = UniformSphere(mass, radius)
    big_mass = scaled(mass, "mass", a, b)
    big = UniformSphere(big_mass, scaled(radius, "length", a, b))
    assert big.density.hex() == scaled(sphere.density, "density", a,
                                       b).hex()
    density = sphere.density
    again = UniformSphere.from_mass_density(mass, density)
    big_again = UniformSphere.from_mass_density(
        big_mass, scaled(density, "density", a, b))
    assert big_again.radius.hex() == scaled(again.radius, "length", a,
                                            b).hex()


def test_cbrt_inverts_a_product_cube_within_an_ulp():
    rng = random.Random(3)
    for _ in range(20000):
        x = rng.uniform(1.0, 1e4)
        assert abs(_cbrt(x * x * x) - x) <= math.ulp(x)
    assert [_cbrt(v) for v in (0.0, 8.0, 0.125, math.inf)] \
        == [0.0, 2.0, 0.5, math.inf]


# A power goes through libm pow, which need not be correctly rounded and
# so need not scale exactly; a cube is a product and a cube root splits
# off its exponent. These are the only functions that may hold either.
POWER_HOMES = {("core.py", "_cube"), ("core.py", "_cbrt")}


def _constant(node):
    """The value of an expression of number literals, else None."""
    if all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp,
                          ast.operator, ast.unaryop))
           for n in ast.walk(node)):
        return eval(compile(ast.Expression(node), "<exponent>", "eval"))
    return None


def _cube_powers(node, function=None):
    """(enclosing function, source) of each ``** 3`` and ``** (1/3)``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        else:
            inner = function
        if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Pow)
                and _constant(child.right) in (3, 1.0 / 3.0)):
            yield function, ast.unparse(child)
        yield from _cube_powers(child, inner)


def test_cubes_and_cube_roots_stay_in_their_homes():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            found += [(name, *power) for power in _cube_powers(tree)]
    assert [power for power in found if power[:2] not in POWER_HOMES] == []
    # the scan sees the one cube root that must stay a power
    assert ("core.py", "_cbrt") in {power[:2] for power in found}
