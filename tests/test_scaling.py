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
import json
import math
import os
import random
import tempfile
from itertools import accumulate

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geopotent import (
    BackgroundState,
    CavitySchedule,
    PulseSample,
    RadialProfile,
    ScheduleSegment,
    UniformSphere,
    cli,
    core_equilibrium_gravity,
    enclosed_mass,
    evaluate_schedule,
    homogeneity_bound,
    mean_density,
    pressure_gradient_max,
    surface_potential_integral,
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
    "ratio": (0, 0),
    # a pressure is a density times a potential
    "pressure": (2, 2),
    "pressure_gradient": (1, 2),
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


GAMMA = 6.6743e-11

# the cells of the profile report, and the columns of its core_equilibrium
# table; homogeneity_holds is a bool, the same at every scale
PROFILE_UNITS = {
    "body_radius_m": "length",
    "total_mass_kg": "mass",
    "mean_density_kg_m3": "density",
    "grad_p_radius_m": "length",
    "grad_p_pressure_pa": "pressure",
    "grad_p_gradient_pa_m": "pressure_gradient",
    "homogeneity_integral_j_kg": "potential",
    "homogeneity_uniform_j_kg": "potential",
    "homogeneity_relative_gap": "ratio",
    "radius_m": "length",
    "equilibrium_gravity_m_s2": "gravity",
}


@st.composite
def profile_cases(draw):
    """Radii, densities and pressures of a valid profile, unscaled, with
    its first knot at the centre or above it."""
    n = draw(st.integers(4, 12))
    first = draw(st.one_of(st.just(0.0), st.floats(1.0, 1e5)))
    steps = draw(st.lists(st.floats(1.0, 1e6), min_size=n - 1,
                          max_size=n - 1))
    densities = draw(st.lists(st.floats(1.0, 2e4), min_size=n, max_size=n))
    pressures = draw(st.lists(st.one_of(st.just(0.0), st.floats(1.0, 4e11)),
                              min_size=n, max_size=n))
    return (list(accumulate(steps, initial=first)), densities,
            sorted(pressures, reverse=True))


def scaled_profile(case, a, b):
    radii, densities, pressures = case
    return RadialProfile([scaled(r, "length", a, b) for r in radii],
                         [scaled(rho, "density", a, b) for rho in densities],
                         [scaled(p, "pressure", a, b) for p in pressures])


def inner_radii(profile):
    """Radii at which the profile functions are evaluated: the knots and
    the midpoints between them, and half the first knot below it."""
    knots = profile.radii
    mids = [0.5 * (r0 + r1) for r0, r1 in zip(knots, knots[1:])]
    return [0.5 * knots[0], *knots, *mids]


def profile_values(profile):
    """(quantity, value) of every profile function on `profile`."""
    radii = inner_radii(profile)
    grad = pressure_gradient_max(profile)
    bound = homogeneity_bound(profile, GAMMA)
    cores = [r for r in radii if profile.radii[0] <= r < profile.body_radius
             and r > 0.0]
    return [
        *(("mass", enclosed_mass(profile, r)) for r in radii),
        ("density", mean_density(profile)),
        ("potential", surface_potential_integral(profile, GAMMA)),
        ("length", grad.radius_at_max),
        ("pressure", grad.pressure_at_max),
        ("pressure_gradient", grad.gradient_magnitude),
        ("potential", bound.integral_side),
        ("potential", bound.uniform_side),
        ("ratio", bound.relative_gap),
        *(("gravity", core_equilibrium_gravity(profile, r)) for r in cores),
    ]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=profile_cases(), ab=exponents)
def test_profile_functions_scale_to_the_bit(case, ab):
    a, b = ab
    unscaled, profile = scaled_profile(case, 0, 0), scaled_profile(case, a, b)
    assume(unscaled.pressures[0] > unscaled.pressures[-1])
    want = [(quantity, scaled(value, quantity, a, b).hex())
            for quantity, value in profile_values(unscaled)]
    assert [(quantity, value.hex())
            for quantity, value in profile_values(profile)] == want
    assert (homogeneity_bound(profile, GAMMA).holds
            == homogeneity_bound(unscaled, GAMMA).holds)


def run_profile_cli(case, a, b, folder):
    """The result and tables of ``geopotent profile --format json`` on the
    scaled profile, with reference boundaries at its inner radii."""
    profile = scaled_profile(case, a, b)
    csv_path = os.path.join(folder, f"profile_{a}_{b}.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("radius_m,density_kg_m3,pressure_pa\n")
        fh.writelines(f"{r!r},{rho!r},{p!r}\n" for r, rho, p in zip(
            profile.radii, profile.densities, profile.pressures))
    radii = inner_radii(profile)
    config = {"boundaries": [
        {"name": f"b{i}", "radius": r, "layer_half_thickness": 0.5 * r}
        for i, r in enumerate(radii) if r > 0.0]}
    config_path = os.path.join(folder, f"config_{a}_{b}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out_path = os.path.join(folder, f"report_{a}_{b}.json")
    assert cli.main(["profile", "--profile", csv_path, "--config",
                     config_path, "--format", "json", "--out", out_path]) == 0
    with open(out_path, encoding="utf-8") as fh:
        report = json.load(fh)
    return report["result"], report["tables"]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=profile_cases(), ab=exponents)
def test_profile_report_scales_to_the_bit(case, ab):
    a, b = ab
    assume(case[2][0] > case[2][-1])
    with tempfile.TemporaryDirectory() as folder:
        result, tables = run_profile_cli(case, a, b, folder)
        want_result, want_tables = run_profile_cli(case, 0, 0, folder)
    assert result.pop("homogeneity_holds") == \
        want_result.pop("homogeneity_holds")
    assert {k: v.hex() for k, v in result.items()} == {
        k: scaled(v, PROFILE_UNITS[k], a, b).hex()
        for k, v in want_result.items()}
    table, = tables
    want, = want_tables
    assert table["rows"] and table["columns"] == want["columns"]
    assert [row.pop("boundary") for row in table["rows"]] == \
        [row.pop("boundary") for row in want["rows"]]
    assert [{k: v.hex() for k, v in row.items()} for row in table["rows"]] \
        == [{k: scaled(v, PROFILE_UNITS[k], a, b).hex()
             for k, v in row.items()} for row in want["rows"]]


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
# so need not scale exactly; a square or a cube is a product, and a cube
# root splits off its exponent. Only the cube root may hold a power.
POWER_HOMES = {("core.py", "_cbrt")}


def _powers(node, function=None):
    """(enclosing function, source) of each ``**`` and ``**=``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        else:
            inner = function
        if (isinstance(child, (ast.BinOp, ast.AugAssign))
                and isinstance(child.op, ast.Pow)):
            yield function, ast.unparse(child)
        yield from _powers(child, inner)


def test_powers_stay_in_their_home():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            found += [(name, *power) for power in _powers(tree)]
    assert [power for power in found if power[:2] not in POWER_HOMES] == []
    # the scan sees the one cube root that must stay a power
    assert ("core.py", "_cbrt") in {power[:2] for power in found}
