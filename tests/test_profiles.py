import math
import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from geopotent import (
    core_equilibrium_gravity,
    enclosed_mass,
    interpolate,
    mean_density,
    pressure_gradient_max,
    surface_potential_integral,
    validate_profile,
)
from geopotent import cli, profiles
from geopotent.errors import DegenerateProfileError, OutOfDomainError

from conftest import (
    EARTH_MEAN_DENSITY,
    EARTH_RADIUS,
    GAMMA,
    PREM_CSV,
    uniform_profile,
)

# Oracles for the 20-row reference fixture, frozen from an independent
# dense-trapezoid evaluation of the same piecewise-linear table (see
# tools/build_prem_fixture.py).
FIXTURE_TOTAL_MASS = 5.967340386170483e24
FIXTURE_MEAN_DENSITY = 5508.9570546198975
FIXTURE_CORE_EQ_GRAVITY = 1.051274825681003
FIXTURE_SURFACE_INTEGRAL = 4.915243590754036e7
REPORTED_CHARACTERISTIC_PRESSURE = 2.7230e11


def two_shell_profile(rho_inner, rho_outer, body_radius=EARTH_RADIUS):
    """Inner half-radius at rho_inner, outer shell at rho_outer.

    The step is smeared over a 1e-8-wide shell so it stays invisible at
    the tolerances tested.
    """
    half = body_radius / 2.0
    radii = [0.0, 0.25 * body_radius, half, half * (1.0 + 1e-8),
             0.75 * body_radius, body_radius]
    rho = [rho_inner, rho_inner, rho_inner, rho_outer, rho_outer, rho_outer]
    p0 = 1e10
    pressure = [p0 * (1.0 - r / body_radius / 1.0001) for r in radii]
    return validate_profile(list(zip(radii, rho, pressure)))


def profile_with_narrow_pairs(rng, first_radius):
    """Random profile on [first_radius, R] with knots 20 m apart in pairs."""
    n = int(rng.integers(12, 24))
    radii = np.sort(rng.uniform(first_radius, EARTH_RADIUS, n))
    radii[0], radii[-1] = first_radius, EARTH_RADIUS
    pairs = rng.choice(np.arange(1, n - 1), size=3, replace=False)
    radii = np.unique(np.concatenate((radii, radii[pairs] + 20.0)))
    rho = rng.uniform(1.0e3, 1.3e4, radii.size)
    pressure = np.linspace(3.6e11, 0.0, radii.size)
    return validate_profile(list(zip(radii, rho, pressure)))


class ExactProfile:
    """M(r) / (4 pi) and the integral of M / (4 pi s^2), in exact rationals.

    Only the final conversion to float rounds; 4 pi is applied after it.
    """

    def __init__(self, profile):
        r = [Fraction(x) for x in profile.radii.tolist()]
        rho = [Fraction(x) for x in profile.densities.tolist()]
        if r[0] > 0:
            r, rho = [Fraction(0)] + r, rho[:1] + rho
        self.first = len(r) - len(profile)
        self.r = r
        # rho = a + b s on interval i; Q(s) = a s^3/3 + b s^4/4 is a
        # primitive of rho s^2 there
        self.coef = []
        self.mass = [Fraction(0)]
        for i in range(len(r) - 1):
            b = (rho[i + 1] - rho[i]) / (r[i + 1] - r[i])
            self.coef.append((rho[i] - b * r[i], b))
            self.mass.append(self.mass[-1] + self._q(i, r[i + 1])
                             - self._q(i, r[i]))

    def _q(self, i, s):
        a, b = self.coef[i]
        return a * s**3 / 3 + b * s**4 / 4

    def mass_at(self, s):
        s = Fraction(s)
        i = max(j for j in range(len(self.r) - 1) if self.r[j] <= s)
        return self.mass[i] + self._q(i, s) - self._q(i, self.r[i])

    def potential_integral(self):
        """From the first sampled radius to the surface."""
        total = Fraction(0)
        for i in range(self.first, len(self.r) - 1):
            r0, r1 = self.r[i], self.r[i + 1]
            a, b = self.coef[i]
            # M / (4 pi) = c + Q(s) on the interval; c = 0 from the center
            c = self.mass[i] - self._q(i, r0)
            if r0 > 0:
                total += c * (1 / r0 - 1 / r1)
            total += a * (r1**2 - r0**2) / 6 + b * (r1**3 - r0**3) / 12
        return total


def _golden_profile_cells():
    path = os.path.join(os.path.dirname(__file__), "golden", "profile.csv")
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(",", 1) for line in fh
                    if line.count(",") == 1 and not line.startswith("#"))


class TestMassTable:
    def test_matches_exact_rationals(self):
        four_pi = 4.0 * math.pi
        rng = np.random.default_rng(61)
        for k in range(60):
            first = 0.0 if k % 2 else float(rng.uniform(1.0e3, 1.0e6))
            profile = profile_with_narrow_pairs(rng, first)
            exact = ExactProfile(profile)
            body = profile.body_radius
            knots = profile.radii.tolist()
            between = [float(rng.uniform(lo, hi))
                       for lo, hi in zip([0.0] + knots, knots)]
            for r in knots + between:
                want = four_pi * float(exact.mass_at(r))
                assert enclosed_mass(profile, r) == pytest.approx(
                    want, rel=1e-14, abs=0.0)
            want = GAMMA * four_pi * float(exact.potential_integral())
            assert surface_potential_integral(profile, GAMMA) == \
                pytest.approx(want, rel=1e-14, abs=0.0)
            want = four_pi * float(exact.mass[-1]) \
                / ((4.0 / 3.0) * math.pi * body**3)
            assert mean_density(profile) == pytest.approx(want, rel=1e-14,
                                                          abs=0.0)

    def test_prem_golden_against_quad(self, prem_profile):
        # the golden homogeneity cells are the exact values rounded to 10
        # digits; quad confirms them without the program's formulas, using
        # int_0^R M/s^2 ds = int_0^R 4 pi s rho ds - M(R)/R (by parts)
        integrate = pytest.importorskip("scipy.integrate")
        radii, rho = prem_profile.radii, prem_profile.densities
        body = prem_profile.body_radius
        assert radii[0] == 0.0

        def quad(power):
            value, _ = integrate.quad(
                lambda s: 4.0 * math.pi * s**power * np.interp(s, radii, rho),
                0.0, body, points=radii[1:-1].tolist(), limit=200,
                epsabs=0.0, epsrel=1e-13)
            return value

        total = quad(2)
        integral = GAMMA * (quad(1) - total / body)
        rho_mean = total / ((4.0 / 3.0) * math.pi * body**3)
        uniform = (2.0 / 3.0) * GAMMA * rho_mean * math.pi * body**2
        gap = (integral - uniform) / uniform
        assert surface_potential_integral(prem_profile, GAMMA) == \
            pytest.approx(integral, rel=1e-13)
        cells = _golden_profile_cells()
        assert cells["homogeneity_integral_j_kg"] == f"{integral:.10g}"
        assert cells["homogeneity_relative_gap"] == f"{gap:.10g}"

    def test_built_once_and_read_only(self, prem_profile):
        table = prem_profile.mass_table
        assert prem_profile.mass_table is table
        for arr in table:
            assert not arr.flags.writeable
        assert table.mass[0] == 0.0
        assert table.knots[0] == 0.0

    def test_center_knot_added_above_zero(self):
        profile = validate_profile([
            (1.0e5, 9000.0, 3e11), (1.0e6, 8000.0, 2e11),
            (2.0e6, 5000.0, 1e11), (3.0e6, 3000.0, 0.0)])
        knots, densities, mass = profile.mass_table
        assert knots.tolist() == [0.0, 1.0e5, 1.0e6, 2.0e6, 3.0e6]
        assert densities[0] == densities[1] == 9000.0
        assert mass[1] == pytest.approx(
            (4.0 / 3.0) * math.pi * 9000.0 * 1.0e5**3, rel=1e-15)

    def test_profile_report_builds_one_table(self, monkeypatch, capsys):
        builds = []
        build = profiles.build_mass_table

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(profiles, "build_mass_table", counting)
        assert cli.main(["profile", "--profile", PREM_CSV]) == 0
        assert len(builds) == 1


class TestInterpolate:
    def test_exact_at_knots(self, prem_profile):
        for i in (0, 5, 19):
            rho, p = interpolate(prem_profile, float(prem_profile.radii[i]))
            assert rho == prem_profile.densities[i]
            assert p == prem_profile.pressures[i]

    def test_midpoint_is_mean(self):
        profile = uniform_profile(n=5)
        r = 0.5 * (profile.radii[1] + profile.radii[2])
        rho, p = interpolate(profile, float(r))
        assert rho == pytest.approx(EARTH_MEAN_DENSITY, rel=1e-15)
        assert p == pytest.approx(
            0.5 * (profile.pressures[1] + profile.pressures[2]), rel=1e-15)

    def test_constant_density_everywhere(self):
        profile = uniform_profile()
        for r in np.linspace(0.0, EARTH_RADIUS, 17):
            rho, _ = interpolate(profile, float(r))
            assert rho == pytest.approx(EARTH_MEAN_DENSITY, rel=1e-15)

    def test_out_of_range(self, prem_profile):
        with pytest.raises(OutOfDomainError):
            interpolate(prem_profile, -1.0)
        with pytest.raises(OutOfDomainError):
            interpolate(prem_profile, prem_profile.body_radius * 1.01)


class TestEnclosedMass:
    def test_zero_at_center(self, prem_profile):
        assert enclosed_mass(prem_profile, 0.0) == 0.0

    def test_uniform_closed_form(self):
        profile = uniform_profile()
        expected = (4.0 / 3.0) * math.pi * EARTH_MEAN_DENSITY * EARTH_RADIUS**3
        assert enclosed_mass(profile, EARTH_RADIUS) == pytest.approx(
            expected, rel=1e-6)

    def test_fixture_total_mass(self, prem_profile):
        total = enclosed_mass(prem_profile, prem_profile.body_radius)
        assert total == pytest.approx(FIXTURE_TOTAL_MASS, rel=1e-8)
        assert total == pytest.approx(5.9737e24, rel=5e-3)

    def test_monotone_non_decreasing(self, prem_profile):
        rng = np.random.default_rng(47)
        radii = np.sort(rng.uniform(0.0, prem_profile.body_radius, 60))
        masses = [enclosed_mass(prem_profile, r) for r in radii]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_out_of_range(self, prem_profile):
        with pytest.raises(OutOfDomainError):
            enclosed_mass(prem_profile, -1.0)
        with pytest.raises(OutOfDomainError):
            enclosed_mass(prem_profile, prem_profile.body_radius * 2.0)


class TestSurfacePotentialIntegral:
    def test_uniform_equals_closed_form(self):
        profile = uniform_profile()
        expected = (2.0 / 3.0) * GAMMA * EARTH_MEAN_DENSITY * math.pi \
            * EARTH_RADIUS**2
        assert surface_potential_integral(profile, GAMMA) == pytest.approx(
            expected, rel=1e-6)

    def test_fixture_value(self, prem_profile):
        value = surface_potential_integral(prem_profile, GAMMA)
        assert value == pytest.approx(FIXTURE_SURFACE_INTEGRAL, rel=1e-6)

    def test_centrally_condensed_exceeds_uniform_bound(self, prem_profile):
        value = surface_potential_integral(prem_profile, GAMMA)
        rho0 = mean_density(prem_profile)
        bound = (2.0 / 3.0) * GAMMA * rho0 * math.pi \
            * prem_profile.body_radius**2
        assert value > bound

    def test_outward_heavy_below_uniform_bound(self):
        profile = two_shell_profile(1000.0, 8000.0)
        value = surface_potential_integral(profile, GAMMA)
        rho0 = mean_density(profile)
        bound = (2.0 / 3.0) * GAMMA * rho0 * math.pi * profile.body_radius**2
        assert value < bound

    def test_monotone_density_brackets_bound(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = rng.integers(5, 15)
            radii = np.sort(rng.uniform(0.0, 1e7, n))
            radii[0] = 0.0
            rho = np.sort(rng.uniform(1e3, 1e4, n))
            decreasing = rng.random() < 0.5
            if decreasing:
                rho = rho[::-1].copy()
            pressure = np.linspace(1e10, 0.0, n)
            profile = validate_profile(list(zip(radii, rho, pressure)))
            value = surface_potential_integral(profile, GAMMA)
            bound = (2.0 / 3.0) * GAMMA * mean_density(profile) * math.pi \
                * profile.body_radius**2
            if decreasing:
                assert value >= bound * (1.0 - 1e-9)
            else:
                assert value <= bound * (1.0 + 1e-9)


def exact_steepest_segment(knots):
    """Index and exact |slope| of the steepest segment of (r, P) knots.

    Slopes are rationals of the knots as given, so the pick carries no
    roundoff of its own; the first segment within 1e-12 relative of the
    exact maximum wins.
    """
    r, p = zip(*((Fraction(r), Fraction(p)) for r, p in knots))
    slopes = [abs((p[i + 1] - p[i]) / (r[i + 1] - r[i]))
              for i in range(len(r) - 1)]
    best = max(slopes)
    cut = best * (1 - Fraction(1e-12))
    return next(i for i, s in enumerate(slopes) if s >= cut), best


def random_gradient_profile(rng):
    """Random profile whose smallest knot gap is down to 1e-9 of its span.

    Some carry a run of 2-4 segments sharing the steepest slope.
    """
    n = int(rng.integers(5, 40))
    body = 10.0 ** rng.uniform(3.0, 7.0)
    gaps = rng.uniform(0.2, 1.0, n - 1)
    for i in rng.choice(n - 1, size=int(rng.integers(0, 3)), replace=False):
        gaps[i] = gaps.sum() * 10.0 ** rng.uniform(-9.0, -3.0)
    first = 0.0 if rng.random() < 0.5 else rng.uniform(0.01, 0.3)
    radii = np.concatenate(([0.0], np.cumsum(gaps)))
    radii = (first + radii / radii[-1] * (1.0 - first)) * body
    radii[-1] = body
    slopes = rng.uniform(0.0, 1.0, n - 1)
    if rng.random() < 0.4:
        k = int(rng.integers(0, n - 1))
        slopes[k:k + int(rng.integers(2, 5))] = 1.5
    drops = slopes * np.diff(radii) / body * 10.0 ** rng.uniform(5.0, 11.5)
    pressure = np.concatenate((np.cumsum(drops[::-1])[::-1], [0.0]))
    rho = rng.uniform(1.0e3, 1.3e4, n)
    return validate_profile(list(zip(radii, rho, pressure)))


class TestPressureGradientMax:
    def test_inner_knot_of_steepest_segment(self, prem_profile):
        rng = np.random.default_rng(67)
        cases = [prem_profile] + [random_gradient_profile(rng)
                                  for _ in range(500)]
        for profile in cases:
            k, best = exact_steepest_segment(
                zip(profile.radii.tolist(), profile.pressures.tolist()))
            result = pressure_gradient_max(profile)
            assert result.radius_at_max == profile.radii[k]
            assert result.pressure_at_max == profile.pressures[k]
            assert result.gradient_magnitude == pytest.approx(float(best),
                                                              rel=1e-12)

    def test_prem_golden_cells_from_fixture_text(self):
        with open(PREM_CSV, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().split()[1:]]
        k, best = exact_steepest_segment((r, p) for r, _, p in rows)
        cells = _golden_profile_cells()
        assert float(cells["grad_p_radius_m"]) == float(rows[k][0])
        assert float(cells["grad_p_pressure_pa"]) == float(rows[k][2])
        assert float(cells["grad_p_gradient_pa_m"]) == pytest.approx(
            float(best), rel=5e-10)

    def test_millimetre_gap_prompt_and_small(self):
        # a 1 mm gap on a 6371 km span: the cost must not grow with the
        # ratio of span to gap
        rows = [(0.0, 9000.0, 3.6e11), (1.0e6, 8000.0, 3.0e11),
                (1.0e6 + 1.0e-3, 8000.0, 2.9e11), (3.0e6, 5000.0, 1.0e11),
                (EARTH_RADIUS, 3000.0, 0.0)]
        profile = validate_profile(rows)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            result = pressure_gradient_max(profile)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20
        assert result.radius_at_max == 1.0e6
        assert result.pressure_at_max == 3.0e11
        assert result.gradient_magnitude == pytest.approx(1.0e13, rel=1e-6)

    def test_parabolic_pressure(self):
        # P = P0 (1 - (r/R)^2): |dP/dr| grows to the boundary, so the
        # finder returns the last interior plateau, one knot in from R
        p0, radius, n = 3.6e11, EARTH_RADIUS, 101
        r = np.linspace(0.0, radius, n)
        profile = validate_profile(list(zip(
            r, np.full(n, 5515.0), p0 * (1.0 - (r / radius) ** 2))))
        result = pressure_gradient_max(profile)
        knot = radius / (n - 1)
        assert result.radius_at_max > radius - 2.0 * knot
        assert result.radius_at_max < radius
        assert result.gradient_magnitude == pytest.approx(2.0 * p0 / radius,
                                                          rel=0.01)

    def test_logistic_inflection_found(self):
        p0, radius, width, n = 1e11, 6.371e6, 6.371e6 / 40.0, 201
        r = np.linspace(0.0, radius, n)
        p = p0 / (1.0 + np.exp((r - radius / 2.0) / width))
        profile = validate_profile(list(zip(r, np.full(n, 5515.0), p)))
        result = pressure_gradient_max(profile)
        knot = radius / (n - 1)
        assert abs(result.radius_at_max - radius / 2.0) <= knot

    def test_fixture_peak_near_core_mantle_boundary(self, prem_profile):
        result = pressure_gradient_max(prem_profile)
        # steepest tabulated segment sits just below the 3.48e6 m boundary
        assert 3.15e6 <= result.radius_at_max <= 3.465e6
        assert result.gradient_magnitude == pytest.approx(1.0471e5, rel=0.01)
        # the pressure there does not reproduce the reported characteristic
        # pressure; record the gap instead of asserting equality
        gap = abs(result.pressure_at_max - REPORTED_CHARACTERISTIC_PRESSURE) \
            / REPORTED_CHARACTERISTIC_PRESSURE
        assert gap > 0.2

    def test_interior_result(self, prem_profile):
        result = pressure_gradient_max(prem_profile)
        assert prem_profile.radii[0] < result.radius_at_max \
            < prem_profile.body_radius
        assert result.gradient_magnitude > 0.0

    def test_power_of_two_rescaling_exact(self, prem_profile):
        base = pressure_gradient_max(prem_profile)
        for c in (2.0, 0.25, 1024.0):
            scaled = validate_profile(
                [(r, d, c * p) for r, d, p in prem_profile.samples])
            result = pressure_gradient_max(scaled)
            assert result.radius_at_max == base.radius_at_max
            assert result.gradient_magnitude == c * base.gradient_magnitude

    def test_generic_rescaling(self, prem_profile):
        base = pressure_gradient_max(prem_profile)
        scaled = validate_profile(
            [(r, d, 3.0 * p) for r, d, p in prem_profile.samples])
        result = pressure_gradient_max(scaled)
        assert result.radius_at_max == base.radius_at_max
        assert result.gradient_magnitude == pytest.approx(
            3.0 * base.gradient_magnitude, rel=1e-12)

    def test_constant_pressure_degenerate(self):
        rows = [(r, 5515.0, 1e10) for r in (0.0, 1e6, 2e6, 3e6)]
        with pytest.raises(DegenerateProfileError):
            pressure_gradient_max(validate_profile(rows))


class TestMeanDensity:
    def test_uniform(self):
        assert mean_density(uniform_profile()) == pytest.approx(
            EARTH_MEAN_DENSITY, rel=1e-9)

    def test_two_shell_volume_weights(self):
        rho_inner, rho_outer = 9000.0, 3000.0
        profile = two_shell_profile(rho_inner, rho_outer)
        assert mean_density(profile) == pytest.approx(
            (rho_inner + 7.0 * rho_outer) / 8.0, rel=1e-6)

    def test_fixture(self, prem_profile):
        value = mean_density(prem_profile)
        assert value == pytest.approx(FIXTURE_MEAN_DENSITY, rel=1e-8)
        assert value == pytest.approx(5515.0, rel=0.01)


class TestCoreEquilibriumGravity:
    def test_fixture_inner_core(self, prem_profile):
        value = core_equilibrium_gravity(prem_profile, 1.2215e6)
        assert value == pytest.approx(FIXTURE_CORE_EQ_GRAVITY, rel=1e-6)
        assert value == pytest.approx(1.05, abs=0.05)
        # the reported mean field strength is 1.160; the fixture lands
        # within 12%
        assert abs(value - 1.160) / 1.160 < 0.12

    def test_uniform_analytic(self):
        # P(r) = (2/3) pi G rho^2 (R^2 - r^2); at r = R/2 the closed form
        # is hand-checkable against the quadrature route
        rho, radius = EARTH_MEAN_DENSITY, EARTH_RADIUS
        profile = uniform_profile(rho=rho, body_radius=radius, n=201)
        core = radius / 2.0
        pressure = (2.0 / 3.0) * math.pi * GAMMA * rho**2 \
            * (radius**2 - core**2)
        total = (4.0 / 3.0) * math.pi * rho * radius**3
        inner = (4.0 / 3.0) * math.pi * rho * core**3
        expected = pressure * 4.0 * math.pi * core**2 / (total - inner)
        assert core_equilibrium_gravity(profile, core) == pytest.approx(
            expected, rel=1e-6)

    def test_core_at_surface_rejected(self, prem_profile):
        with pytest.raises(OutOfDomainError):
            core_equilibrium_gravity(prem_profile, prem_profile.body_radius)
        with pytest.raises(OutOfDomainError):
            core_equilibrium_gravity(prem_profile, 0.0)
