import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopotent import (
    BoundaryReference,
    DensityTrend,
    EarthParameters,
    RadialProfile,
    compression_potential,
    direct_problem,
    homogeneity_bound,
    inverse_problem,
    locate_boundary,
    mean_density,
    surface_potential_integral,
)
from geopotent.core import LINE_BREAKS
from geopotent.errors import NonPhysicalValueError, OutOfDomainError

from conftest import GAMMA, random_sphere, uniform_profile

# Values reported for the compressed-Earth balance; reproduced within the
# tolerances asserted below under the documented constant set.
REPORTED = {
    "u_surface": 3.1843e7,
    "c_surface": 3.1284e7,
    "phi": 4.8491e7,
    "u_infinity": 11.1652e7,
    "p_characteristic": 2.7230e11,
    "r0": 3.5710e6,
}


def earth_like_parameters(sphere):
    return EarthParameters(
        mean_radius=sphere.radius,
        mass=sphere.mass,
        mean_density=sphere.density,
        surface_first_cosmic_velocity=math.sqrt(GAMMA * sphere.mass
                                                / sphere.radius),
    )


class TestCompressionPotential:
    def test_reported_combination(self):
        phi = compression_potential(REPORTED["p_characteristic"], 5515.0)
        assert phi == pytest.approx(4.93744e7, rel=1e-4)
        assert phi == pytest.approx(REPORTED["phi"], rel=0.02)

    def test_unit_case(self):
        assert compression_potential(1.0, 1.0) == 1.0

    def test_rejects_non_positive(self):
        with pytest.raises(NonPhysicalValueError):
            compression_potential(0.0, 5515.0)
        with pytest.raises(NonPhysicalValueError):
            compression_potential(1e11, 0.0)

    def test_overflow_is_a_domain_error(self):
        # both inputs are positive and finite; their quotient is not
        with pytest.raises(OutOfDomainError) as err:
            compression_potential(1.0, 1e-320)
        assert str(err.value) == \
            "phi_g = 1.0 / 1e-320 overflows the float range"


class TestDirectProblem:
    def test_reported_phi_injection(self):
        result = direct_problem(EarthParameters(), REPORTED["phi"])
        assert result.u_surface == pytest.approx(3.129e7, rel=1e-3)
        assert result.equipotential_surface == pytest.approx(
            REPORTED["c_surface"], rel=1e-3)
        assert result.u_infinity == pytest.approx(REPORTED["u_infinity"],
                                                  rel=0.006)

    def test_reported_components_sum(self):
        total = REPORTED["u_surface"] + REPORTED["c_surface"] + REPORTED["phi"]
        assert total == pytest.approx(11.1618e7, rel=1e-4)
        # the printed at-infinity value differs from its own printed
        # parts by about 0.03%; recorded, not repaired
        gap = abs(total - REPORTED["u_infinity"]) / REPORTED["u_infinity"]
        assert 2e-4 < gap < 5e-4

    def test_zero_compression_gives_homogeneous_identity(self):
        earth = EarthParameters()
        result = direct_problem(earth, 0.0)
        assert result.u_infinity == pytest.approx(
            GAMMA * earth.mass / earth.mean_radius, rel=1e-4)
        assert result.u_infinity == pytest.approx(6.258e7, rel=1e-3)

    def test_sum_invariant_exact(self):
        result = direct_problem(EarthParameters(), 4.9374e7)
        assert result.u_infinity == (result.u_surface
                                     + result.equipotential_surface
                                     + result.compression_potential)

    def test_rejects_negative_phi(self):
        with pytest.raises(NonPhysicalValueError):
            direct_problem(EarthParameters(), -1.0)


class TestInverseProblem:
    def test_reported_inversion(self):
        result = inverse_problem(3.98722e14, 11.1652e7, 6.371e6)
        assert result.r0 == pytest.approx(REPORTED["r0"], rel=1e-3)
        assert result.r0 == pytest.approx(3.5711e6, rel=1e-4)
        assert result.depth == pytest.approx(2.800e6, rel=1e-3)
        assert result.trend is DensityTrend.DECREASING_OUTWARD

    def test_uniform_case(self):
        result = inverse_problem(1.0, 1.0, 1.0)
        assert result.r0 == 1.0
        assert result.trend is DensityTrend.UNIFORM

    def test_increasing_case(self):
        result = inverse_problem(2.0, 1.0, 1.0)
        assert result.r0 == 2.0
        assert result.depth == -1.0
        assert result.trend is DensityTrend.INCREASING_OUTWARD

    def test_degree_minus_one_in_u_infinity(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            gm = 10.0 ** rng.uniform(10, 18)
            u_inf = 10.0 ** rng.uniform(5, 9)
            body = 10.0 ** rng.uniform(5, 8)
            r0 = inverse_problem(gm, u_inf, body).r0
            assert inverse_problem(gm, 2.0 * u_inf, body).r0 == 0.5 * r0

    def test_homogeneous_round_trip(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            sphere = random_sphere(rng)
            earth = earth_like_parameters(sphere)
            gm = GAMMA * earth.mass
            u_inf = direct_problem(earth, 0.0, GAMMA).u_infinity
            result = inverse_problem(gm, u_inf, sphere.radius)
            # compression-free balance gives gm/R, so r0 recovers R
            assert result.r0 == pytest.approx(sphere.radius, rel=1e-12)
            # against the full fall-from-infinity value (3/2) gm/R the
            # same division lands at two thirds of the radius
            full = 1.5 * gm / sphere.radius
            r0_full = inverse_problem(gm, full, sphere.radius).r0
            assert r0_full == pytest.approx(2.0 * sphere.radius / 3.0,
                                            rel=1e-12)

    @settings(max_examples=300)
    @given(gm=st.floats(1e8, 1e20), u_inf=st.floats(1e3, 1e9),
           body=st.floats(1e3, 1e9))
    def test_trend_total_and_consistent(self, gm, u_inf, body):
        result = inverse_problem(gm, u_inf, body)
        r0 = gm / u_inf
        if abs(r0 - body) <= 1e-6 * body:
            assert result.trend is DensityTrend.UNIFORM
        elif r0 < body:
            assert result.trend is DensityTrend.DECREASING_OUTWARD
        else:
            assert result.trend is DensityTrend.INCREASING_OUTWARD

    def test_rejects_non_positive(self):
        with pytest.raises(NonPhysicalValueError):
            inverse_problem(-1.0, 1.0, 1.0)
        with pytest.raises(NonPhysicalValueError):
            inverse_problem(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("gm, u_inf", [(3.986e14, 1e-300),
                                           (1e-300, 1e300)])
    def test_quotient_out_of_range_is_domain_error(self, gm, u_inf):
        # valid inputs whose r0 overflows to inf or underflows to 0
        with pytest.raises(OutOfDomainError, match="r0"):
            inverse_problem(gm, u_inf, 6.371e6)


class TestLocateBoundary:
    CMB = BoundaryReference("CMB", 3.48e6, 1.5e5)
    ICB = BoundaryReference("ICB", 1.2215e6, 1.0e5)

    def test_reported_radius_lands_in_cmb_layer(self):
        result = inverse_problem(3.98722e14, 11.1652e7, 6.371e6)
        offset, within = locate_boundary(result, self.CMB)
        assert offset == pytest.approx(9.11e4, rel=1e-2)
        assert within

    def test_exact_match(self):
        result = inverse_problem(3.48e6, 1.0, 6.371e6)
        offset, within = locate_boundary(result, self.CMB)
        assert offset == 0.0
        assert within

    def test_inner_core_alternative_rejected(self):
        result = inverse_problem(3.98722e14, 11.1652e7, 6.371e6)
        offset, within = locate_boundary(result, self.ICB)
        assert offset > 2e6
        assert not within

    def test_boundary_validation(self):
        with pytest.raises(NonPhysicalValueError):
            BoundaryReference("bad", -1.0, 0.0)
        with pytest.raises(NonPhysicalValueError):
            BoundaryReference("bad", 1.0, -0.5)

    def test_line_breaks_are_where_splitlines_breaks(self):
        breaks = {c for c in map(chr, range(sys.maxunicode + 1))
                  if len(f"a{c}b".splitlines()) == 2}
        assert LINE_BREAKS == breaks

    @pytest.mark.parametrize("char", sorted(LINE_BREAKS | {","}))
    def test_name_with_a_line_break_or_comma_rejected(self, char):
        with pytest.raises(NonPhysicalValueError,
                           match="without a comma or line break"):
            BoundaryReference(f"a{char}b", 1.0, 0.0)


class TestHomogeneityBound:
    def test_uniform_equality(self):
        report = homogeneity_bound(uniform_profile(), GAMMA)
        assert report.integral_side == pytest.approx(report.uniform_side,
                                                     rel=1e-6)
        assert report.holds
        assert abs(report.relative_gap) < 1e-6

    def test_outward_heavy_holds(self):
        radii = [0.0, 2e6, 3e6, 3e6 * (1 + 1e-9), 5e6, 6.371e6]
        rho = [1000.0, 1000.0, 1000.0, 9000.0, 9000.0, 9000.0]
        pressure = np.linspace(1e10, 0.0, 6)
        profile = RadialProfile(radii, rho, pressure)
        report = homogeneity_bound(profile, GAMMA)
        assert report.holds
        assert report.relative_gap < 0.0

    def test_uniform_side_that_underflows_is_a_domain_error(self):
        profile = RadialProfile([0.0, 1.0, 2.0, 3.0], [1e-320] * 4,
                                [3.0, 2.0, 1.0, 0.0])
        with pytest.raises(OutOfDomainError) as err:
            homogeneity_bound(profile, 6.6743e-11)
        assert str(err.value) == ("the uniform-sphere potential of a body of "
                                  "radius 3.0 m underflows to 0")

    def test_fixture_violates_direction(self, prem_profile):
        report = homogeneity_bound(prem_profile, GAMMA)
        assert not report.holds
        assert report.relative_gap == pytest.approx(0.57252, rel=1e-3)
        assert report.integral_side > report.uniform_side

    def test_sides_match_components(self, prem_profile):
        report = homogeneity_bound(prem_profile, GAMMA)
        assert report.integral_side == pytest.approx(
            surface_potential_integral(prem_profile, GAMMA), rel=1e-12)
        rho0 = mean_density(prem_profile)
        expected = (2.0 / 3.0) * GAMMA * rho0 * math.pi \
            * prem_profile.body_radius**2
        assert report.uniform_side == pytest.approx(expected, rel=1e-12)
