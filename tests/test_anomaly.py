import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopotent import (
    AnomalySource,
    BackgroundState,
    detectability_report,
    point_mass_signal,
    sensitivity_coefficients,
)
from geopotent.anomaly import speed_changes
from geopotent.errors import NonPhysicalValueError, OutOfDomainError

from conftest import GAMMA

# Background used in the worked examples: compression-free surface
# potential as u0, surface gravity, and the reported at-infinity value.
BACKGROUND = BackgroundState(u0=6.258e7, g0=9.823, u_infinity=11.1652e7)

GAS_CAVITY = AnomalySource(depth=5000.0, radius=500.0,
                           density_contrast=-2700.0)


def at_depth(source, background):
    """The signal of a buried sphere seen from its own burial depth."""
    return detectability_report(source, [source.depth], background)[0]


class TestSensitivityCoefficients:
    def test_crossover_equality_exact(self):
        r0 = 734.2
        pair = sensitivity_coefficients(2.0 * r0, r0)
        assert pair.k1 == pair.k2
        assert pair.k1 == pytest.approx((8.0 / 3.0) * math.pi * GAMMA,
                                        rel=1e-12)

    def test_ratio_grows_linearly(self):
        pair = sensitivity_coefficients(4.0, 1.0)
        assert pair.ratio == pytest.approx(2.0, rel=1e-12)

    def test_near_source_gravity_wins(self):
        pair = sensitivity_coefficients(1.0, 1.0)
        assert pair.k1 < pair.k2
        assert pair.ratio == pytest.approx(0.5, rel=1e-12)

    def test_crossover_biconditional_random_pairs(self):
        rng = np.random.default_rng(67)
        r = 10.0 ** rng.uniform(-3, 6, 10_000)
        r0 = 10.0 ** rng.uniform(-3, 6, 10_000)
        for ri, r0i in zip(r, r0):
            pair = sensitivity_coefficients(ri, r0i)
            assert (pair.k1 > pair.k2) == (ri > 2.0 * r0i)

    @settings(max_examples=300)
    @given(x=st.floats(1e-6, 1e6))
    def test_crossover_in_reduced_coordinate(self, x):
        pair = sensitivity_coefficients(x, 1.0)
        assert (pair.k1 > pair.k2) == (x > 2.0)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPhysicalValueError):
            sensitivity_coefficients(0.0, 1.0)
        with pytest.raises(NonPhysicalValueError):
            sensitivity_coefficients(1.0, -1.0)


class TestSignalAtDepth:
    def test_gas_cavity_worked_example(self):
        # oracle values recomputed by hand: dM = (4/3) pi 500^3 (-2700)
        sig = at_depth(GAS_CAVITY, BACKGROUND)
        delta_m = (4.0 / 3.0) * math.pi * 500.0**3 * (-2700.0)
        assert delta_m == pytest.approx(-1.4137e12, rel=1e-4)
        assert sig.delta_u == pytest.approx(GAMMA * delta_m / 5000.0, rel=1e-12)
        assert sig.delta_u == pytest.approx(-1.887e-2, rel=1e-3)
        assert sig.delta_g == pytest.approx(-3.774e-6, rel=1e-3)
        # first-order oracle for the velocity shift: |delta_u| / v_s0
        v_s0 = math.sqrt(2.0 * (BACKGROUND.u_infinity - BACKGROUND.u0))
        assert sig.delta_v_s == pytest.approx(-sig.delta_u / v_s0, rel=1e-4)
        assert sig.delta_v_s == pytest.approx(1.905e-6, rel=1e-3)

    def test_gas_cavity_sign_pattern(self):
        sig = at_depth(GAS_CAVITY, BACKGROUND)
        assert sig.delta_u < 0.0
        assert sig.delta_g < 0.0
        assert sig.delta_v_s > 0.0
        assert sig.relative_u < 0.0 and sig.relative_g < 0.0

    def test_dense_body_sign_pattern(self):
        ore = AnomalySource(depth=5000.0, radius=500.0, density_contrast=1500.0)
        sig = at_depth(ore, BACKGROUND)
        assert sig.delta_u > 0.0
        assert sig.delta_g > 0.0
        assert sig.delta_v_s < 0.0

    def test_zero_mass_gives_zero_signal(self):
        sig = point_mass_signal(0.0, 5000.0, BACKGROUND)
        assert sig.delta_u == 0.0
        assert sig.delta_g == 0.0
        assert sig.delta_v_s == 0.0

    def test_linear_in_contrast(self):
        doubled = AnomalySource(depth=5000.0, radius=500.0,
                                density_contrast=-5400.0)
        one = at_depth(GAS_CAVITY, BACKGROUND)
        two = at_depth(doubled, BACKGROUND)
        assert two.delta_u == pytest.approx(2.0 * one.delta_u, rel=1e-12)
        assert two.delta_g == pytest.approx(2.0 * one.delta_g, rel=1e-12)
        # the velocity response is nonlinear; only sign and growth are
        # guaranteed
        assert two.delta_v_s > one.delta_v_s > 0.0

    def test_antisymmetry_exact(self):
        flipped = AnomalySource(depth=5000.0, radius=500.0,
                                density_contrast=2700.0)
        neg = at_depth(GAS_CAVITY, BACKGROUND)
        pos = at_depth(flipped, BACKGROUND)
        assert pos.delta_u == -neg.delta_u
        assert pos.delta_g == -neg.delta_g

    def test_perturbation_beyond_u_infinity_rejected(self):
        with pytest.raises(OutOfDomainError):
            point_mass_signal(1e30, 1000.0, BACKGROUND)

    def test_invalid_background_rejected(self):
        upside_down = BackgroundState(u0=2.0, g0=9.8, u_infinity=1.0)
        with pytest.raises(OutOfDomainError):
            point_mass_signal(1.0, 1000.0, upside_down)


def decimal_speed_change(delta_u, base):
    """sqrt(2*(base - delta_u)) - sqrt(2*base) in 60-digit Decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        b, d = Decimal(base), Decimal(delta_u)
        return float((2 * (b - d)).sqrt() - (2 * b).sqrt())


class TestSpeedChange:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 1e12), st.floats(1e-3, 0.999),
           st.sampled_from([-1.0, 1.0]), st.integers(-12, 0))
    def test_exact_to_roundoff(self, base, fraction, sign, exponent):
        # no cancellation: a few ulp of the Decimal value, even when
        # delta_u is 1e-15 of the base
        delta_u = sign * base * fraction * 10.0**exponent
        value, = speed_changes((delta_u,), base, math.sqrt(2.0 * base))
        exact = decimal_speed_change(delta_u, base)
        assert abs(value - exact) <= 4.0 * math.ulp(exact)

    def test_signal_uses_it(self):
        sig = at_depth(GAS_CAVITY, BACKGROUND)
        base = BACKGROUND.u_infinity - BACKGROUND.u0
        assert [sig.delta_v_s] == speed_changes((sig.delta_u,), base,
                                                math.sqrt(2.0 * base))
        exact = decimal_speed_change(sig.delta_u, base)
        assert abs(sig.delta_v_s - exact) <= math.ulp(exact)

    @pytest.mark.parametrize("base", [0.0, 5e-324, 4.9e7])
    def test_no_change_is_positive_zero(self, base):
        for delta_u in (0.0, -0.0):
            value, = speed_changes((delta_u,), base, math.sqrt(2.0 * base))
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_a_speed_past_the_float_range_is_nan(self):
        # the difference of the two speeds was nan or inf here; the
        # quotient would read 0 or -0
        for base, delta_u in ((1.7e308, 0.02), (8e307, -2e307)):
            value, = speed_changes((delta_u,), base, math.sqrt(2.0 * base))
            assert math.isnan(value)
        huge = BackgroundState(u0=1.0, g0=9.8, u_infinity=1.7e308)
        assert math.isnan(at_depth(GAS_CAVITY, huge).delta_v_s)


class TestBackgroundState:
    @pytest.mark.parametrize("field", BackgroundState._fields)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_physical_field_rejected(self, field, bad):
        values = {**BACKGROUND._asdict(), field: bad}
        with pytest.raises(NonPhysicalValueError, match=f"^{field} "):
            BackgroundState(**values)
        with pytest.raises(NonPhysicalValueError, match=f"^{field} "):
            BackgroundState(*values.values())
        with pytest.raises(NonPhysicalValueError, match=f"^{field} "):
            BACKGROUND._replace(**{field: bad})

    def test_plain_tuple_accepted(self):
        plain = (6.258e7, 9.823, 11.1652e7)
        assert BackgroundState(*plain) == BACKGROUND
        assert isinstance(BACKGROUND, tuple)
        assert at_depth(GAS_CAVITY, plain) == \
            at_depth(GAS_CAVITY, BACKGROUND)


class TestDetectabilityReport:
    def test_single_offset_advantage(self):
        rows = detectability_report(GAS_CAVITY, [GAS_CAVITY.depth], BACKGROUND)
        assert len(rows) == 1
        expected = GAS_CAVITY.depth * BACKGROUND.g0 / BACKGROUND.u0
        assert rows[0].advantage == pytest.approx(expected, rel=1e-12)

    def test_advantage_linear_in_offset(self):
        offsets = [5000.0, 10000.0, 20000.0]
        rows = detectability_report(GAS_CAVITY, offsets, BACKGROUND)
        base = rows[0].advantage / offsets[0]
        for row, off in zip(rows, offsets):
            assert row.advantage == pytest.approx(base * off, rel=1e-12)

    def test_raw_ratio_doubles_with_offset(self):
        rows = detectability_report(GAS_CAVITY, [5000.0, 10000.0], BACKGROUND)
        ratio = [r.relative_u / r.relative_g for r in rows]
        assert ratio[1] == pytest.approx(2.0 * ratio[0], rel=1e-12)

    def test_empty_offsets(self):
        assert detectability_report(GAS_CAVITY, [], BACKGROUND) == []

    def test_offset_closer_than_depth_rejected(self):
        with pytest.raises(NonPhysicalValueError):
            detectability_report(GAS_CAVITY, [1000.0], BACKGROUND)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(NonPhysicalValueError):
            detectability_report(GAS_CAVITY, [offset], BACKGROUND)

    def test_offsets_checked_before_any_signal(self):
        # the dense source's signal at its depth leaves the domain; the
        # too-close second offset must still be the error reported
        dense = AnomalySource(depth=1000.0, radius=999.0,
                              density_contrast=1e12)
        with pytest.raises(OutOfDomainError):
            detectability_report(dense, [1000.0], BACKGROUND)
        with pytest.raises(NonPhysicalValueError):
            detectability_report(dense, [1000.0, 500.0], BACKGROUND)

    def test_rows_carry_the_signal(self):
        offsets = [5000.0, 10000.0]
        rows = detectability_report(GAS_CAVITY, offsets, BACKGROUND)
        mass = (4.0 / 3.0) * math.pi * 500.0**3 * -2700.0
        for row, off in zip(rows, offsets):
            sig = point_mass_signal(mass, off, BACKGROUND)
            assert (row.delta_u, row.delta_g, row.delta_v_s) == \
                (sig.delta_u, sig.delta_g, sig.delta_v_s)
