import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geopotent import (
    AnomalySource,
    CavitySchedule,
    DensityTrend,
    EarthParameters,
    InversionResult,
    PhysicalConstants,
    PotentialBreakdown,
    RadialProfile,
    ScheduleSegment,
    UniformSphere,
    direct_problem,
    surface_background,
)
from geopotent.errors import (
    NonMonotonicRadiusError,
    NonPhysicalValueError,
    PressureIncreaseError,
    ScheduleError,
    TooFewSamplesError,
)

from geopotent.kernels import uniform_sphere_potential

from conftest import EARTH_MEAN_DENSITY, EARTH_RADIUS, GAMMA, uniform_profile


class TestPhysicalConstants:
    def test_default(self):
        assert PhysicalConstants().gamma == 6.6743e-11

    def test_override(self):
        assert PhysicalConstants(gamma=6.674e-11).gamma == 6.674e-11

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_physical(self, bad):
        with pytest.raises(NonPhysicalValueError):
            PhysicalConstants(gamma=bad)


class TestUniformSphere:
    def test_factories_agree(self):
        a = UniformSphere.from_mass_radius(5.9737e24, 6.371e6)
        b = UniformSphere.from_density_radius(a.density, 6.371e6)
        c = UniformSphere.from_mass_density(5.9737e24, a.density)
        assert b.mass == pytest.approx(a.mass, rel=1e-12)
        assert c.radius == pytest.approx(a.radius, rel=1e-12)

    @settings(max_examples=200)
    @given(radius=st.floats(1e-2, 1e12), density=st.floats(1e-3, 1e8))
    def test_third_field_round_trip(self, radius, density):
        sphere = UniformSphere.from_density_radius(density, radius)
        implied_mass = (4.0 / 3.0) * math.pi * density * radius**3
        assert abs(sphere.mass - implied_mass) / implied_mass <= 1e-9
        again = UniformSphere.from_mass_radius(sphere.mass, radius)
        assert abs(again.density - density) / density <= 1e-9
        third = UniformSphere.from_mass_density(sphere.mass, density)
        assert abs(third.radius - radius) / radius <= 1e-9

    def test_many_random_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            radius = 10.0 ** rng.uniform(-2, 10)
            density = 10.0 ** rng.uniform(-2, 6)
            s = UniformSphere.from_density_radius(density, radius)
            assert abs(
                UniformSphere.from_mass_radius(s.mass, radius).density
                - density) / density <= 1e-9

    def test_holds_mass_and_radius_and_derives_density(self):
        sphere = UniformSphere(5.9737e24, 6.371e6)
        assert UniformSphere._fields == ("mass", "radius")
        assert sphere == UniformSphere.from_mass_radius(5.9737e24, 6.371e6)
        assert sphere.density == 5.9737e24 / ((4.0 / 3.0) * math.pi
                                              * 6.371e6 ** 3)
        with pytest.raises(AttributeError):
            sphere.density = 5515.0

    def test_rejects_non_positive(self):
        with pytest.raises(NonPhysicalValueError):
            UniformSphere.from_mass_radius(-1.0, 1.0)
        with pytest.raises(NonPhysicalValueError):
            UniformSphere.from_density_radius(1000.0, 0.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: UniformSphere.from_mass_radius(1.0, 0.0),
         "radius must be positive and finite, got 0.0"),
        (lambda: UniformSphere.from_mass_radius(1.0, 1e-110),
         "the volume of a body of radius 1e-110 m underflows to 0"),
        (lambda: UniformSphere.from_mass_density(1.0, 0.0),
         "density must be positive and finite, got 0.0"),
        (lambda: UniformSphere.from_mass_density(math.nan, 1.0),
         "mass must be positive and finite, got nan"),
        (lambda: UniformSphere.from_mass_radius(1e-320, 1e10),
         "density must be positive and finite, got 0.0"),
        (lambda: UniformSphere.from_mass_radius(1e308, 1e-100),
         "density must be positive and finite, got inf"),
    ], ids=["zero_radius", "volume_underflows", "zero_density", "nan_mass",
            "density_underflows", "density_overflows"])
    def test_factories_validate_before_they_divide(self, build, message):
        with pytest.raises(NonPhysicalValueError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("build", [
        lambda: UniformSphere(1e300, 1e103),
        lambda: UniformSphere.from_mass_radius(1e300, 1e103),
        lambda: UniformSphere.from_density_radius(1.0, 1e103),
    ], ids=["init", "from_mass_radius", "from_density_radius"])
    def test_radius_whose_cube_overflows(self, build):
        with pytest.raises(NonPhysicalValueError) as err:
            build()
        assert str(err.value) == ("radius 1e+103 is too large: its cube "
                                  "overflows the float range")


class TestEarthParameters:
    def test_defaults_are_the_measured_values(self):
        earth = EarthParameters()
        assert earth._fields == ("mean_radius", "mass", "mean_density",
                                 "surface_first_cosmic_velocity")
        assert earth.mean_radius == 6.371e6
        assert earth.mass == 5.9737e24
        assert earth.mean_density == 5515.0
        assert earth.surface_first_cosmic_velocity == 7910.0

    def test_gamma_comes_from_the_caller(self):
        # a mass away from Earth's implies nothing about gamma: the
        # surface terms use the gamma passed in, the default CODATA one
        earth = EarthParameters(mass=2e24)
        assert direct_problem(earth, 0.0).u_surface \
            == uniform_sphere_potential(GAMMA, 5515.0, 6.371e6)
        assert surface_background(earth).g0 \
            == GAMMA * 2e24 / (6.371e6 * 6.371e6)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPhysicalValueError):
            EarthParameters(mass=-5.9737e24)


class TestRadialProfile:
    def test_uniform_synthetic_is_valid(self):
        profile = uniform_profile()
        assert profile.body_radius == EARTH_RADIUS
        assert len(profile) == 21
        assert profile.densities[0] == EARTH_MEAN_DENSITY

    def test_non_monotonic_radii(self):
        with pytest.raises(NonMonotonicRadiusError) as err:
            RadialProfile([0.0, 2e6, 1e6, 3e6], [5515.0] * 4, [1e10] * 4)
        assert err.value.index == 2

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            RadialProfile([0.0], [5515.0], [1e10])
        with pytest.raises(TooFewSamplesError):
            RadialProfile([], [], [])

    def test_non_physical_values(self):
        radii = [0, 1e6, 2e6, 3e6]
        with pytest.raises(NonPhysicalValueError):
            RadialProfile(radii, [5515, -1.0, 5515, 5515],
                          [1e10, 9e9, 8e9, 7e9])
        with pytest.raises(NonPhysicalValueError):
            RadialProfile(radii, [5515] * 4, [1e10, -9e9, 8e9, 7e9])

    def test_pressure_rise_beyond_slack(self):
        with pytest.raises(PressureIncreaseError) as err:
            RadialProfile([0, 1e6, 2e6, 3e6], [5515] * 4,
                          [1.0e10, 9.0e9, 9.5e9, 7e9])
        assert err.value.index == 2

    def test_pressure_rise_within_slack(self):
        profile = RadialProfile([0, 1e6, 2e6, 3e6], [5515] * 4,
                                [1.0e10, 9.0e9, 9.0e9 * 1.004, 7e9])
        assert profile.body_radius == 3e6

    def test_idempotent(self):
        profile = uniform_profile()
        again = RadialProfile(profile.radii, profile.densities,
                              profile.pressures)
        assert again == profile

    def test_array_input_matches_rows(self):
        profile = uniform_profile()
        table = np.column_stack((profile.radii, profile.densities,
                                 profile.pressures))
        assert RadialProfile(*table.T) == profile
        with pytest.raises(TooFewSamplesError, match="profile is empty"):
            RadialProfile(*np.empty((0, 3)).T)

    def test_prem_fixture_loads(self, prem_profile):
        assert len(prem_profile) == 20
        assert prem_profile.body_radius == 6.371e6
        assert prem_profile.pressures[0] > 3.6e11

    def test_columns_read_only(self):
        profile = uniform_profile()
        with pytest.raises(TypeError):
            profile.radii[0] = 1.0

    def test_columns_are_float_tuples(self):
        profile = RadialProfile([0, 1, 2, np.float64(3.0)],
                                [4, 3, 2, np.float32(1.0)], [3, 2, 1, 0])
        for col in (profile.radii, profile.densities, profile.pressures):
            assert type(col) is tuple
            assert set(map(type, col)) == {float}
        assert (profile.radii, profile.densities, profile.pressures) == (
            (0.0, 1.0, 2.0, 3.0), (4.0, 3.0, 2.0, 1.0), (3.0, 2.0, 1.0, 0.0))

    def test_caller_arrays_stay_writable(self):
        r = np.array([0.0, 1.0e6, 2.0e6, 3.0e6])
        d = np.array([9000.0, 8000.0, 6000.0, 3000.0])
        p = np.array([3.0e11, 2.0e11, 1.0e11, 0.0])
        profile = RadialProfile(r, d, p)
        for caller, own in ((r, profile.radii), (d, profile.densities),
                            (p, profile.pressures)):
            assert caller.flags.writeable
            assert own == tuple(caller.tolist())
        r[1] = 1.5e6
        assert profile.radii[1] == 1.0e6


BAD_PROFILE_INPUTS = {
    "non_numeric_cell": (
        lambda: RadialProfile([0] * 4, ["a"] * 4, [1] * 4),
        "density is not a number at sample 0: 'a'", 0),
    "none_cell": (
        lambda: RadialProfile([0, 1, 2, 3], [4, 3, 2, 1], [3, 2, None, 0]),
        "pressure is not a number at sample 2: None", 2),
    "scalar_column": (
        lambda: RadialProfile(5.0, [1], [1]),
        "radius must be a one-dimensional column of numbers", None),
    "string_column": (
        lambda: RadialProfile("0123", [4, 3, 2, 1], [3, 2, 1, 0]),
        "radius must be a one-dimensional column of numbers", None),
    "two_dimensional_column": (
        lambda: RadialProfile(np.arange(8.0).reshape(4, 2), [4, 3, 2, 1],
                              [3, 2, 1, 0]),
        "radius must be a one-dimensional column of numbers", None),
    "mismatched_lengths": (
        lambda: RadialProfile([0, 1, 2, 3], [4, 3, 2], [3, 2, 1, 0]),
        "profile columns have mismatched lengths", None),
    "int_too_large_for_a_float": (
        lambda: RadialProfile([0, 1, 2, 3], [4, 3, 10**400, 1],
                              [3, 2, 1, 0]),
        "density at sample 2 is too large for a float", 2),
}


@pytest.mark.parametrize("kind", sorted(BAD_PROFILE_INPUTS))
def test_bad_profile_input_is_a_non_physical_value(kind):
    build, message, index = BAD_PROFILE_INPUTS[kind]
    with pytest.raises(NonPhysicalValueError) as err:
        build()
    assert str(err.value) == message
    assert err.value.index == index


class TestPotentialBreakdown:
    def test_u_infinity_is_the_sum_of_the_parts(self):
        b = PotentialBreakdown(3.1843e7, 3.1284e7, 4.8491e7)
        assert b._fields == ("u_surface", "equipotential_surface",
                             "compression_potential")
        assert b.u_infinity == b.u_surface + b.equipotential_surface + b.compression_potential

    def test_zero_compression_allowed(self):
        b = PotentialBreakdown(3.129e7, 3.129e7, 0.0)
        assert b.u_infinity == pytest.approx(6.258e7, rel=1e-3)

    def test_rejects_negative_parts(self):
        with pytest.raises(NonPhysicalValueError):
            PotentialBreakdown(-1.0, 1.0, 1.0)
        with pytest.raises(NonPhysicalValueError):
            PotentialBreakdown(1.0, 1.0, -1.0)


class TestInversionResult:
    def test_fields(self):
        r = InversionResult(r0=3.5711e6, depth=2.8e6,
                            trend=DensityTrend.DECREASING_OUTWARD)
        assert (r.r0, r.depth, r.trend) == (
            3.5711e6, 2.8e6, DensityTrend.DECREASING_OUTWARD)

    def test_rejects_non_positive_r0(self):
        with pytest.raises(NonPhysicalValueError):
            InversionResult(r0=0.0, depth=1.0, trend=DensityTrend.UNIFORM)


class TestAnomalySource:
    def test_valid(self):
        src = AnomalySource(depth=5000.0, radius=500.0, density_contrast=-2700.0)
        assert src.density_contrast < 0

    def test_must_be_buried(self):
        with pytest.raises(NonPhysicalValueError):
            AnomalySource(depth=400.0, radius=500.0, density_contrast=-2700.0)

    def test_contrast_must_be_non_zero(self):
        with pytest.raises(NonPhysicalValueError):
            AnomalySource(depth=5000.0, radius=500.0, density_contrast=0.0)

    def test_radius_whose_cube_overflows(self):
        with pytest.raises(NonPhysicalValueError, match="radius 1e\\+103 is "
                           "too large: its cube overflows the float range"):
            AnomalySource(depth=1e104, radius=1e103, density_contrast=-2700.0)


def _segment(t0, t1, kind, params):
    return ScheduleSegment(t_start=t0, t_end=t1, kind=kind, params=params)


class TestCavitySchedule:
    def test_valid_schedule(self):
        sched = CavitySchedule(
            segments=(_segment(0, 100, "constant", (500.0,)),
                      _segment(100, 200, "linear", (500.0, 1000.0))),
            source_mass=1e12, observer_radius=5000.0,
            host_density_contrast=-2700.0)
        assert sched.t_start == 0 and sched.t_end == 200
        assert sched.radii_and_cubes([50, 150]) == ([500.0, 750.0],
                                                    [500.0**3, 750.0**3])

    def test_segments_must_be_contiguous(self):
        with pytest.raises(ScheduleError) as err:
            CavitySchedule(
                segments=(_segment(0, 100, "constant", (500.0,)),
                          _segment(150, 200, "constant", (500.0,))),
                source_mass=1e12, observer_radius=5000.0,
                host_density_contrast=-2700.0)
        assert err.value.index == 1

    def test_observer_must_stay_outside(self):
        with pytest.raises(ScheduleError):
            CavitySchedule(
                segments=(_segment(0, 100, "linear", (500.0, 6000.0)),),
                source_mass=1e12, observer_radius=5000.0,
                host_density_contrast=-2700.0)

    @pytest.mark.parametrize("contrast", [math.nan, math.inf, -math.inf])
    def test_host_density_contrast_must_be_finite(self, contrast):
        with pytest.raises(NonPhysicalValueError) as err:
            CavitySchedule(
                segments=(_segment(0, 100, "constant", (500.0,)),),
                source_mass=1e12, observer_radius=5000.0,
                host_density_contrast=contrast)
        assert str(err.value) == "host_density_contrast must be finite"

    def test_coalesce_conserves_volume(self):
        seg = _segment(0, 100, "coalesce_step", (500.0, 500.0))
        radii, cubes = seg.radii_and_cubes([0.0, 50.0])
        assert cubes == [2.0 * 500.0**3] * 2
        assert radii[0] == radii[1] == pytest.approx(
            500.0 * 2.0 ** (1.0 / 3.0), rel=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ScheduleError):
            CavitySchedule(
                segments=(_segment(0, 100, "wobble", (500.0,)),),
                source_mass=1e12, observer_radius=5000.0,
                host_density_contrast=-2700.0)

    def test_span_must_be_a_finite_float(self):
        # each segment spans 1e308, the whole schedule twice that
        with pytest.raises(ScheduleError) as err:
            CavitySchedule(
                segments=(_segment(-1e308, 0, "constant", (500.0,)),
                          _segment(0, 1e308, "constant", (500.0,))),
                source_mass=1e12, observer_radius=5000.0,
                host_density_contrast=-2700.0)
        assert str(err.value) == ("schedule span [-1e+308, 1e+308] is too "
                                  "long: t_end - t_start overflows the "
                                  "float range")

    def test_time_outside_span(self):
        sched = CavitySchedule(
            segments=(_segment(0, 100, "constant", (500.0,)),),
            source_mass=1e12, observer_radius=5000.0,
            host_density_contrast=-2700.0)
        with pytest.raises(ScheduleError) as err:
            sched.radii_and_cubes([50.0, 101.0])
        assert str(err.value) == "time 101.0 outside schedule span [0.0, 100.0]"


class TestScheduleSegment:
    @pytest.mark.parametrize("t0, t1, kind, params, message", [
        (0, 100, "wobble", (500.0,), "unknown kind 'wobble', expected one "
                                     "of ('constant', 'linear', "
                                     "'coalesce_step')"),
        (0, 100, "constant", (500.0, 600.0),
         "kind 'constant' takes 1 parameter(s), got 2"),
        (0, 100, "linear", (500.0,),
         "kind 'linear' takes 2 parameter(s), got 1"),
        (0, 100, "constant", ("x",),
         "times and radii must be numbers, got 0, 100 and ('x',)"),
        (0, 100, "constant", None,
         "times and radii must be numbers, got 0, 100 and None"),
        (0, 100, "constant", (None,),
         "times and radii must be numbers, got 0, 100 and (None,)"),
        (0, 100, "constant", (0,), "radii must be positive, got (0.0,)"),
        (0, 100, "constant", (-1,), "radii must be positive, got (-1.0,)"),
        (0, 100, "linear", (500.0, math.nan),
         "radii must be positive, got (500.0, nan)"),
        (0, 100, "coalesce_step", (500.0, math.inf),
         "radii must be positive, got (500.0, inf)"),
        (100, 100, "constant", (500.0,), "t_end must exceed t_start"),
        (100, 0, "constant", (500.0,), "t_end must exceed t_start"),
        (0, math.nan, "constant", (500.0,), "t_end must exceed t_start"),
        ("zero", 100, "constant", (500.0,),
         "times and radii must be numbers, got 'zero', 100 and (500.0,)"),
        (0, 100, "constant", (1e110,),
         "radius 1e+110 is too large: its cube overflows the float range"),
        (0, 100, "linear", (1.0, 1e110), "radius_end 1e+110 is too large: "
                                         "its cube overflows the float range"),
        (0, 100, "coalesce_step", (1e110, 1e110), "radius_1 1e+110 is too "
         "large: its cube overflows the float range"),
        (-1e308, 1e308, "constant", (500.0,), "span [-1e+308, 1e+308] is "
         "too long: t_end - t_start overflows the float range"),
    ])
    def test_invalid_segment_raises_at_construction(self, t0, t1, kind,
                                                    params, message):
        with pytest.raises(ScheduleError) as err:
            _segment(t0, t1, kind, params)
        assert str(err.value) == message
        assert err.value.index is None

    @settings(max_examples=200)
    @given(kind=st.sampled_from(["constant", "linear", "coalesce_step"]),
           params=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=2),
           frac=st.floats(0.0, 1.0))
    def test_radius_is_never_complex(self, kind, params, frac):
        try:
            seg = _segment(0.0, 100.0, kind, params)
        except ScheduleError:
            assert len(params) != (1 if kind == "constant" else 2) or \
                min(params) <= 0.0
            return
        # a tiny radius may cube to 0.0, never to a negative number
        [radius], [cubed] = seg.radii_and_cubes([100.0 * frac])
        assert type(cubed) is float and cubed >= 0.0
        assert type(radius) is float and radius >= 0.0

    def test_stores_floats(self):
        seg = _segment(0, 100, "linear", [500, 1000])
        assert (seg.t_start, seg.t_end, seg.params) == (0.0, 100.0,
                                                        (500.0, 1000.0))
        assert all(type(v) is float
                   for v in (seg.t_start, seg.t_end, *seg.params))
