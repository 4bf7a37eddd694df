import inspect
import math
import struct
import warnings
from enum import Enum
from itertools import combinations, product

import numpy as np
import pytest

from geopotent import errors
from geopotent.anomaly import (
    BackgroundState,
    detectability_report,
    point_mass_signal,
    sensitivity_coefficients,
)
from geopotent.config import RunConfig
from geopotent.core import (
    AnomalySource,
    CavitySchedule,
    DensityTrend,
    EarthParameters,
    InversionResult,
    PhysicalConstants,
    PotentialBreakdown,
    RadialProfile,
    Record,
    ScheduleSegment,
    UniformSphere,
)
from geopotent.field import (
    absolute_potential,
    equipotential_velocity,
    gravity,
    kinetic_potential,
    sample_field,
    u_infinity_homogeneous,
)
from geopotent.profiles import (
    core_equilibrium_gravity,
    enclosed_mass,
    interpolate,
    mean_density,
    pressure_gradient_max,
    surface_potential_integral,
)
from geopotent.pulse import (
    evaluate_schedule,
    pulsating_potential,
    surface_background,
)
from geopotent.solver import (
    BoundaryReference,
    compression_potential,
    direct_problem,
    homogeneity_bound,
    inverse_problem,
)

INPUT = {
    errors.ConfigError,
    errors.MissingPressureSourceError,
    errors.NonMonotonicRadiusError,
    errors.NonPhysicalValueError,
    errors.PressureIncreaseError,
    errors.ScheduleError,
    errors.TooFewSamplesError,
}
DOMAIN = {errors.DegenerateProfileError, errors.OutOfDomainError}


def test_every_concrete_error_has_exactly_one_family():
    bases = {errors.GeopotentError, errors.InputError, errors.DomainError}
    concrete = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                if issubclass(cls, errors.GeopotentError)} - bases
    assert concrete == INPUT | DOMAIN
    for cls in concrete:
        assert issubclass(cls, errors.InputError) != \
            issubclass(cls, errors.DomainError), cls
    assert {c for c in concrete if issubclass(c, errors.InputError)} == INPUT


# Each positive-and-finite check that moved to core._require_positive,
# which always raises NonPhysicalValueError:
# (id, call with the value under test, name in the message)
BACKGROUND = BackgroundState(6e7, 9.8, 1.1e8)
CHECKS = [
    ("sensitivity_r", lambda v: sensitivity_coefficients(v, 1.0), "r"),
    ("sensitivity_r0", lambda v: sensitivity_coefficients(1.0, v), "r0"),
    ("point_mass_distance", lambda v: point_mass_signal(1.0, v, BACKGROUND),
     "distance"),
    ("boundary_radius", lambda v: BoundaryReference("CMB", v, 1.0),
     "boundary radius"),
    ("compression_p_g", lambda v: compression_potential(v, 1.0), "p_g"),
    ("compression_rho_g", lambda v: compression_potential(1.0, v), "rho_g"),
    ("inverse_gm", lambda v: inverse_problem(v, 1.0, 1.0), "gm"),
    ("inverse_u_infinity", lambda v: inverse_problem(1.0, v, 1.0),
     "u_infinity"),
    ("inverse_body_radius", lambda v: inverse_problem(1.0, 1.0, v),
     "body_radius"),
    ("pulsating_mass", lambda v: pulsating_potential(v, 1.0, 2.0), "mass"),
    ("pulsating_radius_t", lambda v: pulsating_potential(1.0, v, 2.0),
     "radius_t"),
    ("pulsating_observer_r", lambda v: pulsating_potential(1.0, 1.0, v),
     "observer_r"),
    ("constants_gamma", PhysicalConstants, "gamma"),
    # the records a RunConfig is built from and its surface background
    *((f"earth_{name}", lambda v, name=name: EarthParameters(**{name: v}),
       name) for name in EarthParameters._fields),
    *((f"background_{name}",
       lambda v, name=name: BACKGROUND._replace(**{name: v}), name)
      for name in BackgroundState._fields),
]


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf,
                                   "1", None,
                                   pytest.param(10**400, id="int_past_float")])
@pytest.mark.parametrize("call, name", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_positive_checks_share_one_message(call, name, value):
    with pytest.raises(errors.InputError) as err:
        call(value)
    assert type(err.value) is errors.NonPhysicalValueError
    assert str(err.value) == f"{name} must be positive and finite, got {value!r}"


# The checks other than positive-and-finite: a value that is not a number
# fails them as one that is out of range does.
SEGMENTS = (ScheduleSegment(0.0, 10.0, "constant", (1.0,)),)
SPHERE = UniformSphere(1e20, 1e3)
TYPED_CHECKS = [
    ("sphere_mass", lambda v: UniformSphere(v, 1.0)),
    ("boundary_half_thickness", lambda v: BoundaryReference("a", 1.0, v)),
    ("source_depth", lambda v: AnomalySource(v, 1.0, 1.0)),
    ("source_radius", lambda v: AnomalySource(5.0, v, 1.0)),
    ("source_contrast", lambda v: AnomalySource(5.0, 1.0, v)),
    ("schedule_mass", lambda v: CavitySchedule(SEGMENTS, v, 10.0, -1.0)),
    ("schedule_contrast", lambda v: CavitySchedule(SEGMENTS, 1.0, 10.0, v)),
    ("breakdown_phi_g", lambda v: PotentialBreakdown(1.0, 1.0, v)),
    ("direct_phi_g", lambda v: direct_problem(EarthParameters(), v)),
    *((f"field_{func.__name__}", lambda v, func=func: func(SPHERE, v))
      for func in (absolute_potential, gravity, equipotential_velocity,
                   kinetic_potential)),
]


@pytest.mark.parametrize("value", ["1", None,
                                   pytest.param(10**400, id="int_past_float")])
@pytest.mark.parametrize("call", [c[1] for c in TYPED_CHECKS],
                         ids=[c[0] for c in TYPED_CHECKS])
def test_values_that_are_not_numbers_are_input_errors(call, value):
    with pytest.raises(errors.InputError):
        call(value)


# A time float() cannot read, passed to radii_and_cubes directly, is a
# ScheduleError named as the span check names nan. evaluate_schedule
# reads its column first; see BAD_COLUMNS below.
SCHEDULE = CavitySchedule(SEGMENTS, 1.0, 10.0, -1.0)


@pytest.mark.parametrize("value", [None, "x"],
                         ids=["radii_and_cubes-None",
                              "radii_and_cubes-text"])
def test_a_time_that_is_not_a_float_is_a_schedule_error(value):
    with pytest.raises(errors.InputError) as err:
        SCHEDULE.radii_and_cubes([value])
    assert type(err.value) is errors.ScheduleError
    assert str(err.value) == f"time {value} outside schedule span [0.0, 10.0]"


# Every column a caller supplies goes through core._float_column, so one
# table of bad columns holds for all four readers. Each reader is called
# on a column and returns its result as rows of floats; OK is a good
# sample for each of them.
OK = 6.0
GOOD = [6.0, 7.0, 8.0, 9.0]
PROFILE_TAIL = ([4.0, 3.0, 2.0, 1.0], [3.0, 2.0, 1.0, 0.0])
SOURCE = AnomalySource(5.0, 1.0, 1.0)


def _profile_rows(column):
    profile = RadialProfile(column, *PROFILE_TAIL)
    return list(zip(profile.radii, profile.densities, profile.pressures))


COLUMN_READERS = {
    "RadialProfile": ("radius", _profile_rows),
    "evaluate_schedule": ("time",
                          lambda col: list(evaluate_schedule(SCHEDULE, col))),
    "detectability_report": ("offset", lambda col: detectability_report(
        SOURCE, col, BACKGROUND)),
    "sample_field": ("radius", lambda col: list(sample_field(SPHERE, col))),
}
NOT_A_COLUMN = "{} must be a one-dimensional column of numbers"
# (id, a new column, message with the reader's name, index)
BAD_COLUMNS = [
    ("bare_float", lambda: OK, NOT_A_COLUMN, None),
    ("None", lambda: None, NOT_A_COLUMN, None),
    ("digits", lambda: "12", NOT_A_COLUMN, None),
    ("nested_list", lambda: [OK, [OK]], NOT_A_COLUMN, None),
    ("array_0d", lambda: np.array(OK), NOT_A_COLUMN, None),
    ("array_2d", lambda: np.array([[OK, OK]]), NOT_A_COLUMN, None),
    ("None_cell", lambda: [OK, None], "{} is not a number at sample 1: None",
     1),
    ("one_shot_iterator", lambda: iter([OK, "x", OK]),
     "{} is not a number at sample 1: 'x'", 1),
    ("text_array", lambda: np.array([str(OK), "x"]),
     "{} is not a number at sample 1: 'x'", 1),
    ("int_past_float", lambda: [OK, 10**400],
     "{} at sample 1 is too large for a float", 1),
]


@pytest.mark.parametrize("column, message, index",
                         [c[1:] for c in BAD_COLUMNS],
                         ids=[c[0] for c in BAD_COLUMNS])
@pytest.mark.parametrize("reader", COLUMN_READERS)
def test_a_bad_column_is_a_non_physical_value(reader, column, message,
                                              index):
    name, read = COLUMN_READERS[reader]
    with pytest.raises(errors.InputError) as err:
        read(column())
    assert type(err.value) is errors.NonPhysicalValueError
    assert str(err.value) == message.format(name)
    assert err.value.index == index


# an empty column gives an empty result, except a profile's, which needs
# at least two knots
@pytest.mark.parametrize("reader, good", [
    *(pytest.param(reader, GOOD, id=reader) for reader in COLUMN_READERS),
    *(pytest.param(reader, [], id=f"{reader}-empty")
      for reader in COLUMN_READERS if reader != "RadialProfile"),
])
def test_any_iterable_of_good_samples_reads_as_the_list(reader, good):
    _, read = COLUMN_READERS[reader]

    def bits(rows):
        return [[value.hex() for value in row] for row in rows]

    expected = bits(read(good))
    assert len(expected) == len(good)
    for column in (tuple(good), (v for v in good), np.array(good)):
        assert bits(read(column)) == expected


# Floats at the edges of the range. A call of 5 or more arguments takes a
# 6-value subset, so each grid stays below 50k calls.
EXTREMES = (0.0, -1.0, 1e-320, 1e-170, 1.0, 1e170, 1e308, math.inf, math.nan)
EXTREMES_6 = (-1.0, 1e-320, 1e-170, 1.0, 1e170, 1e308)


def _on_sphere(func):
    """`func` on a sphere built from a mass and a radius, at r, with gamma."""
    return lambda mass, radius, r, gamma: func(
        UniformSphere.from_mass_radius(mass, radius), r, gamma)


# (id, arguments, call): every public scalar function and factory, with
# the records it takes built inside the call
SCALAR_CALLS = [
    ("surface_background", 5, lambda radius, mass, rho, v1k, gamma:
        surface_background(EarthParameters(radius, mass, rho, v1k), gamma)),
    ("direct_problem", 6, lambda radius, mass, rho, v1k, phi_g, gamma:
        direct_problem(EarthParameters(radius, mass, rho, v1k), phi_g,
                       gamma)),
    ("inverse_problem", 3, inverse_problem),
    ("sensitivity_coefficients", 3, sensitivity_coefficients),
    ("point_mass_signal", 6, lambda delta_mass, distance, u0, g0, u_inf,
        gamma: point_mass_signal(delta_mass, distance,
                                 BackgroundState(u0, g0, u_inf), gamma)),
    *((func.__name__, 4, _on_sphere(func)) for func in (
        absolute_potential, gravity, equipotential_velocity,
        kinetic_potential)),
    ("UniformSphere", 2, UniformSphere),
    ("from_mass_radius", 2, UniformSphere.from_mass_radius),
    ("from_density_radius", 2, UniformSphere.from_density_radius),
    ("from_mass_density", 2, UniformSphere.from_mass_density),
    ("pulsating_potential", 4, pulsating_potential),
    ("compression_potential", 2, compression_potential),
]


@pytest.mark.parametrize("arity, call", [c[1:] for c in SCALAR_CALLS],
                         ids=[c[0] for c in SCALAR_CALLS])
def test_extreme_floats_raise_only_library_errors(arity, call):
    values = EXTREMES if arity < 5 else EXTREMES_6
    escaped = []
    for args in product(values, repeat=arity):
        try:
            call(*args)
        except errors.GeopotentError:
            pass
        except Exception as exc:  # anything else escapes the library
            escaped.append(f"{args}: {type(exc).__name__}: {exc}")
    assert escaped == []


def _extreme_profiles():
    """Each 4-knot profile that builds from the extremes: radii a rising
    4-subset of them, densities an inner and an outer one, and pressures
    one, held over the inner two knots and 0 above them."""
    positive = [v for v in EXTREMES if v > 0.0 and math.isfinite(v)]
    radii = list(combinations([0.0, *positive], 4))
    densities = [(inner, inner, outer, outer)
                 for inner, outer in product((1e-320, 1.0, 1e308), repeat=2)]
    pressures = [(p, p, 0.0, 0.0) for p in (0.0, 1e-320, 1.0, 1e308)]
    built = []
    for columns in product(radii, densities, pressures):
        try:
            built.append(RadialProfile(*columns))
        except errors.GeopotentError:
            pass
    return built


EXTREME_PROFILES = _extreme_profiles()

# (id, call on a profile and one extreme value): every profile function;
# the value is a radius, a core radius or gamma, or unused
PROFILE_CALLS = [
    ("enclosed_mass", enclosed_mass),
    ("mean_density", lambda profile, _: mean_density(profile)),
    ("surface_potential_integral", surface_potential_integral),
    ("pressure_gradient_max",
     lambda profile, _: pressure_gradient_max(profile)),
    ("core_equilibrium_gravity", core_equilibrium_gravity),
    ("interpolate", interpolate),
    ("homogeneity_bound", homogeneity_bound),
]


# the extremes, then values that are not numbers
PROFILE_VALUES = (*EXTREMES, "1", None, [1.0])


@pytest.mark.parametrize("call", [c[1] for c in PROFILE_CALLS],
                         ids=[c[0] for c in PROFILE_CALLS])
def test_extreme_profiles_raise_only_library_errors(call):
    assert len(EXTREME_PROFILES) > 300
    escaped = []
    for profile, value in product(EXTREME_PROFILES, PROFILE_VALUES):
        try:
            call(profile, value)
        except errors.GeopotentError:
            pass
        except Exception as exc:  # anything else escapes the library
            escaped.append(f"{profile.radii}, {profile.densities}, "
                           f"{profile.pressures}, {value}: "
                           f"{type(exc).__name__}: {exc}")
    assert escaped == []


def _numbers(value):
    """The numbers a record holds, through its nested records and tuples."""
    if isinstance(value, (str, Enum)):
        return []
    if isinstance(value, Record):
        value = value._values()
    if isinstance(value, tuple):
        return [n for item in value for n in _numbers(item)]
    return [value]


# Every record stores its numbers as the Python floats its checks
# return, whatever type of number it is built from. The grid holds ints
# in and past the float range and numpy scalars. It reaches only record
# fields and the arguments that a check reads; an int where no check
# reads it, such as gamma, still reaches the arithmetic as an int.
SEGMENT = ScheduleSegment(0, 10, "constant", (1,))
NUMBERS = (0, -1, 3, 10**103, 10**160, 10**308, 10**400,
           np.int64(3), np.float64(1e103), np.float32(3.0))
RECORD_BUILDS = [
    ("PhysicalConstants", 1, PhysicalConstants),
    ("UniformSphere", 2, UniformSphere),
    ("from_mass_radius", 2, UniformSphere.from_mass_radius),
    ("from_density_radius", 2, UniformSphere.from_density_radius),
    ("from_mass_density", 2, UniformSphere.from_mass_density),
    ("EarthParameters", 4, EarthParameters),
    ("RadialProfile", 1, lambda r: RadialProfile([0, 1, 2, r], [4, 3, 2, 1],
                                                 [3, 2, 1, 0])),
    ("BoundaryReference", 2, lambda radius, half: BoundaryReference(
        "CMB", radius, half)),
    ("AnomalySource", 3, AnomalySource),
    ("ScheduleSegment", 1, lambda r: ScheduleSegment(0, 10, "constant",
                                                     (r,))),
    ("CavitySchedule", 3, lambda mass, observer, contrast: CavitySchedule(
        (SEGMENT,), mass, observer, contrast)),
    ("PotentialBreakdown", 3, PotentialBreakdown),
    ("BackgroundState", 3, BackgroundState),
    ("InversionResult", 2, lambda r0, depth: InversionResult(
        r0, depth, DensityTrend.UNIFORM)),
    ("RunConfig", 1, lambda p_g: RunConfig(p_g_override=p_g)),
    # the functions that check their arguments compute with the floats
    ("inverse_problem", 3, inverse_problem),
    ("compression_potential", 2, compression_potential),
    ("pulsating_potential", 3, pulsating_potential),
    ("sensitivity_coefficients", 2, sensitivity_coefficients),
    ("direct_problem", 1, lambda phi_g: direct_problem(EarthParameters(),
                                                      phi_g)),
]


@pytest.mark.parametrize("arity, build", [c[1:] for c in RECORD_BUILDS],
                         ids=[c[0] for c in RECORD_BUILDS])
def test_records_hold_python_floats(arity, build):
    escaped, kept, built = [], [], 0
    for args in product(NUMBERS, repeat=arity):
        try:
            record = build(*args)
        except errors.GeopotentError:
            continue
        except Exception as exc:  # anything else escapes the library
            escaped.append(f"{args}: {type(exc).__name__}: {exc}")
            continue
        built += 1
        kept += [f"{args}: {n!r}" for n in _numbers(record)
                 if type(n) is not float]
    assert escaped == []
    assert kept == []
    assert built


@pytest.mark.parametrize("build", [
    lambda: UniformSphere(1e300, 10**103),
    lambda: UniformSphere.from_density_radius(1.0, 10**103),
    lambda: AnomalySource(10**105, 10**103, -1.0),
], ids=["init", "from_density_radius", "anomaly_source"])
def test_an_int_radius_whose_cube_overflows(build):
    with pytest.raises(errors.InputError) as err:
        build()
    assert type(err.value) is errors.NonPhysicalValueError
    assert str(err.value) == ("radius 1e+103 is too large: its cube "
                              "overflows the float range")


BACKGROUND = BackgroundState(3.1e7, 9.8, 6.2e7)
PROFILE = ([0.0, 1.0, 2.0, 3.0], [4.0, 3.0, 2.0, 1.0], [3.0, 2.0, 1.0, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: point_mass_signal(10**400, 5000.0, BACKGROUND),
     "delta_mass must be a number within the float range"),
    (lambda: point_mass_signal(1e12, 5000.0, BACKGROUND, gamma=10**400),
     "gamma must be finite"),
    (lambda: pulsating_potential(1e12, 500.0, 5000.0, gamma=10**400),
     "gamma must be finite"),
    (lambda: evaluate_schedule(SCHEDULE, [0.0, 5.0], gamma=10**400),
     "gamma must be finite"),
    (lambda: surface_background(EarthParameters(), 10**400),
     "gamma must be finite"),
    (lambda: direct_problem(EarthParameters(), 1e7, 10**400),
     "gamma must be finite"),
    (lambda: sensitivity_coefficients(5000.0, 500.0, 10**400),
     "gamma must be finite"),
    (lambda: surface_potential_integral(RadialProfile(*PROFILE), 10**400),
     "gamma must be finite"),
    (lambda: homogeneity_bound(RadialProfile(*PROFILE), 10**400),
     "gamma must be finite"),
    (lambda: u_infinity_homogeneous(SPHERE, 10**400), "gamma must be finite"),
    (lambda: absolute_potential(SPHERE, 5.0, 10**400), "gamma must be finite"),
    (lambda: gravity(SPHERE, 5.0, 10**400), "gamma must be finite"),
    (lambda: equipotential_velocity(SPHERE, 5.0, 10**400),
     "gamma must be finite"),
    (lambda: kinetic_potential(SPHERE, 5.0, 10**400), "gamma must be finite"),
    (lambda: sample_field(SPHERE, [5.0], 10**400), "gamma must be finite"),
    (lambda: enclosed_mass(RadialProfile(*PROFILE), 10**400),
     "r must be a number within the float range"),
    (lambda: interpolate(RadialProfile(*PROFILE), 10**400),
     "r must be a number within the float range"),
    (lambda: core_equilibrium_gravity(RadialProfile(*PROFILE), 10**400),
     "core_radius must be a number within the float range"),
    (lambda: enclosed_mass(RadialProfile(*PROFILE), "1"),
     "r must be a number within the float range"),
    (lambda: interpolate(RadialProfile(*PROFILE), None),
     "r must be a number within the float range"),
    (lambda: core_equilibrium_gravity(RadialProfile(*PROFILE), [1.0]),
     "core_radius must be a number within the float range"),
], ids=["point_mass_signal-delta_mass", "point_mass_signal-gamma",
        "pulsating_potential-gamma", "evaluate_schedule-gamma",
        *(f"{name}-gamma" for name in (
            "surface_background", "direct_problem",
            "sensitivity_coefficients", "surface_potential_integral",
            "homogeneity_bound", "u_infinity_homogeneous",
            "absolute_potential", "gravity", "equipotential_velocity",
            "kinetic_potential", "sample_field")),
        "enclosed_mass-r", "interpolate-r", "core_equilibrium_gravity-r",
        "enclosed_mass-text", "interpolate-None",
        "core_equilibrium_gravity-list"])
def test_an_int_past_the_float_range_is_a_non_physical_value(call, message):
    # each argument is read once per call as a float, before any
    # arithmetic; as an int it would raise OverflowError there, and a
    # profile radius that is not a number would raise TypeError
    with pytest.raises(errors.InputError) as err:
        call()
    assert type(err.value) is errors.NonPhysicalValueError
    assert str(err.value) == message


def test_array_and_scalar_field_paths_agree():
    # at one radius, sample_field gives the value bits of the four scalar
    # functions, or raises the library error the first of them raises,
    # and never warns: a cell np.where discards must stay silent
    scalars = (absolute_potential, gravity, equipotential_velocity,
               kinetic_potential)

    def outcome(cells):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return struct.pack("4d", *cells())
        except (errors.GeopotentError, RuntimeWarning) as exc:
            return type(exc)

    disagree = []
    for mass, radius, r, gamma in product(EXTREMES, repeat=4):
        try:
            sphere = UniformSphere(mass, radius)
        except errors.GeopotentError:
            continue
        scalar = outcome(lambda: [f(sphere, r, gamma) for f in scalars])
        array = outcome(lambda: [column[0] for column in sample_field(
            sphere, [r], gamma).columns()[1:]])
        if scalar != array:
            disagree.append(f"{(mass, radius, r, gamma)}: {scalar} {array}")
    assert disagree == []
