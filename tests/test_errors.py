import inspect
import math
import struct
import warnings
from itertools import product

import pytest

from geopotent import errors
from geopotent.anomaly import (
    BackgroundState,
    detectability_report,
    point_mass_signal,
    sensitivity_coefficients,
)
from geopotent.core import (
    AnomalySource,
    CavitySchedule,
    EarthParameters,
    PhysicalConstants,
    PotentialBreakdown,
    ScheduleSegment,
    UniformSphere,
)
from geopotent.field import (
    absolute_potential,
    equipotential_velocity,
    gravity,
    kinetic_potential,
    sample_field,
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


# A sample float() cannot read: a time is a ScheduleError named as the
# span check names nan, an offset fails the offsets check. A huge int
# already failed radii_cubed's span check, so it is not listed there.
SCHEDULE = CavitySchedule(SEGMENTS, 1.0, 10.0, -1.0)
NOT_FLOATS = {"None": None, "text": "x", "int_past_float": 10**400}


@pytest.mark.parametrize("call, value", [
    *(pytest.param(lambda v: SCHEDULE.radii_cubed([v]), NOT_FLOATS[name],
                   id=f"radii_cubed-{name}") for name in ("None", "text")),
    *(pytest.param(lambda v: evaluate_schedule(SCHEDULE, [5.0, v]),
                   NOT_FLOATS[name], id=f"evaluate_schedule-{name}")
      for name in NOT_FLOATS),
])
def test_a_time_that_is_not_a_float_is_a_schedule_error(call, value):
    with pytest.raises(errors.InputError) as err:
        call(value)
    assert type(err.value) is errors.ScheduleError
    assert str(err.value) == f"time {value} outside schedule span [0.0, 10.0]"


@pytest.mark.parametrize("value", NOT_FLOATS.values(), ids=NOT_FLOATS)
def test_an_offset_that_is_not_a_float_fails_the_offsets_check(value):
    with pytest.raises(errors.InputError) as err:
        detectability_report(AnomalySource(5.0, 1.0, 1.0), [6.0, value],
                             BACKGROUND)
    assert type(err.value) is errors.NonPhysicalValueError
    assert str(err.value) == (f"offset {value!r} must be finite and at "
                              "least the source depth 5.0")


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
