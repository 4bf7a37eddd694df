import inspect
import math
import struct
import warnings
from itertools import product

import pytest

from geopotent import errors
from geopotent.anomaly import (
    BackgroundState,
    point_mass_signal,
    sensitivity_coefficients,
    sphere_anomaly,
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
from geopotent.pulse import pulsating_potential, surface_background
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
    errors.NonPhysicalInputError,
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


# Each positive-and-finite check that moved to core._require_positive:
# (id, call with the value under test, expected class, name in the message)
ARG = errors.NonPhysicalInputError
BACKGROUND = BackgroundState(6e7, 9.8, 1.1e8)
CHECKS = [
    ("sensitivity_r", lambda v: sensitivity_coefficients(v, 1.0), ARG, "r"),
    ("sensitivity_r0", lambda v: sensitivity_coefficients(1.0, v), ARG, "r0"),
    ("point_mass_distance", lambda v: point_mass_signal(1.0, v, BACKGROUND),
     ARG, "distance"),
    ("boundary_radius", lambda v: BoundaryReference("CMB", v, 1.0),
     errors.NonPhysicalValueError, "boundary radius"),
    ("compression_p_g", lambda v: compression_potential(v, 1.0), ARG, "p_g"),
    ("compression_rho_g", lambda v: compression_potential(1.0, v), ARG,
     "rho_g"),
    ("inverse_gm", lambda v: inverse_problem(v, 1.0, 1.0), ARG, "gm"),
    ("inverse_u_infinity", lambda v: inverse_problem(1.0, v, 1.0), ARG,
     "u_infinity"),
    ("inverse_body_radius", lambda v: inverse_problem(1.0, 1.0, v), ARG,
     "body_radius"),
    ("pulsating_mass", lambda v: pulsating_potential(v, 1.0, 2.0), ARG,
     "mass"),
    ("pulsating_radius_t", lambda v: pulsating_potential(1.0, v, 2.0), ARG,
     "radius_t"),
    ("pulsating_observer_r", lambda v: pulsating_potential(1.0, 1.0, v), ARG,
     "observer_r"),
    ("constants_gamma", PhysicalConstants, errors.NonPhysicalValueError,
     "gamma"),
    # the records a RunConfig is built from and its surface background
    *((f"earth_{name}", lambda v, name=name: EarthParameters(**{name: v}),
       errors.NonPhysicalValueError, name) for name in EarthParameters._fields),
    *((f"background_{name}",
       lambda v, name=name: BACKGROUND._replace(**{name: v}),
       errors.NonPhysicalValueError, name) for name in BackgroundState._fields),
]


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf,
                                   "1", None,
                                   pytest.param(10**400, id="int_past_float")])
@pytest.mark.parametrize("call, cls, name", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_positive_checks_share_one_message(call, cls, name, value):
    with pytest.raises(errors.InputError) as err:
        call(value)
    assert type(err.value) is cls
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
    ("sphere_anomaly", 6, lambda depth, radius, contrast, u0, g0, u_inf:
        sphere_anomaly(AnomalySource(depth, radius, contrast),
                       BackgroundState(u0, g0, u_inf))),
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
