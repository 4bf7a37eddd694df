import inspect
import math

import pytest

from geopotent import errors
from geopotent.anomaly import (
    BackgroundState,
    crossover_radius,
    point_mass_signal,
    sensitivity_coefficients,
)
from geopotent.field import radius_from_velocity
from geopotent.pulse import pulsating_potential
from geopotent.solver import (
    BoundaryReference,
    compression_potential,
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
    ("crossover_r0", crossover_radius, ARG, "r0"),
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
    ("velocity_v_s", lambda v: radius_from_velocity(v, 1.0), ARG, "v_s"),
    ("velocity_g_local", lambda v: radius_from_velocity(1.0, v), ARG,
     "g_local"),
]


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, cls, name", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_positive_checks_share_one_message(call, cls, name, value):
    with pytest.raises(errors.InputError) as err:
        call(value)
    assert type(err.value) is cls
    assert str(err.value) == f"{name} must be positive and finite, got {value!r}"
