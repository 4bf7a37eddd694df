import inspect

from geopotent import errors

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
