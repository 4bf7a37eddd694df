"""Exception hierarchy.

Every concrete error derives from exactly one of two bases, and the CLI
sets its exit code from that base alone:

    InputError    exit 2  the caller supplied something invalid: a bad
                          table, schedule, config, flag or argument,
                          including a non-positive or non-finite number
    DomainError   exit 3  valid input took an operation outside its
                          mathematical domain
"""


class GeopotentError(Exception):
    """Base class for all library errors."""


class InputError(GeopotentError):
    """Invalid input: construction, validation or argument checks (exit 2).

    ``index`` is the offending sample or segment index when the error
    comes from table or schedule validation, so file readers can report
    where it is; None otherwise.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DomainError(GeopotentError):
    """An operation evaluated outside its mathematical domain (exit 3)."""


class NonPhysicalValueError(InputError):
    """A constructed quantity violates a physical constraint."""


class NonPhysicalInputError(InputError):
    """An operation received a non-physical argument (negative radius, ...)."""


class NonMonotonicRadiusError(InputError):
    """Profile radii are not strictly increasing."""


class TooFewSamplesError(InputError):
    """Profile has fewer samples than the minimum of four."""


class PressureIncreaseError(InputError):
    """Pressure rises with radius beyond the monotonicity slack."""


class OutOfDomainError(DomainError):
    """Argument lies outside the mathematical domain of the operation."""


class DegenerateProfileError(DomainError):
    """Profile admits no answer (e.g. constant pressure has no gradient maximum)."""


class MissingPressureSourceError(InputError):
    """Neither a pressure override nor a profile was supplied."""


class ScheduleError(InputError):
    """Cavity schedule or segment failed validation; ``index`` is the
    offending segment where the schedule knows it."""


class ConfigError(InputError):
    """Run configuration file is malformed or contains unknown keys."""
