"""Domain types, profile validation, and the direct problem's surface terms.

Everything is SI: metres, kilograms, seconds, pascals, J/kg for specific
energies. All types are immutable after construction and safe to share
read-only across concurrent tasks: result records are named tuples, the
validated domain types are :class:`Record` subclasses.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import namedtuple
from enum import Enum
from functools import cached_property, partial
from itertools import chain, groupby, repeat

from .errors import (
    NonMonotonicRadiusError,
    NonPhysicalValueError,
    OutOfDomainError,
    PressureIncreaseError,
    ScheduleError,
    TooFewSamplesError,
)
from .kernels import ball_volume, exterior_gravity, uniform_sphere_potential

# Tolerated relative pressure rise between adjacent samples. Real tabulated
# pressure curves are monotone; the slack absorbs interpolation artifacts.
PRESSURE_SLACK = 0.005

# Every character at which str.splitlines() breaks a line. A report cell
# or preamble value holding one would add a line to the report.
LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _finite(value):
    """``math.isfinite(value)``, False for a value that is not a number or
    is an int past the float range."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _require_positive(name, value):
    """`value` as a float; NonPhysicalValueError unless positive and finite."""
    if not (_finite(value) and value > 0.0):
        raise NonPhysicalValueError(
            f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _require_non_negative(name, value):
    """`value` as a float; NonPhysicalValueError unless >= 0 and finite."""
    if not (_finite(value) and value >= 0.0):
        raise NonPhysicalValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def _require_finite(name, value):
    """`value` as a float; NonPhysicalValueError unless finite."""
    if not _finite(value):
        raise NonPhysicalValueError(f"{name} must be finite")
    return float(value)


def _require_float(name, value):
    """`value` as a float, inf and nan kept; NonPhysicalValueError if it is
    not a number or is an int past the float range."""
    try:
        math.isfinite(value)
    except (TypeError, OverflowError):
        raise NonPhysicalValueError(
            f"{name} must be a number within the float range") from None
    return float(value)


def _cube(name, value, error=NonPhysicalValueError):
    """``value * value * value``; `error` naming `name` if it overflows."""
    cube = value * value * value
    if cube == math.inf:
        raise error(f"{name} {value!r} is too large: its cube overflows the "
                    f"float range")
    return cube


def _cbrt(value):
    """Cube root of `value` >= 0, exact under scaling by 2**(3k): only the
    mantissa, scaled into [0.5, 4), goes through a power (``math.cbrt``
    needs Python 3.11)."""
    mantissa, exponent = math.frexp(value)
    thirds, rest = divmod(exponent, 3)
    return math.ldexp(math.ldexp(mantissa, rest) ** (1.0 / 3.0), thirds)


class Record:
    """Immutable record: the base of the validated domain types.

    A subclass names its fields in ``_fields``, usually also its
    ``__slots__``, and its ``__init__`` checks the values and stores them
    in field order with ``_set``. Records of one type compare and hash by
    their fields, repr like ``Name(field=value, ...)``, and raise
    AttributeError on any attribute assignment or deletion.
    """

    __slots__ = ()
    _fields = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self):
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._values()


class ColumnTable(Record):
    """Columns that read like the list of rows they stand for.

    A subclass sets two hooks: ``_row``, the row class, a named tuple
    whose fields name the columns; ``_column``, which the constructor
    applies to each column to store it. A stored column is read as
    Python floats by ``_floats``. The constructor takes the columns as
    the row class takes its values, by position or by name, and checks
    that they have equal length. ``len``, iteration and integer indexing
    give rows, slicing gives a table, and a table equals a list holding
    the same rows.
    """

    # no __slots__: a subclass's columns are named by its row class, which
    # is only known once the subclass exists
    def __init_subclass__(cls):
        cls._fields = cls._row._fields

    def __init__(self, *columns, **named):
        columns = tuple(map(self._column, self._row(*columns, **named)))
        if len(set(map(len, columns))) > 1:
            raise NonPhysicalValueError(
                f"{type(self).__name__} columns must be of equal length")
        self._set(*columns)

    def columns(self):
        """The columns, in the field order of the row class."""
        return self._values()

    def __len__(self):
        return len(self.columns()[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*(col[index] for col in self.columns()))
        i = operator.index(index)
        return self._row(*(float(col[i]) for col in self.columns()))

    def __iter__(self):
        return map(self._row, *map(_floats, self.columns()))

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return (list(map(_floats, self.columns()))
                    == list(map(_floats, other.columns())))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


class PhysicalConstants(Record):
    """Constant set threaded through every computation.

    Parameters
    ----------
    gamma : float
        Gravitational constant, m^3/(kg s^2). The default is the CODATA
        value 6.6743e-11; override it via configuration when reproducing
        results computed with another constant set.
    """

    __slots__ = _fields = ("gamma",)

    def __init__(self, gamma=6.6743e-11):
        self._set(_require_positive("gamma", gamma))


DEFAULT_CONSTANTS = PhysicalConstants()


class UniformSphere(Record):
    """Homogeneous mass source: the generator of all closed-form fields.

    Holds its mass and radius; the density is derived from them. The
    ``from_*`` factories build a sphere from any two of (mass, radius,
    density).
    """

    __slots__ = _fields = ("mass", "radius")

    def __init__(self, mass, radius):
        mass = _require_positive("mass", mass)
        radius = _require_positive("radius", radius)
        if not ball_volume(_cube("radius", radius)):
            raise NonPhysicalValueError(
                f"the volume of a body of radius {radius!r} m underflows to 0")
        self._set(mass, radius)
        _require_positive("density", self.density)

    @property
    def density(self):
        return self.mass / ball_volume(_cube("radius", self.radius))

    @classmethod
    def from_mass_radius(cls, mass, radius):
        return cls(mass, radius)

    @classmethod
    def from_density_radius(cls, density, radius):
        density = _require_positive("density", density)
        radius = _require_positive("radius", radius)
        return cls(ball_volume(_cube("radius", radius)) * density, radius)

    @classmethod
    def from_mass_density(cls, mass, density):
        mass = _require_positive("mass", mass)
        density = _require_positive("density", density)
        radius = _cbrt(3.0 * mass / (4.0 * math.pi * density))
        return cls(mass, radius)


class EarthParameters(Record):
    """Measured bulk values of the body under study (defaults: Earth).

    Gamma is not one of them: every function that needs it takes it from
    the caller, which computes gamma * mass where it is used.
    """

    __slots__ = _fields = ("mean_radius", "mass", "mean_density",
                           "surface_first_cosmic_velocity")

    def __init__(self, mean_radius=6.371e6, mass=5.9737e24, mean_density=5515.0,
                 surface_first_cosmic_velocity=7910.0):
        self._set(*map(_require_positive, self._fields,
                       (mean_radius, mass, mean_density,
                        surface_first_cosmic_velocity)))


class RadialProfile(Record):
    """Tabulated (radius, density, pressure) model of a real body.

    Takes three columns of equal length, ordered by radius: lists,
    tuples or 1-D arrays of numbers or numeric strings; a table ``t``
    of rows is ``RadialProfile(*t.T)``. They are stored as tuples of
    Python floats. Radii are strictly increasing and the last is the
    body radius; density is positive; pressure is non-negative and rises
    between adjacent samples by no more than ``PRESSURE_SLACK``
    relative. The first violation raises an ``InputError`` subclass
    carrying its sample ``index`` where it has one.
    """

    # no __slots__: the cached mass table lives in the instance __dict__
    _fields = ("radii", "densities", "pressures")

    def __init__(self, radii, densities, pressures):
        columns = tuple(map(_float_column, ("radius", "density", "pressure"),
                            (radii, densities, pressures)))
        self._set(*columns)
        _validate_columns(*columns)

    @cached_property
    def mass_table(self):
        """Exact enclosed mass at the knots, built on first use and kept.

        A :class:`geopotent.profiles.MassTable`; every mass and potential
        integral over this profile is evaluated from it.
        """
        from .profiles import build_mass_table  # profiles imports this module
        return build_mass_table(self.radii, self.densities)

    @property
    def body_radius(self):
        return self.radii[-1]

    def __len__(self):
        return len(self.radii)


def _floats(values):
    """`values` as Python floats: ``values.tolist()`` where it has one,
    which reads an array without importing numpy, else `values` itself."""
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else values


def _float_column(name, values):
    """A tuple of floats from a column of numbers or numeric strings, read
    once; NonPhysicalValueError names the first cell float() rejects."""
    cells = _floats(values)
    if _is_sequence(cells):
        cells = tuple(cells)
        try:
            return tuple(map(float, cells))
        except (TypeError, ValueError, OverflowError):
            pass
        for i, cell in enumerate(cells):
            if _is_sequence(cell):
                break
            try:
                float(cell)
            except OverflowError:
                raise NonPhysicalValueError(
                    f"{name} at sample {i} is too large for a float",
                    index=i) from None
            except (TypeError, ValueError):
                raise NonPhysicalValueError(
                    f"{name} is not a number at sample {i}: {cell!r}",
                    index=i) from None
    raise NonPhysicalValueError(
        f"{name} must be a one-dimensional column of numbers")


def _repeated(values, lengths):
    """A tuple of `values`, each repeated as many times as its length."""
    return tuple(chain.from_iterable(map(repeat, values, lengths)))


def _is_sequence(value):
    return hasattr(value, "__iter__") and not isinstance(value, (str, bytes))


def _validate_columns(radii, densities, pressures):
    # one C-level pass per rule on a clean profile; the index of the
    # first violation is looked up only once a rule fails
    n = len(radii)
    if n < 4:
        raise TooFewSamplesError(
            f"profile needs at least 4 samples, got {n}" if n
            else "profile is empty")
    if len(densities) != n or len(pressures) != n:
        raise NonPhysicalValueError("profile columns have mismatched lengths")
    for name, col in (("radius", radii), ("density", densities),
                      ("pressure", pressures)):
        if not all(map(math.isfinite, col)):
            i = next(i for i, v in enumerate(col) if not math.isfinite(v))
            raise NonPhysicalValueError(
                f"{name} is not finite at sample {i}", index=i)
    if radii[0] < 0.0:
        raise NonPhysicalValueError(
            f"first radius must be >= 0, got {radii[0]}", index=0)
    if not all(map(operator.lt, radii, radii[1:])):
        i = next(i for i in range(1, n) if not radii[i - 1] < radii[i])
        raise NonMonotonicRadiusError(
            f"radii must be strictly increasing; sample {i} has "
            f"r = {radii[i]} after {radii[i - 1]}", index=i)
    if not min(densities) > 0.0:
        i = next(i for i, v in enumerate(densities) if not v > 0.0)
        raise NonPhysicalValueError(
            f"density must be positive; sample {i} has {densities[i]}", index=i)
    if min(pressures) < 0.0:
        i = next(i for i, v in enumerate(pressures) if v < 0.0)
        raise NonPhysicalValueError(
            f"pressure must be non-negative; sample {i} has {pressures[i]}",
            index=i)
    ceilings = map(operator.mul, pressures, repeat(1.0 + PRESSURE_SLACK))
    if any(map(operator.gt, pressures[1:], ceilings)):
        i = next(i for i in range(1, n)
                 if pressures[i] > pressures[i - 1] * (1.0 + PRESSURE_SLACK))
        raise PressureIncreaseError(
            f"pressure rises with radius at sample {i}: {pressures[i - 1]} "
            f"-> {pressures[i]} exceeds slack {PRESSURE_SLACK:.2%}", index=i)


class CheckedTuple:
    """First base of a named tuple whose ``__new__`` checks its fields:
    ``_make``, and so ``_replace``, builds through ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PotentialBreakdown(CheckedTuple, namedtuple(
        "PotentialBreakdown",
        "u_surface equipotential_surface compression_potential")):
    """Output of the direct problem: the surface energy balance.

    ``u_infinity`` is read as the sum of the three parts.
    """

    __slots__ = ()

    def __new__(cls, u_surface, equipotential_surface, compression_potential):
        return super().__new__(
            cls, _require_positive("u_surface", u_surface),
            _require_positive("equipotential_surface", equipotential_surface),
            _require_non_negative("compression_potential",
                                  compression_potential))

    @property
    def u_infinity(self):
        """u_surface + equipotential_surface + compression_potential."""
        return (self.u_surface + self.equipotential_surface
                + self.compression_potential)


class BackgroundState(CheckedTuple,
                      namedtuple("BackgroundState", "u0 g0 u_infinity")):
    """Unperturbed field at the observer: potential, gravity, at-infinity value.

    A tuple, so ``BackgroundState(*t)`` accepts any 3-sequence; every
    field must be positive and finite. The ordering u0 < u_infinity is
    checked where a signal is evaluated.
    """

    __slots__ = ()

    def __new__(cls, u0, g0, u_infinity):
        return super().__new__(cls, *map(_require_positive, cls._fields,
                                         (u0, g0, u_infinity)))


def direct_problem(earth: EarthParameters, phi_g,
                   gamma=DEFAULT_CONSTANTS.gamma) -> PotentialBreakdown:
    """Maximum (at-infinity) potential from surface data.

    Parameters
    ----------
    earth : EarthParameters
        Measured bulk values of the body.
    phi_g : float
        Compression potential, J/kg; zero selects the homogeneous model.
    gamma : float, optional
        Gravitational constant.

    Returns
    -------
    PotentialBreakdown
        u_surface = (2/3)*gamma*rho*pi*R^2, equipotential_surface =
        v1k^2/2 and compression_potential = phi_g; u_infinity is their sum.
    """
    _require_non_negative("phi_g", phi_g)
    gamma = _require_finite("gamma", gamma)
    v1k = earth.surface_first_cosmic_velocity
    return PotentialBreakdown(
        uniform_sphere_potential(gamma, earth.mean_density, earth.mean_radius),
        0.5 * v1k * v1k, phi_g)


def surface_background(earth: EarthParameters = EarthParameters(),
                       gamma=DEFAULT_CONSTANTS.gamma) -> BackgroundState:
    """Compression-free surface background for the precursor view.

    The direct problem of the homogeneous model (phi_G = 0): u0 is its
    uniform-equivalent surface potential and u_infinity its at-infinity
    value, so the baseline equipotential velocity is exactly the surface
    first cosmic velocity; g0 is gamma*M/R^2. An R^2 that underflows to
    0 raises ``OutOfDomainError``.
    """
    breakdown = direct_problem(earth, 0.0, gamma)
    radius = earth.mean_radius
    if not radius * radius:
        raise OutOfDomainError(
            f"the square of the mean radius {radius!r} m underflows to 0")
    g0 = exterior_gravity(gamma * earth.mass, radius)
    return BackgroundState(u0=breakdown.u_surface, g0=g0,
                           u_infinity=breakdown.u_infinity)


class DensityTrend(str, Enum):
    """Radial density trend implied by the characteristic radius."""

    UNIFORM = "uniform"
    DECREASING_OUTWARD = "decreasing_outward"
    INCREASING_OUTWARD = "increasing_outward"


class InversionResult(CheckedTuple,
                      namedtuple("InversionResult", "r0 depth trend")):
    """Characteristic gravitational radius and its classification.

    ``depth`` is body_radius - r0 (negative when the characteristic
    radius lies outside the body); ``trend`` is a DensityTrend.
    """

    __slots__ = ()

    def __new__(cls, r0, depth, trend):
        return super().__new__(cls, _require_positive("r0", r0),
                               _require_finite("depth", depth), trend)


class BoundaryReference(Record):
    """Named reference radius with a tolerance band (a layer half-thickness).

    The name is a report cell: a string with no comma and no line break
    (no character of ``LINE_BREAKS``, where str.splitlines() breaks).
    """

    __slots__ = _fields = ("name", "radius", "layer_half_thickness")

    def __init__(self, name, radius, layer_half_thickness):
        if (not isinstance(name, str) or "," in name
                or not LINE_BREAKS.isdisjoint(name)):
            raise NonPhysicalValueError(
                f"boundary name must be a string without a comma or line "
                f"break, got {name!r}")
        self._set(name, _require_positive("boundary radius", radius),
                  _require_non_negative("layer_half_thickness",
                                        layer_half_thickness))


class AnomalySource(Record):
    """Buried spherical density anomaly.

    depth is the source center below the observer datum; the source must
    be fully buried (depth > radius) and must actually contrast with the
    host (density_contrast != 0, signed, anomaly minus host).
    """

    __slots__ = _fields = ("depth", "radius", "density_contrast")

    def __init__(self, depth, radius, density_contrast):
        radius = _require_positive("radius", radius)
        _cube("radius", radius)
        if not (_finite(depth) and depth > radius):
            raise NonPhysicalValueError(
                f"source must be fully buried: depth {depth!r} must "
                f"exceed radius {radius!r}")
        if not _finite(density_contrast) or density_contrast == 0.0:
            raise NonPhysicalValueError(
                f"density_contrast must be non-zero, got {density_contrast!r}")
        self._set(float(depth), radius, float(density_contrast))


# The one table of segment kinds: each kind and the names of its
# parameters, in the order ScheduleSegment.params holds them.
SEGMENT_PARAMS = {
    "constant": ("radius",),
    "linear": ("radius_start", "radius_end"),
    "coalesce_step": ("radius_1", "radius_2"),
}


def segment_params(kind):
    """The parameter names of segment `kind`; ScheduleError if unknown."""
    # a tuple test, so an unhashable kind read from JSON is unknown too
    kinds = tuple(SEGMENT_PARAMS)
    if kind not in kinds:
        raise ScheduleError(f"unknown kind {kind!r}, expected one of {kinds}")
    return SEGMENT_PARAMS[kind]


class ScheduleSegment(Record):
    """One time segment of a cavity schedule.

    params hold the radii named by ``SEGMENT_PARAMS[kind]``;
    coalesce_step is two cavities merged into one of equal total volume
    for the whole segment. Times and radii are stored as floats; the
    constructor raises ScheduleError unless t_end > t_start, both finite
    and a finite float apart, and the kind's radii are positive and finite.
    """

    __slots__ = _fields = ("t_start", "t_end", "kind", "params")

    def __init__(self, t_start, t_end, kind, params):
        try:
            start, end = float(t_start), float(t_end)
            radii = tuple(map(float, params))
        except (TypeError, ValueError, OverflowError):
            raise ScheduleError(
                f"times and radii must be numbers, got {t_start!r}, "
                f"{t_end!r} and {params!r}") from None
        if not (math.isfinite(start) and math.isfinite(end) and end > start):
            raise ScheduleError("t_end must exceed t_start")
        if not math.isfinite(end - start):
            raise ScheduleError(f"span [{start}, {end}] is too long: t_end - "
                                f"t_start overflows the float range")
        names = segment_params(kind)
        if len(radii) != len(names):
            raise ScheduleError(f"kind {kind!r} takes {len(names)} "
                                f"parameter(s), got {len(radii)}")
        if any(not (math.isfinite(r) and r > 0.0) for r in radii):
            raise ScheduleError(f"radii must be positive, got {radii}")
        for name, radius in zip(names, radii):
            _cube(name, radius, ScheduleError)
        self._set(start, end, kind, radii)

    def radii_and_cubes(self, times):
        """R(t) and R(t)^3 once per run of `times`, all in this segment,
        with the run lengths, as three lists. A kind that holds R fixed
        makes all of `times` one run; a linear segment makes each time
        its own run."""
        n = len(times)
        if self.kind == "constant":
            radius, = self.params
            return [radius], [radius * radius * radius], [n]
        if self.kind == "linear":
            r_a, r_b = self.params
            t0, dr, span = self.t_start, r_b - r_a, self.t_end - self.t_start
            radii = [r_a + dr * ((t - t0) / span) for t in times]
            cubes = [radius * radius * radius for radius in radii]
            return radii, cubes, [1] * n
        r_1, r_2 = self.params
        cube = r_1 * r_1 * r_1 + r_2 * r_2 * r_2
        return [_cbrt(cube)], [cube], [n]


class CavitySchedule(Record):
    """Piecewise R(t) of a constant-mass source, watched from a fixed radius.

    ``host_density_contrast`` is the cavity-minus-host density difference
    used by the anomaly (mass-deficit) view of the time series; a gas
    cavity has a negative value. Every R(t) lies in (0, observer_radius).
    """

    __slots__ = _fields = ("segments", "source_mass", "observer_radius",
                           "host_density_contrast")

    def __init__(self, segments, source_mass, observer_radius,
                 host_density_contrast):
        segments = tuple(segments)
        if not segments:
            raise ScheduleError("schedule has no segments")
        source_mass = _require_positive("source_mass", source_mass)
        observer_radius = _require_positive("observer_radius", observer_radius)
        host_density_contrast = _require_finite("host_density_contrast",
                                                host_density_contrast)
        lows = []
        for i, seg in enumerate(segments):
            if i and seg.t_start != segments[i - 1].t_end:
                raise ScheduleError(
                    f"segment {i}: starts at {seg.t_start}, previous segment "
                    f"ends at {segments[i - 1].t_end}; segments must be "
                    f"contiguous", index=i)
            # R(t) is monotone within a segment: its ends bound it
            ends = seg.radii_and_cubes([seg.t_start, seg.t_end])[0]
            radius = max(ends)
            if radius >= observer_radius:
                raise ScheduleError(
                    f"segment {i}: radius reaches {radius}, observer at "
                    f"{observer_radius} must stay outside the source",
                    index=i)
            lows.append(min(ends))
        self._set(segments, source_mass, observer_radius,
                  host_density_contrast)
        if not math.isfinite(self.t_end - self.t_start):
            raise ScheduleError(
                f"schedule span [{self.t_start}, {self.t_end}] is too long: "
                f"t_end - t_start overflows the float range")
        # checked last, so that a schedule with one of the faults above
        # reports that fault whatever its radii
        for i, radius in enumerate(lows):
            if not radius > 0.0:
                raise ScheduleError(
                    f"segment {i}: radius falls to {radius}; a cavity "
                    f"radius must stay positive", index=i)

    @property
    def t_start(self):
        return self.segments[0].t_start

    @property
    def t_end(self):
        return self.segments[-1].t_end

    def radii_and_cubes(self, times):
        """R(t) and R(t)^3 once per run of `times`, with the run lengths,
        as three lists; an end time belongs to the next segment.

        A run is a stretch of consecutive times in one segment of a kind
        that holds R fixed, or one time in a linear segment (see
        :meth:`ScheduleSegment.radii_and_cubes`).
        """
        t_start, t_end = self.t_start, self.t_end
        for t in times:
            try:
                if t_start <= t <= t_end:
                    continue
            except TypeError:  # not a number, so not in the span
                pass
            raise ScheduleError(
                f"time {t} outside schedule span [{t_start}, {t_end}]")
        ends = [seg.t_end for seg in self.segments[:-1]]
        columns = ([], [], [])
        for i, group in groupby(times, partial(bisect_right, ends)):
            for column, part in zip(
                    columns, self.segments[i].radii_and_cubes(list(group))):
                column += part
        return columns
