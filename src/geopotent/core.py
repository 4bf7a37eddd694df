"""Domain types, physical constants, and profile validation.

Everything is SI: metres, kilograms, seconds, pascals, J/kg for specific
energies. All types are immutable after construction and safe to share
read-only across concurrent tasks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

from .errors import (
    NonMonotonicRadiusError,
    NonPhysicalValueError,
    PressureIncreaseError,
    ScheduleError,
    TooFewSamplesError,
)
from .kernels import uniform_sphere_potential

# Relative tolerance for the mass/density/radius consistency of a sphere.
SPHERE_CONSISTENCY_TOL = 1e-9

# Tolerated relative pressure rise between adjacent samples. Real tabulated
# pressure curves are monotone; the slack absorbs interpolation artifacts.
PRESSURE_SLACK = 0.005


def _require_positive(name, value, error=NonPhysicalValueError):
    """Raise `error` unless `value` is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise error(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Constant set threaded through every computation.

    Parameters
    ----------
    gamma : float
        Gravitational constant, m^3/(kg s^2). The default is the CODATA
        value 6.6743e-11; override it via configuration when reproducing
        results computed with another constant set.
    """

    gamma: float = 6.6743e-11

    def __post_init__(self):
        _require_positive("gamma", self.gamma)


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class UniformSphere:
    """Homogeneous mass source: the generator of all closed-form fields.

    Any two of (mass, radius, density) determine the third; the
    constructor rejects triples whose relative mismatch exceeds
    ``SPHERE_CONSISTENCY_TOL``. Use the ``from_*`` factories to build a
    sphere from two quantities.
    """

    mass: float
    radius: float
    density: float

    def __post_init__(self):
        _require_positive("mass", self.mass)
        _require_positive("radius", self.radius)
        _require_positive("density", self.density)
        implied = (4.0 / 3.0) * math.pi * self.density * self.radius**3
        if abs(self.mass - implied) / self.mass > SPHERE_CONSISTENCY_TOL:
            raise NonPhysicalValueError(
                f"inconsistent sphere: mass {self.mass!r} vs "
                f"(4/3)*pi*density*radius^3 = {implied!r}"
            )

    @classmethod
    def from_mass_radius(cls, mass, radius):
        return cls(mass, radius, mass / ((4.0 / 3.0) * math.pi * radius**3))

    @classmethod
    def from_density_radius(cls, density, radius):
        return cls((4.0 / 3.0) * math.pi * density * radius**3, radius, density)

    @classmethod
    def from_mass_density(cls, mass, density):
        radius = (3.0 * mass / (4.0 * math.pi * density)) ** (1.0 / 3.0)
        return cls(mass, radius, density)


@dataclass(frozen=True)
class EarthParameters:
    """Bulk parameters of the body under study (defaults: Earth).

    ``gm`` is the product gamma * mass; keep it consistent with the
    constant set in use (checked by the config loader to 1e-9 relative).
    """

    mean_radius: float = 6.371e6
    mass: float = 5.9737e24
    mean_density: float = 5515.0
    surface_first_cosmic_velocity: float = 7910.0
    gm: float = 6.6743e-11 * 5.9737e24

    def __post_init__(self):
        for f in fields(self):
            _require_positive(f.name, getattr(self, f.name))

    @property
    def uniform_surface_potential(self):
        """uniform_sphere_potential at gamma = gm/mass and the mean values."""
        return uniform_sphere_potential(self.gm / self.mass, self.mean_density,
                                        self.mean_radius)

    def check_gm(self, constants):
        """Raise unless gm matches constants.gamma * mass to 1e-9 relative."""
        expected = constants.gamma * self.mass
        if abs(self.gm - expected) / expected > 1e-9:
            raise NonPhysicalValueError(
                f"gm = {self.gm!r} inconsistent with gamma*mass = {expected!r}"
            )

    @classmethod
    def with_constants(cls, constants, **overrides):
        """Build parameters whose gm is derived from the given constants."""
        mass = overrides.get("mass", cls.__dataclass_fields__["mass"].default)
        gm = overrides.get("gm", constants.gamma * mass)
        params = cls(**{**overrides, "gm": gm})
        params.check_gm(constants)
        return params


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Tabulated (radius, density, pressure) model of a real body.

    Arrays are read-only float64 copies of the inputs. Radii are strictly
    increasing; density is positive; pressure is non-negative and rises
    between adjacent samples by no more than ``PRESSURE_SLACK`` relative.
    Construct through :func:`validate_profile`.
    """

    radii: np.ndarray
    densities: np.ndarray
    pressures: np.ndarray

    def __post_init__(self):
        import numpy as np
        for name in ("radii", "densities", "pressures"):
            # a copy: freezing it leaves the caller's array writable, and
            # later writes to the caller's array cannot reach the profile
            # or its cached mass table
            arr = np.array(getattr(self, name), dtype=np.float64, order="C")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        _validate_columns(self.radii, self.densities, self.pressures)

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
        return float(self.radii[-1])

    @property
    def samples(self):
        """Rows as a list of (radius, density, pressure) tuples."""
        return list(zip(self.radii.tolist(), self.densities.tolist(),
                        self.pressures.tolist()))

    def __len__(self):
        return self.radii.shape[0]

    def __eq__(self, other):
        import numpy as np
        if not isinstance(other, RadialProfile):
            return NotImplemented
        return (np.array_equal(self.radii, other.radii)
                and np.array_equal(self.densities, other.densities)
                and np.array_equal(self.pressures, other.pressures))

    def __hash__(self):
        return hash((self.radii.tobytes(), self.densities.tobytes(),
                     self.pressures.tobytes()))


def _validate_columns(radii, densities, pressures):
    import numpy as np
    n = radii.shape[0]
    if n < 4:
        raise TooFewSamplesError(f"profile needs at least 4 samples, got {n}")
    if densities.shape[0] != n or pressures.shape[0] != n:
        raise NonPhysicalValueError("profile columns have mismatched lengths")
    for name, col in (("radius", radii), ("density", densities),
                      ("pressure", pressures)):
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise NonPhysicalValueError(
                f"{name} is not finite at sample {bad[0]}", index=int(bad[0]))
    if radii[0] < 0.0:
        raise NonPhysicalValueError(
            f"first radius must be >= 0, got {radii[0]}", index=0)
    steps = np.diff(radii)
    bad = np.flatnonzero(steps <= 0.0)
    if bad.size:
        i = int(bad[0]) + 1
        raise NonMonotonicRadiusError(
            f"radii must be strictly increasing; sample {i} has "
            f"r = {radii[i]} after {radii[i - 1]}", index=i)
    bad = np.flatnonzero(densities <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise NonPhysicalValueError(
            f"density must be positive; sample {i} has {densities[i]}", index=i)
    bad = np.flatnonzero(pressures < 0.0)
    if bad.size:
        i = int(bad[0])
        raise NonPhysicalValueError(
            f"pressure must be non-negative; sample {i} has {pressures[i]}",
            index=i)
    rises = np.flatnonzero(pressures[1:]
                           > pressures[:-1] * (1.0 + PRESSURE_SLACK))
    if rises.size:
        i = int(rises[0]) + 1
        raise PressureIncreaseError(
            f"pressure rises with radius at sample {i}: {pressures[i - 1]} "
            f"-> {pressures[i]} exceeds slack {PRESSURE_SLACK:.2%}", index=i)


def validate_profile(raw_samples):
    """Validate raw (radius, density, pressure) rows into a RadialProfile.

    Parameters
    ----------
    raw_samples : sequence of (float, float, float)
        Rows ordered by radius; the last radius becomes the body radius.
        Pressure may rise between adjacent rows by at most
        ``PRESSURE_SLACK`` relative.

    Returns
    -------
    RadialProfile

    Raises
    ------
    TooFewSamplesError, NonMonotonicRadiusError, NonPhysicalValueError,
    PressureIncreaseError
        The first violation found, with its sample index where relevant.
    """
    import numpy as np
    rows = list(raw_samples)
    if not rows:
        raise TooFewSamplesError("profile is empty")
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise NonPhysicalValueError(
            "each sample must be a (radius, density, pressure) triple")
    return RadialProfile(arr[:, 0], arr[:, 1], arr[:, 2])


@dataclass(frozen=True)
class PotentialBreakdown:
    """Output of the direct problem: the surface energy balance.

    ``u_infinity`` is the sum of the three parts by construction; the
    constructor rejects any other value.
    """

    u_surface: float
    equipotential_surface: float
    compression_potential: float
    u_infinity: float

    def __post_init__(self):
        _require_positive("u_surface", self.u_surface)
        _require_positive("equipotential_surface", self.equipotential_surface)
        if not (math.isfinite(self.compression_potential)
                and self.compression_potential >= 0.0):
            raise NonPhysicalValueError(
                f"compression_potential must be >= 0, got "
                f"{self.compression_potential!r}")
        total = (self.u_surface + self.equipotential_surface
                 + self.compression_potential)
        if self.u_infinity != total:
            raise NonPhysicalValueError(
                f"u_infinity {self.u_infinity!r} is not the sum of its "
                f"parts {total!r}")

    @classmethod
    def from_parts(cls, u_surface, equipotential_surface, compression_potential):
        return cls(u_surface, equipotential_surface, compression_potential,
                   u_surface + equipotential_surface + compression_potential)


class DensityTrend(str, Enum):
    """Radial density trend implied by the characteristic radius."""

    UNIFORM = "uniform"
    DECREASING_OUTWARD = "decreasing_outward"
    INCREASING_OUTWARD = "increasing_outward"


@dataclass(frozen=True)
class InversionResult:
    """Characteristic gravitational radius and its classification.

    ``depth`` is body_radius - r0 (negative when the characteristic
    radius lies outside the body).
    """

    r0: float
    depth: float
    trend: DensityTrend

    def __post_init__(self):
        _require_positive("r0", self.r0)


@dataclass(frozen=True)
class AnomalySource:
    """Buried spherical density anomaly.

    depth is the source center below the observer datum; the source must
    be fully buried (depth > radius) and must actually contrast with the
    host (density_contrast != 0, signed, anomaly minus host).
    """

    depth: float
    radius: float
    density_contrast: float

    def __post_init__(self):
        _require_positive("radius", self.radius)
        if not (math.isfinite(self.depth) and self.depth > self.radius):
            raise NonPhysicalValueError(
                f"source must be fully buried: depth {self.depth!r} must "
                f"exceed radius {self.radius!r}")
        if not math.isfinite(self.density_contrast) or self.density_contrast == 0.0:
            raise NonPhysicalValueError(
                f"density_contrast must be non-zero, got {self.density_contrast!r}")


# The one table of segment kinds: each kind and the names of its
# parameters, in the order ScheduleSegment.params holds them.
SEGMENT_PARAMS = {
    "constant": ("radius",),
    "linear": ("radius_start", "radius_end"),
    "coalesce_step": ("radius_1", "radius_2"),
}
SEGMENT_KINDS = tuple(SEGMENT_PARAMS)


@dataclass(frozen=True)
class ScheduleSegment:
    """One time segment of a cavity schedule.

    params hold the radii named by ``SEGMENT_PARAMS[kind]``;
    coalesce_step is two cavities merged into one of equal total volume
    for the whole segment. Times and radii are stored as floats; the
    constructor raises ScheduleError unless t_end > t_start, both finite,
    and the kind's radii are positive and finite.
    """

    t_start: float
    t_end: float
    kind: str
    params: tuple

    def __post_init__(self):
        try:
            t_start, t_end = float(self.t_start), float(self.t_end)
            params = tuple(map(float, self.params))
        except (TypeError, ValueError, OverflowError):
            raise ScheduleError(
                f"times and radii must be numbers, got {self.t_start!r}, "
                f"{self.t_end!r} and {self.params!r}") from None
        if not (math.isfinite(t_start) and math.isfinite(t_end)
                and t_end > t_start):
            raise ScheduleError("t_end must exceed t_start")
        if self.kind not in SEGMENT_KINDS:
            raise ScheduleError(
                f"unknown kind {self.kind!r}, expected one of {SEGMENT_KINDS}")
        names = SEGMENT_PARAMS[self.kind]
        if len(params) != len(names):
            raise ScheduleError(f"kind {self.kind!r} takes {len(names)} "
                                f"parameter(s), got {len(params)}")
        if any(not (math.isfinite(p) and p > 0.0) for p in params):
            raise ScheduleError(f"radii must be positive, got {params}")
        object.__setattr__(self, "t_start", t_start)
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "params", params)

    def radius_cubed(self, t):
        """R(t)^3. Coalescence reports the exact conserved volume sum."""
        if self.kind == "constant":
            return self.params[0] ** 3
        if self.kind == "linear":
            r_a, r_b = self.params
            frac = (t - self.t_start) / (self.t_end - self.t_start)
            return (r_a + (r_b - r_a) * frac) ** 3
        r_1, r_2 = self.params
        return r_1**3 + r_2**3

    def radius(self, t):
        return self.radius_cubed(t) ** (1.0 / 3.0)

    def max_radius(self):
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "linear":
            return max(self.params)
        return (self.params[0] ** 3 + self.params[1] ** 3) ** (1.0 / 3.0)


@dataclass(frozen=True)
class CavitySchedule:
    """Piecewise R(t) of a constant-mass source, watched from a fixed radius.

    ``host_density_contrast`` is the cavity-minus-host density difference
    used by the anomaly (mass-deficit) view of the time series; a gas
    cavity has a negative value.
    """

    segments: tuple
    source_mass: float
    observer_radius: float
    host_density_contrast: float

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ScheduleError("schedule has no segments")
        _require_positive("source_mass", self.source_mass)
        _require_positive("observer_radius", self.observer_radius)
        if not math.isfinite(self.host_density_contrast):
            raise NonPhysicalValueError("host_density_contrast must be finite")
        for i, seg in enumerate(self.segments):
            if i and seg.t_start != self.segments[i - 1].t_end:
                raise ScheduleError(
                    f"segment {i}: starts at {seg.t_start}, previous segment "
                    f"ends at {self.segments[i - 1].t_end}; segments must be "
                    f"contiguous", index=i)
            if seg.max_radius() >= self.observer_radius:
                raise ScheduleError(
                    f"segment {i}: radius reaches {seg.max_radius()}, observer "
                    f"at {self.observer_radius} must stay outside the source",
                    index=i)
        # Boundary times between consecutive segments, for segment_at.
        object.__setattr__(self, "_ends",
                           tuple(seg.t_end for seg in self.segments[:-1]))

    @property
    def t_start(self):
        return self.segments[0].t_start

    @property
    def t_end(self):
        return self.segments[-1].t_end

    def segment_at(self, t):
        """Segment covering time t; end times belong to the next segment."""
        if not (self.t_start <= t <= self.t_end):
            raise ScheduleError(
                f"time {t} outside schedule span [{self.t_start}, {self.t_end}]")
        return self.segments[bisect_right(self._ends, t)]
