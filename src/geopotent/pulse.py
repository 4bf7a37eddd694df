"""Time-varying source: fixed mass, scheduled radius, fixed external observer.

Two views coexist and are both exposed. The literal view
(:func:`pulsating_potential`) evaluates the constant-mass potential
-gamma*M/r + (3/2)*gamma*M/R(t) exactly as written, so the raw formula
stays testable. The precursor view (:func:`evaluate_schedule`) treats the
scheduled body as a growing cavity: its mass deficit
(4/3)*pi*R(t)^3 * host_density_contrast perturbs a background field at
the observer, differenced against the first sample, which matches how
survey time series are differenced in practice. A growing gas cavity
(negative contrast) drives the potential and field strength down and the
equipotential velocity up.

Coalescence segments conserve cavity volume: the merged radius is
(R1^3 + R2^3)^(1/3), and the mass-deficit pipeline works directly from
the exact volume sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

from .anomaly import BackgroundState, point_mass_signal
from .core import (
    DEFAULT_CONSTANTS,
    CavitySchedule,
    EarthParameters,
    _require_positive,
)
from .errors import (
    NonPhysicalInputError,
    NonPhysicalValueError,
    OutOfDomainError,
)
from .kernels import exterior_gravity

_DEFAULT_GAMMA = DEFAULT_CONSTANTS.gamma


@dataclass(frozen=True)
class PulseSample:
    """One time step of the precursor series.

    `potential` is the literal constant-mass value at the observer; the
    delta fields are the mass-deficit view differenced against the first
    sample of the run.
    """

    t: float
    source_radius: float
    potential: float
    delta_u: float
    delta_g: float
    delta_v_s: float


@dataclass(frozen=True, eq=False)
class PulseTable:
    """The precursor series as columns of plain floats.

    Columns are named like the fields of PulseSample; the constructor
    stores each as a tuple and checks that they have equal length. The
    table also reads like the list of PulseSample it stands for: ``len``,
    iteration and integer indexing give PulseSample rows, slicing gives a
    table, and a table equals a list holding the same rows.
    """

    t: tuple
    source_radius: tuple
    potential: tuple
    delta_u: tuple
    delta_g: tuple
    delta_v_s: tuple

    def __post_init__(self):
        for field, col in zip(fields(self), self.columns()):
            object.__setattr__(self, field.name, tuple(col))
        if len({len(col) for col in self.columns()}) > 1:
            raise NonPhysicalValueError(
                "pulse columns must be of equal length")

    def columns(self):
        """The six columns, in the field order of PulseSample."""
        return (self.t, self.source_radius, self.potential, self.delta_u,
                self.delta_g, self.delta_v_s)

    def __len__(self):
        return len(self.t)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PulseTable(*(col[index] for col in self.columns()))
        i = operator.index(index)
        return PulseSample(*(col[i] for col in self.columns()))

    def __iter__(self):
        return map(PulseSample, *self.columns())

    def __eq__(self, other):
        if isinstance(other, PulseTable):
            return self.columns() == other.columns()
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


def pulsating_potential(mass, radius_t, observer_r, gamma=_DEFAULT_GAMMA):
    """Potential -gamma*M/r + (3/2)*gamma*M/R(t) at a fixed external observer.

    Shrinking the source at constant mass raises the value through the
    1/R(t) term while the observer term stays put. The observer must be
    strictly outside the source.
    """
    for name, value in (("mass", mass), ("radius_t", radius_t),
                        ("observer_r", observer_r)):
        _require_positive(name, value, NonPhysicalInputError)
    if observer_r <= radius_t:
        raise OutOfDomainError(
            f"observer at {observer_r!r} is not outside the source "
            f"(radius {radius_t!r})")
    gm = gamma * mass
    return -gm / observer_r + 1.5 * gm / radius_t


def surface_background(earth: EarthParameters | None = None) -> BackgroundState:
    """Compression-free surface background for the precursor view.

    u0 is the uniform-equivalent surface potential, u_infinity adds the
    surface equipotential term, so the baseline equipotential velocity is
    exactly the surface first cosmic velocity.
    """
    if earth is None:
        earth = EarthParameters()
    u_r = earth.uniform_surface_potential
    v1k = earth.surface_first_cosmic_velocity
    g0 = exterior_gravity(earth.gm, earth.mean_radius)
    return BackgroundState(u0=u_r, g0=g0, u_infinity=u_r + 0.5 * v1k * v1k)


def cavity_mass_deficit(schedule: CavitySchedule, t):
    """Signed anomalous mass (4/3)*pi*R(t)^3 * host_density_contrast.

    Coalescence segments use the exact conserved volume R1^3 + R2^3, so
    merging two cavities doubles the deficit of two equal ones exactly.
    """
    seg = schedule.segment_at(t)
    return ((4.0 / 3.0) * math.pi * seg.radius_cubed(t)
            * schedule.host_density_contrast)


def evaluate_schedule(schedule: CavitySchedule, sample_times,
                      background: BackgroundState | None = None,
                      gamma=_DEFAULT_GAMMA):
    """Precursor time series at the schedule's observer.

    Parameters
    ----------
    schedule : CavitySchedule
    sample_times : sequence of float
        Times within the schedule span (``ScheduleError`` otherwise); the
        first entry is the baseline all delta fields are differenced
        against.
    background : BackgroundState, optional
        Field at the observer; defaults to the compression-free surface
        background of the default body.
    gamma : float, optional

    Returns
    -------
    PulseTable
        One row per time, input order preserved. Every value equals,
        bit for bit, what :func:`pulsating_potential` and
        :func:`point_mass_signal` give for that sample. A constant
        schedule yields exactly zero deltas everywhere.
    """
    times = [float(t) for t in sample_times]
    if not times:
        return PulseTable([], [], [], [], [], [])
    if background is None:
        background = surface_background()
    else:
        background = BackgroundState(*background)
    # segment_at rejects a time outside the span before any sample is built
    cubes = [schedule.segment_at(t).radius_cubed(t) for t in times]
    deficits = [(4.0 / 3.0) * math.pi * cubed * schedule.host_density_contrast
                for cubed in cubes]
    delta_masses = [deficit - deficits[0] for deficit in deficits]
    radii = [cubed ** (1.0 / 3.0) for cubed in cubes]
    mass, observer = schedule.source_mass, schedule.observer_radius
    delta_u = [gamma * dm / observer for dm in delta_masses]
    base = background.u_infinity - background.u0
    # The two scalar functions are the only home of the checks and their
    # messages. Sample 0 runs the checks that do not depend on the sample;
    # the first later sample whose radius or perturbed potential fails
    # then raises from the same calls, in the same order, as a loop would.
    pulsating_potential(mass, radii[0], observer, gamma)
    point_mass_signal(delta_masses[0], observer, background, gamma)
    bad = next((i for i, (radius, du) in enumerate(zip(radii, delta_u))
                if not 0.0 < radius < observer or base - du < 0.0), None)
    if bad is not None:
        pulsating_potential(mass, radii[bad], observer, gamma)
        point_mass_signal(delta_masses[bad], observer, background, gamma)
    gm = gamma * mass
    return PulseTable(
        t=times,
        source_radius=radii,
        potential=[-gm / observer + 1.5 * gm / radius for radius in radii],
        delta_u=delta_u,
        delta_g=[gamma * dm / (observer * observer) for dm in delta_masses],
        delta_v_s=[math.sqrt(2.0 * (base - du)) - math.sqrt(2.0 * base)
                   for du in delta_u],
    )


def buoyancy_pressure(density_contrast, g_local, vertical_extent):
    """Order-of-magnitude buoyancy pressure |drho| * g * L of a light body."""
    for name, value in (("density_contrast", density_contrast),
                        ("g_local", g_local),
                        ("vertical_extent", vertical_extent)):
        if not (math.isfinite(value) and abs(value) > 0.0):
            raise NonPhysicalInputError(
                f"{name} must have positive magnitude, got {value!r}")
    if g_local < 0.0 or vertical_extent < 0.0:
        raise NonPhysicalInputError(
            "g_local and vertical_extent must be positive")
    return abs(density_contrast) * g_local * vertical_extent
