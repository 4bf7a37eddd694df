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

The schedule gives each R(t) with the cube the deficit is taken from; a
coalesced cavity keeps the exact volume sum R1^3 + R2^3 of the two.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .anomaly import point_mass_signal, speed_changes
from .core import (
    DEFAULT_CONSTANTS,
    BackgroundState,
    CavitySchedule,
    ColumnTable,
    _float_column,
    _require_positive,
    surface_background,
)
from .errors import OutOfDomainError
from .kernels import ball_volume, exterior_gravity, u_infinity

_DEFAULT_GAMMA = DEFAULT_CONSTANTS.gamma


class PulseSample(namedtuple("PulseSample", "t source_radius potential "
                             "delta_u delta_g delta_v_s")):
    """One time step of the precursor series.

    `potential` is the literal constant-mass value at the observer; the
    delta fields are the mass-deficit view differenced against the first
    sample of the run.
    """

    __slots__ = ()


class PulseTable(ColumnTable):
    """The precursor series as columns of plain floats.

    Columns are named like the fields of PulseSample and stored as
    tuples; the table reads like the list of PulseSample it stands for
    (see :class:`geopotent.core.ColumnTable`).
    """

    _row = PulseSample
    _column = tuple


def pulsating_potential(mass, radius_t, observer_r, gamma=_DEFAULT_GAMMA):
    """Potential -gamma*M/r + (3/2)*gamma*M/R(t) at a fixed external observer.

    Shrinking the source at constant mass raises the value through the
    1/R(t) term while the observer term stays put. The observer must be
    strictly outside the source.
    """
    mass, radius_t, observer_r = map(
        _require_positive, ("mass", "radius_t", "observer_r"),
        (mass, radius_t, observer_r))
    if observer_r <= radius_t:
        raise OutOfDomainError(
            f"observer at {observer_r!r} is not outside the source "
            f"(radius {radius_t!r})")
    gm = gamma * mass
    return -gm / observer_r + u_infinity(gm, radius_t)


def evaluate_schedule(schedule: CavitySchedule, sample_times,
                      background: BackgroundState | None = None,
                      gamma=_DEFAULT_GAMMA):
    """Precursor time series at the schedule's observer.

    Parameters
    ----------
    schedule : CavitySchedule
    sample_times : column of numbers, read once
        Times within the schedule span (``ScheduleError`` otherwise); the
        first entry is the baseline all delta fields are differenced
        against. A time ``float()`` cannot read, or a value that is not
        a column, raises ``NonPhysicalValueError``.
    background : BackgroundState, optional
        Field at the observer; defaults to the compression-free surface
        background of the default body.
    gamma : float, optional

    Returns
    -------
    PulseTable
        One row per time, input order preserved: the schedule's R(t),
        then bit for bit what :func:`pulsating_potential` and
        :func:`point_mass_signal` give for it. A constant schedule
        yields exactly zero deltas everywhere.
    """
    times = _float_column("time", sample_times)
    if not times:
        return PulseTable([], [], [], [], [], [])
    background = (surface_background() if background is None
                  else BackgroundState(*background))
    # a time outside the span is rejected before any sample is built
    radii, cubes = schedule.radii_and_cubes(times)
    deficits = [ball_volume(cubed) * schedule.host_density_contrast
                for cubed in cubes]
    delta_masses = [deficit - deficits[0] for deficit in deficits]
    mass, observer = schedule.source_mass, schedule.observer_radius
    delta_u = [gamma * dm / observer for dm in delta_masses]
    base = background.u_infinity - background.u0
    # The two scalar functions are the only home of the checks and their
    # messages. Sample 0 runs the checks that do not depend on the sample;
    # the first later sample whose radius or perturbed potential fails
    # then raises from the same calls, in the same order, as a loop would.
    bad = next((i for i, (radius, du) in enumerate(zip(radii, delta_u))
                if not 0.0 < radius < observer or base - du < 0.0), 0)
    for i in (0, bad):
        pulsating_potential(mass, radii[i], observer, gamma)
        point_mass_signal(delta_masses[i], observer, background, gamma)
    gm = gamma * mass
    outside = -gm / observer
    speed = math.sqrt(2.0 * base)
    return PulseTable(
        t=times,
        source_radius=radii,
        potential=[outside + u_infinity(gm, radius) for radius in radii],
        delta_u=delta_u,
        delta_g=[exterior_gravity(gamma * dm, observer)
                 for dm in delta_masses],
        delta_v_s=speed_changes(delta_u, base, speed),
    )
