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
from dataclasses import dataclass

from .anomaly import BackgroundState, point_mass_signal
from .core import DEFAULT_CONSTANTS, CavitySchedule, EarthParameters
from .errors import NonPhysicalInputError, OutOfDomainError

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


def pulsating_potential(mass, radius_t, observer_r, gamma=_DEFAULT_GAMMA):
    """Potential -gamma*M/r + (3/2)*gamma*M/R(t) at a fixed external observer.

    Shrinking the source at constant mass raises the value through the
    1/R(t) term while the observer term stays put. The observer must be
    strictly outside the source.
    """
    for name, value in (("mass", mass), ("radius_t", radius_t),
                        ("observer_r", observer_r)):
        if not (math.isfinite(value) and value > 0.0):
            raise NonPhysicalInputError(f"{name} must be positive, got {value!r}")
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
    g0 = earth.gm / (earth.mean_radius * earth.mean_radius)
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
    list of PulseSample
        One sample per time, input order preserved. A constant schedule
        yields exactly zero deltas everywhere.
    """
    times = [float(t) for t in sample_times]
    if not times:
        return []
    if background is None:
        background = surface_background()
    else:
        background = BackgroundState(*background)
    # segment_at rejects a time outside the span before any sample is built
    cubes = [schedule.segment_at(t).radius_cubed(t) for t in times]
    deficits = [(4.0 / 3.0) * math.pi * cubed * schedule.host_density_contrast
                for cubed in cubes]
    out = []
    for t, cubed, deficit in zip(times, cubes, deficits):
        radius = cubed ** (1.0 / 3.0)
        potential = pulsating_potential(schedule.source_mass, radius,
                                        schedule.observer_radius, gamma)
        sig = point_mass_signal(deficit - deficits[0],
                                schedule.observer_radius, background, gamma)
        out.append(PulseSample(
            t=t,
            source_radius=radius,
            potential=potential,
            delta_u=sig.delta_u,
            delta_g=sig.delta_g,
            delta_v_s=sig.delta_v_s,
        ))
    return out


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
