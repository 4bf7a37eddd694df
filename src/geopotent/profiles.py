"""Numerics over tabulated radial profiles, as exact piecewise polynomials.

Both columns of a profile are interpolated piecewise-linearly (splines
would overshoot at sharp density jumps and could break the monotonicity
and positivity the analysis relies on). Below the first sampled radius
the innermost density is extended as a constant.

With density linear between knots, the enclosed mass M(r) is a quartic
on each knot interval and the integral of M(s)/s^2 over an interval has
a closed form, so both are exact to roundoff. They are evaluated from
one table of M at the knots, built once per profile
(:attr:`RadialProfile.mass_table`). The pressure interpolant has a
constant slope on each interval, so its steepest gradient is a knot
segment, reported at its inner knot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import RadialProfile
from .errors import DegenerateProfileError, OutOfDomainError

FOUR_PI = 4.0 * math.pi

# Segments whose |dP/dr| is within this relative margin of the steepest
# tie, and the smallest radius wins: a linear run of segments resolves to
# its first one regardless of last-ulp noise, and rescaling P cannot move
# the pick.
_GRAD_P_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class GradPResult:
    """Inner knot of the steepest knot segment, its pressure and |dP/dr|."""

    radius_at_max: float
    pressure_at_max: float
    gradient_magnitude: float


class MassTable(NamedTuple):
    """Enclosed mass at the knots of a profile, from the center outward.

    ``knots`` are the sampled radii, preceded by ``0`` when the first
    sampled radius is above zero; ``densities`` are the densities there,
    the innermost one repeated at that added center knot. ``mass[i]`` is
    M(knots[i]). The arrays are float64 and read-only.
    """

    knots: np.ndarray
    densities: np.ndarray
    mass: np.ndarray


def _shell_mass(r, rho, slope, t):
    # 4*pi * integral of (rho + slope*x) * (r + x)^2 over x in [0, t].
    # Written in the offset t from the knot r: the same polynomial in s
    # loses ~1e-10 to cancellation on narrow intervals far from the center.
    # Plain products, not powers, so array and scalar calls agree bitwise.
    t2 = t * t
    t3 = t2 * t
    return FOUR_PI * (rho * (r * r * t + r * t2 + t3 / 3.0)
                      + slope * (r * r * t2 / 2.0 + 2.0 * r * t3 / 3.0
                                 + t3 * t / 4.0))


def build_mass_table(radii, densities):
    """The MassTable of a piecewise-linear density sampled at `radii`."""
    import numpy as np
    if radii[0] > 0.0:
        radii = np.concatenate(([0.0], radii))
        densities = np.concatenate((densities[:1], densities))
    t = np.diff(radii)
    shells = _shell_mass(radii[:-1], densities[:-1], np.diff(densities) / t, t)
    mass = np.zeros(radii.shape[0])
    np.cumsum(shells, out=mass[1:])
    table = MassTable(radii.view(), densities.view(), mass)
    for arr in table:
        arr.flags.writeable = False
    return table


def interpolate(profile: RadialProfile, r):
    """Density and pressure at radius r within the sampled range.

    Returns
    -------
    (float, float)
        (density kg/m^3, pressure Pa), linear between knots, exact at them.
    """
    import numpy as np
    if not (profile.radii[0] <= r <= profile.body_radius):
        raise OutOfDomainError(
            f"r = {r!r} outside sampled range "
            f"[{profile.radii[0]}, {profile.body_radius}]")
    return (float(np.interp(r, profile.radii, profile.densities)),
            float(np.interp(r, profile.radii, profile.pressures)))


def enclosed_mass(profile: RadialProfile, r):
    """Mass inside radius r: integral of 4*pi*s^2*rho(s) from the center.

    Monotone non-decreasing in r; zero at r = 0.
    """
    import numpy as np
    if not (0.0 <= r <= profile.body_radius):
        raise OutOfDomainError(
            f"r = {r!r} outside [0, {profile.body_radius}]")
    knots, rho, mass = profile.mass_table
    i = min(int(np.searchsorted(knots, r, side="right")) - 1,
            knots.shape[0] - 2)
    slope = (rho[i + 1] - rho[i]) / (knots[i + 1] - knots[i])
    return float(mass[i] + _shell_mass(knots[i], rho[i], slope, r - knots[i]))


def surface_potential_integral(profile: RadialProfile, gamma):
    """gamma * integral of M(s)/s^2 from the first sampled radius to the surface.

    The center-to-surface potential of the tabulated body. The integrand
    is finite at s -> 0 for bounded density (M ~ s^3), so a profile
    starting at zero radius poses no difficulty.
    """
    import numpy as np
    knots, rho, mass = profile.mass_table
    # skip the interval below the first sampled radius, if the table has one
    first = knots.shape[0] - len(profile)
    r0, r1 = knots[first:-1], knots[first + 1:]
    rho0, mass0 = rho[first:-1], mass[first:-1]
    t = r1 - r0
    # M_i * (1/r_i - 1/r_{i+1}), which is 0 on an interval from the center
    inner = np.divide(mass0 * t, r0 * r1, out=np.zeros_like(t),
                      where=r0 > 0.0)
    shell = FOUR_PI * t * t / (12.0 * r1) * (
        2.0 * rho0 * (3.0 * r0 + t) + np.diff(rho[first:]) * (r0 + r1))
    return gamma * float(np.sum(inner + shell))


def pressure_gradient_max(profile: RadialProfile):
    """Inner knot of the knot segment where |dP/dr| is largest.

    The pressure is linear on each segment, so the steepest slope holds
    along a whole segment, which is reported by its inner knot and the
    tabulated pressure there. Ties (within 1e-12 relative) go to smaller r.

    Raises
    ------
    DegenerateProfileError
        If the pressure is constant (no gradient maximum exists).
    """
    import numpy as np
    radii, pressures = profile.radii, profile.pressures
    slopes = np.abs(np.diff(pressures) / np.diff(radii))
    grad = float(np.max(slopes))
    if grad <= 0.0:
        raise DegenerateProfileError(
            "pressure is constant; the gradient has no maximum")
    k = int(np.argmax(slopes >= grad * (1.0 - _GRAD_P_TIE_RTOL)))
    return GradPResult(float(radii[k]), float(pressures[k]), grad)


def mean_density(profile: RadialProfile):
    """Total tabulated mass divided by the body volume, kg/m^3."""
    total = float(profile.mass_table.mass[-1])
    return total / ((4.0 / 3.0) * math.pi * profile.body_radius**3)


def core_equilibrium_gravity(profile: RadialProfile, core_radius):
    """Mean field strength balancing the pressure on a core surface.

    P(core) * 4*pi*core^2 / (M_total - M(core)): the force pressing on
    the core boundary divided by the mass outside it.
    """
    if not (0.0 < core_radius < profile.body_radius):
        raise OutOfDomainError(
            f"core_radius = {core_radius!r} must lie strictly inside "
            f"(0, {profile.body_radius})")
    _, pressure = interpolate(profile, core_radius)
    area = 4.0 * math.pi * core_radius**2
    outside = (float(profile.mass_table.mass[-1])
               - enclosed_mass(profile, core_radius))
    return pressure * area / outside
