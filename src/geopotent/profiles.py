"""Numerics over tabulated radial profiles, as exact piecewise polynomials.

Both columns of a profile are interpolated piecewise-linearly (splines
would overshoot at sharp density jumps and could break the monotonicity
and positivity the analysis relies on). Below the first sampled radius
the innermost density is extended as a constant.

With density linear between knots, the enclosed mass M(r) is a quartic
on each knot interval and the integral of M(s)/s^2 over an interval has
a closed form, so both are exact to roundoff. They are evaluated from
the profile's own radii and densities and one table of M at its knots,
built once per profile (:attr:`RadialProfile.mass_table`). The pressure
interpolant has a constant slope on each interval, so its steepest
gradient is a knot segment, reported at its inner knot.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from operator import sub, truediv

from .core import RadialProfile, _cube, _require_finite, _require_float
from .errors import DegenerateProfileError, OutOfDomainError
from .kernels import ball_volume

FOUR_PI = 4.0 * math.pi

# Segments whose |dP/dr| is within this relative margin of the steepest
# tie, and the smallest radius wins: a linear run of segments resolves to
# its first one regardless of last-ulp noise, and rescaling P cannot move
# the pick.
_GRAD_P_TIE_RTOL = 1e-12


class GradPResult(namedtuple("GradPResult", "radius_at_max pressure_at_max "
                             "gradient_magnitude")):
    """Inner knot of the steepest knot segment, its pressure and |dP/dr|."""

    __slots__ = ()


class MassTable(namedtuple("MassTable", "mass shells")):
    """Enclosed mass at the knots of a profile, from the center outward.

    ``mass[i]`` is M(radii[i]) at the profile's own knots: ``mass[0]`` is
    the uniform ball below the first sampled radius, 0 when that radius
    is 0. ``shells[i]`` is the mass between radii[i] and radii[i + 1].
    Both are tuples of floats.
    """

    __slots__ = ()


def _shell_mass(r, rho, slope, t):
    # 4*pi * integral of (rho + slope*x) * (r + x)^2 over x in [0, t].
    # Written in the offset t from the knot r: the same polynomial in s
    # loses ~1e-10 to cancellation on narrow intervals far from the center.
    # Plain products, not powers: a float power that overflows raises
    # OverflowError, where a product gives inf.
    t2 = t * t
    t3 = t2 * t
    return FOUR_PI * (rho * (r * r * t + r * t2 + t3 / 3.0)
                      + slope * (r * r * t2 / 2.0 + 2.0 * r * t3 / 3.0
                                 + t3 * t / 4.0))


def build_mass_table(radii, densities):
    """The MassTable of a piecewise-linear density sampled at `radii`.

    `radii` and `densities` are tuples of floats, as a RadialProfile
    holds them. Raises OutOfDomainError at the first knot whose enclosed
    mass is not finite.
    """
    shells = [_shell_mass(r, rho, (rho_next - rho) / (r_next - r), r_next - r)
              for r, r_next, rho, rho_next
              in zip(radii, radii[1:], densities, densities[1:])]
    # summed in order, from the ball below the first knot
    mass = tuple(accumulate(
        shells, initial=_shell_mass(0.0, densities[0], 0.0, radii[0])))
    if not math.isfinite(mass[-1]):  # a non-finite sum stays non-finite
        i = next(i for i, m in enumerate(mass) if not math.isfinite(m))
        raise OutOfDomainError(
            f"enclosed mass at r = {radii[i]!r} m is not finite: {mass[i]!r}")
    return MassTable(mass, tuple(shells))


def interpolate(profile: RadialProfile, r):
    """Density and pressure at radius r within the sampled range.

    Returns
    -------
    (float, float)
        (density kg/m^3, pressure Pa), linear between knots, exact at them.
    """
    r = _require_float("r", r)
    radii = profile.radii
    if not (radii[0] <= r <= profile.body_radius):
        raise OutOfDomainError(
            f"r = {r!r} outside sampled range "
            f"[{radii[0]}, {profile.body_radius}]")
    i = bisect_right(radii, r) - 1
    if r == radii[i]:  # a knot, the last one included
        return profile.densities[i], profile.pressures[i]
    # slope * (r - r_i) + f_i, the formula of numpy.interp
    width, offset = radii[i + 1] - radii[i], r - radii[i]
    return tuple((col[i + 1] - col[i]) / width * offset + col[i]
                 for col in (profile.densities, profile.pressures))


def enclosed_mass(profile: RadialProfile, r):
    """Mass inside radius r: integral of 4*pi*s^2*rho(s) from the center.

    Monotone non-decreasing in r; zero at r = 0.
    """
    r = _require_float("r", r)
    if not (0.0 <= r <= profile.body_radius):
        raise OutOfDomainError(
            f"r = {r!r} outside [0, {profile.body_radius}]")
    radii, rho = profile.radii, profile.densities
    if r < radii[0]:  # in the uniform ball below the first knot
        return _shell_mass(0.0, rho[0], 0.0, r)
    i = min(bisect_right(radii, r) - 1, len(radii) - 2)
    slope = (rho[i + 1] - rho[i]) / (radii[i + 1] - radii[i])
    return (profile.mass_table.mass[i]
            + _shell_mass(radii[i], rho[i], slope, r - radii[i]))


def surface_potential_integral(profile: RadialProfile, gamma):
    """gamma * integral of M(s)/s^2 from the first sampled radius to the surface.

    The center-to-surface potential of the tabulated body. The integrand
    is finite at s -> 0 for bounded density (M ~ s^3), so a profile
    starting at zero radius poses no difficulty. A term past the float
    range raises OutOfDomainError naming its inner knot.
    """
    gamma = _require_finite("gamma", gamma)
    radii, rho = profile.radii, profile.densities
    terms = []
    for r0, r1, rho0, rho1, mass0 in zip(radii, radii[1:], rho, rho[1:],
                                         profile.mass_table.mass):
        t = r1 - r0
        # M_i * (1/r_i - 1/r_{i+1}), 0 where no mass is enclosed, as where
        # r0 * r1 underflows: each mass-table product below r0 did too
        inner = mass0 * t / (r0 * r1) if mass0 else 0.0
        shell = FOUR_PI * t * t / (12.0 * r1) * (
            2.0 * rho0 * (3.0 * r0 + t) + (rho1 - rho0) * (r0 + r1))
        if not math.isfinite(term := inner + shell):
            raise OutOfDomainError(f"the surface potential term from r = "
                                   f"{r0!r} m is not finite: {term!r}")
        terms.append(term)
    # exactly rounded, so the same bits on every Python version
    return gamma * math.fsum(terms)


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
    radii, pressures = profile.radii, profile.pressures
    # |dP/dr| of every segment; finite or inf, never nan, as the radii
    # strictly increase and the pressures are finite
    slopes = list(map(abs, map(truediv, map(sub, pressures[1:], pressures),
                               map(sub, radii[1:], radii))))
    grad = max(slopes)
    if grad <= 0.0:
        raise DegenerateProfileError(
            "pressure is constant; the gradient has no maximum")
    # the first slope within the tie margin of the steepest
    cut = grad * (1.0 - _GRAD_P_TIE_RTOL)
    k = slopes.index(next(filter(cut.__le__, slopes)))
    return GradPResult(radii[k], pressures[k], grad)


def mean_density(profile: RadialProfile):
    """Total tabulated mass divided by the body volume, kg/m^3."""
    total = profile.mass_table.mass[-1]
    volume = ball_volume(_cube("radius", profile.body_radius))
    if not volume:
        raise OutOfDomainError(
            f"the volume of a body of radius {profile.body_radius!r} m "
            "underflows to 0")
    return total / volume


def core_equilibrium_gravity(profile: RadialProfile, core_radius):
    """Mean field strength balancing the pressure on a core surface.

    P(core) * 4*pi*core^2 / (M_total - M(core)): the force pressing on
    the core boundary divided by the mass outside it. The outside mass
    is summed from the shells above the core, never as that difference,
    which a dense core cancels away. An outside mass that rounds to 0
    raises OutOfDomainError, as does a quotient past the float range.
    """
    core_radius = _require_float("core_radius", core_radius)
    if not (0.0 < core_radius < profile.body_radius):
        raise OutOfDomainError(
            f"core_radius = {core_radius!r} must lie strictly inside "
            f"(0, {profile.body_radius})")
    density, pressure = interpolate(profile, core_radius)
    area = FOUR_PI * (core_radius * core_radius)
    radii, rho = profile.radii, profile.densities
    i = bisect_right(radii, core_radius)  # the first knot above the core
    # the shell from the core out to that knot, written in the offset from
    # the core, then the shells above it, exactly rounded
    slope = (rho[i] - rho[i - 1]) / (radii[i] - radii[i - 1])
    first = _shell_mass(core_radius, density, slope, radii[i] - core_radius)
    outside = math.fsum((first, *profile.mass_table.shells[i:]))
    if not outside:
        raise OutOfDomainError(
            f"the mass outside r = {core_radius!r} m rounds to 0")
    if not math.isfinite(gravity := pressure * area / outside):
        raise OutOfDomainError(f"the equilibrium gravity at r = "
                               f"{core_radius!r} m is not finite: {gravity!r}")
    return gravity
