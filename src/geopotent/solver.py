"""Direct problem (maximum potential), inverse problem (characteristic radius),
and the homogeneity-bound diagnostic.

The direct problem assembles the at-infinity potential from three surface
parts: the center-to-surface potential of a uniform equivalent, the
surface equipotential term from the first cosmic velocity, and an
aggregate compression potential supplied by the caller (from a pressure
source or a configured override; the two routes are kept separate so a
run stays reproducible either way). The inverse problem divides gm by
that at-infinity value, classifies the implied radial density trend, and
localizes the resulting radius against reference boundaries.

``direct_problem`` and ``BoundaryReference`` live in :mod:`geopotent.core`,
beside the surface background a run config checks, and are imported here.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import profiles
from .core import (
    BoundaryReference,
    DensityTrend,
    InversionResult,
    RadialProfile,
    _require_positive,
    direct_problem,
)
from .errors import OutOfDomainError
from .kernels import uniform_sphere_potential

# Relative band around equality for the `uniform` trend; exact float
# comparison would make the branch unreachable.
UNIFORM_TREND_TOL = 1e-6

# Relative margin treated as equality when deciding whether the bound
# holds, so the exact-equality case is not flipped by roundoff.
_BOUND_EQUALITY_MARGIN = 1e-9


class HomogeneityBoundReport(namedtuple(
        "HomogeneityBoundReport",
        "integral_side uniform_side holds relative_gap")):
    """Both sides of the surface-potential bound and whether it holds.

    relative_gap = (integral_side - uniform_side) / uniform_side; a
    positive gap means the tabulated body's center-to-surface potential
    exceeds that of its uniform equivalent.
    """

    __slots__ = ()


def compression_potential(p_g, rho_g):
    """Aggregate compression potential: characteristic pressure over mean
    density. A quotient past the float range raises OutOfDomainError."""
    p_g = _require_positive("p_g", p_g)
    rho_g = _require_positive("rho_g", rho_g)
    if (phi_g := p_g / rho_g) == math.inf:
        raise OutOfDomainError(
            f"phi_g = {p_g!r} / {rho_g!r} overflows the float range")
    return phi_g


def inverse_problem(gm, u_infinity, body_radius) -> InversionResult:
    """Characteristic radius r0 = gm / u_infinity and its classification.

    The trend is `uniform` when r0 matches the body radius within
    ``UNIFORM_TREND_TOL`` relative, `decreasing_outward` when r0 is
    interior, `increasing_outward` when exterior. Raises
    NonPhysicalValueError unless all three inputs are positive and finite,
    and OutOfDomainError when the quotient overflows or underflows to zero.
    """
    gm, u_infinity, body_radius = map(
        _require_positive, ("gm", "u_infinity", "body_radius"),
        (gm, u_infinity, body_radius))
    r0 = gm / u_infinity
    if not (math.isfinite(r0) and r0 > 0.0):
        raise OutOfDomainError(
            f"r0 = {gm!r} / {u_infinity!r} = {r0!r} is not a positive "
            "finite radius")
    depth = body_radius - r0
    if abs(r0 - body_radius) <= UNIFORM_TREND_TOL * body_radius:
        trend = DensityTrend.UNIFORM
    elif r0 < body_radius:
        trend = DensityTrend.DECREASING_OUTWARD
    else:
        trend = DensityTrend.INCREASING_OUTWARD
    return InversionResult(r0=r0, depth=depth, trend=trend)


def locate_boundary(result: InversionResult, reference: BoundaryReference):
    """Distance from r0 to a reference boundary and whether it falls in the layer.

    Returns
    -------
    (float, bool)
        (|r0 - reference.radius|, offset <= layer_half_thickness)
    """
    offset = abs(result.r0 - reference.radius)
    return offset, offset <= reference.layer_half_thickness


def homogeneity_bound(profile: RadialProfile,
                      gamma) -> HomogeneityBoundReport:
    """Evaluate both sides of the surface-potential bound on a profile.

    The integral side is the center-to-surface potential of the tabulated
    body; the uniform side is kernels.uniform_sphere_potential at its mean
    density. Centrally condensed bodies come out above the uniform side,
    so `holds` is reported, never assumed. A uniform side that underflows
    to 0 raises OutOfDomainError, as the relative gap divides by it.
    """
    integral = profiles.surface_potential_integral(profile, gamma)
    rho0 = profiles.mean_density(profile)
    uniform = uniform_sphere_potential(gamma, rho0, profile.body_radius)
    if not uniform:
        raise OutOfDomainError(
            f"the uniform-sphere potential of a body of radius "
            f"{profile.body_radius!r} m underflows to 0")
    gap = (integral - uniform) / uniform
    return HomogeneityBoundReport(integral, uniform,
                                  gap <= _BOUND_EQUALITY_MARGIN, gap)
