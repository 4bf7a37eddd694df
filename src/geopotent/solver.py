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
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import profiles
from .core import (
    DEFAULT_CONSTANTS,
    LINE_BREAKS,
    DensityTrend,
    EarthParameters,
    InversionResult,
    PotentialBreakdown,
    RadialProfile,
    Record,
    _require_positive,
)
from .errors import (
    NonPhysicalInputError,
    NonPhysicalValueError,
    OutOfDomainError,
)
from .kernels import uniform_sphere_potential

# Relative band around equality for the `uniform` trend; exact float
# comparison would make the branch unreachable.
UNIFORM_TREND_TOL = 1e-6

# Relative margin treated as equality when deciding whether the bound
# holds, so the exact-equality case is not flipped by roundoff.
_BOUND_EQUALITY_MARGIN = 1e-9


class BoundaryReference(Record):
    """Named reference radius with a tolerance band (a layer half-thickness).

    The name is a report cell: a string with no comma and no line break
    (no character of ``core.LINE_BREAKS``, where str.splitlines() breaks).
    """

    __slots__ = _fields = ("name", "radius", "layer_half_thickness")

    def __init__(self, name, radius, layer_half_thickness):
        if (not isinstance(name, str) or "," in name
                or not LINE_BREAKS.isdisjoint(name)):
            raise NonPhysicalValueError(
                f"boundary name must be a string without a comma or line "
                f"break, got {name!r}")
        _require_positive("boundary radius", radius)
        if not (math.isfinite(layer_half_thickness)
                and layer_half_thickness >= 0.0):
            raise NonPhysicalValueError(
                f"layer_half_thickness must be >= 0, got "
                f"{layer_half_thickness!r}")
        self._set(name, radius, layer_half_thickness)


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
    """Aggregate compression potential: characteristic pressure over mean density."""
    _require_positive("p_g", p_g, NonPhysicalInputError)
    _require_positive("rho_g", rho_g, NonPhysicalInputError)
    return p_g / rho_g


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
    if not (math.isfinite(phi_g) and phi_g >= 0.0):
        raise NonPhysicalInputError(f"phi_g must be >= 0, got {phi_g!r}")
    v1k = earth.surface_first_cosmic_velocity
    return PotentialBreakdown(
        uniform_sphere_potential(gamma, earth.mean_density, earth.mean_radius),
        0.5 * v1k * v1k, phi_g)


def inverse_problem(gm, u_infinity, body_radius) -> InversionResult:
    """Characteristic radius r0 = gm / u_infinity and its classification.

    The trend is `uniform` when r0 matches the body radius within
    ``UNIFORM_TREND_TOL`` relative, `decreasing_outward` when r0 is
    interior, `increasing_outward` when exterior. Raises
    NonPhysicalInputError unless all three inputs are positive and finite,
    and OutOfDomainError when the quotient overflows or underflows to zero.
    """
    for name, value in (("gm", gm), ("u_infinity", u_infinity),
                        ("body_radius", body_radius)):
        _require_positive(name, value, NonPhysicalInputError)
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
