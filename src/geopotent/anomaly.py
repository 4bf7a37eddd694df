"""Anomaly forward model and potential-vs-gravity sensitivity comparison.

A buried spherical source is reduced to its external point equivalent
(exact for spherical sources seen from at least the burial depth). Its
mass surplus or deficit perturbs the background potential and field
strength at the observer; the equipotential-velocity perturbation follows
from the full nonlinear inversion of the velocity-potential relation, not
a first-order expansion, so large cavities remain valid.

The k-coefficients compare how potential and field-strength anomalies
scale with the reduced observation distance r/r0. They are kept exactly
as defined, including their unconventional dimensionality; only their
ratios and the crossover are physically meaningful outputs.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import (
    DEFAULT_CONSTANTS,
    AnomalySource,
    BackgroundState,
    _cube,
    _float_column,
    _require_finite,
    _require_float,
    _require_positive,
)
from .errors import NonPhysicalValueError, OutOfDomainError
from .kernels import ball_volume, exterior_gravity

_DEFAULT_GAMMA = DEFAULT_CONSTANTS.gamma


class SensitivityPair(namedtuple("SensitivityPair", "k1 k2 ratio")):
    """Linear sensitivity of potential (k1) and gravity (k2) anomalies.

    ratio = k1/k2 = (1/2)*(r/r0): the potential channel dominates once
    the observation distance exceeds twice the source radius.
    """

    __slots__ = ()


class AnomalySignal(namedtuple("AnomalySignal", "delta_u delta_g delta_v_s "
                               "relative_u relative_g")):
    """Perturbations at the observer caused by a buried source.

    delta_u and delta_g carry the sign of the density contrast;
    delta_v_s carries the opposite sign (the velocity grows where the
    potential drops).
    """

    __slots__ = ()


def sensitivity_coefficients(r, r0, gamma=_DEFAULT_GAMMA) -> SensitivityPair:
    """k1 = (2/3)*pi*gamma*(r/r0)^2 and k2 = (4/3)*pi*gamma*(r/r0).

    A k2 that underflows to 0 leaves the ratio undefined and raises
    ``OutOfDomainError``.
    """
    r = _require_positive("r", r)
    r0 = _require_positive("r0", r0)
    gamma = _require_finite("gamma", gamma)
    x = r / r0
    k1 = (2.0 / 3.0) * math.pi * gamma * (x * x)
    k2 = (4.0 / 3.0) * math.pi * gamma * x
    if not k2:
        raise OutOfDomainError(
            f"k2 underflows to 0 at r / r0 = {x!r}; the ratio k1 / k2 is "
            "undefined")
    return SensitivityPair(k1=k1, k2=k2, ratio=k1 / k2)


def speed_changes(delta_u, base, speed):
    """sqrt(2*(base - du)) - speed for each du of `delta_u`, as a list.

    `speed` is sqrt(2*base). Each value is the change of the
    equipotential velocity sqrt(2*(u_infinity - u)) when u rises by du.
    It is written as -2*du over the sum of the two speeds, so the two
    close speeds are never subtracted; no change in u gives +0.0. A
    speed past the float range gives nan, as the difference did, not a
    quotient that reads 0.
    """
    return [0.0 if du == 0.0  # also the 0/0 of base == 0
            else -2.0 * du / s
            if (s := math.sqrt(2.0 * (base - du)) + speed) < math.inf
            else math.nan
            for du in delta_u]


def point_mass_signal(delta_mass, distance, background: BackgroundState,
                      gamma=_DEFAULT_GAMMA) -> AnomalySignal:
    """Signal of a point mass anomaly `delta_mass` at `distance` from the observer.

    delta_u = gamma*dM/d, delta_g = gamma*dM/d^2; delta_v_s is the change
    of sqrt(2*(u_infinity - u)) when u0 is perturbed by delta_u
    (:func:`speed_changes`). A distance whose square underflows to 0
    raises ``OutOfDomainError``. A `delta_mass` that is inf or nan gives
    the signal its arithmetic gives; one that is not a float, or a gamma
    that is not finite, raises ``NonPhysicalValueError``.
    """
    delta_mass = _require_float("delta_mass", delta_mass)
    distance = _require_positive("distance", distance)
    gamma = _require_finite("gamma", gamma)
    if not distance * distance:
        raise OutOfDomainError(
            f"the square of the distance {distance!r} m underflows to 0")
    delta_u = gamma * delta_mass / distance
    delta_g = exterior_gravity(gamma * delta_mass, distance)
    base = background.u_infinity - background.u0
    if base < 0.0:
        raise OutOfDomainError(
            f"background potential {background.u0!r} exceeds u_infinity "
            f"{background.u_infinity!r}")
    perturbed = base - delta_u
    if perturbed < 0.0:
        raise OutOfDomainError(
            f"perturbed potential exceeds u_infinity (delta_u = {delta_u!r})")
    delta_v_s, = speed_changes((delta_u,), base, math.sqrt(2.0 * base))
    return AnomalySignal(delta_u, delta_g, delta_v_s,
                         delta_u / background.u0, delta_g / background.g0)


class DetectabilityRow(namedtuple(
        "DetectabilityRow",
        "offset relative_u relative_g advantage delta_u delta_g delta_v_s")):
    """Signals at one observation distance.

    advantage = relative_u / relative_g grows linearly with the offset:
    the raw delta_u/delta_g ratio of a point source is the distance itself.
    """

    __slots__ = ()


def detectability_report(source: AnomalySource, observer_offsets,
                         background: BackgroundState, gamma=_DEFAULT_GAMMA):
    """Potential and gravity signals at each observation distance.

    `observer_offsets` is a column of numbers, read once. Offsets must be
    finite and at least the burial depth (the point reduction is not
    valid closer in); every offset is checked before any signal is
    evaluated. Returns one row per offset, input order preserved. A
    relative gravity signal that underflows to 0 leaves the advantage
    undefined and raises ``OutOfDomainError``.
    """
    background = BackgroundState(*background)
    offsets = _float_column("offset", observer_offsets)
    for offset in offsets:
        if not (math.isfinite(offset) and offset >= source.depth):
            raise NonPhysicalValueError(
                f"offset {offset!r} must be finite and at least the source "
                f"depth {source.depth!r}")
    delta_mass = (ball_volume(_cube("radius", source.radius))
                  * source.density_contrast)
    rows = []
    for offset in offsets:
        sig = point_mass_signal(delta_mass, offset, background, gamma)
        if not sig.relative_g:
            raise OutOfDomainError(
                f"delta_g / g0 underflows to 0 at offset {offset!r} m; the "
                "advantage relative_u / relative_g is undefined")
        rows.append(DetectabilityRow(
            offset, sig.relative_u, sig.relative_g,
            sig.relative_u / sig.relative_g,  # advantage
            sig.delta_u, sig.delta_g, sig.delta_v_s))
    return rows
