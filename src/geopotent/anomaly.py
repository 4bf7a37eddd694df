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
from dataclasses import dataclass

from .core import DEFAULT_CONSTANTS, AnomalySource, _require_positive
from .errors import NonPhysicalInputError, OutOfDomainError

_DEFAULT_GAMMA = DEFAULT_CONSTANTS.gamma


class BackgroundState(namedtuple("BackgroundState", "u0 g0 u_infinity")):
    """Unperturbed field at the observer: potential, gravity, at-infinity value.

    A tuple, so ``BackgroundState(*t)`` accepts any 3-sequence; every
    field must be positive and finite. The ordering u0 < u_infinity is
    checked where a signal is evaluated.
    """

    __slots__ = ()

    def __new__(cls, u0, g0, u_infinity):
        for name, value in (("u0", u0), ("g0", g0),
                            ("u_infinity", u_infinity)):
            _require_positive(name, value)
        return super().__new__(cls, u0, g0, u_infinity)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here
        return cls(*iterable)


@dataclass(frozen=True)
class SensitivityPair:
    """Linear sensitivity of potential (k1) and gravity (k2) anomalies.

    ratio = k1/k2 = (1/2)*(r/r0): the potential channel dominates once
    the observation distance exceeds twice the source radius.
    """

    k1: float
    k2: float
    ratio: float


@dataclass(frozen=True)
class AnomalySignal:
    """Perturbations at the observer caused by a buried source.

    delta_u and delta_g carry the sign of the density contrast;
    delta_v_s carries the opposite sign (the velocity grows where the
    potential drops).
    """

    delta_u: float
    delta_g: float
    delta_v_s: float
    relative_u: float
    relative_g: float


def sensitivity_coefficients(r, r0, gamma=_DEFAULT_GAMMA) -> SensitivityPair:
    """k1 = (2/3)*pi*gamma*(r/r0)^2 and k2 = (4/3)*pi*gamma*(r/r0)."""
    _require_positive("r", r, NonPhysicalInputError)
    _require_positive("r0", r0, NonPhysicalInputError)
    x = r / r0
    k1 = (2.0 / 3.0) * math.pi * gamma * (x * x)
    k2 = (4.0 / 3.0) * math.pi * gamma * x
    return SensitivityPair(k1=k1, k2=k2, ratio=k1 / k2)


def crossover_radius(r0):
    """Observation distance beyond which the potential channel dominates: 2*r0."""
    _require_positive("r0", r0, NonPhysicalInputError)
    return 2.0 * r0


def point_mass_signal(delta_mass, distance, background: BackgroundState,
                      gamma=_DEFAULT_GAMMA) -> AnomalySignal:
    """Signal of a point mass anomaly `delta_mass` at `distance` from the observer.

    delta_u = gamma*dM/d, delta_g = gamma*dM/d^2; delta_v_s is the change
    of sqrt(2*(u_infinity - u)) when u0 is perturbed by delta_u.
    """
    _require_positive("distance", distance, NonPhysicalInputError)
    delta_u = gamma * delta_mass / distance
    delta_g = gamma * delta_mass / (distance * distance)
    base = background.u_infinity - background.u0
    if base < 0.0:
        raise OutOfDomainError(
            f"background potential {background.u0!r} exceeds u_infinity "
            f"{background.u_infinity!r}")
    perturbed = base - delta_u
    if perturbed < 0.0:
        raise OutOfDomainError(
            f"perturbed potential exceeds u_infinity (delta_u = {delta_u!r})")
    delta_v_s = math.sqrt(2.0 * perturbed) - math.sqrt(2.0 * base)
    return AnomalySignal(
        delta_u=delta_u,
        delta_g=delta_g,
        delta_v_s=delta_v_s,
        relative_u=delta_u / background.u0,
        relative_g=delta_g / background.g0,
    )


def anomalous_mass(source: AnomalySource):
    """Signed mass surplus (4/3)*pi*r0^3*density_contrast of the source."""
    return (4.0 / 3.0) * math.pi * source.radius**3 * source.density_contrast


def sphere_anomaly(source: AnomalySource, background: BackgroundState,
                   gamma=_DEFAULT_GAMMA) -> AnomalySignal:
    """Signal of a buried sphere at its own burial depth."""
    background = BackgroundState(*background)
    return point_mass_signal(anomalous_mass(source), source.depth,
                             background, gamma)


@dataclass(frozen=True)
class DetectabilityRow:
    """Signals at one observation distance.

    advantage = relative_u / relative_g grows linearly with the offset:
    the raw delta_u/delta_g ratio of a point source is the distance itself.
    """

    offset: float
    relative_u: float
    relative_g: float
    advantage: float
    delta_u: float
    delta_g: float
    delta_v_s: float


def detectability_report(source: AnomalySource, observer_offsets,
                         background: BackgroundState, gamma=_DEFAULT_GAMMA):
    """Potential and gravity signals at each observation distance.

    Offsets must be at least the burial depth (the point reduction is not
    valid closer in); every offset is checked before any signal is
    evaluated. Returns one row per offset, input order preserved.
    """
    background = BackgroundState(*background)
    offsets = [float(offset) for offset in observer_offsets]
    for offset in offsets:
        if not (math.isfinite(offset) and offset >= source.depth):
            raise NonPhysicalInputError(
                f"offset {offset!r} must be finite and at least the source "
                f"depth {source.depth!r}")
    delta_mass = anomalous_mass(source)
    rows = []
    for offset in offsets:
        sig = point_mass_signal(delta_mass, offset, background, gamma)
        rows.append(DetectabilityRow(
            offset=offset,
            relative_u=sig.relative_u,
            relative_g=sig.relative_g,
            advantage=sig.relative_u / sig.relative_g,
            delta_u=sig.delta_u,
            delta_g=sig.delta_g,
            delta_v_s=sig.delta_v_s,
        ))
    return rows
