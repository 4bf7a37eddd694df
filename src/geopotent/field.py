"""Closed-form field of a uniform sphere, taken as a positive absolute potential.

The potential is gauged so U(0) = 0 at the center of the body and grows
monotonically outward to its at-infinity limit (3/2)*gamma*M/R. The
gravity is its radial derivative; the equipotential velocity is the
circular-orbit speed sqrt(g*r) at every radius, which coincides with the
first cosmic velocity sqrt(gamma*M/r) on and outside the boundary. The
kinetic potential is the specific kinetic energy gained falling from
infinity, so potential + kinetic is the at-infinity value everywhere.

The closed forms of both branches live once, in :mod:`geopotent.kernels`,
so every cell of a FieldTable is bitwise the scalar function's value.

Velocity conversions (`potential_from_velocity`, `radius_from_velocity`)
are the measurement side: they recover potential or radius from an
observed velocity and local gravity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

from . import kernels
from .core import DEFAULT_CONSTANTS, UniformSphere, _require_positive
from .errors import (
    NonPhysicalInputError,
    NonPhysicalValueError,
    OutOfDomainError,
)

_DEFAULT_GAMMA = DEFAULT_CONSTANTS.gamma


@dataclass(frozen=True)
class FieldSample:
    """Field quantities bundled at one radius.

    potential + kinetic_potential equals the generating sphere's
    at-infinity potential by construction.
    """

    radius: float
    potential: float
    gravity: float
    equipotential_velocity: float
    kinetic_potential: float


_COLUMNS = tuple(f.name for f in fields(FieldSample))


@dataclass(frozen=True, eq=False)
class FieldTable:
    """Field quantities at many radii, as columns.

    Columns are float64, one-dimensional, of equal length and read-only;
    they are named like the fields of FieldSample. The constructor keeps
    read-only views of contiguous float64 arrays instead of copying them,
    so pass arrays nobody else writes to, as :func:`sample_field` does.

    The table also reads like the list of FieldSample it stands for:
    ``len``, iteration and integer indexing give FieldSample rows,
    slicing gives a table, and a table equals a list holding the same
    rows.
    """

    radius: np.ndarray
    potential: np.ndarray
    gravity: np.ndarray
    equipotential_velocity: np.ndarray
    kinetic_potential: np.ndarray

    def __post_init__(self):
        import numpy as np
        for name in _COLUMNS:
            arr = np.ascontiguousarray(getattr(self, name),
                                       dtype=np.float64).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.radius.ndim != 1 or any(
                getattr(self, name).shape != self.radius.shape
                for name in _COLUMNS):
            raise NonPhysicalValueError(
                "field columns must be one-dimensional and of equal length")

    def _columns(self):
        return [getattr(self, name) for name in _COLUMNS]

    def __len__(self):
        return self.radius.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FieldTable(*(col[index] for col in self._columns()))
        i = operator.index(index)
        return FieldSample(*(float(col[i]) for col in self._columns()))

    def __iter__(self):
        return map(FieldSample, *(col.tolist() for col in self._columns()))

    def __eq__(self, other):
        import numpy as np
        if isinstance(other, FieldTable):
            return all(np.array_equal(a, b) for a, b in
                       zip(self._columns(), other._columns()))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


def _require_radius(r):
    if not (math.isfinite(r) and r >= 0.0):
        raise NonPhysicalInputError(f"radius must be >= 0, got {r!r}")


def u_infinity_homogeneous(sphere: UniformSphere, gamma=_DEFAULT_GAMMA):
    """At-infinity potential (3/2)*gamma*M/R of a homogeneous sphere."""
    return 1.5 * (gamma * sphere.mass) / sphere.radius


def absolute_potential(sphere: UniformSphere, r, gamma=_DEFAULT_GAMMA):
    """Absolute potential at radius r, inside or outside the sphere.

    Parameters
    ----------
    sphere : UniformSphere
    r : float
        Radius of the evaluation point, m; r >= 0.
    gamma : float, optional
        Gravitational constant.

    Returns
    -------
    float
        Potential in J/kg: the interior parabola
        (2/3)*gamma*rho*pi*r^2 for r <= R, continued outside by
        (2/3)*gamma*rho*pi*R^2 - gamma*M/r + gamma*M/R. Continuous at
        r = R, where the curve has its inflection.
    """
    _require_radius(r)
    if r <= sphere.radius:
        return kernels.uniform_sphere_potential(gamma, sphere.density, r)
    return kernels.exterior_potential(gamma, sphere.density,
                                      gamma * sphere.mass, sphere.radius, r)


def gravity(sphere: UniformSphere, r, gamma=_DEFAULT_GAMMA):
    """Gravitational field strength at radius r, m/s^2.

    (4/3)*gamma*pi*rho*r inside, gamma*M/r^2 outside; equals dU/dr
    everywhere and peaks at the boundary r = R.
    """
    _require_radius(r)
    if r <= sphere.radius:
        return kernels.interior_gravity(gamma, sphere.density, r)
    return kernels.exterior_gravity(gamma * sphere.mass, r)


def first_cosmic_velocity(sphere: UniformSphere, r, gamma=_DEFAULT_GAMMA):
    """Circular orbital speed sqrt(gamma*M/r), defined for r >= R only.

    A negative or non-finite r is an input error, as in gravity.
    """
    _require_radius(r)
    if r < sphere.radius:
        raise OutOfDomainError(
            f"first cosmic velocity is defined on and outside the boundary "
            f"(r >= {sphere.radius}), got r = {r!r}")
    return math.sqrt(gamma * sphere.mass / r)


def equipotential_velocity(sphere: UniformSphere, r, gamma=_DEFAULT_GAMMA):
    """Circular-orbit speed sqrt(g(r)*r) of the equipotential surface at r.

    Coincides with the first cosmic velocity for r >= R; falls linearly
    to zero toward the center (g is linear in r inside).
    """
    _require_radius(r)
    return math.sqrt(gravity(sphere, r, gamma) * r)


def potential_from_velocity(u_infinity, v_s):
    """Recover the absolute potential from an observed equipotential velocity.

    Returns u_infinity - v_s**2 / 2; raises OutOfDomainError when the
    velocity term exceeds the at-infinity potential (which would imply a
    negative absolute potential), and NonPhysicalInputError on a
    non-finite input.
    """
    for name, value in (("u_infinity", u_infinity), ("v_s", v_s)):
        if not math.isfinite(value):
            raise NonPhysicalInputError(f"{name} must be finite, got {value!r}")
    half = 0.5 * v_s * v_s
    if half > u_infinity:
        raise OutOfDomainError(
            f"v_s^2/2 = {half!r} exceeds u_infinity = {u_infinity!r}")
    return u_infinity - half


def radius_from_velocity(v_s, g_local):
    """Radius of the equipotential surface from velocity and local gravity.

    v_s**2 / g inverts the circular-orbit relation; both inputs must be
    positive. A radius that overflows to inf or underflows to 0 raises
    OutOfDomainError.
    """
    _require_positive("v_s", v_s, NonPhysicalInputError)
    _require_positive("g_local", g_local, NonPhysicalInputError)
    radius = v_s * v_s / g_local
    if not (math.isfinite(radius) and radius > 0.0):
        raise OutOfDomainError(
            f"radius v_s**2/g_local is out of float range for v_s = {v_s!r}, "
            f"g_local = {g_local!r}: got {radius!r}")
    return radius


def kinetic_potential(sphere: UniformSphere, r, gamma=_DEFAULT_GAMMA):
    """Specific kinetic energy of a body fallen from infinity to radius r.

    The complement of the potential: (3/2)*gamma*M/R - U(r). Maximal at
    the center, where it equals the full at-infinity potential; decays to
    zero far from the body.
    """
    _require_radius(r)
    return (u_infinity_homogeneous(sphere, gamma)
            - absolute_potential(sphere, r, gamma))


def sample_field(sphere: UniformSphere, radii, gamma=_DEFAULT_GAMMA):
    """Evaluate the field bundle at every radius in `radii`.

    Returns a FieldTable in input order: one read-only column per
    FieldSample field, with FieldSample rows on indexing and iteration.
    The radii are copied once, so the table does not change when the
    caller's array does. Raises NonPhysicalInputError naming the index of
    the first negative or non-finite radius.
    """
    import numpy as np
    r = np.array(radii if isinstance(radii, np.ndarray) else list(radii),
                 dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(r) & (r >= 0.0)))
    if bad.size:
        i = int(bad[0])
        raise NonPhysicalInputError(f"radii[{i}] must be >= 0, got {r[i]!r}")
    radius, rho, gm = sphere.radius, sphere.density, gamma * sphere.mass
    # Both branches run on every radius. Only cells np.where discards can
    # divide by zero; a kept r*r overflows to inf, as Python floats do.
    with np.errstate(over="ignore", divide="ignore"):
        u = np.where(r <= radius, kernels.uniform_sphere_potential(gamma, rho, r),
                     kernels.exterior_potential(gamma, rho, gm, radius, r))
        g = np.where(r <= radius, kernels.interior_gravity(gamma, rho, r),
                     kernels.exterior_gravity(gm, r))
    return FieldTable(r, u, g, np.sqrt(g * r),
                      u_infinity_homogeneous(sphere, gamma) - u)
