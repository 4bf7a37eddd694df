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
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import kernels
from .core import (
    DEFAULT_CONSTANTS,
    ColumnTable,
    UniformSphere,
    _float_column,
    _require_finite,
    _require_non_negative,
)
from .errors import NonPhysicalValueError, OutOfDomainError

_DEFAULT_GAMMA = DEFAULT_CONSTANTS.gamma


class FieldSample(namedtuple("FieldSample", "radius potential gravity "
                             "equipotential_velocity kinetic_potential")):
    """Field quantities bundled at one radius.

    potential + kinetic_potential equals the generating sphere's
    at-infinity potential by construction.
    """

    __slots__ = ()


def _numpy():
    """numpy, which only the ``field`` extra installs."""
    try:
        import numpy
    except ImportError as exc:
        raise ImportError("sample_field needs numpy: "
                          "pip install 'geopotent[field]'") from exc
    return numpy


def _read_only_column(values):
    """A read-only view of `values` as a contiguous 1-D float64 array."""
    np = _numpy()
    arr = np.ascontiguousarray(values, dtype=np.float64).view()
    if arr.ndim != 1:
        raise NonPhysicalValueError("field columns must be one-dimensional")
    arr.flags.writeable = False
    return arr


class FieldTable(ColumnTable):
    """Field quantities at many radii, as columns.

    Columns are float64, one-dimensional, of equal length and read-only;
    they are named like the fields of FieldSample. The constructor keeps
    read-only views of contiguous float64 arrays instead of copying them,
    so pass arrays nobody else writes to, as :func:`sample_field` does.
    The table reads like the list of FieldSample it stands for (see
    :class:`geopotent.core.ColumnTable`).
    """

    _row = FieldSample
    _column = staticmethod(_read_only_column)


def _root(name, value):
    """sqrt(value); a negative `value`, as a negative gamma gives, named
    `name`, raises OutOfDomainError."""
    if value < 0.0:
        raise OutOfDomainError(f"{name} = {value!r} is negative; it has no "
                               "real square root")
    return math.sqrt(value)


def u_infinity_homogeneous(sphere: UniformSphere, gamma=_DEFAULT_GAMMA):
    """At-infinity potential (3/2)*gamma*M/R of a homogeneous sphere."""
    gamma = _require_finite("gamma", gamma)
    return kernels.u_infinity(gamma * sphere.mass, sphere.radius)


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
    r = _require_non_negative("radius", r)
    gamma = _require_finite("gamma", gamma)
    if r <= sphere.radius:
        return kernels.uniform_sphere_potential(gamma, sphere.density, r)
    return kernels.exterior_potential(gamma, sphere.density,
                                      gamma * sphere.mass, sphere.radius, r)


def gravity(sphere: UniformSphere, r, gamma=_DEFAULT_GAMMA):
    """Gravitational field strength at radius r, m/s^2.

    (4/3)*gamma*pi*rho*r inside, gamma*M/r^2 outside; equals dU/dr
    everywhere and peaks at the boundary r = R.
    """
    r = _require_non_negative("radius", r)
    gamma = _require_finite("gamma", gamma)
    if r <= sphere.radius:
        return kernels.interior_gravity(gamma, sphere.density, r)
    return kernels.exterior_gravity(gamma * sphere.mass, r)


def equipotential_velocity(sphere: UniformSphere, r, gamma=_DEFAULT_GAMMA):
    """Circular-orbit speed sqrt(g(r)*r) of the equipotential surface at r.

    Coincides with the first cosmic velocity for r >= R; falls linearly
    to zero toward the center (g is linear in r inside).
    """
    return _root("g*r", gravity(sphere, r, gamma) * r)


def kinetic_potential(sphere: UniformSphere, r, gamma=_DEFAULT_GAMMA):
    """Specific kinetic energy of a body fallen from infinity to radius r.

    The complement of the potential: (3/2)*gamma*M/R - U(r). Maximal at
    the center, where it equals the full at-infinity potential; decays to
    zero far from the body.
    """
    return (u_infinity_homogeneous(sphere, gamma)
            - absolute_potential(sphere, r, gamma))


def sample_field(sphere: UniformSphere, radii, gamma=_DEFAULT_GAMMA):
    """Evaluate the field bundle at every radius in `radii`.

    `radii` is a column of numbers, read once. Returns a FieldTable in
    input order: one read-only column per FieldSample field, with
    FieldSample rows on indexing and iteration. The radii are copied
    once, so the table does not change when the caller's array does.
    Raises NonPhysicalValueError naming the index of the first radius
    float() cannot read, or the first negative or non-finite one, and
    OutOfDomainError naming the first radius where g*r is negative, as a
    negative gamma makes it.
    """
    np = _numpy()
    if not (isinstance(radii, np.ndarray) and radii.ndim == 1
            and radii.dtype.kind in "biuf"):  # a numeric 1-D array as it is
        radii = _float_column("radius", radii)
    r = np.array(radii, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(r) & (r >= 0.0)))
    if bad.size:
        i = int(bad[0])
        raise NonPhysicalValueError(f"radii[{i}] must be >= 0, got {r[i]!r}")
    gamma = _require_finite("gamma", gamma)
    radius, rho, gm = sphere.radius, sphere.density, gamma * sphere.mass
    # Both branches run on every radius, so a cell np.where discards can
    # divide by zero or make 0/0. A kept cell overflows to inf or turns
    # nan as Python floats do, silently.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = np.where(r <= radius, kernels.uniform_sphere_potential(gamma, rho, r),
                     kernels.exterior_potential(gamma, rho, gm, radius, r))
        g = np.where(r <= radius, kernels.interior_gravity(gamma, rho, r),
                     kernels.exterior_gravity(gm, r))
        gr = g * r
        kinetic = u_infinity_homogeneous(sphere, gamma) - u
    negative = np.flatnonzero(gr < 0.0)
    if negative.size:  # _root raises for the first one, as the scalars do
        i = int(negative[0])
        _root(f"g*r at radii[{i}]", float(gr[i]))
    return FieldTable(r, u, g, np.sqrt(gr), kinetic)
