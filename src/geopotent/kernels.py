"""Closed forms of the uniform sphere, each written once in plain products.

This module is their only home. A float radius and a float64 array of
radii give bitwise the same value: the scalar functions of
:mod:`geopotent.field` pick a branch with ``if``, ``sample_field`` picks
one with ``np.where``.
"""

import math


def uniform_sphere_potential(gamma, rho, r):
    """(2/3)*gamma*rho*pi*r^2: the potential inside, centre gauge."""
    return (2.0 / 3.0) * (gamma * rho * math.pi) * r * r


def interior_gravity(gamma, rho, r):
    """(4/3)*gamma*rho*pi*r: the gravity inside."""
    return (4.0 / 3.0) * (gamma * rho * math.pi) * r


def exterior_potential(gamma, rho, gm, radius, r):
    """The surface potential plus gm/R - gm/r: the potential outside."""
    return uniform_sphere_potential(gamma, rho, radius) + gm / radius - gm / r


def exterior_gravity(gm, r):
    """gm/r^2: the gravity outside."""
    return gm / (r * r)
