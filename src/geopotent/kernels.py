"""Array kernel for dense uniform-sphere field sampling.

Profile numerics need no kernel: mass, potential integral and the
steepest pressure gradient are exact piecewise polynomials evaluated in
:mod:`geopotent.profiles`. What is left here is the one vectorized
evaluation that works on many radii at once.
"""

__all__ = ["field_arrays"]


def field_arrays(gm, radius, rho_gamma_pi, u_inf, r):
    """Potential, gravity, equipotential velocity, kinetic potential arrays."""
    import numpy as np
    r = np.ascontiguousarray(r, dtype=np.float64)
    inside = r <= radius
    u = np.where(
        inside,
        (2.0 / 3.0) * rho_gamma_pi * r * r,
        (2.0 / 3.0) * rho_gamma_pi * radius * radius + gm / radius
        - gm / np.where(r > 0.0, r, 1.0))
    g = np.where(inside, (4.0 / 3.0) * rho_gamma_pi * r,
                 gm / np.where(r > 0.0, r * r, 1.0))
    vs = np.sqrt(g * r)
    kin = u_inf - u
    return u, g, vs, kin
