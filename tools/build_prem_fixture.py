"""Build the 20-row PREM-like radial profile fixture.

Density comes from the PREM piecewise polynomials (Dziewonski & Anderson
1981, Table 1 form: g/cm^3 against x = r / 6371 km). Pressure is obtained
by hydrostatic integration dP/dr = -rho(r) g(r) from the surface down on a
fine grid, which reproduces the published PREM pressures to ~0.1%.

Knots straddle the major density discontinuities (ICB, CMB, 5701 km) so
that linear interpolation between rows crosses each jump at its midpoint;
the resulting quadrature bias is second order and the tabulated total mass
stays within a few 0.1% of the real value.

Run from the repo root:

    python tools/build_prem_fixture.py

Writes tests/fixtures/prem20.csv and prints independent oracle values
(computed with plain trapezoid sums over the piecewise-linear table, not
with the package code) for use as frozen test expectations.
"""

import numpy as np

GAMMA = 6.6743e-11
R_EARTH = 6.371e6

# (r_lo_km, r_hi_km, poly coefficients in x = r/6371 km, g/cm^3)
PREM_LAYERS = [
    (0.0, 1221.5, (13.0885, 0.0, -8.8381)),
    (1221.5, 3480.0, (12.5815, -1.2638, -3.6426, -5.5281)),
    (3480.0, 5701.0, (7.9565, -6.4761, 5.5283, -3.0807)),
    (5701.0, 5771.0, (5.3197, -1.4836)),
    (5771.0, 5971.0, (11.2494, -8.0298)),
    (5971.0, 6151.0, (7.1089, -3.8045)),
    (6151.0, 6346.6, (2.6910, 0.6924)),
    (6346.6, 6356.0, (2.900,)),
    (6356.0, 6368.0, (2.600,)),
    (6368.0, 6371.0, (1.020,)),
]

# Fixture knot radii in km.  Pairs like (3465, 3495) straddle a
# discontinuity so the linear table crosses it at the midpoint.
KNOTS_KM = [
    0.0, 700.0, 1221.5, 1251.5, 1900.0, 2600.0, 3150.0, 3465.0, 3495.0,
    4100.0, 4700.0, 5300.0, 5686.0, 5716.0, 5871.0, 6061.0, 6250.0,
    6341.0, 6352.0, 6371.0,
]


def prem_density(r_m):
    """True PREM density in kg/m^3 at radius r_m (scalar or array)."""
    r_km = np.atleast_1d(np.asarray(r_m, dtype=float)) / 1e3
    x = r_km / 6371.0
    rho = np.empty_like(x)
    for lo, hi, coeffs in PREM_LAYERS:
        # half-open from above so a knot sitting on a layer boundary (the
        # ICB) takes the lower layer's density
        mask = (r_km > lo) & (r_km <= hi) if lo > 0.0 else (r_km >= lo) & (r_km <= hi)
        rho[mask] = np.polynomial.polynomial.polyval(x[mask], coeffs)
    return rho * 1e3


def true_model(n=400_001):
    """Fine-grid r, rho, M(r), g(r), P(r) for the real PREM polynomials."""
    r = np.linspace(0.0, R_EARTH, n)
    rho = prem_density(r)
    # cumulative mass, trapezoid on the fine grid
    integrand = 4.0 * np.pi * r**2 * rho
    mass = np.concatenate(([0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(r))))
    g = np.zeros_like(r)
    g[1:] = GAMMA * mass[1:] / r[1:] ** 2
    # hydrostatic pressure, integrated from the surface down
    dpdr = rho * g
    p_down = np.concatenate(([0.0], np.cumsum(
        0.5 * (dpdr[1:] + dpdr[:-1]) * np.diff(r))))
    p = p_down[-1] - p_down
    return r, rho, mass, g, p


def linear_table_oracles(knot_r, knot_rho, knot_p):
    """Trapezoid-sum oracles over the piecewise-linear 20-row table."""
    # dense grid of the interpolant (independent of package quadrature)
    s = np.linspace(0.0, knot_r[-1], 2_000_001)
    rho_s = np.interp(s, knot_r, knot_rho)
    f = 4.0 * np.pi * s**2 * rho_s
    mass_s = np.concatenate(([0.0], np.cumsum(
        0.5 * (f[1:] + f[:-1]) * np.diff(s))))
    total = mass_s[-1]
    mean_rho = total / ((4.0 / 3.0) * np.pi * knot_r[-1] ** 3)

    icb = 1.2215e6
    p_icb = np.interp(icb, knot_r, knot_p)
    m_icb = np.interp(icb, s, mass_s)
    g_eq = p_icb * 4.0 * np.pi * icb**2 / (total - m_icb)

    integrand = np.zeros_like(s)
    integrand[1:] = GAMMA * mass_s[1:] / s[1:] ** 2
    u_int = np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(s))
    u_uniform = (2.0 / 3.0) * GAMMA * mean_rho * np.pi * knot_r[-1] ** 2

    # steepest pressure secant of the table
    slopes = np.abs(np.diff(knot_p) / np.diff(knot_r))
    k = int(np.argmax(slopes))
    return {
        "total_mass": total,
        "mean_density": mean_rho,
        "p_icb": p_icb,
        "m_icb": m_icb,
        "core_equilibrium_g": g_eq,
        "surface_integral": u_int,
        "uniform_bound": u_uniform,
        "steepest_segment": (knot_r[k], knot_r[k + 1]),
        "steepest_inner_pressure": knot_p[k],
        "steepest_slope": slopes[k],
    }


def main():
    r, rho, mass, g, p = true_model()
    knot_r = np.array(KNOTS_KM) * 1e3
    knot_rho = prem_density(knot_r)
    knot_p = np.interp(knot_r, r, p)
    knot_p[-1] = 0.0

    lines = ["radius_m,density_kg_m3,pressure_pa"]
    for rr, dd, pp in zip(knot_r, knot_rho, knot_p):
        lines.append(f"{rr:.1f},{dd:.1f},{pp:.6e}")
    out = "tests/fixtures/prem20.csv"
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out}")

    print("\n-- true PREM model (fine grid) --")
    print(f"total mass        {mass[-1]:.6e} kg")
    print(f"P(0)              {p[0]:.6e} Pa")
    print(f"P(ICB 1221.5 km)  {np.interp(1.2215e6, r, p):.6e} Pa")
    print(f"P(CMB 3480 km)    {np.interp(3.480e6, r, p):.6e} Pa")
    print(f"g(surface)        {g[-1]:.6f} m/s^2")

    # reload the frozen table and compute its own oracles
    tab = np.genfromtxt(out, delimiter=",", skip_header=1)
    oracles = linear_table_oracles(tab[:, 0], tab[:, 1], tab[:, 2])
    print("\n-- 20-row table oracles (piecewise-linear, trapezoid) --")
    for key, val in oracles.items():
        print(f"{key:24s} {val}")
    print(f"\nmass vs 5.9737e24:  {oracles['total_mass']/5.9737e24 - 1.0:+.5%}")
    print(f"mean rho vs 5515:   {oracles['mean_density']/5515.0 - 1.0:+.5%}")
    print(f"g_eq vs reported 1.160: {oracles['core_equilibrium_g']/1.160 - 1.0:+.5%}")
    gap = (oracles["surface_integral"] - oracles["uniform_bound"]) / oracles["uniform_bound"]
    print(f"homogeneity gap:    {gap:+.5f}")


if __name__ == "__main__":
    main()
