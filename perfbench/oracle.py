"""Independent reference values for every output the benchmark checks.

Nothing here imports ``geopotent``: each quantity is derived again from
its closed form so that agreement means the program is right, not that
it agrees with itself.

- Profiles have piecewise-linear density, so the enclosed mass ``M(r)``
  and ``int M/s^2 ds`` are exact piecewise polynomials. Below the first
  knot the innermost density is held constant, as the program documents.
- The steepest pressure gradient of a piecewise-linear pressure curve is
  the steepest knot segment.
- Cavity schedules give ``R(t)^3`` in closed form per segment kind, and
  the signal is that of a point mass.
- ``sample_field`` is the closed-form uniform sphere.
"""

import math

import numpy as np

# Defaults the program documents (README config section, CODATA gamma).
GAMMA = 6.6743e-11
EARTH = {
    "mean_radius": 6.371e6,
    "mass": 5.9737e24,
    "mean_density": 5515.0,
    "surface_first_cosmic_velocity": 7910.0,
    "gm": 6.6743e-11 * 5.9737e24,
}
BOUNDARIES = (("CMB", 3.48e6, 1.5e5), ("ICB", 1.2215e6, 1.0e5))
UNIFORM_TREND_TOL = 1e-6
FOUR_PI = 4.0 * math.pi


# -- radial profiles -----------------------------------------------------

class ExactProfile:
    """Exact mass and potential integrals of a piecewise-linear density."""

    def __init__(self, radii, densities, pressures):
        self.r = np.asarray(radii, dtype=np.float64)
        self.rho = np.asarray(densities, dtype=np.float64)
        self.p = np.asarray(pressures, dtype=np.float64)
        self.slope = np.diff(self.rho) / np.diff(self.r)
        core = FOUR_PI / 3.0 * self.rho[0] * self.r[0] ** 3
        self.m_knots = np.concatenate(
            ([core], core + np.cumsum(self._shell_mass(
                np.arange(self.r.size - 1), np.diff(self.r)))))

    @property
    def body_radius(self):
        return float(self.r[-1])

    def _shell_mass(self, i, h):
        # 4*pi * int_0^h (rho_i + b x) (r_i + x)^2 dx, written in the
        # offset x so narrow intervals far from the centre keep their digits
        r, rho, b = self.r[i], self.rho[i], self.slope[i]
        return FOUR_PI * (rho * (r * r * h + r * h * h + h ** 3 / 3.0)
                          + b * (r * r * h * h / 2.0 + 2.0 * r * h ** 3 / 3.0
                                 + h ** 4 / 4.0))

    def mass(self, radius):
        """Enclosed mass M(radius) for 0 <= radius <= body radius."""
        if radius <= self.r[0]:
            return FOUR_PI / 3.0 * self.rho[0] * radius ** 3
        i = min(int(np.searchsorted(self.r, radius, side="right")) - 1,
                self.r.size - 2)
        return float(self.m_knots[i] + self._shell_mass(i, radius - self.r[i]))

    def potential_integral(self):
        """int M(s)/s^2 ds from the first knot to the surface."""
        r0, r1 = self.r[:-1], self.r[1:]
        h = r1 - r0
        b = self.slope
        a = self.rho[:-1] - b * r0
        # M(s) = c + 4*pi*(a s^3/3 + b s^4/4) on each interval
        c = self.m_knots[:-1] - FOUR_PI * (a * r0 ** 3 / 3.0 + b * r0 ** 4 / 4.0)
        # c = M(0) = 0 on an interval starting at the centre
        c_term = np.zeros_like(h)
        inner = r0 > 0.0
        c_term[inner] = c[inner] * h[inner] / (r0[inner] * r1[inner])
        d_sq = h * (2.0 * r0 + h)
        d_cube = h * (3.0 * r0 * r0 + 3.0 * r0 * h + h * h)
        return float(np.sum(c_term + FOUR_PI * (a * d_sq / 6.0
                                                + b * d_cube / 12.0)))

    def pressure_at(self, radius):
        return float(np.interp(radius, self.r, self.p))

    def steepest_segment(self):
        """(index, |dP/dr|) of the knot segment with the steepest pressure."""
        slopes = np.abs(np.diff(self.p) / np.diff(self.r))
        i = int(np.argmax(slopes))
        return i, float(slopes[i])


def hydrostatic_pressure(radii, densities, gamma=GAMMA):
    """Pressure at each knot, integrating rho * gamma * M / s^2 inward.

    Five-point Gauss-Legendre per interval on the exact M(s); zero at the
    surface and non-increasing outward by construction.
    """
    prof = ExactProfile(radii, densities, np.zeros(len(radii)))
    x, w = np.polynomial.legendre.leggauss(5)
    r0 = prof.r[:-1]
    h = np.diff(prof.r)
    idx = np.arange(r0.size)
    dp = np.zeros(r0.size)
    for xk, wk in zip(x, w):
        off = 0.5 * h * (xk + 1.0)
        s = r0 + off
        rho = prof.rho[:-1] + prof.slope * off
        m = prof.m_knots[:-1] + prof._shell_mass(idx, off)
        dp += 0.5 * h * wk * rho * gamma * m / (s * s)
    return np.concatenate((np.cumsum(dp[::-1])[::-1], [0.0]))


def profile_report(prof, gamma=GAMMA, boundaries=BOUNDARIES):
    """Expected `profile` report values, keyed like the program's report."""
    body = prof.body_radius
    total = prof.mass(body)
    rho_mean = total / (FOUR_PI / 3.0 * body ** 3)
    integral = gamma * prof.potential_integral()
    uniform = 2.0 / 3.0 * gamma * rho_mean * math.pi * body ** 2
    seg, grad = prof.steepest_segment()
    rows = []
    for name, radius, _ in boundaries:
        if 0.0 < radius < body:
            outside = total - prof.mass(radius)
            rows.append({"boundary": name, "radius_m": radius,
                         "equilibrium_gravity_m_s2":
                             prof.pressure_at(radius) * FOUR_PI * radius ** 2
                             / outside})
    return {
        "body_radius_m": body,
        "total_mass_kg": total,
        "mean_density_kg_m3": rho_mean,
        "grad_p_gradient_pa_m": grad,
        "grad_p_segment": (float(prof.r[seg]), float(prof.r[seg + 1])),
        "homogeneity_integral_j_kg": integral,
        "homogeneity_uniform_j_kg": uniform,
        "homogeneity_relative_gap": (integral - uniform) / uniform,
        "rows": rows,
    }


# -- direct and inverse problems ------------------------------------------

def direct_report(p_g, earth=EARTH):
    gamma = earth["gm"] / earth["mass"]
    u_surface = 2.0 / 3.0 * gamma * earth["mean_density"] * math.pi \
        * earth["mean_radius"] ** 2
    equip = 0.5 * earth["surface_first_cosmic_velocity"] ** 2
    compression = p_g / earth["mean_density"]
    return {
        "u_surface_j_kg": u_surface,
        "equipotential_surface_j_kg": equip,
        "compression_potential_j_kg": compression,
        "u_infinity_j_kg": u_surface + equip + compression,
    }


def inverse_report(u_inf, earth=EARTH, boundaries=BOUNDARIES):
    r0 = earth["gm"] / u_inf
    body = earth["mean_radius"]
    if abs(r0 - body) <= UNIFORM_TREND_TOL * body:
        trend = "uniform"
    elif r0 < body:
        trend = "decreasing_outward"
    else:
        trend = "increasing_outward"
    rows = [{"boundary": name, "radius_m": radius,
             "offset_m": abs(r0 - radius),
             "within_layer": abs(r0 - radius) <= half}
            for name, radius, half in boundaries]
    return {"r0_m": r0, "depth_m": body - r0, "trend": trend, "rows": rows}


# -- anomalies and cavity schedules -----------------------------------------

def surface_background(earth=EARTH):
    """(u0, g0, u_infinity) of the compression-free surface background."""
    gamma = earth["gm"] / earth["mass"]
    u0 = 2.0 / 3.0 * gamma * earth["mean_density"] * math.pi \
        * earth["mean_radius"] ** 2
    g0 = earth["gm"] / earth["mean_radius"] ** 2
    return u0, g0, u0 + 0.5 * earth["surface_first_cosmic_velocity"] ** 2


def point_mass(delta_mass, distance, background, gamma=GAMMA):
    """(delta_u, delta_g, delta_v_s, relative_u, relative_g) of a point mass.

    Takes scalars or arrays. delta_v_s = sqrt(2(b - du)) - sqrt(2b) is
    evaluated in the cancellation-free form
    -2 du / (sqrt(2(b - du)) + sqrt(2b)).
    """
    u0, g0, u_inf = background
    du = gamma * delta_mass / distance
    dg = gamma * delta_mass / (distance * distance)
    base = u_inf - u0
    dvs = -2.0 * du / (np.sqrt(2.0 * (base - du)) + math.sqrt(2.0 * base))
    return du, dg, dvs, du / u0, dg / g0


def anomaly_rows(depth, radius, contrast, offsets, background, gamma=GAMMA):
    delta_mass = FOUR_PI / 3.0 * radius ** 3 * contrast
    rows = []
    for off in offsets:
        x = off / radius
        k1 = 2.0 / 3.0 * math.pi * gamma * x * x
        k2 = 4.0 / 3.0 * math.pi * gamma * x
        du, dg, dvs, rel_u, rel_g = point_mass(delta_mass, off, background,
                                               gamma)
        rows.append({"offset_m": off, "k1": k1, "k2": k2, "k_ratio": x / 2.0,
                     "delta_u_j_kg": du, "delta_g_m_s2": dg,
                     "delta_v_s_m_s": dvs, "relative_u": rel_u,
                     "relative_g": rel_g, "advantage": rel_u / rel_g})
    return rows


def radius_cubed(segments, times):
    """R(t)^3 for each time; an end time belongs to the next segment."""
    ends = np.array([s["t_end"] for s in segments[:-1]])
    idx = np.searchsorted(ends, times, side="right")
    out = np.empty(len(times))
    for k, (t, i) in enumerate(zip(times, idx)):
        seg = segments[i]
        p = seg["params"]
        if seg["kind"] == "constant":
            out[k] = p["radius"] ** 3
        elif seg["kind"] == "linear":
            frac = (t - seg["t_start"]) / (seg["t_end"] - seg["t_start"])
            out[k] = (p["radius_start"]
                      + (p["radius_end"] - p["radius_start"]) * frac) ** 3
        else:
            out[k] = p["radius_1"] ** 3 + p["radius_2"] ** 3
    return out


def pulse_rows(schedule, times, background, gamma=GAMMA):
    """Expected pulse columns as numpy arrays keyed by CSV column name."""
    times = np.asarray(times, dtype=np.float64)
    cubed = radius_cubed(schedule["segments"], times)
    radius = np.cbrt(cubed)
    gm = gamma * schedule["source_mass"]
    r_obs = schedule["observer_radius"]
    deficit = FOUR_PI / 3.0 * cubed * schedule["host_density_contrast"]
    du, dg, dvs, _, _ = point_mass(deficit - deficit[0], r_obs, background,
                                   gamma)
    return {"t_s": times, "source_radius_m": radius,
            "potential_j_kg": -gm / r_obs + 1.5 * gm / radius,
            "delta_u_j_kg": du, "delta_g_m_s2": dg, "delta_v_s_m_s": dvs}


# -- uniform sphere field ---------------------------------------------------

def sphere_field(mass, radius, r, gamma=GAMMA):
    """(potential, gravity, equipotential velocity, kinetic) at radii r."""
    r = np.asarray(r, dtype=np.float64)
    gm = gamma * mass
    inside = r <= radius
    safe = np.where(inside, radius, r)
    # inside: U = gm r^2 / (2 R^3); outside: U = 3gm/(2R) - gm/r
    u = np.where(inside, 0.5 * gm * r * r / radius ** 3,
                 1.5 * gm / radius - gm / safe)
    g = np.where(inside, gm * r / radius ** 3, gm / (safe * safe))
    kinetic = np.where(inside, gm * (1.5 - 0.5 * (r / radius) ** 2) / radius,
                       gm / safe)
    return u, g, np.sqrt(g * r), kinetic
