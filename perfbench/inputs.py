"""Seeded inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain data;
``write_*`` helpers put it on disk in the formats the README documents.
Sizes and the structural properties the program's cost depends on (knot
count, narrowest knot gap, first radius, segment and sample counts,
radii count) are fixed per workload, so seeds change values, not work.
"""

import json

import numpy as np

from oracle import hydrostatic_pressure

BODY_RADIUS = 6.371e6

# PREM-style layers: (top radius m, density at bottom, density at top).
# Each top except the surface is a first-order density discontinuity.
LAYERS = (
    (1.2215e6, 13088.5, 12763.6),
    (3.48e6, 12166.3, 9903.4),
    (5.701e6, 5566.5, 4380.7),
    (5.971e6, 3992.1, 3543.3),
    (6.3466e6, 3490.3, 3380.8),
    (BODY_RADIUS, 2900.0, 2600.0),
)


def _layer_density(rng):
    """Density function r -> rho with seeded jitter of each layer's ends."""
    jitter = 1.0 + 0.03 * rng.uniform(-1.0, 1.0, size=(len(LAYERS), 2))
    tops = np.array([top for top, _, _ in LAYERS])
    bottoms = np.concatenate(([0.0], tops[:-1]))
    lo = np.array([b for _, b, _ in LAYERS]) * jitter[:, 0]
    hi = np.array([t for _, _, t in LAYERS]) * jitter[:, 1]

    def density(r):
        k = np.minimum(np.searchsorted(tops, r, side="left"), len(LAYERS) - 1)
        frac = (r - bottoms[k]) / (tops[k] - bottoms[k])
        return lo[k] + (hi[k] - lo[k]) * np.clip(frac, 0.0, 1.0)

    return density


def make_profile(rng, n_knots, first_radius, pair_widths):
    """PREM-like profile: piecewise-linear density, hydrostatic pressure.

    The discontinuities at the tops of the first ``len(pair_widths)``
    layers are each encoded as a pair of knots ``pair_widths[k]`` metres
    apart; the density steps across the pair. Other knot gaps are random
    around the mean spacing, and never narrower than the widest pair.
    """
    density = _layer_density(rng)
    n_base = n_knots - 2 * len(pair_widths)
    gaps = rng.uniform(0.7, 1.3, size=n_base - 1)
    radii = first_radius + np.concatenate(
        ([0.0], np.cumsum(gaps))) * (BODY_RADIUS - first_radius) / gaps.sum()
    radii[-1] = BODY_RADIUS
    floor = 2.0 * max(pair_widths, default=0.0)
    pairs = []
    for (top, _, _), width in zip(LAYERS, pair_widths):
        lo, hi = top - width / 2.0, top + width / 2.0
        radii = radii[(radii < lo - floor) | (radii > hi + floor)]
        pairs.append((lo, hi))
    rho_pairs = [(density(np.array([lo]))[0], density(np.array([hi]))[0])
                 for lo, hi in pairs]
    r = np.concatenate((radii, [x for pair in pairs for x in pair]))
    rho = np.concatenate((density(radii),
                          [x for pair in rho_pairs for x in pair]))
    order = np.argsort(r)
    r, rho = r[order], rho[order]
    # the removal above can leave fewer knots than asked; top up with
    # midpoints of the widest gaps, which keeps every gap above the floor
    while r.size < n_knots:
        need = n_knots - r.size
        widest = np.sort(np.argsort(np.diff(r))[-need:])
        mids = 0.5 * (r[widest] + r[widest + 1])
        r = np.insert(r, widest + 1, mids)
        rho = np.insert(rho, widest + 1, density(mids))
    pressure = hydrostatic_pressure(r, rho)
    gaps = np.diff(r)
    return {
        "radii": r, "densities": rho, "pressures": pressure,
        "properties": {
            "knots": int(r.size),
            "min_gap_m": float(gaps.min()),
            "first_radius_m": float(r[0]),
            "narrow_pairs": len(pair_widths),
        },
    }


def profile_csv_lines(prof):
    """Header and rows; ``repr`` keeps every digit, so the program parses
    exactly the values the oracle uses."""
    return ["radius_m,density_kg_m3,pressure_pa"] + [
        "%r,%r,%r" % row for row in zip(prof["radii"].tolist(),
                                        prof["densities"].tolist(),
                                        prof["pressures"].tolist())]


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_profile(path, prof):
    write_text(path, "\n".join(profile_csv_lines(prof)) + "\n")


SEGMENT_KINDS = ("constant", "linear", "coalesce_step")


def make_schedule(rng, n_segments, span=86400.0 * 30):
    """Contiguous schedule mixing all three kinds, radii 100-1200 m."""
    weights = rng.uniform(0.5, 1.5, size=n_segments)
    bounds = np.concatenate(([0.0], np.cumsum(weights))) * span / weights.sum()
    bounds[-1] = span
    kinds = [SEGMENT_KINDS[i % 3] for i in rng.permutation(n_segments)]
    segments = []
    for k, kind in enumerate(kinds):
        a, b = (float(x) for x in rng.uniform(100.0, 1200.0, size=2))
        params = {"constant": {"radius": a},
                  "linear": {"radius_start": a, "radius_end": b},
                  "coalesce_step": {"radius_1": a, "radius_2": b}}[kind]
        segments.append({"t_start": float(bounds[k]),
                         "t_end": float(bounds[k + 1]),
                         "kind": kind, "params": params})
    return {"source_mass": float(rng.uniform(5e11, 5e12)),
            "observer_radius": 5000.0,
            "host_density_contrast": float(-rng.uniform(1500.0, 2700.0)),
            "segments": segments}


def schedule_properties(schedule, samples):
    counts = {kind: 0 for kind in SEGMENT_KINDS}
    for seg in schedule["segments"]:
        counts[seg["kind"]] += 1
    return {"segments": len(schedule["segments"]),
            "segments_per_kind": counts, "samples": samples}


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def make_radii(rng, n, sphere_radius):
    """Radii inside and outside the sphere, including exactly 0 and R."""
    inside = rng.uniform(0.0, sphere_radius, size=n // 2)
    outside = sphere_radius * (1.0 + rng.exponential(2.0, size=n - n // 2 - 2))
    r = np.concatenate(([0.0, sphere_radius], inside, outside))
    rng.shuffle(r)
    return r


def uniform_times(t_start, t_end, n):
    """The sample times ``pulse --num-samples n`` uses."""
    span = t_end - t_start
    return [t_start + span * i / (n - 1) for i in range(n)]


def fmt_list(values):
    return ",".join(repr(float(v)) for v in values)


def anomaly_case(rng):
    radius = float(rng.uniform(200.0, 800.0))
    depth = float(radius * rng.uniform(4.0, 10.0))
    contrast = float(-rng.uniform(1000.0, 2700.0))
    offsets = sorted(float(depth * f) for f in rng.uniform(1.0, 3.0, size=2))
    return {"depth": depth, "radius": radius, "density_contrast": contrast,
            "offsets": offsets}


def anomaly_argv(case, extra=()):
    return ["anomaly", "--depth", repr(case["depth"]),
            "--radius", repr(case["radius"]),
            "--density-contrast", repr(case["density_contrast"]),
            "--offsets", fmt_list(case["offsets"]), *extra]


def malformed_profile_lines(rng, prof, kind):
    """CSV text of `prof` damaged one way: header, cell or radius order."""
    lines = profile_csv_lines(prof)
    row = int(rng.integers(2, len(lines) - 1))
    if kind == "bad_header":
        lines[0] = "radius,density,pressure"
    elif kind == "non_numeric":
        cells = lines[row].split(",")
        cells[int(rng.integers(0, 3))] = "n/a"
        lines[row] = ",".join(cells)
    else:
        lines[row], lines[row + 1] = lines[row + 1], lines[row]
    return "\n".join(lines) + "\n"
