"""Library workload: sample the uniform-sphere field at radii from a file.

Usage: ``PYTHONPATH=src python perfbench/field_batch.py RADII.npy MASS RADIUS``

Prints one JSON line: the sample count, how many field values are not
finite, and the largest relative error against the closed-form sphere in
``oracle``. ``sample_field`` is looked up on the package at call time so
a trace installed on ``geopotent`` sees the call.
"""

import json
import sys

import numpy as np

import geopotent
import oracle

COLUMNS = ("radius", "potential", "gravity", "equipotential_velocity",
           "kinetic_potential")


def _columns(samples):
    """Field columns from a list of samples or a table of columns."""
    if all(hasattr(samples, name) for name in COLUMNS):
        return [np.asarray(getattr(samples, name), dtype=np.float64)
                for name in COLUMNS]
    table = np.array([tuple(getattr(s, name) for name in COLUMNS)
                      for s in samples], dtype=np.float64).reshape(-1, 5)
    return list(table.T)


def run(radii_path, mass, radius):
    radii = np.load(radii_path)
    sphere = geopotent.UniformSphere.from_mass_radius(mass, radius)
    samples = geopotent.sample_field(sphere, radii)
    r, *got = _columns(samples)
    want = oracle.sphere_field(mass, radius, radii)
    err = 0.0 if np.array_equal(r, radii) else float("inf")
    non_finite = 0
    for g, w in zip(got, want):
        non_finite += int(np.count_nonzero(~np.isfinite(g)))
        scale = np.where(w != 0.0, np.abs(w), 1.0)
        err = max(err, float(np.max(np.abs(g - w) / scale)))
    return {"samples": len(r), "non_finite": non_finite, "rel_err_max": err}


if __name__ == "__main__":
    path, mass_text, radius_text = sys.argv[1:4]
    print(json.dumps(run(path, float(mass_text), float(radius_text))))
