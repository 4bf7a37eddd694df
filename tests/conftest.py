import os

import numpy as np
import pytest

from geopotent import RadialProfile, UniformSphere

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
PREM_CSV = os.path.join(FIXTURES, "prem20.csv")

GAMMA = 6.6743e-11
EARTH_MASS = 5.9737e24
EARTH_RADIUS = 6.371e6
EARTH_MEAN_DENSITY = 5515.0
EARTH_V1K = 7910.0


@pytest.fixture(scope="session")
def prem_profile():
    tab = np.genfromtxt(PREM_CSV, delimiter=",", skip_header=1)
    return RadialProfile(*tab.T)


@pytest.fixture(scope="session")
def earth_sphere():
    return UniformSphere.from_mass_radius(EARTH_MASS, EARTH_RADIUS)


def uniform_profile(rho=EARTH_MEAN_DENSITY, body_radius=EARTH_RADIUS, n=21):
    """Uniform-density profile with the analytic hydrostatic pressure curve."""
    r = np.linspace(0.0, body_radius, n)
    pressure = (2.0 / 3.0) * np.pi * GAMMA * rho**2 * (body_radius**2 - r**2)
    return RadialProfile(r, np.full(n, rho), pressure)


def random_sphere(rng):
    radius = 10.0 ** rng.uniform(2.0, 9.0)
    density = 10.0 ** rng.uniform(2.5, 4.5)
    return UniformSphere.from_density_radius(density, radius)
