"""Acceptance suite: one test per shipped criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy import integrate

from geopotent import (
    BoundaryReference,
    CavitySchedule,
    DensityTrend,
    EarthParameters,
    ScheduleSegment,
    absolute_potential,
    compression_potential,
    core_equilibrium_gravity,
    direct_problem,
    equipotential_velocity,
    evaluate_schedule,
    gravity,
    homogeneity_bound,
    inverse_problem,
    kinetic_potential,
    locate_boundary,
    pulsating_potential,
    sensitivity_coefficients,
    u_infinity_homogeneous,
)
from geopotent.cli import PROFILE_HEADER, main

from conftest import GAMMA, random_sphere, uniform_profile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# documented constant set for every reported-value criterion
EARTH = EarthParameters(mean_radius=6.371e6, mass=5.9737e24,
                        mean_density=5515.0,
                        surface_first_cosmic_velocity=7910.0)


def _ok(number, label):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_reported_surface_balance():
    phi = compression_potential(2.7230e11, EARTH.mean_density)
    result = direct_problem(EARTH, phi)
    assert abs(result.equipotential_surface / 3.1284e7 - 1.0) <= 1e-3
    assert abs(result.u_surface / 3.1843e7 - 1.0) <= 0.02
    assert abs(result.compression_potential / 4.8491e7 - 1.0) <= 0.02
    assert abs(result.u_infinity / 11.1652e7 - 1.0) <= 0.01
    # the three printed component values sum to 11.1618e7, 0.03% away
    # from the printed total; the gap is recorded, not repaired
    component_sum = 3.1843e7 + 3.1284e7 + 4.8491e7
    assert abs(component_sum / 11.1618e7 - 1.0) <= 1e-4
    assert 2e-4 < abs(component_sum / 11.1652e7 - 1.0) < 5e-4
    _ok(1, "surface balance reproduces reported values")


def test_criterion_2_inverse_problem():
    result = inverse_problem(3.98722e14, 11.1652e7, 6.371e6)
    assert abs(result.r0 / 3.5710e6 - 1.0) <= 1e-3
    assert result.trend is DensityTrend.DECREASING_OUTWARD
    cmb = BoundaryReference("CMB", 3.48e6, 1.5e5)
    offset, within = locate_boundary(result, cmb)
    assert within
    assert offset == abs(result.r0 - 3.48e6)
    _ok(2, "characteristic radius lands in the CMB layer")


def test_criterion_3_core_equilibrium_gravity(prem_profile):
    value = core_equilibrium_gravity(prem_profile, 1.2215e6)
    assert abs(value - 1.05) <= 0.05
    assert abs(value / 1.160 - 1.0) <= 0.12
    _ok(3, "core equilibrium gravity on the reference profile")


def test_criterion_4_homogeneous_property_suite():
    rng = np.random.default_rng(101)

    # continuity at the boundary, both branches extrapolated to r = R
    for _ in range(100):
        s = random_sphere(rng)
        eps = 1e-6 * s.radius
        inner = absolute_potential(s, s.radius - eps) \
            + eps * gravity(s, s.radius - eps)
        outer = absolute_potential(s, s.radius + eps) \
            - eps * gravity(s, s.radius + eps)
        assert abs(inner - outer) <= 1e-9 * absolute_potential(s, s.radius)

    # dU/dr equals g to 1e-4 relative at 1000 random radii
    sphere = random_sphere(rng)
    h = 1e-6 * sphere.radius
    count = 0
    while count < 1000:
        r = rng.uniform(1e-3, 3.0) * sphere.radius
        if r < 10.0 * h:
            continue
        count += 1
        derivative = (absolute_potential(sphere, r + h)
                      - absolute_potential(sphere, r - h)) / (2.0 * h)
        assert abs(derivative / gravity(sphere, r) - 1.0) <= 1e-4

    # dU/dr is maximal at r = R on a dense grid
    grid = np.linspace(0.0, 3.0 * sphere.radius, 4001)
    u = np.array([absolute_potential(sphere, r) for r in grid])
    slope = (u[2:] - u[:-2]) / (grid[2] - grid[0])
    peak = grid[1 + int(np.argmax(slope))]
    assert abs(peak - sphere.radius) <= grid[1] - grid[0]

    # energy closure U + K = (3/2) gamma M / R to 1e-12
    u_inf = u_infinity_homogeneous(sphere)
    for r in rng.uniform(0.0, 4.0, 1000) * sphere.radius:
        total = absolute_potential(sphere, r) + kinetic_potential(sphere, r)
        assert abs(total - u_inf) <= 1e-12 * u_inf

    # quadrature oracle: adaptive integration of gamma M(s)/s^2 matches
    # the closed form to 1e-9 on 100 random interior points
    for _ in range(100):
        s = random_sphere(rng)
        r = rng.uniform(0.05, 1.0) * s.radius
        expected, _ = integrate.quad(
            lambda x: GAMMA * (4.0 / 3.0) * math.pi * s.density * x, 0.0, r)
        assert abs(absolute_potential(s, r) / expected - 1.0) <= 1e-9

    # interior kinetic potential strictly exceeds the equipotential term
    for _ in range(25):
        s = random_sphere(rng)
        for frac in rng.uniform(0.0, 1.0, 40):
            r = frac * s.radius
            assert kinetic_potential(s, r) \
                > 0.5 * equipotential_velocity(s, r) ** 2

    _ok(4, "homogeneous-model property suite")


def test_criterion_5_sensitivity_crossover():
    r0 = 613.7
    at_crossover = sensitivity_coefficients(2.0 * r0, r0)
    assert at_crossover.k1 == at_crossover.k2
    rng = np.random.default_rng(103)
    r = 10.0 ** rng.uniform(-3, 6, 10_000)
    r0s = 10.0 ** rng.uniform(-3, 6, 10_000)
    failures = 0
    for ri, r0i in zip(r, r0s):
        pair = sensitivity_coefficients(ri, r0i)
        if (pair.k1 > pair.k2) != (ri > 2.0 * r0i):
            failures += 1
    assert failures == 0
    _ok(5, "potential-vs-gravity sensitivity crossover at twice the source radius")


def test_criterion_6_velocity_round_trips():
    # the circular-orbit relation v_s^2 = g*r gives the radius back
    rng = np.random.default_rng(107)
    for _ in range(1000):
        sphere = random_sphere(rng)
        r = sphere.radius * rng.uniform(1.0, 50.0)
        v_s = equipotential_velocity(sphere, r)
        g = gravity(sphere, r)
        assert abs(v_s * v_s / g / r - 1.0) <= 1e-12

    # inverting the balance u_infinity - v^2/2 with the fall-from-infinity
    # speed sqrt(2 K) recovers the homogeneous absolute potential
    for _ in range(300):
        sphere = random_sphere(rng)
        r = sphere.radius * rng.uniform(0.0, 5.0)
        u_inf = u_infinity_homogeneous(sphere)
        v_fall = math.sqrt(2.0 * kinetic_potential(sphere, r))
        recovered = u_inf - 0.5 * v_fall * v_fall
        expected = absolute_potential(sphere, r)
        assert abs(recovered - expected) <= 1e-12 * u_inf
    _ok(6, "velocity-potential round trips")


def test_criterion_7_pulsating_model():
    assert pulsating_potential(1.0 / GAMMA, 1.0, 10.0) == 1.4

    constant = CavitySchedule(
        segments=(ScheduleSegment(0.0, 1000.0, "constant", (500.0,)),),
        source_mass=1e12, observer_radius=5000.0,
        host_density_contrast=-2700.0)
    for s in evaluate_schedule(constant, list(np.linspace(0.0, 1000.0, 11))):
        assert s.delta_u == 0.0 and s.delta_g == 0.0 and s.delta_v_s == 0.0

    growth = CavitySchedule(
        segments=(ScheduleSegment(0.0, 86400.0, "linear", (500.0, 1000.0)),),
        source_mass=1e12, observer_radius=5000.0,
        host_density_contrast=-2700.0)
    times = list(np.linspace(0.0, 86400.0, 33))
    samples = evaluate_schedule(growth, times)
    for t, s in zip(times, samples):
        radius = 500.0 + 500.0 * t / 86400.0
        expected = GAMMA * (4.0 / 3.0) * math.pi * (-2700.0) \
            * (radius**3 - 500.0**3) / 5000.0
        assert s.delta_u == pytest.approx(expected, rel=1e-9, abs=1e-30)
    for a, b in zip(samples, samples[1:]):
        assert b.delta_u < a.delta_u
        assert b.delta_g < a.delta_g
        assert b.delta_v_s > a.delta_v_s

    merge = ScheduleSegment(0.0, 1.0, "coalesce_step", (500.0, 500.0))
    assert merge.radii_and_cubes([0.5])[1] == [2.0 * 500.0**3]
    merged_schedule = CavitySchedule(
        segments=(ScheduleSegment(0.0, 10.0, "constant", (500.0,)),
                  ScheduleSegment(10.0, 20.0, "coalesce_step", (500.0, 500.0))),
        source_mass=1e12, observer_radius=5000.0,
        host_density_contrast=-2700.0)
    _, (before, after), _ = merged_schedule.radii_and_cubes([5.0, 15.0])
    assert after == 2.0 * before
    _ok(7, "pulsating model: literal value, zero baseline, cubic growth, "
           "coalescence")


def test_criterion_8_homogeneity_bound(prem_profile):
    uniform_report = homogeneity_bound(uniform_profile(), GAMMA)
    assert abs(uniform_report.relative_gap) <= 1e-6
    assert uniform_report.holds

    fixture_report = homogeneity_bound(prem_profile, GAMMA)
    assert not fixture_report.holds
    assert fixture_report.relative_gap > 0.0
    assert fixture_report.integral_side > fixture_report.uniform_side
    _ok(8, "homogeneity bound: equality on uniform, reported violation on "
           "the reference profile")


def test_criterion_9_cli_contract(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    cases = {
        "direct": ["direct", "--config", "tests/fixtures/earth_config.json"],
        "inverse": ["inverse", "--u-inf", "111652000"],
        "profile": ["profile", "--profile", "tests/fixtures/prem20.csv"],
        "anomaly": ["anomaly", "--depth", "5000", "--radius", "500",
                    "--density-contrast", "-2700", "--offsets", "5000"],
        "pulse": ["pulse", "--schedule",
                  "tests/fixtures/growth_schedule.json",
                  "--times", "0,43200,86400"],
    }
    for name, argv in cases.items():
        first = tmp_path / f"{name}_1"
        second = tmp_path / f"{name}_2"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    # documented exit codes: 2 for input errors, 3 for domain errors
    assert main(["direct"]) == 2
    assert main(["inverse", "--u-inf", "-1"]) == 2
    assert main(["anomaly", "--depth", "1000", "--radius", "999",
                 "--density-contrast", "1e12", "--offsets", "1000"]) == 3

    # malformed CSV rejected with a line number
    bad = tmp_path / "bad.csv"
    bad.write_text(PROFILE_HEADER + "\n0,5515,10\nnope,5515,9\n1e6,5515,8\n"
                   "2e6,5515,7\n")
    capsys.readouterr()
    assert main(["profile", "--profile", str(bad)]) == 2
    assert ":3:" in capsys.readouterr().err
    _ok(9, "CLI contract: byte-stable runs, exit codes, line-numbered "
           "CSV errors")
