import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from geopotent import (
    FieldSample,
    FieldTable,
    UniformSphere,
    absolute_potential,
    equipotential_velocity,
    gravity,
    kinetic_potential,
    sample_field,
    u_infinity_homogeneous,
)
from geopotent.errors import NonPhysicalValueError

from conftest import GAMMA, random_sphere

# Published reference values for the Earth surface balance; the
# documented constant set reproduces them to the tolerances asserted here.
U_SURFACE_REPORTED = 3.1843e7
C_SURFACE_REPORTED = 3.1284e7


class TestAbsolutePotential:
    def test_zero_at_center(self, earth_sphere):
        assert absolute_potential(earth_sphere, 0.0) == 0.0

    def test_surface_value_is_half_gm_over_r(self, earth_sphere):
        u_r = absolute_potential(earth_sphere, earth_sphere.radius)
        gm = GAMMA * earth_sphere.mass
        assert u_r == pytest.approx(gm / (2.0 * earth_sphere.radius), rel=1e-12)
        assert u_r == pytest.approx(3.129e7, rel=1e-3)
        # reported value reproduced within 2% under the documented constants
        assert u_r == pytest.approx(U_SURFACE_REPORTED, rel=0.02)

    def test_far_field_approaches_u_infinity(self, earth_sphere):
        u_far = absolute_potential(earth_sphere, 1e12)
        u_inf = u_infinity_homogeneous(earth_sphere)
        assert u_inf == pytest.approx(9.387e7, rel=1e-3)
        assert u_far == pytest.approx(u_inf, rel=1e-5)

    def test_continuity_at_boundary(self):
        # extrapolate both branches to r = R; a jump would survive the
        # first-order correction while the Taylor residual is O(eps^2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_sphere(rng)
            eps = 1e-6 * s.radius
            from_inside = (absolute_potential(s, s.radius - eps)
                           + eps * gravity(s, s.radius - eps))
            from_outside = (absolute_potential(s, s.radius + eps)
                            - eps * gravity(s, s.radius + eps))
            u_r = absolute_potential(s, s.radius)
            assert abs(from_inside - from_outside) <= 1e-9 * u_r

    def test_quadrature_oracle(self):
        # independent route: adaptive quadrature of gamma * M(s) / s^2
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = random_sphere(rng)
            r = rng.uniform(0.05, 1.0) * s.radius
            integrand = lambda x: GAMMA * (4.0 / 3.0) * math.pi * s.density * x
            expected, _ = integrate.quad(integrand, 0.0, r)
            assert absolute_potential(s, r) == pytest.approx(expected, rel=1e-9)

    def test_inflection_at_boundary(self, earth_sphere):
        radius = earth_sphere.radius
        grid = np.linspace(0.2 * radius, 2.0 * radius, 2001)
        u = np.array([absolute_potential(earth_sphere, r) for r in grid])
        h = grid[1] - grid[0]
        first = (u[2:] - u[:-2]) / (2.0 * h)
        idx = np.argmax(first)
        assert grid[1 + idx] == pytest.approx(radius, abs=1.5 * h)
        second = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
        inside = np.searchsorted(grid, radius) - 3
        outside = np.searchsorted(grid, radius) + 3
        assert second[inside - 1] > 0.0 > second[outside - 1]

    def test_rejects_negative_radius(self, earth_sphere):
        with pytest.raises(NonPhysicalValueError):
            absolute_potential(earth_sphere, -1.0)


class TestGravity:
    def test_zero_at_center(self, earth_sphere):
        assert gravity(earth_sphere, 0.0) == 0.0

    def test_surface_value(self, earth_sphere):
        assert gravity(earth_sphere, earth_sphere.radius) == pytest.approx(
            9.823, rel=1e-3)

    def test_interior_linearity_exact(self, earth_sphere):
        g_r = gravity(earth_sphere, earth_sphere.radius)
        assert gravity(earth_sphere, earth_sphere.radius / 2.0) == 0.5 * g_r

    def test_matches_potential_derivative(self):
        rng = np.random.default_rng(7)
        sphere = random_sphere(rng)
        radius = sphere.radius
        for r in rng.uniform(1e-3, 3.0, 1000) * radius:
            h = 1e-6 * radius
            if r < 10.0 * h:
                continue
            derivative = (absolute_potential(sphere, r + h)
                          - absolute_potential(sphere, r - h)) / (2.0 * h)
            assert derivative == pytest.approx(gravity(sphere, r), rel=1e-4)

    def test_maximum_at_boundary(self, earth_sphere):
        grid = np.linspace(0.0, 3.0 * earth_sphere.radius, 3001)
        g = np.array([gravity(earth_sphere, r) for r in grid])
        assert grid[np.argmax(g)] == pytest.approx(earth_sphere.radius,
                                                   abs=grid[1] - grid[0])


class TestEquipotentialVelocity:
    def test_zero_at_center(self, earth_sphere):
        assert equipotential_velocity(earth_sphere, 0.0) == 0.0

    def test_equals_first_cosmic_at_boundary(self, earth_sphere):
        v_s = equipotential_velocity(earth_sphere, earth_sphere.radius)
        v_1k = math.sqrt(GAMMA * earth_sphere.mass / earth_sphere.radius)
        assert v_s == pytest.approx(v_1k, rel=1e-9)
        assert v_s == pytest.approx(7911.0, rel=1e-3)
        # half the squared velocity is the reported surface equipotential term
        assert 0.5 * v_s * v_s == pytest.approx(C_SURFACE_REPORTED, rel=1e-3)

    def test_linear_inside(self, earth_sphere):
        radius = earth_sphere.radius
        v_r = equipotential_velocity(earth_sphere, radius)
        assert equipotential_velocity(earth_sphere, radius / 4.0) == 0.25 * v_r
        rng = np.random.default_rng(9)
        for frac in rng.uniform(0.01, 1.0, 50):
            assert equipotential_velocity(earth_sphere, frac * radius) \
                == pytest.approx(frac * v_r, rel=1e-12)

    def test_rejects_negative_radius(self, earth_sphere):
        with pytest.raises(NonPhysicalValueError):
            equipotential_velocity(earth_sphere, -1.0)


class TestKineticPotential:
    def test_vanishes_far_away(self, earth_sphere):
        u_inf = u_infinity_homogeneous(earth_sphere)
        assert kinetic_potential(earth_sphere, 1e9 * earth_sphere.radius) \
            <= 1e-8 * u_inf

    def test_center_value_is_full_potential(self, earth_sphere):
        assert kinetic_potential(earth_sphere, 0.0) \
            == u_infinity_homogeneous(earth_sphere)

    def test_surface_value(self, earth_sphere):
        gm = GAMMA * earth_sphere.mass
        assert kinetic_potential(earth_sphere, earth_sphere.radius) \
            == pytest.approx(gm / earth_sphere.radius, rel=1e-9)
        assert kinetic_potential(earth_sphere, earth_sphere.radius) \
            == pytest.approx(6.258e7, rel=1e-3)

    def test_energy_closure_exact(self):
        rng = np.random.default_rng(17)
        sphere = random_sphere(rng)
        u_inf = u_infinity_homogeneous(sphere)
        for r in rng.uniform(0.0, 4.0, 1000) * sphere.radius:
            total = (absolute_potential(sphere, r)
                     + kinetic_potential(sphere, r))
            assert abs(total - u_inf) <= 1e-12 * u_inf

    def test_strictly_exceeds_equipotential_term_inside(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            sphere = random_sphere(rng)
            for frac in rng.uniform(0.0, 1.0, 50):
                r = frac * sphere.radius
                kinetic = kinetic_potential(sphere, r)
                half_v2 = 0.5 * equipotential_velocity(sphere, r) ** 2
                assert kinetic > half_v2


class TestSampleField:
    def test_center_sample(self, earth_sphere):
        (sample,) = sample_field(earth_sphere, [0.0])
        assert sample.potential == 0.0
        assert sample.gravity == 0.0
        assert sample.equipotential_velocity == 0.0
        assert sample.kinetic_potential == u_infinity_homogeneous(earth_sphere)

    def test_boundary_velocity_matches_first_cosmic(self, earth_sphere):
        (sample,) = sample_field(earth_sphere, [earth_sphere.radius])
        v_1k = math.sqrt(GAMMA * earth_sphere.mass / earth_sphere.radius)
        assert sample.equipotential_velocity == pytest.approx(v_1k, rel=1e-9)

    def test_monotone_potential(self, earth_sphere):
        radius = earth_sphere.radius
        samples = sample_field(earth_sphere, [radius / 2, radius, 2 * radius])
        potentials = [s.potential for s in samples]
        assert potentials == sorted(potentials)
        assert potentials[0] < potentials[1] < potentials[2]

    def test_matches_scalar_functions(self):
        # every cell is bitwise the scalar function's value, both branches
        # and the boundary included, and no radius warns
        rng = np.random.default_rng(23)
        scalars = (absolute_potential, gravity, equipotential_velocity,
                   kinetic_potential)
        for _ in range(200):
            sphere = random_sphere(rng)
            big = sphere.radius
            radii = np.concatenate((rng.uniform(0.0, 3.0 * big, 500), [
                0.0, 5e-324, big, np.nextafter(big, -np.inf),
                np.nextafter(big, np.inf), 1e3 * big, 1e160, 1e300]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = sample_field(sphere, radii)
            assert table.radius.tobytes() == radii.tobytes()
            cols = (table.potential, table.gravity,
                    table.equipotential_velocity, table.kinetic_potential)
            for r, *cells in zip(radii.tolist(), *(c.tolist() for c in cols)):
                for f, cell in zip(scalars, cells):
                    assert cell.hex() == f(sphere, r).hex(), (f.__name__, r)

    def test_closure_invariant(self, earth_sphere):
        u_inf = u_infinity_homogeneous(earth_sphere)
        for s in sample_field(earth_sphere, list(np.linspace(0, 2e7, 100))):
            assert s.potential + s.kinetic_potential == pytest.approx(
                u_inf, rel=1e-12)

    def test_error_carries_index(self, earth_sphere):
        with pytest.raises(NonPhysicalValueError, match=r"radii\[2\]"):
            sample_field(earth_sphere, [1.0, 2.0, -3.0])

    def test_empty_list(self, earth_sphere):
        assert sample_field(earth_sphere, []) == []


COLUMNS = ("radius", "potential", "gravity", "equipotential_velocity",
           "kinetic_potential")


class TestFieldTable:
    radii = np.linspace(0.0, 3.0 * 6.371e6, 101)

    def test_list_and_array_input_agree(self, earth_sphere):
        from_list = sample_field(earth_sphere, self.radii.tolist())
        from_array = sample_field(earth_sphere, self.radii)
        from_generator = sample_field(earth_sphere,
                                      (r for r in self.radii.tolist()))
        assert from_list == from_array == from_generator
        for name in COLUMNS:
            assert np.array_equal(getattr(from_list, name),
                                  getattr(from_array, name))

    def test_columns_read_only(self, earth_sphere):
        table = sample_field(earth_sphere, self.radii)
        for name in COLUMNS:
            col = getattr(table, name)
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1.0

    def test_caller_array_changes_do_not_reach_table(self, earth_sphere):
        radii = self.radii.copy()
        table = sample_field(earth_sphere, radii)
        radii[:] = 1.0
        assert radii.flags.writeable
        assert np.array_equal(table.radius, self.radii)

    def test_constructor_checks_shapes_and_keeps_caller_writable(self):
        col = np.arange(4.0)
        table = FieldTable(col, col, col, col, col)
        assert col.flags.writeable and not table.gravity.flags.writeable
        with pytest.raises(NonPhysicalValueError):
            FieldTable(col, col, col, col, col[:3])
        with pytest.raises(NonPhysicalValueError):
            FieldTable(*[np.ones((2, 2))] * 5)

    def test_rows_behave_like_a_list(self, earth_sphere):
        table = sample_field(earth_sphere, self.radii)
        rows = [FieldSample(*values) for values in zip(
            *(getattr(table, name).tolist() for name in COLUMNS))]
        assert len(table) == len(rows) == 101
        assert list(table) == rows
        assert table == rows
        for i in (0, 1, 50, -1, -101, np.int64(7)):
            assert table[i] == rows[i]
            assert type(table[i].potential) is float
        for i in (101, -102):
            with pytest.raises(IndexError):
                table[i]
        with pytest.raises(TypeError):
            table[1.0]
        assert isinstance(table[10:20], FieldTable)
        assert table[10:20] == rows[10:20]
        assert table[::-3] == rows[::-3]

    def test_empty_table(self, earth_sphere):
        table = sample_field(earth_sphere, np.empty(0))
        assert len(table) == 0 and not table
        assert list(table) == []
        with pytest.raises(IndexError):
            table[0]

    @pytest.mark.parametrize("bad", [-3.0, math.nan, math.inf])
    def test_error_message_unchanged(self, earth_sphere, bad):
        want = f"radii[2] must be >= 0, got {np.float64(bad)!r}"
        for radii in ([1.0, 2.0, bad], np.array([1.0, 2.0, bad])):
            with pytest.raises(NonPhysicalValueError) as err:
                sample_field(earth_sphere, radii)
            assert str(err.value) == want
