import math
import random

import numpy as np
import pytest

import geopotent
from geopotent import (
    BackgroundState,
    CavitySchedule,
    EarthParameters,
    FieldSample,
    FieldTable,
    PulseSample,
    PulseTable,
    ScheduleSegment,
    UniformSphere,
    evaluate_schedule,
    point_mass_signal,
    pulsating_potential,
    sample_field,
    surface_background,
)
from geopotent.core import _cbrt
from geopotent.errors import (
    NonPhysicalValueError,
    OutOfDomainError,
    ScheduleError,
)

from conftest import GAMMA


def make_schedule(segments, observer=5000.0, contrast=-2700.0, mass=1e12):
    return CavitySchedule(segments=tuple(segments), source_mass=mass,
                          observer_radius=observer,
                          host_density_contrast=contrast)


GROWTH = make_schedule(
    [ScheduleSegment(0.0, 86400.0, "linear", (500.0, 1000.0))])
CONSTANT = make_schedule(
    [ScheduleSegment(0.0, 86400.0, "constant", (500.0,))])


class TestPulsatingPotential:
    def test_unit_case_exact(self):
        mass = 1.0 / GAMMA  # gamma * mass = 1
        assert pulsating_potential(mass, 1.0, 10.0) == 1.4

    def test_observer_inside_or_on_surface_rejected(self):
        with pytest.raises(OutOfDomainError):
            pulsating_potential(1e12, 10.0, 10.0)
        with pytest.raises(OutOfDomainError):
            pulsating_potential(1e12, 10.0, 5.0)

    def test_halving_radius_doubles_source_term(self):
        mass, observer = 3.7e13, 2.0e4
        gm = GAMMA * mass
        u_full = pulsating_potential(mass, 1000.0, observer)
        u_half = pulsating_potential(mass, 500.0, observer)
        assert u_half + gm / observer == 2.0 * (u_full + gm / observer)

    def test_matches_uniform_sphere_surface_in_the_limit(self):
        # at R(t) = R and the observer approaching the boundary, the value
        # approaches gm / (2 R), the uniform sphere's surface potential
        mass, radius = 5.9737e24, 6.371e6
        gm = GAMMA * mass
        value = pulsating_potential(mass, radius, radius * (1.0 + 1e-9))
        assert value == pytest.approx(gm / (2.0 * radius), rel=1e-8)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPhysicalValueError):
            pulsating_potential(0.0, 1.0, 10.0)
        with pytest.raises(NonPhysicalValueError):
            pulsating_potential(1e12, -1.0, 10.0)


class TestSurfaceBackground:
    def test_baseline_velocity_is_first_cosmic(self):
        earth = EarthParameters()
        bg = surface_background(earth)
        v_s0 = math.sqrt(2.0 * (bg.u_infinity - bg.u0))
        assert v_s0 == pytest.approx(earth.surface_first_cosmic_velocity,
                                     rel=1e-12)

    def test_default_body(self):
        bg = surface_background()
        assert bg.u0 == pytest.approx(3.129e7, rel=1e-3)
        assert bg.g0 == pytest.approx(9.823, rel=1e-3)


class TestEvaluateSchedule:
    def test_constant_schedule_all_zero_deltas(self):
        times = np.linspace(0.0, 86400.0, 9)
        for s in evaluate_schedule(CONSTANT, times):
            assert s.delta_u == 0.0
            assert s.delta_g == 0.0
            assert s.delta_v_s == 0.0
            assert s.source_radius == 500.0

    def test_growth_cubic_mass_deficit(self):
        # oracle: delta_u(t) = gamma * (4/3) pi drho (R(t)^3 - R0^3) / d
        times = list(np.linspace(0.0, 86400.0, 13))
        samples = evaluate_schedule(GROWTH, times)
        for t, s in zip(times, samples):
            radius = 500.0 + 500.0 * t / 86400.0
            expected = GAMMA * (4.0 / 3.0) * math.pi * (-2700.0) \
                * (radius**3 - 500.0**3) / 5000.0
            assert s.delta_u == pytest.approx(expected, rel=1e-9,
                                              abs=1e-30)

    def test_growth_monotone_sign_pattern(self):
        times = list(np.linspace(0.0, 86400.0, 25))
        samples = evaluate_schedule(GROWTH, times)
        du = [s.delta_u for s in samples]
        dg = [s.delta_g for s in samples]
        dvs = [s.delta_v_s for s in samples]
        for a, b in zip(du, du[1:]):
            assert b < a  # potential anomaly deepens
        for a, b in zip(dg, dg[1:]):
            assert b < a  # field strength drops
        for a, b in zip(dvs, dvs[1:]):
            assert b > a  # equipotential velocity grows
        assert all(s.delta_u <= 0.0 for s in samples)
        assert all(s.delta_v_s >= 0.0 for s in samples)

    def test_anomalous_mass_grows_eightfold(self):
        # R doubles over the run, so the raw cavity deficit scales by 8
        radii, (start, end) = GROWTH.radii_and_cubes([0.0, 86400.0])
        assert radii == [500.0, 1000.0]
        assert end == 8.0 * start

    def test_coalescence_exact_doubling(self):
        merged = make_schedule(
            [ScheduleSegment(0.0, 10.0, "constant", (500.0,)),
             ScheduleSegment(10.0, 20.0, "coalesce_step", (500.0, 500.0))])
        _, (before, after) = merged.radii_and_cubes([5.0, 15.0])
        assert after == 2.0 * before
        samples = evaluate_schedule(merged, [0.0, 9.99, 10.0, 20.0])
        assert samples[1].delta_u == 0.0
        assert samples[2].delta_u < 0.0  # discontinuous jump at the merge
        assert samples[2].source_radius == pytest.approx(
            500.0 * 2.0 ** (1.0 / 3.0), rel=1e-15)

    def test_equal_volume_trajectories_equal_deltas(self):
        split = make_schedule(
            [ScheduleSegment(0.0, 43200.0, "linear", (500.0, 750.0)),
             ScheduleSegment(43200.0, 86400.0, "linear", (750.0, 1000.0))])
        times = list(np.linspace(0.0, 86400.0, 17))
        one = evaluate_schedule(GROWTH, times)
        two = evaluate_schedule(split, times)
        for a, b in zip(one, two):
            assert b.delta_g == pytest.approx(a.delta_g, rel=1e-9,
                                              abs=1e-30)

    def test_deterministic(self):
        times = list(np.linspace(0.0, 86400.0, 11))
        assert evaluate_schedule(GROWTH, times) \
            == evaluate_schedule(GROWTH, times)

    def test_baseline_is_first_sample(self):
        samples = evaluate_schedule(GROWTH, [43200.0, 86400.0])
        assert samples[0].delta_u == 0.0
        assert samples[1].delta_u < 0.0

    def test_literal_potential_column(self):
        samples = evaluate_schedule(GROWTH, [0.0, 86400.0])
        for s in samples:
            expected = pulsating_potential(GROWTH.source_mass,
                                           s.source_radius,
                                           GROWTH.observer_radius)
            assert s.potential == pytest.approx(expected, rel=1e-12)

    def test_time_outside_span_rejected(self):
        with pytest.raises(ScheduleError):
            evaluate_schedule(GROWTH, [0.0, 1e6])

    def test_span_checked_before_any_signal(self):
        # a dense growing body pushes the in-span signal out of its
        # domain; the out-of-span time must still be the error reported
        dense = make_schedule(GROWTH.segments, contrast=1e13)
        with pytest.raises(OutOfDomainError):
            evaluate_schedule(dense, [0.0, 86400.0])
        with pytest.raises(ScheduleError):
            evaluate_schedule(dense, [0.0, 86400.0, 1e9])

    def test_empty_times(self):
        assert evaluate_schedule(GROWTH, []) == []

    def test_explicit_background(self):
        bg = BackgroundState(u0=6.258e7, g0=9.823, u_infinity=11.1652e7)
        samples = evaluate_schedule(GROWTH, [0.0, 86400.0], background=bg)
        assert samples[1].delta_v_s > 0.0


def random_schedule(rng, n_segments):
    """Contiguous schedule mixing all three segment kinds."""
    ends = np.cumsum(rng.uniform(1.0, 500.0, n_segments))
    starts = np.concatenate([[0.0], ends[:-1]])
    kinds = rng.choice(["constant", "linear", "coalesce_step"], n_segments)
    segments = []
    for t0, t1, kind in zip(starts.tolist(), ends.tolist(), kinds):
        n_params = 1 if kind == "constant" else 2
        params = tuple(rng.uniform(100.0, 2000.0, n_params))
        segments.append(ScheduleSegment(t0, t1, str(kind), params))
    return make_schedule(segments)


def scan_radius_and_cube(schedule, t):
    """Reference (R(t), R(t)^3): scan the segments in order (end times
    belong to the next segment), then apply the segment kind's formula."""
    segments = schedule.segments
    t_start, t_end = segments[0].t_start, segments[-1].t_end
    if not (t_start <= t <= t_end):
        raise ScheduleError(
            f"time {t} outside schedule span [{t_start}, {t_end}]")
    seg = next((seg for seg in segments[:-1] if t < seg.t_end), segments[-1])
    if seg.kind == "constant":
        radius = seg.params[0]
    elif seg.kind == "linear":
        r_a, r_b = seg.params
        frac = (t - seg.t_start) / (seg.t_end - seg.t_start)
        radius = r_a + (r_b - r_a) * frac
    else:
        r_1, r_2 = seg.params
        volume = r_1 * r_1 * r_1 + r_2 * r_2 * r_2
        return _cbrt(volume), volume
    return radius, radius * radius * radius


def scan_evaluate_schedule(schedule, times, background=None, gamma=GAMMA):
    """Reference series: one scan lookup and one call of each scalar
    function per sample, in the order a per-sample loop makes them."""
    if background is None:
        background = surface_background()
    _, base_cubed = scan_radius_and_cube(schedule, times[0])
    base_deficit = ((4.0 / 3.0) * math.pi * base_cubed
                    * schedule.host_density_contrast)
    out = []
    for t in times:
        radius, cubed = scan_radius_and_cube(schedule, t)
        potential = pulsating_potential(schedule.source_mass, radius,
                                        schedule.observer_radius, gamma)
        deficit = ((4.0 / 3.0) * math.pi * cubed
                   * schedule.host_density_contrast)
        sig = point_mass_signal(deficit - base_deficit,
                                schedule.observer_radius, background, gamma)
        out.append(PulseSample(t, radius, potential, sig.delta_u, sig.delta_g,
                               sig.delta_v_s))
    return out


def outcome(fn, *args, **kwargs):
    """Every value of a series as float.hex, or the exception's type and
    message."""
    try:
        rows = fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return [tuple(map(float.hex, row)) for row in rows]


def adversarial_case(rng):
    """Schedule, times, background and gamma drawn to reach each check of
    the scalar functions, late in the series too, and the overflows.

    Radii near 1e-110 cube to 0, and a coalesced radius with them;
    contrasts of +-1e300 overflow the deficit to inf and the deltas to
    nan; u0 > u_infinity fails every signal; gamma = 1e300 pushes the
    perturbed potential out of its domain.
    """
    segments, t = [], 0.0
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["constant", "linear", "coalesce_step"])
        scale = rng.choice([1e-110, 1e-108, 1.0, 1e3])
        params = tuple(scale * rng.uniform(0.5, 2.0)
                       for _ in range(1 if kind == "constant" else 2))
        segments.append(ScheduleSegment(t, t + rng.uniform(1.0, 100.0),
                                        kind, params))
        t = segments[-1].t_end
    biggest = max(max(*seg.radii_and_cubes([seg.t_start, seg.t_end])[0],
                      *seg.params) for seg in segments)
    schedule = make_schedule(
        segments, observer=biggest * rng.choice([1.0000001, 2.0, 1e3]),
        contrast=rng.choice([-2700.0, 2700.0, 1e13, -1e300, 1e300]),
        mass=rng.choice([1e12, 1e-300, 1e300]))
    times = sorted(rng.uniform(0.0, t) for _ in range(rng.randint(1, 12)))
    background = rng.choice([None, BackgroundState(3.1e7, 9.8, 6.2e7),
                             BackgroundState(6.2e7, 9.8, 3.1e7)])
    gamma = rng.choice([GAMMA, 1e300, 1e-300])
    return schedule, times, background, gamma


def hexes(values):
    return [float.hex(v) for v in values]


class TestSegmentLookupParity:
    rng = np.random.default_rng(2024)
    schedule = random_schedule(rng, 1200)
    boundaries = [seg.t_start for seg in schedule.segments] + [schedule.t_end]
    times = (boundaries
             + [math.nextafter(b, -math.inf) for b in boundaries[1:]]
             + rng.uniform(schedule.t_start, schedule.t_end, 2000).tolist())
    shuffled = random.Random(7).sample(times, len(times))

    @pytest.mark.parametrize("order", ["built", "shuffled"])
    def test_radii_and_cubes_match_scan(self, order):
        kinds = {seg.kind for seg in self.schedule.segments}
        assert kinds == {"constant", "linear", "coalesce_step"}
        times = self.times if order == "built" else self.shuffled
        want = zip(*(scan_radius_and_cube(self.schedule, t) for t in times))
        assert [hexes(col) for col in self.schedule.radii_and_cubes(times)] \
            == [hexes(col) for col in want]

    def test_boundary_belongs_to_next_segment(self):
        segments = self.schedule.segments
        starts = [seg.t_start for seg in segments[1:]]
        want = [seg.radii_and_cubes([seg.t_start]) for seg in segments[1:]]
        radii, cubes = self.schedule.radii_and_cubes(starts)
        assert hexes(radii) == hexes(radius for [radius], _ in want)
        assert hexes(cubes) == hexes(cube for _, [cube] in want)
        end = self.schedule.t_end
        assert self.schedule.radii_and_cubes([end]) \
            == segments[-1].radii_and_cubes([end])

    @pytest.mark.parametrize("offset", ["before", "after", "nan", "inf"])
    def test_outside_span_raises(self, offset):
        t = {"before": math.nextafter(self.schedule.t_start, -math.inf),
             "after": math.nextafter(self.schedule.t_end, math.inf),
             "nan": math.nan, "inf": math.inf}[offset]
        with pytest.raises(ScheduleError) as want:
            scan_radius_and_cube(self.schedule, t)
        # the first time outside the span is named, wherever it stands
        inside = self.times[:3]
        for times in ([t], inside + [t], inside + [t, -math.inf]):
            with pytest.raises(ScheduleError) as err:
                self.schedule.radii_and_cubes(times)
            assert str(err.value) == str(want.value)
            assert err.value.index is None

    @pytest.mark.parametrize("order", ["built", "shuffled"])
    def test_evaluate_schedule_matches_scan_reference(self, order):
        times = self.times if order == "built" else self.shuffled
        got = outcome(evaluate_schedule, self.schedule, times)
        assert got == outcome(scan_evaluate_schedule, self.schedule, times)
        assert len(got) == len(times)


class TestColumnarParity:
    def test_adversarial_schedules_match_reference_bitwise(self):
        rng = random.Random(99)
        seen = set()
        for _ in range(600):
            schedule, times, background, gamma = adversarial_case(rng)
            got = outcome(evaluate_schedule, schedule, times,
                          background=background, gamma=gamma)
            want = outcome(scan_evaluate_schedule, schedule, times,
                           background=background, gamma=gamma)
            assert got == want
            if isinstance(want, tuple):
                seen.add(want[1].split(" ")[0])
            elif any("nan" in cell for row in want for cell in row):
                seen.add("nan")
        # no "observer": a sample radius is exact, so the schedule's check
        # at each segment's ends keeps every sample inside the observer
        assert seen == {"nan", "radius_t", "background", "perturbed"}

    def test_failure_late_in_the_series_is_reported_there(self):
        # the merged volume, and so the radius, underflows to 0 only in
        # the second segment
        schedule = make_schedule(
            [ScheduleSegment(0.0, 10.0, "constant", (500.0,)),
             ScheduleSegment(10.0, 20.0, "coalesce_step",
                             (1e-110, 1e-110))])
        with pytest.raises(NonPhysicalValueError,
                           match="radius_t must be positive and finite, got 0.0"):
            evaluate_schedule(schedule, [0.0, 5.0, 15.0])


class TestPulseTable:
    times = [0.0, 21600.0, 43200.0, 64800.0, 86400.0]

    def test_rows_behave_like_a_list(self):
        table = evaluate_schedule(GROWTH, self.times)
        rows = scan_evaluate_schedule(GROWTH, self.times)
        assert isinstance(table, PulseTable)
        assert len(table) == len(rows) == 5
        assert list(table) == rows
        assert table == rows
        for i in (0, 1, 4, -1, -5, np.int64(3)):
            assert type(table[i]) is PulseSample
            assert table[i] == rows[i]
        for i in (5, -6):
            with pytest.raises(IndexError):
                table[i]
        with pytest.raises(TypeError):
            table[1.0]
        assert isinstance(table[1:4], PulseTable)
        assert table[1:4] == rows[1:4]
        assert table[::-2] == rows[::-2]

    def test_columns_are_named_like_the_sample_fields(self):
        table = evaluate_schedule(GROWTH, self.times)
        names = list(PulseSample._fields)
        assert list(PulseTable._fields) == names
        assert table.columns() == tuple(getattr(table, n) for n in names)
        assert all(type(col) is tuple for col in table.columns())
        # FieldTable shares the row view: its columns() are its fields too
        field = sample_field(UniformSphere.from_mass_radius(1e12, 500.0),
                             [0.0, 250.0, 1000.0])
        names = list(FieldSample._fields)
        assert list(FieldTable._fields) == names
        columns = field.columns()
        assert type(columns) is tuple and len(columns) == len(names)
        assert all(col is getattr(field, n) for col, n in zip(columns, names))
        assert all(isinstance(col, np.ndarray) and col.dtype == np.float64
                   and not col.flags.writeable for col in columns)

    def test_empty_table(self):
        table = evaluate_schedule(GROWTH, [])
        assert isinstance(table, PulseTable)
        assert table == [] and len(table) == 0 and not table
        with pytest.raises(IndexError):
            table[0]

    def test_constructor_stores_tuples_of_equal_length(self):
        table = PulseTable(*[[1.0, 2.0]] * 6)
        assert table.delta_g == (1.0, 2.0)
        assert table == PulseTable(*[(1.0, 2.0)] * 6)
        with pytest.raises(NonPhysicalValueError):
            PulseTable(*[[1.0, 2.0]] * 5, [1.0])

    def test_frozen(self):
        table = evaluate_schedule(GROWTH, self.times)
        with pytest.raises(AttributeError):
            table.t = ()

    def test_exported(self):
        assert geopotent.PulseTable is PulseTable
        assert "PulseTable" in geopotent.__all__
