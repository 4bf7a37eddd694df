"""Time-varying source: fixed mass, scheduled radius, fixed external observer.

Two views coexist and are both exposed. The literal view
(:func:`pulsating_potential`) evaluates the constant-mass potential
-gamma*M/r + (3/2)*gamma*M/R(t) exactly as written, so the raw formula
stays testable. The precursor view (:func:`evaluate_schedule`) treats the
scheduled body as a growing cavity: its mass deficit
(4/3)*pi*R(t)^3 * host_density_contrast perturbs a background field at
the observer, differenced against the first sample, which matches how
survey time series are differenced in practice. A growing gas cavity
(negative contrast) drives the potential and field strength down and the
equipotential velocity up.

The schedule gives each R(t) with the cube the deficit is taken from; a
coalesced cavity keeps the exact volume sum R1^3 + R2^3 of the two. It
gives them once per run of sample times over which R(t) is held fixed,
and the series is computed and stored once per run.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import accumulate

from .anomaly import point_mass_signal, speed_changes
from .core import (
    DEFAULT_CONSTANTS,
    BackgroundState,
    CavitySchedule,
    ColumnTable,
    _float_column,
    _repeated,
    _require_finite,
    _require_positive,
    surface_background,
)
from .errors import NonPhysicalValueError, OutOfDomainError
from .kernels import ball_volume, exterior_gravity, u_infinity

_DEFAULT_GAMMA = DEFAULT_CONSTANTS.gamma


class PulseSample(namedtuple("PulseSample", "t source_radius potential "
                             "delta_u delta_g delta_v_s")):
    """One time step of the precursor series.

    `potential` is the literal constant-mass value at the observer; the
    delta fields are the mass-deficit view differenced against the first
    sample of the series.
    """

    __slots__ = ()


def _run_column(k):
    """The property that reads run column `k` of a PulseTable in full."""
    return property(lambda table: _repeated(table._runs[k], table._lengths))


class PulseTable(ColumnTable):
    """The precursor series as columns of plain floats, each value once.

    Columns are named like the fields of PulseSample; the table reads
    like the list of PulseSample it stands for (see
    :class:`geopotent.core.ColumnTable`). ``t`` is stored as a tuple with
    one time per row. The other five columns are stored once per run of
    rows, which ``runs()`` gives as five tuples with the run lengths;
    reading one of them, or ``columns()``, gives its full tuple. The
    constructor takes full columns and makes each row its own run;
    ``from_runs`` takes the run form.
    """

    _row = PulseSample
    _column = tuple

    source_radius, potential, delta_u, delta_g, delta_v_s = map(
        _run_column, range(5))

    def _set(self, t, *columns):
        self._set_runs(t, columns, (1,) * len(t))

    def _set_runs(self, t, runs, lengths):
        for name, value in zip(("t", "_runs", "_lengths"), (t, runs, lengths)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_runs(cls, t, runs, lengths):
        """The table of the times `t`, the five other columns given once
        per run in `runs`, and the run `lengths`, which sum to len(t)."""
        t, lengths = tuple(t), tuple(lengths)
        runs = tuple(map(tuple, runs))
        if (len(runs) != len(cls._fields) - 1
                or set(map(len, runs)) - {len(lengths)}
                or min(lengths, default=1) < 1 or sum(lengths) != len(t)):
            raise NonPhysicalValueError(
                "PulseTable runs must be five columns of one cell per run, "
                "with positive run lengths that sum to the number of times")
        table = cls.__new__(cls)
        table._set_runs(t, runs, lengths)
        return table

    def runs(self):
        """The five columns after ``t``, one cell per run, and the run
        lengths."""
        return self._runs, self._lengths

    def __len__(self):
        return len(self.t)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return super().__getitem__(index)
        i = range(len(self.t))[index]
        run = bisect_right(self._ends, i)
        return self._row(*map(float, (self.t[i],
                                      *(col[run] for col in self._runs))))

    @cached_property
    def _ends(self):
        """Where each run ends: the index after its last row."""
        return tuple(accumulate(self._lengths))

    def __reduce__(self):  # copy and pickle keep the run form
        return type(self).from_runs, (self.t, self._runs, self._lengths)


def pulsating_potential(mass, radius_t, observer_r, gamma=_DEFAULT_GAMMA):
    """Potential -gamma*M/r + (3/2)*gamma*M/R(t) at a fixed external observer.

    Shrinking the source at constant mass raises the value through the
    1/R(t) term while the observer term stays put. The observer must be
    strictly outside the source.
    """
    mass, radius_t, observer_r = map(
        _require_positive, ("mass", "radius_t", "observer_r"),
        (mass, radius_t, observer_r))
    gamma = _require_finite("gamma", gamma)
    if observer_r <= radius_t:
        raise OutOfDomainError(
            f"observer at {observer_r!r} is not outside the source "
            f"(radius {radius_t!r})")
    gm = gamma * mass
    return -gm / observer_r + u_infinity(gm, radius_t)


def evaluate_schedule(schedule: CavitySchedule, sample_times,
                      background: BackgroundState | None = None,
                      gamma=_DEFAULT_GAMMA):
    """Precursor time series at the schedule's observer.

    Parameters
    ----------
    schedule : CavitySchedule
        Holds R(t) in (0, observer_radius), so only the signal is checked.
    sample_times : column of numbers, read once
        Times within the schedule span (``ScheduleError`` otherwise); the
        first entry is the baseline all delta fields are differenced
        against. A time ``float()`` cannot read, or a value that is not
        a column, raises ``NonPhysicalValueError``.
    background : BackgroundState, optional
        Field at the observer; defaults to the compression-free surface
        background of the default body.
    gamma : float, optional

    Returns
    -------
    PulseTable
        One row per time, input order preserved: the schedule's R(t),
        then bit for bit what :func:`pulsating_potential` and
        :func:`point_mass_signal` give for it. A constant schedule
        yields exactly zero deltas everywhere. Every column but ``t`` is
        computed and stored once per run of times over which the
        schedule holds R(t) fixed (see ``CavitySchedule.radii_and_cubes``).
    """
    times = _float_column("time", sample_times)
    if not times:
        return PulseTable([], [], [], [], [], [])
    background = (surface_background() if background is None
                  else BackgroundState(*background))
    gamma = _require_finite("gamma", gamma)
    # a time outside the span is rejected before any sample is built
    radii, cubes, lengths = schedule.radii_and_cubes(times)
    deficits = [ball_volume(cubed) * schedule.host_density_contrast
                for cubed in cubes]
    delta_masses = [deficit - deficits[0] for deficit in deficits]
    gm, observer = gamma * schedule.source_mass, schedule.observer_radius
    delta_u = [gamma * dm / observer for dm in delta_masses]
    base = background.u_infinity - background.u0
    # point_mass_signal is the one home of the signal's checks. Run 0 runs
    # those no sample changes; the first run whose perturbed potential
    # fails then raises there, as a loop over the samples would.
    bad = next((i for i, du in enumerate(delta_u) if base - du < 0.0), 0)
    for i in (0, bad):
        point_mass_signal(delta_masses[i], observer, background, gamma)
    outside = -gm / observer
    speed = math.sqrt(2.0 * base)
    return PulseTable.from_runs(times, (
        radii,
        [outside + u_infinity(gm, radius) for radius in radii],
        delta_u,
        [exterior_gravity(gamma * dm, observer) for dm in delta_masses],
        speed_changes(delta_u, base, speed),
    ), lengths)
