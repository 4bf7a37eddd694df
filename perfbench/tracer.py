"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces every binding of each traced public name in
the loaded ``geopotent`` modules (the module attribute, the ``from ...
import`` copies in other modules and the package) and the
``CavitySchedule`` methods on the class, so nested calls land under the
right parent span. ``uninstall`` puts every original back.

A span is (name, start, end, parent span, invocation id). Spans stay in
memory until the invocation ends; ``reduce`` then turns them into per
name call counts, inclusive and self time. Self time is a span's
duration minus the time its child spans cover.

Run as a script, this is the traced workload runner: it calls
``geopotent.cli.main(argv)`` in-process (or ``field_batch.run``)
once per invocation, first without and then with the spans, and writes
the results as JSON:

    PYTHONPATH=src python perfbench/tracer.py SPEC.json OUT.json
"""

import collections
import contextlib
import functools
import io
import json
import sys
import time
import traceback
import tracemalloc

perf_counter = time.perf_counter


def _first_arg(args, kwargs):
    if args:
        return args[0]
    return next(iter(kwargs.values()), None)


def _nbytes(obj):
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return getattr(obj, "nbytes", 0) if hasattr(obj, "dtype") else 0


def _count_bytes(tracer, args, kwargs, result):
    # bytes the kernel reads and writes, from array sizes (computed, not
    # measured on the memory bus)
    tracer.counts["kernels.computed_bytes"] += (
        _nbytes(list(args)) + _nbytes(list(kwargs.values())) + _nbytes(result))


def _count_grid(counter):
    def count(tracer, args, kwargs, result):
        tracer.counts[counter] += len(_first_arg(args, kwargs))
        _count_bytes(tracer, args, kwargs, result)
    return count


def _count_len(counter):
    def count(tracer, args, kwargs, result):
        tracer.counts[counter] += len(result)
    return count


def _count_knots(tracer, args, kwargs, result):
    profile = _first_arg(args, kwargs)
    if id(profile) not in tracer.seen_profiles:
        tracer.seen_profiles[id(profile)] = profile
        tracer.counts["profiles.knots"] += len(profile)


def _count_scanned(tracer, args, kwargs, result):
    # segment_at scans segments in order until the one covering t; the
    # last segment is reached after comparing all the others
    segments = args[0].segments
    cached = tracer.segment_index.get(id(segments))
    if cached is None or cached[0] is not segments:
        cached = (segments, {id(s): i for i, s in enumerate(segments)})
        tracer.segment_index[id(segments)] = cached
    index = cached[1][id(result)]
    tracer.counts["core.segments_scanned"] += min(index + 1,
                                                  len(segments) - 1)


def _count_output(tracer, args, kwargs, result):
    tracer.counts["cli.output_bytes"] += len(result.encode("utf-8"))


# (module, public name, span name, counter). Names missing from the
# program are skipped, so the harness outlives functions it times.
TARGETS = (
    ("config", "resolve_config", "config.resolve_config", None),
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "read_profile_csv", "cli.read_profile_csv", None),
    ("cli", "read_schedule_json", "cli.read_schedule_json", None),
    ("cli", "emit", "cli.emit", None),
    ("cli", "render_csv", "cli.render_csv", _count_output),
    ("cli", "render_json", "cli.render_json", _count_output),
    ("core", "validate_profile", "core.validate_profile", None),
    ("core", "CavitySchedule.__init__", "core.schedule_build", None),
    ("core", "CavitySchedule.segment_at", "core.segment_at", _count_scanned),
    ("profiles", "enclosed_mass", "profiles.enclosed_mass", _count_knots),
    ("profiles", "mean_density", "profiles.mean_density", _count_knots),
    ("profiles", "surface_potential_integral",
     "profiles.surface_potential_integral", _count_knots),
    ("profiles", "core_equilibrium_gravity",
     "profiles.core_equilibrium_gravity", _count_knots),
    ("profiles", "pressure_gradient_max", "profiles.pressure_gradient_max",
     _count_knots),
    ("kernels", "refined_grid", "kernels.refined_grid", None),
    ("kernels", "cumulative_mass", "kernels.cumulative_mass",
     _count_grid("kernels.grid_points")),
    ("kernels", "integral_m_over_r2", "kernels.integral_m_over_r2",
     _count_bytes),
    ("kernels", "max_abs_gradient", "kernels.max_abs_gradient",
     _count_grid("kernels.grad_grid_points")),
    ("kernels", "field_arrays", "kernels.field_arrays", _count_bytes),
    ("solver", "homogeneity_bound", "solver.homogeneity_bound", None),
    ("solver", "direct_problem", "solver.direct_problem", None),
    ("solver", "inverse_problem", "solver.inverse_problem", None),
    ("anomaly", "point_mass_signal", "anomaly.point_mass_signal", None),
    ("anomaly", "sphere_anomaly", "anomaly.sphere_anomaly", None),
    ("anomaly", "sensitivity_coefficients", "anomaly.sensitivity_coefficients",
     None),
    ("pulse", "evaluate_schedule", "pulse.evaluate_schedule",
     _count_len("pulse.samples")),
    ("pulse", "surface_background", "pulse.surface_background", None),
    ("field", "sample_field", "field.sample_field",
     _count_len("field.samples")),
)

# Calls whose tracemalloc peak is reported; they never nest in each other.
PEAK_SPANS = ("profiles.pressure_gradient_max", "field.sample_field")


class Tracer:
    """Span recorder for the TARGETS; with `peak_spans`, a tracemalloc
    peak recorder for those spans only."""

    def __init__(self, peak_spans=()):
        self.peak_spans = set(peak_spans)
        self.spans = []
        self.stack = []
        self.invocation = 0
        self.counts = collections.Counter()
        self.peaks = collections.Counter()
        self.seen_profiles = {}
        self.segment_index = {}
        self.patches = []
        self.missing = []

    def begin(self, invocation):
        self.invocation = invocation
        self.spans = []
        self.counts = collections.Counter()
        self.seen_profiles = {}
        self.segment_index = {}

    def _wrap(self, name, fn, count):
        tracer = self
        if name in self.peak_spans:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] - base
                tracer.peaks[name] = max(tracer.peaks[name], peak)
                return result
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.invocation)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        self.missing = []
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "geopotent" or name.startswith("geopotent.")}
        for module, public, span, count in TARGETS:
            if self.peak_spans and span not in self.peak_spans:
                continue
            mod = modules.get(f"geopotent.{module}")
            owner_name, _, attr = public.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or (owner_name and attr not in vars(owner)):
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original, count)
            if owner_name:
                # a method: the class attribute is the only binding
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_obj in modules.values():
                for key, value in list(vars(mod_obj).items()):
                    if value is original:
                        self._patch(mod_obj, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def reduce(self):
        """Per span name: [calls, inclusive s, self s]; plus parent edges."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {}
        edges = collections.Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[i]
            edges[(self.spans[parent][0] if parent >= 0 else "-", name)] += 1
        return totals, edges


def snapshot_bindings():
    """Every callable bound in the loaded geopotent modules and classes."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name != "geopotent" and not name.startswith("geopotent."):
            continue
        for key, value in vars(mod).items():
            if callable(value):
                found[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        found[(name, key, attr)] = member
    return found


def bindings_restored(before):
    """True when every binding is again the object it was before."""
    after = snapshot_bindings()
    return after.keys() == before.keys() and all(
        after[key] is value for key, value in before.items())


# -- traced workload runner --------------------------------------------------

def run_one(inv):
    """Run one invocation in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if inv["mode"] == "field":
                import field_batch
                path, mass, radius = inv["argv"]
                print(json.dumps(field_batch.run(path, float(mass),
                                                 float(radius))))
                code = 0
            else:
                import geopotent.cli
                code = geopotent.cli.main(list(inv["argv"]))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the contract forbids it; report it as a failure
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _run_cycle(cycle, tracer=None, reference=None):
    """One pass over the cycle: (wall s, span totals, mismatches)."""
    wall, mismatches = 0.0, 0
    totals = collections.defaultdict(lambda: [0, 0.0, 0.0])
    counts = collections.Counter()
    edges = collections.Counter()
    for k, inv in enumerate(cycle):
        if tracer is not None:
            tracer.begin(k)
        start = perf_counter()
        code, out, _ = run_one(inv)
        wall += perf_counter() - start
        if reference is not None and (code, out) != tuple(reference[k][:2]):
            mismatches += 1
        if tracer is not None:
            inv_totals, inv_edges = tracer.reduce()
            for name, values in inv_totals.items():
                totals[name] = [a + b for a, b in zip(totals[name], values)]
            counts.update(tracer.counts)
            edges.update(inv_edges)
    reduction = {"spans": dict(totals), "counts": dict(counts),
                 "edges": [[p, c, n] for (p, c), n in sorted(edges.items())]}
    return wall, reduction, mismatches


def main(spec_path, out_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cycle, seconds = spec["cycle"], spec["seconds"]
    import geopotent.cli  # noqa: F401  (loads every module before wrapping)
    originals = snapshot_bindings()
    reference = [run_one(inv) for inv in cycle]
    # untraced and traced cycles alternate, so both see the same machine
    # load and their difference is the tracing overhead; about a fifth of
    # the time is left for the reference and peak passes
    untraced, traced, reductions, mismatches = [], [], [], 0
    tracer = Tracer()
    deadline = perf_counter() + 0.8 * seconds
    while not traced or perf_counter() < deadline:
        untraced.append(_run_cycle(cycle)[0])
        tracer.install()
        try:
            wall, reduction, bad = _run_cycle(cycle, tracer, reference)
        finally:
            tracer.uninstall()
        traced.append(wall)
        reductions.append(reduction)
        mismatches += bad
    restored = bindings_restored(originals)
    peak_tracer = Tracer(PEAK_SPANS)
    peak_tracer.install()
    tracemalloc.start()
    try:
        for inv in cycle:
            run_one(inv)
    finally:
        tracemalloc.stop()
        peak_tracer.uninstall()
    result = {
        "reference": reference,
        "untraced_cycle_s": untraced,
        "traced_cycle_s": traced,
        "cycles": reductions,
        "mismatches": mismatches,
        "wrappers_removed": restored,
        "missing_spans": tracer.missing,
        "peak_bytes": dict(peak_tracer.peaks),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
