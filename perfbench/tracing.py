"""Spans and counters recorded from outside the package.

A `Tracer` replaces functions at the names their callers resolve (module
globals, class attributes) with timing wrappers, and puts the originals back
on `uninstall`.  Every wrapped call joins one call stack, so each call's self
time is its duration minus the time of the wrapped calls it made.  Calls
wrapped with `record=True` also leave a span (id, parent id, name, layer,
start, end, self time) in memory; hot inner functions are tallied without a
span so that the trace stays small.

`Recorder` is the always-on counterpart used to time whole operations (one
fig8 panel, one probability): it keeps (arguments, result, seconds) per call.
"""

import time
import types
import weakref
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("system", "combinatorics", "finite_kernel", "fredholm",
          "limit_kernels.kernels", "limit_kernels.special",
          "limit_kernels.scaling", "harness")


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.busy_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.top_s = 0.0
        self.counts = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- recording -------------------------------------------------------

    def _enter(self):
        self._next_id += 1
        frame = _Frame(self._next_id)
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame, start, name, layer, record):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - start
        own = dur - frame.child_s
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += dur
            parent_id = parent.span_id
        else:
            self.top_s += dur
            parent_id = None
        self.calls[name] += 1
        self.busy_s[name] += dur
        self.self_s[name] += own
        self.layer_self_s[layer] += own
        if record:
            self.spans.append((frame.span_id, parent_id, name, layer,
                               start, end, own))

    @contextmanager
    def span(self, name, layer):
        """A span around benchmark code that stands in for a layer call."""
        frame, start = self._enter()
        try:
            yield
        finally:
            self._exit(frame, start, name, layer, True)

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr, name, layer, record=True, count=None):
        """Replace owner.attr by a timing wrapper named `name`.

        `count(counts, args, kwargs, result)` adds work counters after
        each call.
        """
        orig = getattr(owner, attr)
        enter, leave, counts = self._enter, self._exit, self.counts

        def wrapper(*args, **kwargs):
            frame, start = enter()
            try:
                result = orig(*args, **kwargs)
            finally:
                leave(frame, start, name, layer, record)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def wrap_generator(self, owner, attr, name, layer, counter):
        """Time each step of a generator function and count its items."""
        orig = getattr(owner, attr)
        enter, leave, counts = self._enter, self._exit, self.counts

        def wrapper(*args, **kwargs):
            items = orig(*args, **kwargs)
            while True:
                frame, start = enter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    leave(frame, start, name, layer, False)
                counts[counter] += 1
                yield item

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def replace(self, owner, attr, value):
        """Point owner.attr at `value` until uninstall."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def span_records(self):
        keys = ("id", "parent", "name", "layer", "start", "end", "self_s")
        return [dict(zip(keys, s)) for s in self.spans]


class NullTracer:
    """Stand-in used on untraced passes; its spans cost nothing."""

    @contextmanager
    def span(self, name, layer):
        yield


class Recorder:
    """Time every call of one function for the whole run."""

    def __init__(self, owner, attr):
        self.owner, self.attr = owner, attr
        self.orig = getattr(owner, attr)
        self.log = []

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = self.orig(*args, **kwargs)
            self.log.append((args, result, time.perf_counter() - start))
            return result

        setattr(owner, attr, wrapper)

    def take(self):
        log, self.log = self.log, []
        return log

    def close(self):
        setattr(self.owner, self.attr, self.orig)


# ---------------------------------------------------------------------------
# What is wrapped, and the per-layer metrics read from it
# ---------------------------------------------------------------------------

def _count_cells(counts, args, kwargs, result):
    spec, times, n_samples = args[:3]
    counts["system.samples"] += n_samples
    counts["system.cells"] += n_samples * max(times, default=0) * spec.m


def _count_entries(name):
    def count(counts, args, kwargs, result):
        counts[name + ".entries"] += result.size
    return count


def _count_points(counts, args, kwargs, result):
    counts["special.airy_ai.points"] += result.size


def _count_ks(counts, args, kwargs, result):
    counts["fredholm.ks_distance.samples"] += len(args[0])


def _count_bytes(counts, args, kwargs, result):
    counts["harness.write.bytes"] += result.stat().st_size


def _count_window(counts, args, kwargs, result):
    times, levels, rates = args[:3]
    m = len(rates)
    merged = {}
    for t, level in zip(times, levels):
        merged[t] = max(merged.get(t, 0), level)
    counts["finite_kernel.window_points"] += sum(
        level for t, level in merged.items() if 0 < level <= t - m + 2)


def _count_psi(which):
    seen = weakref.WeakKeyDictionary()

    def count(counts, args, kwargs, result):
        kern, key = args[0], (which,) + args[1:]
        keys = seen.setdefault(kern, set())
        if key in keys:
            counts["finite_kernel.psi.hits"] += 1
        else:
            keys.add(key)
    return count


COMBINATORICS_CALLS = (
    "trajectory_from_matrix", "longest_left_down_path",
    "first_column_identity", "dual_rsk", "transpose_tableau", "normal_rsk",
    "column_word", "enumerate_exact_distribution", "prob_path_at_least")


def instrument(tracer):
    """Wrap the package's layer boundaries at the names callers use."""
    from steptasep import combinatorics, finite_kernel, fredholm, harness
    from steptasep.limit_kernels import kernels, scaling

    wrap = tracer.wrap
    for attr in ("run_fig8", "run_simulate", "run_verify", "run_exact_dist"):
        wrap(harness, attr, "harness." + attr, "harness")
    for attr in ("write_sample_csv", "write_distribution_csv",
                 "write_report_json"):
        wrap(harness, attr, "harness.write", "harness", count=_count_bytes)

    wrap(harness, "sample_ensemble", "system.sample_ensemble", "system",
         count=_count_cells)

    # harness reaches combinatorics as `comb.<name>`; a stand-in module
    # wraps those calls without touching calls inside combinatorics
    comb = types.SimpleNamespace(**vars(combinatorics))
    tracer.replace(harness, "comb", comb)
    for attr in COMBINATORICS_CALLS:
        wrap(comb, attr, "combinatorics." + attr, "combinatorics",
             record=False)
    tracer.wrap_generator(comb, "all_matrices", "combinatorics.all_matrices",
                          "combinatorics", "combinatorics.matrices")

    for owner in (harness, finite_kernel):
        wrap(owner, "joint_probability", "finite_kernel.joint_probability",
             "finite_kernel", count=_count_window)
    cls = finite_kernel.FiniteKernel
    wrap(cls, "entry", "finite_kernel.entry", "finite_kernel", record=False)
    for attr in ("psi1", "psi2"):
        wrap(cls, attr, "finite_kernel.psi", "finite_kernel", record=False,
             count=_count_psi(attr))

    wrap(harness, "reference_law", "fredholm.reference_law", "fredholm")
    wrap(harness, "ks_distance", "fredholm.ks_distance", "fredholm",
         count=_count_ks)
    for attr in ("det_continuous", "tw_gue_cdf", "goe2_cdf"):
        wrap(fredholm, attr, "fredholm." + attr, "fredholm")

    for owner in (fredholm, harness, kernels):
        wrap(owner, "extended_airy_block", "kernels.extended_airy_block",
             "limit_kernels.kernels",
             count=_count_entries("kernels.extended_airy_block"))
    for owner in (fredholm, harness):
        wrap(owner, "kernel_K3_block", "kernels.kernel_K3_block",
             "limit_kernels.kernels",
             count=_count_entries("kernels.kernel_K3_block"))
    for attr in ("kernel_K3prime_block", "kernel_KG_block", "kernel_Kn_block",
                 "airy_kernel_cd"):
        wrap(harness, attr, "kernels." + attr, "limit_kernels.kernels",
             record=False)

    wrap(kernels, "airy_ai", "special.airy_ai", "limit_kernels.special",
         count=_count_points)
    for attr in ("airy_pair", "airy_derivative", "psi1", "psi2_sequence"):
        wrap(kernels, attr, "special." + attr, "limit_kernels.special",
             record=False)

    wrap(scaling.ScaledExperiment, "s_of", "scaling.s_of",
         "limit_kernels.scaling")


# name -> unit; every name is reported on every workload, 0 where unused
PER_LAYER_UNITS = {
    "system.sample_ensemble.calls": "count",
    "system.sample_ensemble.busy_s": "s",
    "system.sample_ensemble.samples": "count",
    "system.sample_ensemble.ns_per_cell": "ns",
    "fredholm.reference_law.busy_s": "s",
    "fredholm.det_continuous.calls": "count",
    "fredholm.det_continuous.busy_s": "s",
    "fredholm.det_continuous.self_s": "s",
    "kernels.extended_airy_block.busy_s": "s",
    "kernels.extended_airy_block.entries": "count",
    "kernels.kernel_K3_block.busy_s": "s",
    "kernels.kernel_K3_block.entries": "count",
    "special.airy_ai.busy_s": "s",
    "special.airy_ai.points": "count",
    "fredholm.ks_distance.busy_s": "s",
    "fredholm.ks_distance.samples": "count",
    "scaling.s_of.calls": "count",
    "scaling.s_of.busy_s": "s",
    "harness.write.busy_s": "s",
    "harness.write.bytes": "B",
    "finite_kernel.joint_probability.calls": "count",
    "finite_kernel.joint_probability.busy_s": "s",
    "finite_kernel.joint_probability.window_points": "count",
    "finite_kernel.entry.calls": "count",
    "finite_kernel.entry.busy_s": "s",
    "finite_kernel.psi.calls": "count",
    "finite_kernel.psi.hit_ratio": "ratio",
    "finite_kernel.negative_probs": "count",
    "combinatorics.busy_s": "s",
    "combinatorics.matrices": "count",
    **{f"harness.ks_floor.{panel}": "prob" for panel in (
        "fig8a_uniform", "fig8a_defect", "fig8b_uniform", "fig8b_defect",
        "fig8c_defect")},
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS + ("other",)},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced pass that took `wall_s`."""
    calls, busy, own, counts = (tracer.calls, tracer.busy_s, tracer.self_s,
                                tracer.counts)
    cells = counts["system.cells"]
    psi_calls = calls["finite_kernel.psi"]
    out = {
        "system.sample_ensemble.calls": calls["system.sample_ensemble"],
        "system.sample_ensemble.busy_s": busy["system.sample_ensemble"],
        "system.sample_ensemble.samples": counts["system.samples"],
        "system.sample_ensemble.ns_per_cell":
            busy["system.sample_ensemble"] * 1e9 / cells if cells else 0.0,
        "fredholm.reference_law.busy_s": busy["fredholm.reference_law"],
        "fredholm.det_continuous.calls": calls["fredholm.det_continuous"],
        "fredholm.det_continuous.busy_s": busy["fredholm.det_continuous"],
        "fredholm.det_continuous.self_s": own["fredholm.det_continuous"],
        "fredholm.ks_distance.busy_s": busy["fredholm.ks_distance"],
        "fredholm.ks_distance.samples": counts["fredholm.ks_distance.samples"],
        "scaling.s_of.calls": calls["scaling.s_of"],
        "scaling.s_of.busy_s": busy["scaling.s_of"],
        "harness.write.busy_s": busy["harness.write"],
        "harness.write.bytes": counts["harness.write.bytes"],
        "finite_kernel.joint_probability.calls":
            calls["finite_kernel.joint_probability"],
        "finite_kernel.joint_probability.busy_s":
            busy["finite_kernel.joint_probability"],
        "finite_kernel.joint_probability.window_points":
            counts["finite_kernel.window_points"],
        "finite_kernel.entry.calls": calls["finite_kernel.entry"],
        "finite_kernel.entry.busy_s": busy["finite_kernel.entry"],
        "finite_kernel.psi.calls": psi_calls,
        "finite_kernel.psi.hit_ratio":
            counts["finite_kernel.psi.hits"] / psi_calls if psi_calls else 0.0,
        "combinatorics.busy_s": tracer.layer_self_s["combinatorics"],
        "combinatorics.matrices": counts["combinatorics.matrices"],
        "special.airy_ai.busy_s": busy["special.airy_ai"],
        "special.airy_ai.points": counts["special.airy_ai.points"],
        "trace.wall_s": wall_s,
    }
    for name in ("kernels.extended_airy_block", "kernels.kernel_K3_block"):
        out[name + ".busy_s"] = busy[name]
        out[name + ".entries"] = counts[name + ".entries"]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = tracer.layer_self_s[layer]
    out["layer.other.self_s"] = wall_s - tracer.top_s
    return out
