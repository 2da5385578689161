"""The three benchmark workloads.

Each workload builds its inputs from the run seed once.  `run_pass(tracer)`
runs one pass and returns its operations as `Op(name, seconds, ok)`; an
operation fails when it raises or misses its output check.  Counters that
the tracer cannot see from outside (KS floors, negative probabilities) go to
`extra`.  `close()` puts back every name the workload replaced.

Passes are sized so that a 40 s run holds two to five of them; the
full-size runs (fig8 at 2000 samples with cold tables, all four verify
suites, whole exact columns) take minutes on a 2-core x86 machine.
"""

import csv
import json
import math
import random
import time
from collections import Counter
from itertools import product
from typing import NamedTuple

import numpy as np

from tracing import Recorder

TABLE_LAWS = ("tw-gue", "goe-squared")
TABLE_CDFS = {"tw-gue": "tw_gue_cdf", "goe-squared": "goe2_cdf"}
TABLE_TOL = 1e-9

EXACT_M = 50
EXACT_TIME = 100
EXACT_LEVELS = tuple(range(1, EXACT_TIME - EXACT_M + 2))
# uniform q=0.5: float terms cancel hard; defect: fig8's rates
EXACT_CONFIGS = {
    "uniform": dict(m=EXACT_M, q=0.5),
    "defect": dict(m=EXACT_M, q=0.1, qbar=0.2, defects=(1,)),
}
EXACT_RATES = {
    "uniform": (0.5,) * EXACT_M,
    "defect": (0.2,) + (0.1,) * (EXACT_M - 1),
}
JOINT_TIMES = (80, 100)
JOINT_RATES = "defect"
JOINT_GRID = tuple(product((3, 9, 15), (6, 18, 30)))
EXACT_TOL = 1e-12

FIG8_SAMPLES = 150
TABLE_POINTS = 16
EXACT_STRATA = 4
VERIFY_SUITES = ("combinatorial-exhaustive", "oracle-vs-fredholm",
                 "kernel-crosschecks")
MC_M, MC_Q, MC_U, MC_SAMPLES = 400, 0.1, 5.0, 400

PANEL_KEYS = {"ks_distance", "n", "target_law", "pass", "tolerance", "seed",
              "config_digest"}
VARIANT_KEYS = {"ks_distance", "target_law", "time", "pass"}
FIG8_KEYS = {"variants", "pass", "config_digest"}


class Op(NamedTuple):
    name: str
    seconds: float
    ok: bool


def dkw_epsilon(n, alpha=1e-3):
    """Dvoretzky-Kiefer-Wolfowitz band: P(sup|F_n - F| > eps) <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def stratified(rng, items, k):
    """An item drawn from each of k nearly equal contiguous strata, and the
    item at its mirror position in the stratum: a cost that grows smoothly
    with the item then sums to nearly the same total whatever is drawn."""
    items = list(items)
    edges = [round(i * len(items) / k) for i in range(k + 1)]
    out = []
    for lo, hi in zip(edges, edges[1:]):
        i = rng.randrange(lo, hi)
        out += [items[i], items[lo + hi - 1 - i]]
    return out


def timed(fn, *args):
    """(result, seconds, raised) of one call; an exception is a failure."""
    start = time.perf_counter()
    try:
        result, raised = fn(*args), False
    except Exception:  # noqa: BLE001 - any error fails the operation
        result, raised = None, True
    return result, time.perf_counter() - start, raised


class Fig8:
    """`harness.run_fig8` at its mode defaults with fewer samples.

    Each pass starts cold: the reference-law cache is cleared, and a
    stratified slice of the `tw-gue` and `goe-squared` grids, drawn afresh
    each pass from the seed, is recomputed through the functions
    `reference_law` tabulates and checked against the reference tables.
    The panels are then scored against those reference tables; the full
    tables take about two minutes on a 2-core x86 machine, longer than a
    run.
    """

    # calibration slices per block, mixed like the pass's own time
    calibration = {"math": 10}

    def __init__(self, seed, work, pins):
        from steptasep import fredholm, harness
        self.fredholm, self.harness = fredholm, harness
        self.seed, self.out = seed, work / "fig8"
        self.pins = pins["laws"]
        self.rng = random.Random(seed)
        self.tables = {
            name: fredholm.ReferenceLaw(name, np.array(table["grid"]),
                                        np.array(table["values"]))
            for name, table in self.pins["tables"].items()}
        self._reference_law = harness.reference_law
        harness.reference_law = self._serve_law
        self.panels = Recorder(harness, "run_simulate")
        self.extra = {}

    def _serve_law(self, name):
        if name in self.tables:
            return self.tables[name]
        return self._reference_law(name)

    def _table_slice(self, name, index):
        cdf = getattr(self.fredholm, TABLE_CDFS[name])
        law = self.tables[name]
        got = [min(max(cdf(float(law.grid[i])), 0.0), 1.0) for i in index]
        return all(abs(g - law.values[i]) <= TABLE_TOL
                   for g, i in zip(got, index))

    def run_pass(self, tracer):
        ops = []
        self.fredholm.reference_law.cache_clear()
        with tracer.span("fredholm.reference_law", "fredholm"):
            for name in TABLE_LAWS:
                grid = range(len(self.tables[name].grid))
                index = stratified(self.rng, grid, TABLE_POINTS // 2)
                ok, seconds, raised = timed(self._table_slice, name, index)
                ops.append(Op("table:" + name, seconds,
                              bool(ok) and not raised))
        cfg = self.harness.resolve_config(
            "fig8", seed=self.seed, out=str(self.out), samples=FIG8_SAMPLES)
        _, _, raised = timed(self.harness.run_fig8, cfg)
        panels = self.panels.take()
        names = [variant[0] for variant in self.harness.FIG8_VARIANTS]
        if raised or len(panels) != len(names):
            return ops + [Op(name, 0.0, False) for name in names]
        top = json.loads((self.out / "fig8_report.json").read_text())
        top_ok = set(top) == FIG8_KEYS
        band = (dkw_epsilon(FIG8_SAMPLES)
                + dkw_epsilon(self.pins["fig8_ks"]["n"]))
        for name, (_args, _result, seconds) in zip(names, panels):
            report = json.loads((self.out / name / "report.json").read_text())
            variant = top["variants"].get(name, {}) if top_ok else {}
            with open(self.out / name / "samples.csv", newline="") as fh:
                ls = [int(row["L"]) for row in csv.DictReader(fh)]
            atoms = Counter(ls)
            self.extra[f"harness.ks_floor.{name}"] = (
                max(atoms.values()) / len(ls) / 2.0)
            ok = (top_ok and set(report) == PANEL_KEYS
                  and set(variant) == VARIANT_KEYS
                  and variant["ks_distance"] == report["ks_distance"]
                  and report["n"] == len(ls) == FIG8_SAMPLES
                  and abs(report["ks_distance"]
                          - self.pins["fig8_ks"]["ks"][name]) <= band)
            ops.append(Op(name, seconds, ok))
        return ops

    def close(self):
        self.panels.close()
        self.harness.reference_law = self._reference_law


class Verify:
    """`harness.run_verify` suite by suite, with Monte Carlo at fewer samples.

    The three exhaustive/deterministic suites run as they are.  The
    `mc-vs-theory` suite (2000 samples at M=400, t=2000: most of a full
    verify) is repeated by the benchmark at the same point, with the run's
    seed and MC_SAMPLES samples, under the suite's own acceptance bounds.
    """

    calibration = {"python": 4, "math": 6}

    def __init__(self, seed, work, pins):
        from steptasep import fredholm, harness, system
        self.fredholm, self.harness, self.system = fredholm, harness, system
        self.seed, self.work = seed, work
        self.extra = {}

    def _mc_vs_theory(self):
        h, system = self.harness, self.system
        t = int(MC_U * MC_M)
        spec = system.SystemSpec(
            m=MC_M, rates=system.uniform_rates(MC_M, MC_Q), horizon=t)
        ls = h.sample_ensemble(spec, [t], MC_SAMPLES, self.seed,
                               h.adaptive_chunk(t, MC_M))[:, 0]
        gap = abs(float(np.mean(ls)) / MC_M - system.mean_bulk(MC_U, MC_Q))
        rng = np.random.Generator(np.random.Philox(key=[9, 0]))
        xs = rng.normal(scale=1.0 / math.sqrt(2.0), size=10000)
        ks = h.ks_distance(xs, h.reference_law("gaussian").cdf)
        return gap <= 0.05 and ks < 0.02

    def _suite(self, name):
        out = self.work / "verify" / name
        cfg = self.harness.config_from_dict(
            {"mode": "verify", "suites": [name], "out": str(out)})
        report = self.harness.run_verify(cfg)
        on_disk = json.loads((out / "verify_report.json").read_text())
        return report["pass"] and on_disk == report

    def run_pass(self, tracer):
        self.fredholm.reference_law.cache_clear()
        ops = []
        for name in VERIFY_SUITES:
            ok, seconds, raised = timed(self._suite, name)
            ops.append(Op(name, seconds, bool(ok) and not raised))
        with tracer.span("harness.mc_vs_theory", "harness"):
            ok, seconds, raised = timed(self._mc_vs_theory)
        ops.append(Op("mc-vs-theory", seconds, bool(ok) and not raised))
        return ops

    def close(self):
        pass


class Exact:
    """`harness.run_exact_dist` on seed-chosen levels of two full columns,
    plus two-time probabilities from `finite_kernel.joint_probability`.

    Each pass draws its levels afresh from the seed: a level and its
    mirror in each of EXACT_STRATA strata of 1..51, so every pass spans the
    cheap and the expensive end of the column at nearly the same total
    cost, and the passes of a run cover most of it.  Each probability is
    checked against the exact rational route's value to an absolute
    EXACT_TOL.
    """

    calibration = {"python": 10}

    def __init__(self, seed, work, pins):
        from steptasep import finite_kernel, harness
        self.finite_kernel, self.harness = finite_kernel, harness
        self.work, self.pins = work, pins["exact"]
        self.rng = random.Random(seed)
        self.probabilities = Recorder(harness, "joint_probability")
        self.extra = {}

    def _column(self, name, levels):
        out = self.work / "exact" / name
        cfg = self.harness.config_from_dict(dict(
            EXACT_CONFIGS[name], mode="exact-dist", times=[EXACT_TIME],
            levels=levels, out=str(out)))
        self.harness.run_exact_dist(cfg)
        with open(out / "exact_dist.csv", newline="") as fh:
            return {int(row["level"]): float(row["prob_at_least"])
                    for row in csv.DictReader(fh)}

    def run_pass(self, tracer):
        ops, values = [], []
        for name in EXACT_CONFIGS:
            levels = stratified(self.rng, EXACT_LEVELS, EXACT_STRATA)
            rows, _, raised = timed(self._column, name, levels)
            log = self.probabilities.take()
            if raised or len(log) != len(levels):
                ops += [Op(f"{name}:{level}", 0.0, False) for level in levels]
                continue
            want = self.pins["columns"][name]
            for args, result, seconds in log:
                level = args[1][0]
                value = rows.get(level)
                ok = (value == result
                      and abs(value - want[str(level)]) <= EXACT_TOL)
                values.append(result)
                ops.append(Op(f"{name}:{level}", seconds, ok))
        rates = EXACT_RATES[JOINT_RATES]
        for levels in JOINT_GRID:
            value, seconds, raised = timed(
                self.finite_kernel.joint_probability, JOINT_TIMES,
                list(levels), rates)
            want = self.pins["joint"]["%d,%d" % levels]
            ok = not raised and abs(value - want) <= EXACT_TOL
            if not raised:
                values.append(value)
            ops.append(Op("joint:%d,%d" % levels, seconds, ok))
        self.extra["finite_kernel.negative_probs"] = sum(v < 0 for v in values)
        return ops

    def close(self):
        self.probabilities.close()


WORKLOADS = {"fig8": Fig8, "verify": Verify, "exact": Exact}
MODES = {"fig8": "fig8", "verify": "verify", "exact": "exact-dist"}
