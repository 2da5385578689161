"""Record the benchmark's end-to-end medians for a parent and a change.

    python3 tools/bench_record.py --parent ../parent --change . \
        --out BENCH_12.json

Both arguments are checkouts of the repository.  Each of the PAIRS = 10
pairs per workload runs `perfbench/run.py --trace 0` once in each checkout,
unchanged, with the workloads and run length that the change's
BENCHMARK.json declares; the side that runs first alternates from pair to
pair, and pair i uses seed 801 + i on both sides.  The output file holds,
per workload and side, every run's end-to-end metrics, their median and
quartiles, the attempted operation count of every run and its median (a
run that completes more operations also reads a higher `peak_rss_mb`), the
failed operation count, and the `src/` line count and machine facts that
run.py reports; and per workload and metric, how many
pairs each side won in the direction BENCHMARK.json calls `better` (ties
count for neither).  After the pairs, each checkout also makes TRACED_RUNS
`--trace 1` runs per workload, in the same alternating order, at seeds
801, 802, ...; their per-layer metrics (such as
`system.sample_ensemble.ns_per_cell`) go under the workload's `traced`
key, per side: every run and each metric's median, so that a layer's move
can be told from the host's.  Last, `layers` holds per side, measured in
that checkout's `src/`:
- the nanoseconds per cell of the sampler's stay-bit draw and of its
  update rule at each of LAYER_POINTS, in one process: all samples
  through the share routine `system._share`, and the same call with
  `system._evolve` replaced by a generator that yields the positions
  unchanged.  The median of the second is the draw, and the difference of
  the medians is the update.  Alternating with them, the full
  `sample_ensemble` call, which splits a point of at least
  `system.PARALLEL_CELLS` cells over forked processes: its median wall
  seconds and the number of processes it used (`system._workers`), each
  of the three timed LAYER_REPEATS times;
- the nanoseconds per `airy_pair` point on the 80 Gauss-Legendre nodes of
  the refined Nystrom window on (0, 20] and on 32,640 points over
  [-3, 45], and the milliseconds per `tw_gue_cdf(0)` and `goe2_cdf(0)`
  after one warm-up call, each the median of LAYER_REPEATS timings;
- the milliseconds per `harness._suite_combinatorial()` call, the
  exhaustive 01-matrix identities of verify, as the median of
  LAYER_REPEATS calls;
- the milliseconds per windowed onset determinant, `region1_prob([0.0],
  [20])` and the two-time `region1_prob([-1.0, 1.0], [8, 12])`, each the
  median of LAYER_REPEATS calls;
- the exact law's layer: the milliseconds per cold
  `joint_probability([100], [45], (0.5,) * 50)` and per two-time
  `joint_probability([80, 100], [15, 30], (0.2,) + (0.1,) * 49)`, each
  building its own kernel, the seconds for the full M=100, t=200
  column (levels 1..101 at q=0.1 with one slow particle at 0.2) on one
  kernel, and the seconds for a fresh kernel's t=3000 Psi1 row at those
  rates (M=100), built and grown over its first 600 values from T up,
  `_psi1_row(3000).span(T, T + 599)`, each the median of LAYER_REPEATS
  calls.
Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED0 = 801
PAIRS = 10
# (M, samples, t) at q = 0.1: the last fig8 panel and the verify point
LAYER_POINTS = ((100, 150, 3000), (400, 400, 2000))
LAYER_REPEATS = 3
TRACED_RUNS = 3

# Run in a checkout's root; prints one JSON line mapping each point,
# "M=..,samples=..,t=..", to its draw_ns_per_cell and update_ns_per_cell
# and the wall seconds and process count of its sample_ensemble call,
# "airy_pair" to its two per-point costs, each law to ms_at_0,
# "combinatorial_suite" to ms_per_call, "region1_prob" to its two
# per-call costs and "finite_kernel" to its two per-call costs, the
# column's seconds and the t=3000 Psi1 row's seconds.
LAYER_PROBE = """
import json, statistics, sys, time
sys.path.insert(0, "src")
import numpy as np
from steptasep import finite_kernel, fredholm, harness, system
from steptasep.limit_kernels.special import airy_pair

points, repeats, seed = json.loads(sys.argv[1])
evolve = system._evolve


def idle(stay, pos=None):
    for _ in range(stay.shape[-2]):
        yield pos


def spec(m, t):
    return system.SystemSpec(m=m, rates=system.uniform_rates(m, 0.1),
                             horizon=t)


def share_seconds(m, n, t, rule):
    # one process's cost: all n samples through the share routine, or the
    # whole call in a checkout whose sampler has none and never forks
    system._evolve = rule
    point = spec(m, t)
    start = time.perf_counter()
    if hasattr(system, "_share"):
        system._share(point.rates, [t], seed, 0, n,
                      system.adaptive_chunk(t, m))
    else:
        system.sample_ensemble(point, [t], n, seed)
    return time.perf_counter() - start


def call_seconds(m, n, t):
    system._evolve = evolve
    point = spec(m, t)
    start = time.perf_counter()
    system.sample_ensemble(point, [t], n, seed)
    return time.perf_counter() - start


workers = getattr(system, "_workers", lambda cells, n: 1)
out = {}
for m, n, t in points:
    # the three timings alternate, so a drift in host speed meets each
    runs = [(share_seconds(m, n, t, evolve), share_seconds(m, n, t, idle),
             call_seconds(m, n, t)) for _ in range(repeats)]
    full, draw, call = (statistics.median(side) for side in zip(*runs))
    ns = 1e9 / (m * n * t)
    out[f"M={m},samples={n},t={t}"] = {
        "draw_ns_per_cell": draw * ns,
        "update_ns_per_cell": (full - draw) * ns,
        "sample_ensemble": {"wall_s": call,
                            "processes": workers(m * n * t, n)}}
system._evolve = evolve


# seconds per call: the median over `repeats` timings of `loops` calls
def median_time(call, loops=1):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        times.append((time.perf_counter() - start) / loops)
    return statistics.median(times)


nodes, _ = np.polynomial.legendre.leggauss(80)
window = 10.0 + 10.0 * nodes
wide = np.linspace(-3.0, 45.0, 32640)
out["airy_pair"] = {
    "window_80_ns_per_point": 1e9 * median_time(
        lambda: airy_pair(window), 200) / window.size,
    "wide_32640_ns_per_point": 1e9 * median_time(
        lambda: airy_pair(wide)) / wide.size}
for name, cdf in (("tw_gue_cdf", fredholm.tw_gue_cdf),
                  ("goe2_cdf", fredholm.goe2_cdf)):
    cdf(0.0)
    out[name] = {"ms_at_0": 1e3 * median_time(lambda: cdf(0.0))}
out["combinatorial_suite"] = {
    "ms_per_call": 1e3 * median_time(harness._suite_combinatorial)}
out["region1_prob"] = {
    "one_time_ell_20_ms": 1e3 * median_time(
        lambda: fredholm.region1_prob([0.0], [20])),
    "two_time_ell_8_12_ms": 1e3 * median_time(
        lambda: fredholm.region1_prob([-1.0, 1.0], [8, 12]))}


def column():
    kern = finite_kernel.FiniteKernel((0.2,) + (0.1,) * 99)
    for level in range(1, 102):
        finite_kernel.joint_probability([200], [level], kern)


def psi1_row():
    top = finite_kernel.max_level(3000, 100)
    kern = finite_kernel.FiniteKernel((0.2,) + (0.1,) * 99)
    kern._psi1_row(3000).span(top, top + 599)


out["finite_kernel"] = {
    "cold_ell_45_ms": 1e3 * median_time(
        lambda: finite_kernel.joint_probability([100], [45], (0.5,) * 50)),
    "two_time_ell_15_30_ms": 1e3 * median_time(
        lambda: finite_kernel.joint_probability(
            [80, 100], [15, 30], (0.2,) + (0.1,) * 49)),
    "column_m100_t200_s": median_time(column),
    "psi1_row_t3000_600_s": median_time(psi1_row)}
print(json.dumps(out))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            parser.error(f"{side} is not a checkout with perfbench/run.py")
    return args


def run_once(checkout, workload, seed, seconds, trace=0):
    """One benchmark run; returns its facts and result lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    facts_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(facts_line)["facts"], json.loads(result_line)


def summarize(runs, names):
    """Median and quartiles of each metric over the runs of one side."""
    attempted = [r["attempted"] for r in runs]
    out = {"attempted": attempted,
           "attempted_median": statistics.median(attempted),
           "failed": [r["failed"] for r in runs],
           "src_lines": runs[0]["facts"]["src_lines"], "metrics": {}}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
        out["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                "unit": runs[0]["metrics"][name]["unit"],
                                "runs": values}
    return out


def pairs_won(runs, metrics):
    """Per metric, the pairs in which each side read better; run i of
    each side forms pair i."""
    won = {}
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "higher"
                                      else -1)
        count = {"change": 0, "parent": 0}
        for p, c in zip(runs["parent"], runs["change"]):
            diff = sign * (c["metrics"][name]["value"]
                           - p["metrics"][name]["value"])
            if diff:
                count["change" if diff > 0 else "parent"] += 1
        won[name] = count
    return won


def traced_run(checkout, workload, seed, seconds):
    """Per-layer metrics of one `--trace 1` run."""
    _, result = run_once(checkout, workload, seed, seconds, trace=1)
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()}}


def traced_summary(runs):
    """Each per-layer metric's median over the traced runs of one side."""
    return {"median": {name: statistics.median(r["metrics"][name]
                                               for r in runs)
                       for name in runs[0]["metrics"]},
            "runs": runs}


def side_order(sides, i):
    """The sides in run order for pair i: the first side alternates."""
    return list(sides) if i % 2 == 0 else list(sides)[::-1]


def layer_run(checkout):
    """The sampler's and the laws' layer costs in a checkout."""
    proc = subprocess.run(
        [sys.executable, "-c", LAYER_PROBE,
         json.dumps([LAYER_POINTS, LAYER_REPEATS, SEED0])],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    sides = {"parent": args.parent, "change": args.change}
    record = {"pairs": PAIRS, "seconds": bench["run_seconds"],
              "seeds": [SEED0 + i for i in range(PAIRS)],
              "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: [] for side in sides}
        for i in range(PAIRS):
            for side in side_order(sides, i):
                facts, result = run_once(sides[side], workload, SEED0 + i,
                                         bench["run_seconds"])
                runs[side].append(dict(result, facts=facts))
                print(f"{workload} pair {i} {side}: " + ", ".join(
                    f"{n}={result['metrics'][n]['value']:.4g}"
                    for n in names), file=sys.stderr)
        record["workloads"][workload] = {
            side: summarize(runs[side], names) for side in sides}
        record["workloads"][workload]["pairs_won"] = pairs_won(
            runs, bench["end_to_end"])
        traced = {side: [] for side in sides}
        for i in range(TRACED_RUNS):
            for side in side_order(sides, i):
                traced[side].append(traced_run(
                    sides[side], workload, SEED0 + i, bench["run_seconds"]))
        record["workloads"][workload]["traced"] = {
            side: traced_summary(traced[side]) for side in sides}
    record["layers"] = {side: layer_run(sides[side]) for side in sides}
    record["machine"] = {k: v for k, v in runs["change"][0]["facts"].items()
                         if k not in ("seed", "src_lines")}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
