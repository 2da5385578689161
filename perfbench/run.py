"""Benchmark of the steptasep package: fig8, verify and exact workloads.

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 40 --trace 0

Run from the repository root; nothing needs installing, the package is
imported from `src/`.  One run is one fresh process with BLAS pinned to one
thread.  It times the set-up in fresh interpreters, then repeats passes of
the workload (see workloads.py) until the next pass would overrun
`--seconds` (at least one pass), with a calibration block before the first
pass and after each one.

`--trace 0` reports the end-to-end metrics: `setup_s` and `wall_s` (median
pass) adjusted to a reference host speed (see calibration.py), `peak_rss_mb`,
and `ok_share`, the share of operations that passed their output check.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (median over them) with the trace overhead.  The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the line before it holds the machine facts.  The full result
(facts, raw seconds of every pass and operation, spans when traced) goes to
.perfbench_out/results/<workload>-seed<seed>-trace<trace>.json.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path(".perfbench_out")
SETUP_PROBES = 7

# Times `import steptasep` plus resolving the workload's config, in a fresh
# interpreter: what every command-line run pays before any work.  The
# Python reference slice is timed in the same interpreter just before.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[5])
import calibration
calibration.python_slice()
reference = calibration.timed_slice("python")
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from steptasep import cli, harness
harness.resolve_config(sys.argv[2], seed=int(sys.argv[3]), out=sys.argv[4])
print(time.perf_counter() - start, reference)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig8", "verify", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(mode, seed, work):
    """Raw set-up seconds of each probe, and their median adjusted to the
    reference host speed (see calibration.py)."""
    raw, adjusted = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), mode, str(seed),
             str(work), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60)
        seconds, reference = map(float, done.stdout.split())
        raw.append(seconds)
        adjusted.append(
            seconds * calibration.REFERENCE_S["python"] / reference)
    return raw, statistics.median(adjusted)


def machine_facts(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "seed": seed,
        "src_lines": src_lines,
    }


def run_passes(workload, seconds, traced):
    """Passes until the next would overrun `seconds`; with `traced`,
    untraced and traced passes alternate and each kind runs at least once.
    A calibration block runs before the first pass and after every pass."""
    passes = []
    start = time.perf_counter()
    cal = calibration.Calibration(workload.calibration)
    cal.block()
    while True:
        use_trace = traced and len(passes) % 2 == 1
        tracer = tracing.Tracer() if use_trace else tracing.NullTracer()
        if use_trace:
            tracing.instrument(tracer)
        t0 = time.perf_counter()
        try:
            ops = workload.run_pass(tracer)
        finally:
            wall = time.perf_counter() - t0
            if use_trace:
                tracer.uninstall()
        passes.append({"traced": use_trace, "wall_s": wall, "ops": ops,
                       "extra": dict(workload.extra),
                       "tracer": tracer if use_trace else None})
        cal.block()
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= (2 if traced else 1) and elapsed + typical > seconds:
            return passes, cal.speed()


def latency(ops):
    """Raw seconds of one operation: median and 90th percentile."""
    seconds = [op.seconds for op in ops]
    return {"n": len(seconds), "p50": statistics.median(seconds),
            "p90": statistics.quantiles(seconds, n=10,
                                        method="inclusive")[-1]}


def end_to_end(passes, setup_s, speed):
    """Times are adjusted to the reference host speed (see calibration.py);
    the result file keeps the raw seconds."""
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op.ok for op in ops)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes) * speed,
                   "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_share": (1.0 - failed / len(ops), "ratio"),
    }


def per_layer(passes):
    plain = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    rows = []
    for p in passes:
        if p["traced"]:
            row = dict.fromkeys(tracing.PER_LAYER_UNITS, 0.0)
            row.update(tracing.layer_metrics(p["tracer"], p["wall_s"]))
            row.update(p["extra"])
            row["trace.overhead_s"] = p["wall_s"] - plain
            rows.append(row)
    return {name: (statistics.median(row[name] for row in rows), unit)
            for name, unit in tracing.PER_LAYER_UNITS.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "steptasep" / "__init__.py").is_file():
        sys.exit(f"error: no steptasep package under {SRC}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    pins = {part: json.loads((HERE / "pins" / f"{part}.json").read_text())
            for part in ("laws", "exact")}
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_raw, setup_s = measure_setup(workloads.MODES[args.workload],
                                           args.seed, work / "setup")
        workload = workloads.WORKLOADS[args.workload](args.seed, work, pins)
        try:
            passes, speed = run_passes(workload, args.seconds,
                                       bool(args.trace))
        finally:
            workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op.ok for op in ops)
    metrics = (per_layer(passes) if args.trace
               else end_to_end(passes, setup_s, speed))
    facts = machine_facts(args.seed)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seconds=args.seconds,
                  trace=args.trace, facts=facts, speed=speed,
                  setup_raw_s=setup_raw, op_latency_s=latency(ops),
                  passes=[{"traced": p["traced"], "wall_s": p["wall_s"],
                           "ops": [op._asdict() for op in p["ops"]]}
                          for p in passes])
    if args.trace:
        record["spans"] = [p["tracer"].span_records()
                           for p in passes if p["traced"]]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record) + "\n")
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
