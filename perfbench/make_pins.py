"""Regenerate the reference values the benchmark checks outputs against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_pins.py laws    # perfbench/pins/laws.json
    python3 perfbench/make_pins.py exact   # perfbench/pins/exact.json

`laws` tabulates the `tw-gue` and `goe-squared` reference laws and runs
`fig8` at its defaults (10^4 samples, master seed 80) for the per-panel KS
values; it takes several minutes.  `exact` evaluates every probability of
the `exact` workload through the exact rational route; it takes minutes
too.  The two parts are independent and can run side by side.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from steptasep import finite_kernel, fredholm, harness  # noqa: E402


def make_laws(work):
    tables = {}
    for name in workloads.TABLE_LAWS:
        law = fredholm.reference_law(name)
        tables[name] = {"grid": law.grid.tolist(),
                        "values": law.values.tolist()}
    cfg = harness.resolve_config("fig8", out=str(work / "fig8"))
    report = harness.run(cfg)
    return {"tables": tables,
            "fig8_ks": {"n": cfg.n_samples, "master_seed": cfg.master_seed,
                        "ks": {k: v["ks_distance"]
                               for k, v in report["variants"].items()}}}


def make_exact():
    columns = {}
    for name, rates in workloads.EXACT_RATES.items():
        columns[name] = {
            str(level): float(finite_kernel.joint_probability(
                [workloads.EXACT_TIME], [level], rates, exact=True))
            for level in workloads.EXACT_LEVELS}
    joint = {
        f"{l1},{l2}": float(finite_kernel.joint_probability(
            workloads.JOINT_TIMES, [l1, l2],
            workloads.EXACT_RATES[workloads.JOINT_RATES], exact=True))
        for l1, l2 in workloads.JOINT_GRID}
    return {"columns": columns, "joint": joint}


def main(part):
    work = Path(".perfbench_out") / f"pins-{part}"
    work.mkdir(parents=True, exist_ok=True)
    data = make_laws(work) if part == "laws" else make_exact()
    target = HERE / "pins" / f"{part}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(data, sort_keys=True) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("laws", "exact"):
        sys.exit("usage: make_pins.py laws|exact")
    main(sys.argv[1])
