"""Reproduce the three scaled-distribution panels and their KS table.

Panel (a): t=200, both a uniform system and one with a slow first
particle sit in the bulk regime and are compared to the Tracy-Widom GUE
law. Panel (b): t=1000 puts the defect system exactly at the capture
point, where the law is the square of the GOE Tracy-Widom CDF, while the
uniform system stays Tracy-Widom. Panel (c): t=3000 is past capture and
the defect system's fluctuations are Gaussian.

At M=100 the samples live on a visible lattice (the largest atom at
t=200 carries 0.16 of the mass), so the KS numbers bottom out near the
lattice floor of 0.08 for panel (a) even though the curves track the
limit laws; the printed table reports what the comparison actually
gives.

Usage: python3 demos/distribution_panels.py [out_dir] [n_samples]
"""

import json
import sys
from pathlib import Path

from steptasep.harness import resolve_config, run_fig8


def main(out_dir="/tmp/panels_demo", n_samples="2000"):
    cfg = resolve_config("fig8", out=out_dir, samples=int(n_samples))
    report = run_fig8(cfg)
    print(f"{'variant':15s} {'time':>5s} {'law':12s} {'KS':>7s}  gate")
    for name, entry in report["variants"].items():
        panel = json.loads((Path(out_dir) / name / "report.json").read_text())
        gate = panel["tolerance"]
        flag = "ok" if entry["pass"] else "over"
        print(f"{name:15s} {entry['time']:5d} {entry['target_law']:12s} "
              f"{entry['ks_distance']:7.4f}  {gate:.2f} {flag}")
    print(f"\nper-variant sample and distribution files under {out_dir}/")


if __name__ == "__main__":
    main(*sys.argv[1:])
