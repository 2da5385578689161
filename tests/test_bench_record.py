"""tools/bench_record.py: its layer probe and its bookkeeping.

The probe reaches into the package by name (`system._evolve`,
`system._share`, `system._workers`,
`airy_pair`, `tw_gue_cdf`, `goe2_cdf`, `harness._suite_combinatorial`,
`region1_prob`, `joint_probability`, `FiniteKernel`, `max_level`,
`FiniteKernel._psi1_row`), so it is run once
at a tiny sampler point; a renamed function then fails here rather than
in a benchmark record.  The pair counting, quartiles and run order are
checked on hand-made runs.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(**values):
    return {"metrics": {name: {"value": v, "unit": "s"}
                        for name, v in values.items()}}


def test_layer_probe_runs_in_the_repo_root():
    proc = subprocess.run(
        [sys.executable, "-c", bench_record.LAYER_PROBE,
         json.dumps([[[4, 2, 16]], 1, bench_record.SEED0])],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"M=4,samples=2,t=16", "airy_pair", "tw_gue_cdf",
                        "goe2_cdf", "combinatorial_suite", "region1_prob",
                        "finite_kernel"}
    point = out["M=4,samples=2,t=16"]
    assert set(point) == {"draw_ns_per_cell", "update_ns_per_cell",
                          "sample_ensemble"}
    assert point["sample_ensemble"]["wall_s"] > 0
    assert point["sample_ensemble"]["processes"] == 1
    assert set(out["airy_pair"]) == {"window_80_ns_per_point",
                                     "wide_32640_ns_per_point"}
    assert out["tw_gue_cdf"]["ms_at_0"] > 0
    assert out["goe2_cdf"]["ms_at_0"] > 0
    assert out["combinatorial_suite"]["ms_per_call"] > 0
    assert set(out["region1_prob"]) == {"one_time_ell_20_ms",
                                        "two_time_ell_8_12_ms"}
    assert min(out["region1_prob"].values()) > 0
    assert set(out["finite_kernel"]) == {"cold_ell_45_ms",
                                         "two_time_ell_15_30_ms",
                                         "column_m100_t200_s",
                                         "psi1_row_t3000_600_s"}
    assert min(out["finite_kernel"].values()) > 0


def test_pairs_won_follows_better_and_skips_ties():
    metrics = [{"name": "wall_s", "better": "lower"},
               {"name": "ok_share", "better": "higher"}]
    runs = {"parent": [_run(wall_s=2.0, ok_share=0.5),
                       _run(wall_s=1.0, ok_share=0.9),
                       _run(wall_s=3.0, ok_share=0.7)],
            "change": [_run(wall_s=1.0, ok_share=0.5),
                       _run(wall_s=2.0, ok_share=0.8),
                       _run(wall_s=3.0, ok_share=0.9)]}
    assert bench_record.pairs_won(runs, metrics) == {
        "wall_s": {"change": 1, "parent": 1},
        "ok_share": {"change": 1, "parent": 1}}


def test_summarize_quartiles():
    runs = [dict(_run(wall_s=v), attempted=10 + i, failed=0,
                 facts={"src_lines": 2700})
            for i, v in enumerate([5.0, 1.0, 4.0, 2.0, 3.0])]
    out = bench_record.summarize(runs, ["wall_s"])
    assert out["attempted_median"] == 12 and out["src_lines"] == 2700
    wall = out["metrics"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == (2.0, 3.0, 4.0)
    assert wall["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]


@pytest.mark.parametrize("i, first", [(0, "parent"), (1, "change"),
                                      (2, "parent"), (9, "change")])
def test_side_order_alternates(i, first):
    sides = {"parent": Path("a"), "change": Path("b")}
    order = bench_record.side_order(sides, i)
    assert order[0] == first and sorted(order) == ["change", "parent"]
