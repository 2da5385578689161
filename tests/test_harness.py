"""Experiment orchestration: config handling, writers, and runners.

Runner tests use small systems so the whole file stays in unit-test
territory; the full-size figure reproductions live in the acceptance
suite. The first simulate test pays the one-time tabulation of the
Tracy-Widom reference law for the process.
"""

import json

import numpy as np
import pytest

from steptasep import harness, system
from steptasep.finite_kernel import FiniteKernel, joint_probability
from steptasep.system import uniform_rates


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            harness.config_from_dict({"mode": "simulate", "bogus": 1})

    def test_mode_required(self):
        with pytest.raises(ValueError, match="mode"):
            harness.config_from_dict({"m": 10})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            harness.config_from_dict({"mode": "teleport"})
        with pytest.raises(ValueError, match="unsigned 64"):
            harness.config_from_dict({"mode": "simulate",
                                      "master_seed": 2 ** 64})
        with pytest.raises(ValueError, match="n_samples"):
            harness.config_from_dict({"mode": "simulate", "n_samples": 0})
        with pytest.raises(ValueError, match="tolerance"):
            harness.config_from_dict({"mode": "simulate", "tolerance": -1.0})
        with pytest.raises(ValueError, match="unknown law"):
            harness.config_from_dict({"mode": "kernel-eval", "law": "cauchy"})
        with pytest.raises(ValueError, match="unknown verify suite"):
            harness.config_from_dict({"mode": "verify", "suites": ["vibes"]})

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # NaN once reached report.json, which is then not JSON
        with pytest.raises(ValueError, match="tolerance must be finite"):
            harness.config_from_dict({"mode": "simulate",
                                      "tolerance": tolerance})

    # a config each mode runs, were the rate valid; fig3 once wrote
    # onset,nan for q = NaN and onset,-2.0 for q = 1.5 and exited 0
    RUNNABLE = {
        "simulate": dict(m=10, region="R2", u=2.0, n_samples=10,
                         master_seed=1),
        "exact-dist": dict(m=3, times=[5], defects=[1]),
        "fig2": dict(m=10, horizon=20, defects=[1]),
        "fig3": {},
        "fig8": dict(m=10, n_samples=10),
    }

    @pytest.mark.parametrize("mode", sorted(RUNNABLE))
    @pytest.mark.parametrize("field, rate", [
        ("q", float("nan")), ("q", 1.5), ("q", -0.5), ("q", float("inf")),
        ("qbar", float("nan")), ("qbar", 1.0)])
    def test_bad_stay_rates_rejected_in_every_mode(self, tmp_path, mode,
                                                    field, rate):
        data = dict(self.RUNNABLE[mode], q=0.1, qbar=0.2)
        data[field] = rate
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError,
                           match=f"^{field} must be a stay rate in"):
            harness.run(harness.resolve_config(
                mode, config_path=path, out=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("strengths", [[float("nan"), 1.0],
                                           [float("inf")]])
    def test_non_finite_strengths_rejected(self, tmp_path, strengths):
        # a NaN strength once reached the sampler, which refused the stay
        # rates it gave without naming the field
        data = dict(m=10, q=0.1, qbar=0.2, region="R3-degenerate",
                    strengths=strengths, n_samples=10, master_seed=1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="^strengths must be finite"):
            harness.run(harness.resolve_config(
                "simulate", config_path=path, out=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    def test_stay_rate_zero_accepted(self):
        cfg = harness.config_from_dict({"mode": "fig3", "q": 0, "qbar": 0.0})
        assert cfg.q == 0.0 and cfg.qbar == 0.0

    def test_law_names_in_kernel_eval_order(self):
        assert harness.LAW_NAMES == ("tw-gue", "goe-squared", "gaussian")

    def test_casts_applied(self):
        cfg = harness.config_from_dict(
            {"mode": "simulate", "m": "40", "q": "0.1",
             "defects": [1, 2], "u": 2})
        assert cfg.m == 40 and cfg.q == 0.1
        assert cfg.defects == (1, 2) and cfg.u == 2.0

    @pytest.mark.parametrize("field, value", [
        ("levels", [2.9]), ("times", [6.7]), ("m", 2.5), ("horizon", 10.5),
        ("n_samples", 3.5), ("master_seed", 1.5), ("defects", [1, 1.5]),
        ("m", float("inf")), ("levels", [float("nan")]), ("m", True),
        ("n_samples", True), ("master_seed", False), ("times", [True]),
        ("defects", [1, True])])
    def test_non_integral_integer_fields_rejected(self, field, value):
        # int() would truncate 2.9 to 2 and run the wrong experiment, and
        # read a JSON true as 1
        with pytest.raises(ValueError, match=field):
            harness.config_from_dict({"mode": "exact-dist", field: value})

    @pytest.mark.parametrize("field, value", [
        ("q", False), ("qbar", False), ("u", True), ("tolerance", True),
        ("strengths", [True, False]), ("strengths", [0.5, True])])
    def test_booleans_rejected_in_float_fields(self, field, value):
        # float() would read a JSON true as 1.0 and false as 0.0
        with pytest.raises(ValueError, match=field):
            harness.config_from_dict({"mode": "simulate", field: value})

    def test_integral_floats_keep_their_digest(self):
        a = harness.config_from_dict(
            {"mode": "exact-dist", "m": 5.0, "times": [9.0], "levels": [2]})
        b = harness.config_from_dict(
            {"mode": "exact-dist", "m": 5, "times": [9], "levels": [2]})
        assert a == b and a.digest == b.digest
        assert isinstance(a.m, int) and isinstance(a.times[0], int)

    def test_digest_stable_and_sensitive(self):
        a = harness.config_from_dict({"mode": "simulate", "m": 10, "q": 0.1})
        b = harness.config_from_dict({"q": 0.1, "m": 10, "mode": "simulate"})
        c = harness.config_from_dict({"mode": "simulate", "m": 11, "q": 0.1})
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "fig3", "q": 0.2, "qbar": 0.4}))
        cfg = harness.resolve_config("fig3", config_path=path)
        assert cfg.mode == "fig3" and cfg.q == 0.2 and cfg.qbar == 0.4

    def test_file_must_be_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="flat JSON object"):
            harness.resolve_config("fig3", config_path=path)

    def test_resolve_mode_mismatch(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "fig3"}))
        with pytest.raises(ValueError, match="for mode 'fig3'"):
            harness.resolve_config("fig2", config_path=path)

    def test_resolve_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"mode": "fig8", "n_samples": 77, "master_seed": 5}))
        cfg = harness.resolve_config("fig8", config_path=path, samples=33)
        assert cfg.n_samples == 33          # flag beats file
        assert cfg.master_seed == 5         # file beats mode default
        assert cfg.m == 100                 # default fills the rest
        assert cfg.q == 0.1 and cfg.qbar == 0.2

    def test_mode_defaults(self):
        cfg = harness.resolve_config("fig2")
        assert cfg.m == 100 and cfg.horizon == 3000
        assert cfg.defects == (1, 25, 50, 75)
        assert cfg.master_seed == 20


class TestAdaptiveChunk:
    def test_bounds(self):
        assert harness.adaptive_chunk(10, 10) == 256
        # a fig8 panel of 150 samples runs as one batch
        assert harness.adaptive_chunk(3000, 100) == 256
        # the budget counts one time block: 2**21 cells of 64 x 400
        assert harness.adaptive_chunk(2000, 400) == 81
        assert harness.adaptive_chunk(100000, 1000) == 32
        assert harness.adaptive_chunk(100000, 100000) == 1
        assert harness.adaptive_chunk(10, 100000) == 2
        assert harness.adaptive_chunk(0, 0) == 256

    @pytest.mark.parametrize("m, horizon, n_samples", [
        (2, 70, 600), (100, 64, 300), (400, 64, 90), (3000, 5, 200)])
    def test_default_batch_block_within_cell_budget(self, m, horizon,
                                                    n_samples, monkeypatch):
        # every time block of a default batch holds at most 2**21 stay
        # bits and at most 256 samples
        blocks = []
        evolve = system._evolve

        def spy(stay, pos=None):
            blocks.append(stay.shape)
            return evolve(stay, pos)

        monkeypatch.setattr(system, "_evolve", spy)
        spec = system.SystemSpec(m=m, rates=uniform_rates(m, 0.2),
                                 horizon=horizon)
        system.sample_ensemble(spec, [horizon], n_samples, master_seed=3)
        steps = min(horizon, system.TIME_BLOCK)
        per_batch = -(-horizon // steps)
        assert sum(shape[0] for shape in blocks[::per_batch]) == n_samples
        assert max(shape[0] for shape in blocks) == min(
            256, 2 ** 21 // (steps * m))
        assert all(np.prod(shape) <= 2 ** 21 for shape in blocks)


class TestWriters:
    def test_sample_csv(self, tmp_path):
        path = harness.write_sample_csv(tmp_path / "s.csv", 7,
                                        [3, 4], [0.25, -1.5])
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_index,time,L,scaled_s"
        assert lines[1] == "0,7,3,0.25"
        assert lines[2] == "1,7,4,-1.5"

    def test_distribution_csv_grid(self, tmp_path):
        law = harness.reference_law("gaussian")
        esses = np.array([-1.0, 0.0, 0.5])
        path = harness.write_distribution_csv(tmp_path / "d.csv", esses, law)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,cdf_empirical,cdf_reference"
        assert len(lines) == 201
        first = float(lines[1].split(",")[0])
        last = float(lines[-1].split(",")[0])
        assert first == pytest.approx(-1.5) and last == pytest.approx(1.0)
        # empirical column is a valid CDF along the grid
        emp = [float(l.split(",")[1]) for l in lines[1:]]
        assert emp[0] == 0.0 and emp[-1] == 1.0
        assert all(b >= a for a, b in zip(emp, emp[1:]))

    def test_rewrite_is_byte_identical(self, tmp_path):
        law = harness.reference_law("gaussian")
        esses = np.array([0.3, -0.2, 1.1, 0.0])
        p1 = harness.write_distribution_csv(tmp_path / "a.csv", esses, law)
        p2 = harness.write_distribution_csv(tmp_path / "b.csv", esses, law)
        assert p1.read_bytes() == p2.read_bytes()


class TestSimulateRunner:
    def _config(self, out, **over):
        base = dict(mode="simulate", m=40, q=0.1, region="R2", u=2.0,
                    n_samples=150, master_seed=11, out=str(out))
        base.update(over)
        return harness.config_from_dict(base)

    def test_report_contract(self, tmp_path):
        report = harness.run_simulate(self._config(tmp_path / "run"))
        on_disk = json.loads((tmp_path / "run" / "report.json").read_text())
        assert sorted(on_disk) == ["config_digest", "ks_distance", "n",
                                   "pass", "seed", "target_law", "tolerance"]
        assert on_disk["target_law"] == "tw-gue"
        assert on_disk["n"] == 150 and on_disk["seed"] == 11
        assert on_disk["tolerance"] == 0.08
        assert 0.0 <= on_disk["ks_distance"] <= 1.0
        # returned report carries in-memory extras not written to disk
        assert report["time"] == 80
        assert np.isfinite(report["scaled_mean"])
        assert report["scaled_var"] > 0

    def test_sample_file_shape(self, tmp_path):
        harness.run_simulate(self._config(tmp_path / "run"))
        lines = (tmp_path / "run" / "samples.csv").read_text().splitlines()
        assert len(lines) == 151
        idx, t, levels, s = lines[1].split(",")
        assert idx == "0" and t == "80"
        assert int(levels) >= 0 and np.isfinite(float(s))

    def test_byte_identical_rerun(self, tmp_path):
        cfg = self._config(tmp_path / "run")
        harness.run_simulate(cfg)
        first = {name: (tmp_path / "run" / name).read_bytes()
                 for name in ("samples.csv", "distribution.csv",
                              "report.json")}
        harness.run_simulate(cfg)
        for name, blob in first.items():
            assert (tmp_path / "run" / name).read_bytes() == blob

    def test_seed_changes_samples(self, tmp_path):
        r1 = harness.run_simulate(self._config(tmp_path / "a"))
        r2 = harness.run_simulate(
            self._config(tmp_path / "b", master_seed=12))
        assert r1["ks_distance"] != r2["ks_distance"]

    def test_gaussian_region(self, tmp_path):
        cfg = self._config(tmp_path / "run", region="R4", qbar=0.2, u=12.0,
                           m=30)
        report = harness.run_simulate(cfg)
        assert report["target_law"] == "gaussian"
        assert report["tolerance"] == 0.05
        assert report["time"] == 360

    def test_defect_off_particle_one_rejected(self, tmp_path):
        # the region's rate vector slows particle 1; another label would be
        # silently ignored
        over = dict(region="R4", qbar=0.2, u=30.0, m=20, n_samples=5)
        cfg = self._config(tmp_path / "bad", defects=[15], **over)
        with pytest.raises(ValueError, match="particle 1"):
            harness.run_simulate(cfg)
        harness.run_simulate(self._config(tmp_path / "ok", defects=[1], **over))

    @pytest.mark.parametrize("qbar", [None, 0.05, 0.1])
    def test_defect_without_slower_qbar_rejected(self, tmp_path, qbar):
        # without a qbar above q the region samples uniform rates, and the
        # defect would be dropped without a word
        cfg = self._config(tmp_path / "run", defects=[1], qbar=qbar)
        with pytest.raises(ValueError, match=r"defects.*qbar"):
            harness.run_simulate(cfg)
        assert not (tmp_path / "run").exists()

    def test_horizon_beyond_whole_block_budget_runs(self, tmp_path,
                                                    monkeypatch):
        # t = 80 steps of 40 particles is more stay bits than the patched
        # block holds; the sampler streams them in time blocks of one
        # sample and writes the same files
        cfg = self._config(tmp_path / "run")
        harness.run_simulate(cfg)
        first = {name: (tmp_path / "run" / name).read_bytes()
                 for name in ("samples.csv", "distribution.csv",
                              "report.json")}
        monkeypatch.setattr(system, "BLOCK_CELLS", system.TIME_BLOCK * 40)
        harness.run_simulate(cfg)
        for name, blob in first.items():
            assert (tmp_path / "run" / name).read_bytes() == blob

    @pytest.mark.parametrize("over", [
        dict(region="fixedM", m=3, q=0.3, horizon=500, u=None,
             strengths=[20, 0, 0]),
        dict(region="R3-degenerate", m=10, q=0.1, qbar=0.2, u=None,
             strengths=[0, 50])])
    def test_strength_below_zero_rate_named_before_any_draw(
            self, tmp_path, monkeypatch, over):
        # such a strength once failed in the sampler with "stay rates must
        # lie in [0, 1)", which names neither the field nor the rate
        made = []
        monkeypatch.setattr(system, "_trajectories",
                            lambda *args: made.append(args) or iter(()))
        cfg = self._config(tmp_path / "run", **over)
        with pytest.raises(ValueError, match=(
                r"^strengths .* stay rate of particle \d+ at -[0-9.]+, "
                r"below 0")):
            harness.run_simulate(cfg)
        assert made == []
        assert not (tmp_path / "run").exists()

    def test_unbounded_work_refused_before_any_draw(self, tmp_path,
                                                    monkeypatch):
        # u = 10^6 maps to t = 10^8 steps: 100 particles and 150 samples
        # are 1.5e12 cells, far above system.MAX_CELLS
        made = []
        monkeypatch.setattr(system, "_trajectories",
                            lambda *args: made.append(args) or iter(()))
        cfg = self._config(tmp_path / "run", m=100, u=1e6)
        with pytest.raises(ValueError, match=(
                r"1500000000000 cells .* limit of 20000000000 cells")):
            harness.run_simulate(cfg)
        assert made == []
        assert not (tmp_path / "run").exists()

    def test_defect_region_needs_its_time_ratio(self, tmp_path):
        cfg = self._config(tmp_path / "run", region="R4", qbar=0.2, u=None)
        with pytest.raises(ValueError, match=r"\bu\b"):
            harness.run_simulate(cfg)

    def test_onset_region_rejected(self, tmp_path):
        cfg = self._config(tmp_path / "run", region="R1")
        with pytest.raises(ValueError, match="no tabulated CDF"):
            harness.run_simulate(cfg)

    def test_missing_fields(self, tmp_path):
        cfg = harness.config_from_dict(
            {"mode": "simulate", "m": 40, "q": 0.1, "region": "R2",
             "u": 2.0, "out": str(tmp_path)})
        with pytest.raises(ValueError, match="needs config fields"):
            harness.run_simulate(cfg)


class TestExactDistRunner:
    def test_values_match_determinant(self, tmp_path):
        cfg = harness.config_from_dict(
            {"mode": "exact-dist", "m": 2, "q": 0.3, "times": [3, 4],
             "out": str(tmp_path)})
        harness.run_exact_dist(cfg)
        lines = (tmp_path / "exact_dist.csv").read_text().splitlines()
        assert lines[0] == "time,level,prob_at_least"
        rates = uniform_rates(2, 0.3)
        rows = [line.split(",") for line in lines[1:]]
        # default levels cover 1 .. t-m+1
        assert [(r[0], r[1]) for r in rows] == [
            ("3", "1"), ("3", "2"), ("4", "1"), ("4", "2"), ("4", "3")]
        for t_str, level_str, p_str in rows:
            want = joint_probability([int(t_str)], [int(level_str)], rates)
            assert float(p_str) == pytest.approx(want, abs=1e-12)

    def test_one_kernel_per_table(self, tmp_path, monkeypatch):
        # the levels of a column share one kernel and so its Psi caches
        built, calls = [], []
        init, joint = FiniteKernel.__init__, harness.joint_probability

        def counted_init(self, rates):
            built.append(rates)
            init(self, rates)

        def counted_joint(*args, **kwargs):
            calls.append(args[1])
            return joint(*args, **kwargs)

        monkeypatch.setattr(FiniteKernel, "__init__", counted_init)
        monkeypatch.setattr(harness, "joint_probability", counted_joint)
        cfg = harness.config_from_dict(
            {"mode": "exact-dist", "m": 5, "q": 0.5, "times": [9],
             "out": str(tmp_path)})
        harness.run_exact_dist(cfg)
        assert len(built) == 1
        assert calls == [[level] for level in range(1, 6)]
        rows = (tmp_path / "exact_dist.csv").read_text().splitlines()[1:]
        rates = uniform_rates(5, 0.5)
        assert rows == [f"9,{level},{joint([9], [level], rates)!r}"
                        for level in range(1, 6)]

    def test_explicit_levels(self, tmp_path):
        cfg = harness.config_from_dict(
            {"mode": "exact-dist", "m": 2, "q": 0.3, "times": [4],
             "levels": [2], "out": str(tmp_path)})
        report = harness.run_exact_dist(cfg)
        assert report["rows"] == 1

    def test_time_before_tagged_label_rejected(self, tmp_path):
        # t < m - 1 has no levels, so the table would be header-only
        cfg = harness.config_from_dict(
            {"mode": "exact-dist", "m": 50, "q": 0.5, "times": [10],
             "out": str(tmp_path)})
        with pytest.raises(ValueError, match="time 10 below 49"):
            harness.run_exact_dist(cfg)
        assert not (tmp_path / "exact_dist.csv").exists()

    @pytest.mark.parametrize("partial", [{"defects": [1]}, {"qbar": 0.2}])
    def test_defects_and_qbar_go_together(self, tmp_path, partial):
        # either one alone would silently fall back to uniform rates
        cfg = harness.config_from_dict(
            dict({"mode": "exact-dist", "m": 5, "q": 0.5, "times": [8],
                  "out": str(tmp_path)}, **partial))
        with pytest.raises(ValueError, match="together"):
            harness.run_exact_dist(cfg)
        assert not (tmp_path / "exact_dist.csv").exists()


class TestKernelEvalRunner:
    def test_single_law(self, tmp_path):
        cfg = harness.config_from_dict(
            {"mode": "kernel-eval", "law": "gaussian", "out": str(tmp_path)})
        harness.run_kernel_eval(cfg)
        lines = (tmp_path / "law_gaussian.csv").read_text().splitlines()
        assert lines[0] == "s,cdf"
        law = harness.reference_law("gaussian")
        assert len(lines) == 1 + len(law.grid)
        mid = lines[1 + len(law.grid) // 2].split(",")
        assert float(mid[1]) == pytest.approx(
            law.cdf(float(mid[0])), abs=1e-12)


class TestVerifyRunner:
    def test_suite_selection(self, tmp_path):
        cfg = harness.config_from_dict(
            {"mode": "verify", "suites": ["oracle-vs-fredholm"],
             "out": str(tmp_path)})
        report = harness.run_verify(cfg)
        assert list(report["suites"]) == ["oracle-vs-fredholm"]
        assert report["pass"] is True
        on_disk = json.loads((tmp_path / "verify_report.json").read_text())
        assert on_disk["suites"]["oracle-vs-fredholm"]["pass"] is True

    def test_oracle_suite_tight(self):
        ok, details = harness._suite_oracle()
        assert ok and details["max_abs_deviation"] < 1e-8

    def test_kernel_suite(self):
        ok, details = harness._suite_kernels()
        assert ok
        assert set(details) == {
            "critical_to_single_defect", "critical_to_plain_airy",
            "rank_n_to_gaussian", "equal_time_to_christoffel_darboux"}


class TestFig2Runner:
    def test_trajectory_shape(self, tmp_path):
        cfg = harness.config_from_dict(
            {"mode": "fig2", "m": 15, "q": 0.1, "qbar": 0.2,
             "defects": [1, 5], "horizon": 40, "master_seed": 3,
             "out": str(tmp_path)})
        report = harness.run_fig2(cfg)
        assert report["rows"] == 41 and report["columns"] == 15
        lines = (tmp_path / "positions.csv").read_text().splitlines()
        assert len(lines) == 41
        first = [int(v) for v in lines[0].split(",")]
        assert first == list(range(14, -1, -1))
        # positions never decrease and stay strictly ordered
        prev = first
        for line in lines[1:]:
            row = [int(v) for v in line.split(",")]
            assert all(b >= a for a, b in zip(prev, row))
            assert all(a > b for a, b in zip(row, row[1:]))
            prev = row


class TestFig3Runner:
    def test_markers_and_monotonicity(self, tmp_path):
        cfg = harness.resolve_config("fig3", out=str(tmp_path))
        harness.run_fig3(cfg)
        marks = (tmp_path / "markers.csv").read_text().splitlines()
        assert marks[0] == "label,u,A"
        onset = dict(zip(("label", "u", "A"), marks[1].split(",")))
        capture = dict(zip(("label", "u", "A"), marks[2].split(",")))
        assert onset["label"] == "onset"
        assert float(onset["u"]) == pytest.approx(1 / 0.9, abs=1e-12)
        assert capture["label"] == "capture"
        assert float(capture["u"]) == pytest.approx(10.0, abs=1e-9)
        assert float(capture["A"]) == pytest.approx(6.4, abs=1e-9)
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert len(curve) == 401
        a_vals = [float(line.split(",")[1]) for line in curve[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(a_vals, a_vals[1:]))
        # beyond the capture point the mean grows at the defect speed
        us = [float(line.split(",")[0]) for line in curve[1:]]
        slope = (a_vals[-1] - a_vals[-2]) / (us[-1] - us[-2])
        assert slope == pytest.approx(0.8, abs=1e-9)

    def test_no_defect_variant(self, tmp_path):
        cfg = harness.config_from_dict(
            {"mode": "fig3", "q": 0.1, "out": str(tmp_path)})
        harness.run_fig3(cfg)
        marks = (tmp_path / "markers.csv").read_text().splitlines()
        assert len(marks) == 2  # header + onset only


class TestFig8Variants:
    def test_variant_table(self):
        names = [v[0] for v in harness.FIG8_VARIANTS]
        assert names == ["fig8a_uniform", "fig8a_defect", "fig8b_uniform",
                         "fig8b_defect", "fig8c_defect"]
        regions = {v[0]: v[1] for v in harness.FIG8_VARIANTS}
        assert regions["fig8b_defect"] == "R3"
        assert regions["fig8c_defect"] == "R4"
