"""Command-line interface: argument handling, dispatch, exit codes.

Most cases drive cli.main in-process; one test goes through the installed
console script to cover the packaging entry point, and one runs
`python -m steptasep` from the source tree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steptasep import cli, harness


def run_main(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestArgs:
    def test_mode_required(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_mode(self):
        with pytest.raises(SystemExit):
            cli.main(["interpolate"])

    def test_seed_range_enforced(self):
        with pytest.raises(SystemExit):
            cli.main(["fig2", "--seed", str(2 ** 64)])

    def test_all_modes_have_common_flags(self):
        parser = cli.build_parser()
        for mode in harness.MODES:
            ns = parser.parse_args(
                [mode, "--seed", "4", "--out", "x", "--samples", "9",
                 "--tolerance", "0.5"])
            assert ns.mode == mode and ns.seed == 4
            assert ns.samples == 9 and ns.tolerance == 0.5


class TestDispatch:
    def test_fig3_writes_and_prints(self, tmp_path, capsys):
        code, out, _ = run_main(["fig3", "--out", str(tmp_path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["curve"].endswith("curve.csv")
        assert (tmp_path / "curve.csv").exists()

    def test_exact_dist_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"mode": "exact-dist", "m": 2, "q": 0.3, "times": [3]}))
        code, out, _ = run_main(
            ["exact-dist", "--config", str(cfg), "--out", str(tmp_path)],
            capsys)
        assert code == 0
        assert json.loads(out)["rows"] == 2

    def test_bad_config_is_error_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "fig3", "wavelength": 3}))
        code, _, err = run_main(
            ["fig3", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "unknown config keys" in err

    def test_mode_mismatch_is_error_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "fig3"}))
        code, _, err = run_main(
            ["fig2", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "mode" in err

    def test_simulate_gaussian_region(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"mode": "simulate", "m": 25, "q": 0.1, "qbar": 0.2,
             "region": "R4", "u": 12.0}))
        code, out, _ = run_main(
            ["simulate", "--config", str(cfg), "--seed", "5",
             "--samples", "200", "--out", str(tmp_path / "run")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["target_law"] == "gaussian"
        assert report["n"] == 200 and report["seed"] == 5
        assert (tmp_path / "run" / "samples.csv").exists()

    def test_infinite_u_is_error_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mode": "simulate", "m": 25, "q": 0.1, "qbar": 0.2,'
                       ' "region": "R4", "u": Infinity}')
        code, out, err = run_main(
            ["simulate", "--config", str(cfg), "--seed", "5",
             "--samples", "20", "--out", str(tmp_path / "run")], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "u must be finite" in err

    def test_verify_single_suite_exit_zero(self, capsys):
        code, out, _ = run_main_verify(capsys)
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_verify_failure_exit_one(self, capsys, monkeypatch):
        monkeypatch.setitem(harness._SUITE_RUNNERS, "oracle-vs-fredholm",
                            lambda: (False, {"max_abs_deviation": 1.0}))
        code, out, _ = run_main_verify(capsys)
        assert code == 1
        assert json.loads(out)["pass"] is False


def run_main_verify(capsys, tmp_dir="/tmp"):
    import os
    path = os.path.join(tmp_dir, "steptasep_cli_verify_cfg.json")
    with open(path, "w") as fh:
        json.dump({"mode": "verify", "suites": ["oracle-vs-fredholm"]}, fh)
    return run_main(["verify", "--config", path], capsys)


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "steptasep", "fig3", "--out",
             str(tmp_path)],
            capture_output=True, text=True, timeout=600,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert Path(report["curve"]).exists()
        assert Path(report["markers"]).exists()

    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            ["steptasep", "kernel-eval", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert sorted(report["laws"]) == ["gaussian", "goe-squared",
                                          "tw-gue"]
        for name in report["laws"]:
            assert (tmp_path / f"law_{name.replace('-', '_')}.csv").exists()
