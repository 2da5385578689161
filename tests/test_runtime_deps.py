"""The package runs on numpy alone.

A fresh interpreter with only `src` on the path, and with the test-only
packages (scipy, mpmath, hypothesis, pytest, the test oracles) made
unimportable, imports every module of the package and runs
`python -m steptasep fig3`.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, pkgutil, runpy, sys
for name in ("scipy", "mpmath", "hypothesis", "pytest", "oracles"):
    sys.modules[name] = None
import steptasep
for info in pkgutil.walk_packages(steptasep.__path__, "steptasep."):
    if info.name != "steptasep.__main__":
        importlib.import_module(info.name)
sys.argv = ["steptasep", "fig3", "--out", sys.argv[1]]
runpy.run_module("steptasep", run_name="__main__", alter_sys=True)
"""


def test_package_runs_without_test_dependencies(tmp_path):
    out = tmp_path / "fig3"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in out.iterdir()} == {
        "curve.csv", "markers.csv", "report.json"}
