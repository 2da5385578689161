"""Each demo runs from the source tree with its smallest arguments.

The demos are scripts, not package code, so nothing else imports them; a
renamed runner or field would otherwise surface only when someone runs
one.  Each runs in a fresh interpreter and must exit 0 and print its
closing line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (script, arguments after the output directory, or None for a script
# that takes no arguments, start of the last line)
DEMOS = [
    ("exact_law_vs_limit.py", None, "the gap decays like M^(-1/3)"),
    ("mean_position_regions.py", (), "20.000  14.40000   linear"),
    ("platoon_formation.py", (), "       platoon leaders so far: [25,"),
    ("distribution_panels.py", ("50",),
     "per-variant sample and distribution files under "),
]


@pytest.mark.parametrize("script, extra, last", DEMOS,
                         ids=[d[0] for d in DEMOS])
def test_demo_runs(tmp_path, script, extra, last):
    args = [] if extra is None else [str(tmp_path / "out"), *extra]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip("\n").splitlines()[-1].startswith(last)
