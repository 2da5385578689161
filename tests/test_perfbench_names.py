"""The benchmark's tracer still finds every package name it wraps.

perfbench/tracing.py replaces functions at the names their callers use
(module globals, class attributes).  A deleted or renamed name would
otherwise surface only in traced benchmark runs.
"""

from pathlib import Path

from steptasep import finite_kernel, fredholm, harness
from steptasep.limit_kernels import kernels, scaling

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_instrument_resolves_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    owners = (harness, fredholm, finite_kernel, kernels,
              finite_kernel.FiniteKernel, scaling.ScaledExperiment)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        assert harness.reference_law is not before[0]["reference_law"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
