"""Reference work for adjusting timings to a fixed host speed.

On a virtual machine that shares its cores with other tenants, the speed of
the same single-threaded code drifts by tens of percent over tens of
seconds, and two runs minutes apart can differ by a fifth.  The drift slows
a fixed block of reference work along with the workload (correlation
0.96-0.98 of run medians, measured on a shared 2-core x86 virtual machine).
So a time measured next to the reference work is reported as

    seconds * reference_seconds / measured_reference_seconds,

its value on a host where each reference slice takes REFERENCE_S.  The raw
seconds stay in the result file.

NumPy is imported only inside `math_slice`, so the set-up probe can time
the Python slice without pre-importing what the package imports.
"""

import statistics
import time
from fractions import Fraction

# Slice seconds on a shared 2-core x86 virtual machine (Python 3.11, NumPy
# 2.4) in one of its slower phases; fixed, so that adjusted times compare
# across runs and commits.
REFERENCE_S = {"python": 0.028, "math": 0.021}


def python_slice():
    """Tuple building and Fraction sums, like the exact layers' Python."""
    acc = Fraction(0)
    for code in range(2000):
        rows = tuple(tuple((code >> (r * 4 + c)) & 1 for c in range(4))
                     for r in range(3))
        acc += Fraction(sum(map(sum, rows)), code + 1)


def math_slice():
    """Cache-resident NumPy math and a small determinant."""
    import numpy as np
    x = np.linspace(-8.0, 8.0, 150000)
    y = np.exp(-x * x) * np.cos(3.0 * x) + x ** 3
    np.linalg.det(np.eye(120) + np.outer(y[:120], y[:120]) / 1e6)


SLICES = {"python": python_slice, "math": math_slice}


def timed_slice(kind):
    start = time.perf_counter()
    SLICES[kind]()
    return time.perf_counter() - start


class Calibration:
    """Slice timings of one run, for a block mixing slice kinds.

    `mix` gives the slice count of each kind per block, in proportion to
    the workload's own Python and NumPy time.
    """

    def __init__(self, mix):
        self.mix = mix
        self.seconds = {kind: [] for kind in mix}
        for kind in mix:
            SLICES[kind]()  # warm-up, untimed

    def block(self):
        for kind, count in self.mix.items():
            for _ in range(count):
                self.seconds[kind].append(timed_slice(kind))

    def speed(self):
        """Reference over measured seconds of a block, at the run's median
        slice times: below 1 on a host slower than the reference."""
        reference = sum(count * REFERENCE_S[kind]
                        for kind, count in self.mix.items())
        measured = sum(count * statistics.median(self.seconds[kind])
                       for kind, count in self.mix.items())
        return reference / measured
