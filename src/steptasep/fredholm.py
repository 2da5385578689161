"""Fredholm determinant engine and reference distribution laws.

Discrete determinants are evaluated literally on finite index windows; the
onset law region1_prob is one, of the discrete Hermite kernel.  Continuous
determinants det(I - K) over products of half-lines (s_j, inf) use Nystrom
discretization: Gauss-Legendre nodes on the truncated windows
(s_j, s_j + LCUT], the symmetrized matrix sqrt(w) K sqrt(w), and a plain
LU determinant.  Every evaluation is performed twice, the second time with
doubled order and window length; if the two disagree beyond TOL the
evaluation refuses to return a number.

The reference laws used by the statistics harness, one LAWS entry each,
are tabulated once on law-specific grids whose ends carry less than 1e-6 of
residual mass, then interpolated linearly.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .limit_kernels.kernels import (
    extended_airy_block,
    kernel_K3_block,
    kernel_region1,
)

# largest refined Nystrom matrix det_continuous will build, in bytes
MATRIX_BYTES = 2e8
# coarse Nystrom rule: ORDER nodes per window length LCUT; the refined rule
# doubles both and must move the determinant by less than TOL
LCUT = 10.0
ORDER = 40
TOL = 1e-8


class RefinementError(RuntimeError):
    """Raised when doubling the quadrature changes the determinant."""

    def __init__(self, coarse, refined, tol):
        super().__init__(
            f"determinant did not stabilize: {coarse!r} vs {refined!r} "
            f"under doubled quadrature (tolerance {tol!r})")
        self.coarse = coarse
        self.refined = refined


def det_discrete(entry, windows):
    """det(I - K) with K given entrywise on finite integer windows.

    `windows` lists, per time index, the integer points it contributes;
    `entry(i, x, j, y)` is the kernel between point x of window i and
    point y of window j.
    """
    points = [(i, x) for i, window in enumerate(windows) for x in window]
    n = len(points)
    if n == 0:
        return 1.0
    mat = np.empty((n, n))
    for a, (i, x) in enumerate(points):
        for b, (j, y) in enumerate(points):
            mat[a, b] = entry(i, x, j, y)
    return float(np.linalg.det(np.eye(n) - mat))


def _window(s, lcut, order):
    """Length and node count of the truncated window (s, s + length]."""
    # windows always reach up to max(s, 0) + lcut: some kernels carry
    # rank-one terms that decay only through the column variable, so the
    # cut must sit deep in the decaying region however negative s is
    length = lcut + max(0.0, -s)
    return length, int(math.ceil(order * length / lcut))


def _det_once(block, taus, esses, lcut, order):
    xs, roots = [], []
    for s in esses:
        length, n = _window(s, lcut, order)
        t, w = np.polynomial.legendre.leggauss(n)
        xs.append(s + length / 2.0 + length / 2.0 * t)
        roots.append(np.sqrt(length / 2.0 * w))
    offs = np.concatenate([[0], np.cumsum([len(x) for x in xs])])
    mat = np.empty((offs[-1], offs[-1]))
    for i in range(len(esses)):
        for j in range(len(esses)):
            blk = block(taus[i], xs[i], taus[j], xs[j])
            mat[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = (
                roots[i][:, None] * blk * roots[j][None, :])
    return float(np.linalg.det(np.eye(offs[-1]) - mat))


def det_continuous(block, taus, esses):
    """det(I - K) on the product of half-lines (s_j, inf).

    `block(t1, xs1, t2, xs2)` returns the kernel matrix between node
    arrays.  The value is accepted only if doubling both the node count
    and the window length moves it by less than TOL.  Thresholds so
    negative that the refined matrix would outgrow MATRIX_BYTES are
    rejected before any kernel evaluation.
    """
    if len(taus) != len(esses):
        raise ValueError("times and thresholds must align")
    if not all(math.isfinite(x) for x in (*taus, *esses)):
        raise ValueError(f"times and thresholds must be finite: "
                         f"{list(taus)}, {list(esses)}")
    nodes = sum(_window(s, 2.0 * LCUT, 2 * ORDER)[1] for s in esses)
    if 8 * nodes ** 2 > MATRIX_BYTES:
        raise ValueError(
            f"thresholds {list(esses)} need a {nodes}-node Nystrom matrix, "
            f"above the {MATRIX_BYTES / 1e6:.0f} MB budget")
    if not taus:
        return 1.0
    coarse = _det_once(block, taus, esses, LCUT, ORDER)
    refined = _det_once(block, taus, esses, 2.0 * LCUT, 2 * ORDER)
    if abs(coarse - refined) >= TOL:
        raise RefinementError(coarse, refined, TOL)
    return refined


def tw_gue_cdf(s):
    """Largest-eigenvalue law of the Gaussian unitary ensemble."""
    return det_continuous(extended_airy_block, [0.0], [float(s)])


def goe2_cdf(s):
    """Square of the Gaussian orthogonal ensemble edge law.

    One-time determinant of the critically perturbed Airy kernel.
    """
    return det_continuous(kernel_K3_block, [0.0], [float(s)])


def region1_prob(taus, levels):
    """P(all onset distances >= l_j) as a finite determinant det(I - K)
    on the windows {0..l_j-1}."""
    if len(taus) != len(levels):
        raise ValueError("times and levels must align")
    windows = [range(max(0, int(ell))) for ell in levels]
    return det_discrete(
        lambda i, x, j, y: kernel_region1(taus[i], x, taus[j], y), windows)


def gaussian_r4_cdf(s):
    """Stationary law of the defect-dominated regime: N(0, 1/2); s may be
    a scalar or an array."""
    return 0.5 * (1.0 + np.vectorize(math.erf, otypes=[float])(s))


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov statistic of samples against a CDF callable,
    which is called once, on the sorted sample array."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("needs at least one sample")
    if np.isnan(xs).any():
        raise ValueError("samples contain NaN")
    f = np.asarray(cdf(xs), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - f)
    down = np.max(f - np.arange(0, n) / n)
    return float(max(up, down))


@dataclass(frozen=True)
class ReferenceLaw:
    """A tabulated CDF with residual mass below 1e-6 beyond its grid."""

    name: str
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values[0] >= 1e-6 or self.values[-1] <= 1.0 - 1e-6:
            raise ValueError(
                f"law {self.name!r} leaves too much mass outside its grid: "
                f"{self.values[0]!r} low, {1.0 - self.values[-1]!r} high")
        if np.any(np.diff(self.values) < -1e-9):
            raise ValueError(f"law {self.name!r} tabulation not monotone")

    def cdf(self, x):
        return np.clip(np.interp(x, self.grid, self.values,
                                 left=0.0, right=1.0), 0.0, 1.0)


# name -> (CDF, grid start, grid end); the ends carry less than 1e-6 of mass
LAWS = {
    "tw-gue": (tw_gue_cdf, -6.0, 4.0),
    "goe-squared": (goe2_cdf, -6.0, 8.0),
    "gaussian": (gaussian_r4_cdf, -5.0, 5.0),
}
TW_GUE, GOE_SQUARED, GAUSSIAN = LAWS
_GRID_STEP = 0.05


@lru_cache(maxsize=None)
def reference_law(name):
    """The law `name` of LAWS, tabulated on its grid."""
    if name not in LAWS:
        raise ValueError(f"unknown reference law {name!r}")
    cdf, lo, hi = LAWS[name]
    grid = np.arange(lo, hi + _GRID_STEP / 2.0, _GRID_STEP)
    values = np.array([cdf(float(s)) for s in grid])
    return ReferenceLaw(name=name, grid=grid, values=np.clip(values, 0.0, 1.0))
