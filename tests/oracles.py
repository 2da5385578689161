"""Independent evaluation routes that exist only to cross-check the package.

- Combinatorics: the quadratic longest-subsequence DP for the left-down
  maximum, SSYT enumeration of Schur polynomials (the reference for the
  Jacobi-Trudi determinant), the growth-sequence law by enumeration over all
  01 matrices, and the geometric-entry variant of the last-passage identity.
- Dynamics: the tagged distance driven by a given uniform block, through the
  package's one update rule.
- Finite kernel: the free transition weight phi and direct double-contour
  quadrature of the kernel on circles centered at -1/2. That center keeps
  the admissible radius window open for every stay rate in [0, 1),
  including rates >= 1/2 where circles centered at the origin would have to
  cross the poles at (1-q_i)/q_i.
- Critical kernel: the horizontal-line route for the perturbation
  integrals I_j.
- Stationary Gaussian process: direct two-dimensional quadrature of its
  two-time law.
- Special functions: plain Hermite polynomials and parabolic cylinder
  functions D_n, checked against the scaled Hermite sequence.
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from math import comb

import numpy as np

from steptasep import combinatorics as cb
from steptasep import system
from steptasep.finite_kernel import FiniteKernel
from steptasep.fredholm import gaussian_r4_cdf
from steptasep.limit_kernels.kernels import gaussian_transition
from steptasep.limit_kernels.special import psi2_sequence

_SQRT_2PI = math.sqrt(2.0 * math.pi)

QUADRATURE_TOL = 1e-12
RECONCILE_TOL = 1e-9


def longest_nonincreasing_subsequence(word):
    """Quadratic DP; independent oracle for longest_left_down_path."""
    best = []
    for i, x in enumerate(word):
        best.append(1 + max((best[j] for j in range(i) if word[j] >= x), default=0))
    return max(best, default=0)


def growth_shapes(bits):
    """Diagram sequence: shape of the dual RSK of the first i rows, i=1..N."""
    p_rows: list[list[int]] = []
    shapes = []
    for row in bits:
        for c, v in enumerate(row):
            if v:
                cb._insert(p_rows, c + 1, bisect_left)
        shapes.append(cb.tableau_shape(p_rows))
    return shapes


def _ssyt_sum(shape, xs):
    """Sum of content monomials over all SSYT of the given shape with entries
    in 1..len(xs). Backtracking over cells in row-major order."""
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    n = len(xs)
    filling = [[0] * ln for ln in shape]

    def extend(k):
        if k == len(cells):
            return Fraction(1) * _content_product(filling, xs)
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, filling[r][c - 1])
        if r > 0:
            lo = max(lo, filling[r - 1][c] + 1)
        total = Fraction(0)
        for v in range(lo, n + 1):
            filling[r][c] = v
            total += extend(k + 1)
        filling[r][c] = 0
        return total

    return extend(0)


def _content_product(filling, xs):
    out = Fraction(1)
    for row in filling:
        for v in row:
            out *= xs[v - 1]
    return out


def enumerate_growth_law(n_rows, n_cols, rates):
    """Exact pushforward law of growth sequences over all 2^(N*M) matrices."""
    return cb._pushforward(n_rows, n_cols, rates,
                           lambda bits: tuple(growth_shapes(bits)))


def all_growth_sequences(n_rows, max_cols):
    """Every sequence of diagrams reachable with N rows and M columns:
    nested, horizontal strips, width at most M."""

    def diagrams_above(mu):
        # all lam with mu <= lam, lam/mu a horizontal strip, lam_1 <= max_cols
        mu = tuple(mu)
        rows = len(mu) + 1
        choices = []
        for i in range(rows):
            hi = mu[i - 1] if i > 0 else max_cols
            lo = mu[i] if i < len(mu) else 0
            choices.append(range(lo, hi + 1))
        for parts in itertools.product(*choices):
            lam = tuple(p for p in parts if p > 0)
            if all(parts[i] >= parts[i + 1] for i in range(rows - 1)):
                yield lam

    seqs = [[]]
    for _ in range(n_rows):
        seqs = [s + [lam] for s in seqs for lam in diagrams_above(s[-1] if s else ())]
    return [tuple(s) for s in seqs]


# Geometric-entry variant (arrival times / currents)

def sample_geometric_matrix(n_rows, n_cols, rates, seed):
    """Matrix of geometric entries, column j with P(k) = (1-q_j) q_j^k."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    qs = np.asarray(rates, dtype=float)
    if np.any(qs >= 1) or np.any(qs < 0):
        raise ValueError("geometric parameters must lie in [0, 1)")
    return rng.geometric(p=1.0 - qs, size=(n_rows, n_cols)) - 1


def last_passage_sum(matrix):
    """Max entry sum over right/down paths from the top-left to the
    bottom-right corner. O(N*M)."""
    matrix = np.asarray(matrix)
    n_rows, n_cols = matrix.shape
    dp = np.zeros((n_rows, n_cols), dtype=np.int64)
    for i in range(n_rows):
        for j in range(n_cols):
            best = 0
            if i > 0:
                best = dp[i - 1, j]
            if j > 0 and dp[i, j - 1] > best:
                best = dp[i, j - 1]
            dp[i, j] = matrix[i, j] + best
    return int(dp[-1, -1])


def arrival_time(matrix):
    """Time by which the tagged particle has moved N sites: path maximum
    plus the N+M-1 deterministic steps."""
    n_rows, n_cols = np.asarray(matrix).shape
    return last_passage_sum(matrix) + n_rows + n_cols - 1


def geometric_first_row(matrix):
    """First-row length of the normal RSK shape of the entry multiset word."""
    matrix = np.asarray(matrix)
    word = []
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            word.extend([j + 1] * int(matrix[i, j]))
    rows = cb.normal_rsk(word)
    return len(rows[0]) if rows else 0


def geometric_growth_identity(matrix):
    """Per-sample identity: RSK first row equals the last-passage maximum."""
    return geometric_first_row(matrix) == last_passage_sum(matrix)


def trajectory_from_uniforms(rates, uniforms, tagged=None):
    """Distances travelled by particle `tagged` (default the last), driven
    by a given (T, m) uniform block through system._evolve: row t drives
    the step from time t to t+1, and particle i stays when
    uniforms[t, i-1] < q_i. Returns an integer array of length T+1."""
    rates = np.asarray(rates, dtype=float)
    m = rates.size
    tagged = m if tagged is None else tagged
    out = np.zeros(len(uniforms) + 1, dtype=np.int64)
    for t, pos in enumerate(system._evolve(np.asarray(uniforms) < rates), 1):
        out[t] = pos[tagged - 1] - (m - tagged)
    return out


def phi(t1, t2, x1, x2):
    """Free one-sided transition weight between two times.

    Zero for t1 >= t2; otherwise the coefficient of z^0 in
    (1 + 1/z)^(t2-t1) z^(x2-x1), i.e. C(t2-t1, x2-x1) when that lies in
    range. Exact integer.
    """
    if t1 >= t2:
        return 0
    return comb(t2 - t1, x2 - x1) if 0 <= x2 - x1 <= t2 - t1 else 0


def _contour_radii(ps):
    """Outer/inner radii around center -1/2: inside 0 and -1, outside 1/p_i."""
    finite = [float(1 / p) + 0.5 for p in ps if p != 0]
    rho = min(min(finite) if finite else 6.0, 6.0)
    outer = float(np.sqrt(0.5 * rho))
    inner = 0.5 * (0.5 + outer)
    return outer, inner


def _circle(radius, n):
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    z = -0.5 + radius * np.exp(1j * theta)
    dz = radius * 1j * np.exp(1j * theta) * (2 * np.pi / n)
    return z, dz


def psi1_quadrature(x, t, rates, n=64):
    """Psi1 by the trapezoidal rule on one circle; node count doubles until
    successive values agree to QUADRATURE_TOL."""
    kern = rates if isinstance(rates, FiniteKernel) else FiniteKernel(rates)
    horizon = t - kern.m + 1
    ps = np.array([float(p) for p in kern.ps])

    def value(nodes):
        z, dz = _circle(_contour_radii(kern.ps)[0], nodes)
        f = z ** (horizon - x - 1) * (1 + z) ** (-horizon)
        f = f / np.prod(1 - ps[:, None] * z[None, :], axis=0)
        return np.sum(f * dz) / (2j * np.pi)

    prev = value(n)
    while n <= 16384:
        n *= 2
        cur = value(n)
        if abs(cur - prev) <= QUADRATURE_TOL * max(1.0, abs(cur)):
            return cur.real
        prev = cur
    raise RuntimeError("contour quadrature did not settle")


def kernel_quadrature(t1, x1, t2, x2, rates, ordered=True, subtract_phi=True, n=128):
    """Double-contour evaluation of the kernel.

    ordered=True puts the z2 circle inside for t1 >= t2 and outside for
    t1 < t2, which builds the two-sided series in directly. ordered=False
    keeps z2 inside always and subtracts phi explicitly for t1 < t2; the two
    must agree.
    """
    kern = rates if isinstance(rates, FiniteKernel) else FiniteKernel(rates)
    h1, h2 = t1 - kern.m + 1, t2 - kern.m + 1
    ps = np.array([float(p) for p in kern.ps])
    outer, inner = _contour_radii(kern.ps)
    r1, r2 = (outer, inner) if (t1 >= t2 or not ordered) else (inner, outer)

    def value(nodes):
        z1, dz1 = _circle(r1, nodes)
        z2, dz2 = _circle(r2, nodes)
        a, b = z1[:, None], z2[None, :]
        f = (a / (a - b)) * (1 + 1 / b) ** h2 * (1 + 1 / a) ** (-h1)
        f = f * b ** (x2 - 1) * a ** (-x1 - 1)
        for p in ps:
            if p != 0:
                f = f * (1 - p * b) / (1 - p * a)
        return np.einsum("i,ij,j->", dz1, f, dz2) / (2j * np.pi) ** 2

    prev = value(n)
    while n <= 8192:
        n *= 2
        cur = value(n)
        if abs(cur - prev) <= QUADRATURE_TOL * max(1.0, abs(cur)):
            break
        prev = cur
    else:
        raise RuntimeError("contour quadrature did not settle")
    out = cur.real
    if not ordered and subtract_phi:
        out -= phi(t1, t2, x1, x2)
    return out


def kernel_K(t1, x1, t2, x2, rates, reconcile=True):
    """Kernel entry, reconciled across the exact series and the quadrature
    route when `reconcile` is set. A discrepancy above RECONCILE_TOL means an
    internal inconsistency and raises."""
    kern = rates if isinstance(rates, FiniteKernel) else FiniteKernel(rates)
    exact = kern.entry(t1, x1, t2, x2)
    if reconcile:
        quad = kernel_quadrature(t1, x1, t2, x2, kern, ordered=False)
        if abs(float(exact) - quad) > RECONCILE_TOL * max(1.0, abs(float(exact))):
            raise RuntimeError(
                f"kernel routes disagree at {(t1, x1, t2, x2)}: "
                f"{float(exact)} vs {quad}"
            )
    return float(exact)


def _perturbation_i_line(tau1, xi, etas, height=None, half_width=None,
                         nodes=4001):
    """Horizontal-line route for I_j; valid only above the real axis.

    On Im(w) = c the cubic factor decays like e^{-c x^2}, so the line is
    usable only when c > 0, i.e. when every eta_k - tau1 exceeds the
    shift.  Kept as an independent cross-check route.
    """
    c = min(e - tau1 for e in etas) - 1.0 if height is None else height
    if c <= 0:
        raise ValueError("horizontal line diverges at or below the real axis")
    if half_width is None:
        half_width = math.sqrt(50.0 / c) + 6.0
    x = np.linspace(-half_width, half_width, nodes)
    w = x + 1j * c
    vals = np.exp(1j * xi * w + 1j * w ** 3 / 3.0)
    for eta in etas:
        vals = vals / (eta - tau1 + 1j * w)
    return float(np.real(np.trapezoid(vals, x)) / (2.0 * math.pi))


def ou_joint_cdf_quadrature(s1, s2, tau1, tau2, order=160, floor=-8.0):
    """P(X(tau1) <= s1, X(tau2) <= s2) for the stationary Gaussian process,
    by direct two-dimensional quadrature of density times transition."""
    if tau1 == tau2:
        return gaussian_r4_cdf(min(s1, s2))
    if tau1 > tau2:
        s1, s2, tau1, tau2 = s2, s1, tau2, tau1
    t, w = np.polynomial.legendre.leggauss(order)

    def nodes(lo, hi):
        return (lo + hi) / 2.0 + (hi - lo) / 2.0 * t, (hi - lo) / 2.0 * w

    x1, w1 = nodes(floor, s1)
    x2, w2 = nodes(floor, s2)
    dens = np.exp(-x1 ** 2) / math.sqrt(math.pi)
    trans = gaussian_transition(x1[:, None], x2[None, :], tau2 - tau1)
    return float(w1 @ (dens[:, None] * trans) @ w2)


def hermite_h(n, x):
    """Physicists' Hermite polynomial H_n(x) by the plain recurrence."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    h_prev, h = 1.0, 2.0 * x
    if n == 0:
        return 1.0 if np.ndim(x) == 0 else np.ones_like(np.asarray(x, float))
    for k in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h


def parabolic_d(n, x):
    """Parabolic cylinder D_n(x) for integer n >= -1."""
    if n < -1:
        raise ValueError("order below -1 not supported")
    if n == -1:
        return math.sqrt(math.pi / 2.0) * math.exp(x * x / 4.0) \
            * math.erfc(x / math.sqrt(2.0))
    h = psi2_sequence(n, x)[n]
    return math.exp(-x * x / 4.0) * math.factorial(n) * h


def parabolic_d_zero(n):
    """D_n(0) = 2^((n+1)/2) sin(pi(n+1)/2) Gamma((n+1)/2) / sqrt(2 pi)."""
    return (2.0 ** ((n + 1) / 2.0) * math.sin(math.pi * (n + 1) / 2.0)
            * math.gamma((n + 1) / 2.0) / _SQRT_2PI)
