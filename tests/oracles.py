"""Independent evaluation routes that exist only to cross-check the package.

- Combinatorics: the quadratic longest-subsequence DP for the left-down
  maximum, Schur polynomials by the Jacobi-Trudi determinant and by SSYT
  enumeration (each the reference for the other), the shape of a tableau
  and the conjugate of a diagram, horizontal strips and the Schur weight
  of a growth sequence, the growth-sequence law by
  enumeration over all 01 matrices, and the geometric-entry variant of the
  last-passage identity.
- Dynamics: the tagged distance driven by a given uniform block, through the
  package's one update rule; and a sample's stay bits read one cell at a
  time from its Philox streams, by the byte-and-tie rule in Python
  integers.
- Finite kernel: the free transition weight phi, Psi1 and Psi2 by their
  residue formulas in Fraction arithmetic (the reference for the package's
  integer numerators), the kernel entry as the direct Psi1*Psi2 series of
  those Fractions summed term by term (the reference for the package's
  running sums along diagonals), and direct double-contour
  quadrature of the kernel on circles centered at -1/2. That center keeps
  the admissible radius window open for every stay rate in [0, 1),
  including rates >= 1/2 where circles centered at the origin would have to
  cross the poles at (1-q_i)/q_i.
- Critical kernel: the horizontal-line route for the perturbation
  integrals I_j, and the Laplace complement of Ai by real-line quadrature,
  the independent route for the border integral I_1 at one zero strength.
- Onset kernel: one entry of the discrete Hermite kernel as the scalar sum
  over the lattice shift, with a psi1 call per term and the Poisson
  propagator dt^k/k! in closed form (the reference for the package's
  block, which shares psi1 values and builds the propagator by recurrence).
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
from steptasep.finite_kernel import FiniteKernel, max_level
from steptasep.fredholm import gaussian_r4_cdf
from steptasep.limit_kernels.kernels import (
    _ORDER,
    _half_line_rule,
    _panel_nodes,
    _paneled_rule,
    gaussian_transition,
)
from steptasep.limit_kernels.special import airy_ai, psi1, psi2_sequence

_SQRT_2PI = math.sqrt(2.0 * math.pi)

QUADRATURE_TOL = 1e-12
RECONCILE_TOL = 1e-9


def longest_nonincreasing_subsequence(word):
    """Quadratic DP; independent oracle for longest_left_down_path."""
    best = []
    for i, x in enumerate(word):
        best.append(1 + max((best[j] for j in range(i) if word[j] >= x), default=0))
    return max(best, default=0)


def tableau_shape(rows):
    return tuple(len(r) for r in rows)


def conjugate(shape):
    """Transpose of a Young diagram given as weakly decreasing parts."""
    shape = tuple(p for p in shape if p > 0)
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > c) for c in range(shape[0]))


def growth_shapes(bits):
    """Diagram sequence: shape of the dual RSK of the first i rows, i=1..N."""
    p_rows: list[list[int]] = []
    shapes = []
    for row in bits:
        for c, v in enumerate(row):
            if v:
                cb._insert(p_rows, c + 1, bisect_left)
        shapes.append(tableau_shape(p_rows))
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


def is_horizontal_strip(lam, mu):
    """True when mu is contained in lam and lam/mu has no two cells in the
    same column (interlacing lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...)."""
    lam = tuple(p for p in lam if p > 0)
    mu = tuple(p for p in mu if p > 0)
    if len(mu) > len(lam):
        return False
    for i, part in enumerate(lam):
        m = mu[i] if i < len(mu) else 0
        if m > part:
            return False
        if i + 1 < len(lam) and lam[i + 1] > m:
            return False
    return True


def schur_polynomial(shape, xs):
    """Exact Schur polynomial s_shape(xs) as the Jacobi-Trudi determinant
    det(h_{shape_i - i + j}); zero when the shape needs more rows than there
    are variables."""
    shape = tuple(p for p in shape if p > 0)
    xs = [cb.as_fraction(x) for x in xs]
    if len(shape) > len(xs):
        return Fraction(0)
    if not shape:
        return Fraction(1)
    n = len(shape)
    table = cb.complete_homogeneous(cb.elementary_symmetric(xs), shape[0] + n)

    def h(d):
        return Fraction(table[d]) if d >= 0 else Fraction(0)

    return cb.fraction_determinant(
        [[h(shape[i] - i + j) for j in range(n)] for i in range(n)])


def schur_weight(seq, rates):
    """Exact probability of a growth sequence of Young diagrams.

    The weight is prod_i (1-q_i)^N times the Schur polynomial of the final
    conjugate shape in the variables p_i = q_i/(1-q_i), provided every
    consecutive difference (starting from the empty diagram) is a horizontal
    strip; otherwise the sequence is unreachable and the weight is 0.
    """
    qs = [cb.as_fraction(q) for q in rates]
    n_steps = len(seq)
    prev = ()
    for lam in seq:
        if not is_horizontal_strip(lam, prev):
            return Fraction(0)
        prev = lam
    ps = [q / (1 - q) for q in reversed(qs)]
    weight = schur_polynomial(conjugate(seq[-1]), ps)
    for q in qs:
        weight *= (1 - q) ** n_steps
    return weight


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


def stay_bits_scalar(rates, horizon, master_seed, k):
    """Stay bits of sample k for the steps 0..horizon-1, one cell at a time.

    Cell n = t*M + j is byte n mod 8 (little-endian) of word n // 8 of the
    Philox stream keyed (master_seed, k). With c = ceil(q_j * 2**53) in
    exact rational arithmetic, the particle stays iff
    byte * 2**45 + V < c, where V is the top 45 bits of the next word of
    the stream with the same key at counter (0, 0, 0, 1) when
    byte == c >> 45; otherwise every V gives the same answer and no tie
    word is read. Returns a (horizon, M) list of 0/1 rows.
    """
    key = np.array([master_seed, k], dtype=np.uint64)
    m = len(rates)
    words = np.random.Philox(key=key).random_raw(-(-horizon * m // 8))
    words = [int(w) for w in words]
    tie_stream = np.random.Philox(key=key, counter=[0, 0, 0, 1])
    tops = [math.ceil(Fraction(q) * 2 ** 53) for q in rates]
    bits = []
    for t in range(horizon):
        row = []
        for j, top in enumerate(tops):
            n = t * m + j
            byte = (words[n // 8] >> (8 * (n % 8))) & 0xFF
            tail = 0
            if byte == top >> 45:
                tail = int(tie_stream.random_raw()) >> 19
            row.append(int(byte * 2 ** 45 + tail < top))
        bits.append(row)
    return bits


def integer_binomial(a, k):
    """C(a, k) for any integer a and k >= 0, exactly."""
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k)
    return (-1) ** k * comb(-a + k - 1, k)


def phi(t1, t2, x1, x2):
    """Free one-sided transition weight between two times.

    Zero for t1 >= t2; otherwise the coefficient of z^0 in
    (1 + 1/z)^(t2-t1) z^(x2-x1), i.e. C(t2-t1, x2-x1) when that lies in
    range. Exact integer.
    """
    if t1 >= t2:
        return 0
    return comb(t2 - t1, x2 - x1) if 0 <= x2 - x1 <= t2 - t1 else 0


class ResiduePsi:
    """Psi1 and Psi2 by their residue formulas in Fraction arithmetic, the
    independent route for FiniteKernel's integer numerators; memoized.

    Psi2(x, t) is the coefficient of w^(-x) in (1 + 1/w)^T prod_i(1 - p_i w)
    and Psi1(x, t) the sum of the residues at z=0 and z=-1 of
    z^(T-1-x) (1+z)^(-T) prod_i 1/(1 - p_i z), with T = t-M+1.
    """

    def __init__(self, rates):
        self.qs = tuple(cb.as_fraction(q) for q in rates)
        self.m = len(self.qs)
        ps = [q / (1 - q) for q in self.qs]
        self._ep = cb.elementary_symmetric(ps)
        self._eq = cb.elementary_symmetric(self.qs)
        self._prod_one_minus_q = Fraction(1)
        for q in self.qs:
            self._prod_one_minus_q *= 1 - q
        self._hp = [1]
        self._hq = [1]
        self._psi1_cache = {}
        self._psi2_cache = {}

    def psi2(self, x, t):
        key = (x, t)
        if key not in self._psi2_cache:
            horizon = max_level(t, self.m)
            total = Fraction(0)
            for b, eb in enumerate(self._ep):
                c = x + b
                if 0 <= c <= horizon:
                    total += (-1) ** b * eb * comb(horizon, c)
            self._psi2_cache[key] = total
        return self._psi2_cache[key]

    def psi1(self, x, t):
        key = (x, t)
        if key not in self._psi1_cache:
            horizon = max_level(t, self.m)
            total = Fraction(0)
            if x >= horizon:
                k = x - horizon
                h = cb.complete_homogeneous(self._ep, k, self._hp)
                total += sum(integer_binomial(-horizon, k - j) * h[j]
                             for j in range(k + 1))
            if horizon >= 1:
                deg = horizon - 1
                a = horizon - x - 1
                h = cb.complete_homogeneous(self._eq, deg, self._hq)
                acc = sum((-1) ** j * integer_binomial(a, j) * h[deg - j]
                          for j in range(deg + 1))
                sign = -1 if a % 2 else 1
                total += sign * self._prod_one_minus_q * acc
            self._psi1_cache[key] = total
        return self._psi1_cache[key]


def kernel_series(t1, x1, t2, x2, rates):
    """Kernel entry via the finite Psi1*Psi2 series of the residue route
    (`rates` or a ResiduePsi built on them), one term at a time; exact."""
    psi = rates if isinstance(rates, ResiduePsi) else ResiduePsi(rates)
    horizon2 = max_level(t2, psi.m)
    total = Fraction(0)
    if t1 >= t2:
        for mm in range(max(0, -psi.m - x2), horizon2 - x2 + 1):
            total += psi.psi1(x1 + mm, t1) * psi.psi2(x2 + mm, t2)
    else:
        for mm in range(max(0, x2 - 1 - horizon2), x2 + psi.m):
            total -= psi.psi1(x1 - mm - 1, t1) * psi.psi2(x2 - mm - 1, t2)
    return total


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


def airy_laplace_complement(tau, xi):
    """e^{tau*xi - tau^3/3} - int_0^inf e^{-tau*lam} Ai(xi+lam) dlam.

    The border integral I_1 of the critical kernel at one zero strength, by
    real-line quadrature instead of the package's V contour.  Equals
    int_{-inf}^0 e^{-tau*lam} Ai(xi+lam) dlam for every tau.  For
    tau <= -1.5 the difference form cancels badly, so the tail integral is
    taken directly: int_0^inf e^{tau*mu} Ai(xi-mu) dmu, whose exponential
    damps the Airy oscillation.  Otherwise the half-line integral G is
    taken at the top point and swept down the sorted points in 16-point
    panels at most 1 long: G(a) = int_a^b e^{-tau(x-a)} Ai(x) dx
    + e^{-tau(b-a)} G(b).  For -1.5 < tau < 0 both terms of the difference
    reach e^{tau*xi}, so near zeros of the result the relative error grows
    to about 3e-10 (tau = -1.4, xi = -5.06).
    """
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    if tau > -1.5:
        u = np.unique(xi)
        edges = np.unique(np.concatenate([u] + [
            np.linspace(a, b, int(np.ceil(b - a)) + 1)
            for a, b in zip(u[:-1], u[1:]) if b - a > 1.0]))
        lam, w = _half_line_rule(max(0.0, -tau), edges[-1], _ORDER)
        g = [airy_ai(edges[-1] + lam) @ (w * np.exp(-tau * lam))]
        a = edges[:-1, None]
        x, wx = _panel_nodes(a, edges[1:, None], 16)
        pieces = np.sum(airy_ai(x) * np.exp(-tau * (x - a)) * wx, axis=1)
        for piece, gap in zip(pieces[::-1], np.diff(edges)[::-1]):
            g.append(piece + math.exp(-tau * gap) * g[-1])
        g = np.array(g[::-1])
        out = np.exp(tau * xi - tau ** 3 / 3.0) - g[np.searchsorted(edges, xi)]
    else:
        # short panels resolve the Airy oscillation under the e^{tau*mu} damp
        mu, w = _paneled_rule(45.0 / (-tau), _ORDER)
        vals = airy_ai(xi[:, None] - mu[None, :])
        out = (vals * (w * np.exp(tau * mu))) @ np.ones_like(mu)
    return float(out[0]) if scalar else out


def phi_poisson(x1, x2, dt):
    """Whole-line collapse of the lattice weight pairing: dt^k/k!."""
    k = x2 - x1
    if k < 0:
        return 0.0
    return float(dt) ** k / math.factorial(k)


def kernel_region1(tau1, x1, tau2, x2):
    """Discrete Hermite kernel entry at integer positions, term by term.

    Equal and backward time orderings are the finite sum over the shared
    lattice shift; the forward ordering subtracts the Poisson propagator
    that re-sums the conditionally convergent tail.
    """
    total = 0.0
    if x2 >= 0:
        h = psi2_sequence(x2, tau2)
        for m in range(0, x2 + 1):
            total += psi1(x1 - m, tau1) * h[x2 - m]
    if tau1 < tau2:
        total -= phi_poisson(x1, x2, tau2 - tau1)
    return total


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
