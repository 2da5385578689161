"""Exact finite-size kernel and the multi-time distribution it determines.

The joint law of the tagged position at several times is a Fredholm
determinant det(1 + K g), where g = -1 on a half-infinite window per time and
the kernel K is built from two single-contour functions Psi1, Psi2. Both are
evaluated in closed form here: Psi2 is a single coefficient of a finite
Laurent polynomial, Psi1 is the pair of residues (at 0 and at -1) of its
integrand, so every kernel entry is an exact rational number when the stay
rates are rational. The residues need the series prod_i 1/(1 - c_i s) for
c = p and c = q; its coefficients are the complete homogeneous polynomials,
extended one degree at a time from the elementary symmetric ones.

All of this runs on plain integers over fixed denominators. With B and D
the least common multiples of the denominators of the q_i and of the
p_i = q_i/(1 - q_i), q_i = Q_i/B and p_i = P_i/D for integers Q_i, P_i, so
e_k(p) = E_k/D^k and h_k(p) = H_k/D^k with integer E_k, H_k (the same
recurrences on the P_i), and likewise for q over B. Hence, with
T = t - M + 1,
    Psi2(x, t) is an integer over D^M,
    Psi1(x, t) is an integer over D^max(x - T, 0) B^(M + max(T - 1, 0)).

The kernel holds these numerators as rows, one Psi1 row and one Psi2 row
per time t, each built once and then only grown. No binomial coefficient
is evaluated per value:
- Psi2's row is the coefficient list of D^M (1 + 1/w)^T prod_i(1 - p_i w),
  the binomial row of T times one linear factor D - P_i w at a time.
- The residue at -1 puts (-1)^a B^M prod_i(1 - q_i) acc(a) D^max(x - T, 0)
  into Psi1's numerator, with a = T - x - 1 and acc(a) = sum_j c_j C(a, j)
  a polynomial of degree deg = T - 1. Its Newton coefficients at a = 0
  (x = T - 1) are exactly c_j = (-1)^j H_(deg-j)(Q) B^j, the forward
  differences there. From that anchor the row walks to lower x by
  forward steps of the difference table and to higher x by backward
  steps, deg integer additions per step.
- For x >= T the residue at 0 adds B^(M+deg) sum_j C(-T, k-j) H_j D^(k-j),
  k = x - T, a Cauchy product that gains one term per k; its factors
  C(-T, i) D^i follow each other by one multiply and one exact division.

A kernel block scales the stretch of the Psi1 row it reaches to the one
largest power of D it needs, once. Every product Psi1(w + d) Psi2(w) along
a diagonal is then an integer over the same denominator, the running sums
are plain integer prefix sums, and that one power of D times B^(M + deg)
D^M is the block's denominator. The only Fraction built per kernel entry
is the finished value, and on the float route not even that: the integer
division total / den is correctly rounded, so the float, like the
normalised Fraction, depends only on the rational value and not on the
denominator it was written over.

The independent routes, Psi1 and Psi2 by their residue formulas in Fraction
arithmetic, the kernel series summed term by term and direct double-contour
quadrature of the kernel, live with the tests (tests/oracles.py), which
compare them with this module pointwise.

The kernel is the finite series K(t1, x1; t2, x2) = sum_w Psi1(w + d, t1)
Psi2(w, t2) along the diagonal d = x1 - x2, with Psi2 supported on
-M <= w <= t2 - M + 1. For t1 >= t2 the sum runs over w >= x2, so shifting
both positions by one drops one term:
    K(x1, x2) = Psi1(x1) Psi2(x2) + K(x1 + 1, x2 + 1),
and the sum is empty (K = 0) for x2 > t2 - M + 1. For t1 < t2 it is minus
the prefix over w from -M to min(x2 - 1, t2 - M + 1), empty for x2 <= -M.
A kernel block is therefore one running sum per diagonal, each Psi1*Psi2
product formed once.

Windows: the event L(t, M) >= l corresponds to "no points in (theta, infty)"
with theta = t - M + 1 - l. Kernel columns vanish identically at positions
beyond the Laurent support x = t - M + 1 (for t1 < t2 on rows inside their
own support, which is where windows live), so the determinant truncates to
the finite window (theta, t - M + 1] with no error. joint_probability hands
these windows and FiniteKernel.block to fredholm.det_discrete, the one place
I - K is assembled: in Fractions with exact=True, in floats otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import lcm, prod
from operator import add, mul, sub

import numpy as np

from .combinatorics import (
    as_fraction,
    complete_homogeneous,
    elementary_symmetric,
)
from .fredholm import checked_probability, det_discrete
from .system import _checked_int


def max_level(t, m):
    """t - m + 1, the most steps the tagged particle can have taken by time
    t; times below m - 1 carry no particle data and raise ValueError."""
    if t < m - 1:
        raise ValueError(f"time {t} below {m - 1}; no particle data")
    return t - m + 1


def _powers(powers, n):
    """Extend powers = [1, b, b^2, ...] in place through b^n."""
    while len(powers) <= n:
        powers.append(powers[-1] * powers[1])
    return powers


class _Psi1Row:
    """The Psi1 numerators of one time t over a contiguous range of x,
    grown at either end on demand: below[a] at x = T - 1 - a and above[k]
    at x = T + k (T = t - M + 1)."""

    def __init__(self, kern, t):
        # what growing above T reads of the kernel; no reference back to it
        self._d, self._dpow = kern._d, kern._dpow
        self._ep, self._hp = kern._ep, kern._hp
        self.horizon = horizon = max_level(t, kern.m)
        deg = max(horizon - 1, 0)
        # B^(M+deg), the residue at 0's factor over the common denominator
        self.scale = _powers(kern._bpow, kern.m + deg)[kern.m + deg]
        self.below, self.above = [], []
        if horizon >= 1:
            h = complete_homogeneous(kern._eq, deg, kern._hq)
            bpow = _powers(kern._bpow, deg)
            # B^M prod(1 - q) (-1)^j c_j, for j = deg down to 0
            signed = [kern._prod_one_minus_q * h[deg - j] * bpow[j]
                      for j in range(deg, -1, -1)]
        else:
            signed = [0]  # no residue at -1
        # the difference table of acc at a = len(below), c_0..c_deg at 0;
        # a forward step adds each difference's successor to it
        self._low = [(-1) ** j * v for j, v in enumerate(reversed(signed))]
        # the table at a = -len(above), as (-1)^j times the j-th difference
        # from j = deg down: a backward step is then its running sum
        self._high = signed
        self._cauchy = []  # C(-T, i) D^i for i = 0..len(above) - 1

    def _grow_below(self, n):
        low, below = self._low, self.below
        for a in range(len(below), n):
            below.append(-low[0] if a % 2 else low[0])
            low[:-1] = map(add, low, low[1:])

    def _grow_above(self, n):
        above, g = self.above, self._cauchy
        dpow = _powers(self._dpow, n)
        for k in range(len(above), n):
            g.append(g[-1] * self._d * (1 - k - self.horizon) // k
                     if k else 1)
            h = complete_homogeneous(self._ep, k, self._hp)
            self._high = list(accumulate(self._high))
            residue = self._high[-1] * dpow[k]  # at a = -k-1
            above.append(self.scale * sum(map(mul, g, h[k::-1]))
                         + (residue if k % 2 else -residue))

    def span(self, lo, hi):
        """[N1(x, t) for x in lo..hi], growing the row where it falls
        short."""
        top = self.horizon
        n_below, n_above = max(top - lo, 0), max(hi - top + 1, 0)
        self._grow_below(n_below)
        self._grow_above(n_above)
        return (self.below[max(top - 1 - hi, 0):n_below][::-1]
                + self.above[max(lo - top, 0):n_above])


class FiniteKernel:
    """Exact evaluator for one vector of stay rates q_1..q_M.

    Caches one Psi1 row and one Psi2 row of integer numerators per time t.
    len() is the particle count M.
    """

    def __init__(self, rates):
        self.qs = tuple(as_fraction(q) for q in rates)
        if not self.qs:
            raise ValueError("no particles: the rate vector is empty")
        if any(not (0 <= q < 1) for q in self.qs):
            raise ValueError("stay rates must lie in [0, 1)")
        self.m = len(self.qs)
        self.ps = tuple(q / (1 - q) for q in self.qs)
        # q_i = Q_i/B and p_i = P_i/D with integers Q_i, P_i
        self._b = lcm(*(q.denominator for q in self.qs))
        self._d = lcm(*(p.denominator for p in self.ps))
        big_q = [int(q * self._b) for q in self.qs]
        self._big_p = [int(p * self._d) for p in self.ps]
        self._eq = elementary_symmetric(big_q)
        self._ep = elementary_symmetric(self._big_p)
        # B^M prod_i(1 - q_i)
        self._prod_one_minus_q = prod(self._b - q for q in big_q)
        self._bpow, self._dpow = [1, self._b], [1, self._d]
        self._rows1 = {}
        self._rows2 = {}
        self._hp = [1]
        self._hq = [1]

    def __len__(self):
        return self.m

    def _psi1_denominator(self, x, t):
        horizon = max_level(t, self.m)
        return (self._d ** max(x - horizon, 0)
                * self._b ** (self.m + max(horizon - 1, 0)))

    def _psi1_row(self, t):
        row = self._rows1.get(t)
        if row is None:
            row = self._rows1[t] = _Psi1Row(self, t)
        return row

    def _psi2_row(self, t):
        """D^M Psi2(x, t) for x = -M..T at index x + M: the coefficients of
        w^(-x) in D^M (1 + 1/w)^T prod_i(1 - p_i w)."""
        row = self._rows2.get(t)
        if row is None:
            horizon = max_level(t, self.m)
            row = [0] * self.m + [1]
            for c in range(horizon):
                row.append(row[-1] * (horizon - c) // (c + 1))
            for big_p in self._big_p:
                row[:-1] = [self._d * a - big_p * b
                            for a, b in zip(row, row[1:])]
                row[-1] *= self._d
            self._rows2[t] = row
        return row

    def psi2_numerator(self, x, t):
        """D^M Psi2(x, t), an integer."""
        row = self._psi2_row(t)
        return row[x + self.m] if 0 <= x + self.m < len(row) else 0

    def psi1_numerator(self, x, t):
        """Psi1(x, t) times its denominator D^max(x-T, 0) B^(M+max(T-1, 0)),
        an integer (T = t-M+1)."""
        return self._psi1_row(t).span(x, x)[0]

    def psi1(self, x, t):
        """Sum of the residues at z=0 and z=-1 of
        z^(t-M-x) (1+z)^(-(t-M+1)) prod_i 1/(1 - p_i z)."""
        return Fraction(self.psi1_numerator(x, t),
                        self._psi1_denominator(x, t))

    def psi2(self, x, t):
        """Coefficient of w^(-x) in (1 + 1/w)^(t-M+1) prod_i(1 - p_i w)."""
        return Fraction(self.psi2_numerator(x, t), self._d ** self.m)

    def block(self, t1, xs1, t2, xs2, exact=True):
        """Kernel entries K(t1, x1; t2, x2) for x1 in xs1 (rows) and x2 in
        xs2 (columns), by one integer running sum per diagonal. Each entry
        is a Fraction, or with exact=False the float of that Fraction,
        from one correctly rounded integer division."""
        m = self.m
        horizon1, horizon2 = max_level(t1, m), max_level(t2, m)
        forward = t1 >= t2
        xs1, xs2 = list(xs1), list(xs2)
        if not (xs1 and xs2):
            return [[] for _ in xs1]
        a1, b1, a2, b2 = min(xs1), max(xs1), min(xs2), max(xs2)
        # diagonal d = x1 - x2 meets the columns x2 in max(a2, a1 - d)..
        # min(b2, b1 - d); its sum runs over w down from T2 to max(x2, -M),
        # or up from -M to min(x2 - 1, T2)
        diagonals = []
        for d in range(a1 - b2, b1 - a2 + 1):
            lo2, hi2 = max(a2, a1 - d), min(b2, b1 - d)
            lo, hi = ((max(lo2, -m), horizon2) if forward
                      else (-m, min(hi2 - 1, horizon2)))
            # an empty walk ends at lo - 1, so its slices below are empty
            diagonals.append((d, lo2, hi2, lo, max(hi, lo - 1)))
        # Psi1 over D^kmax B^(M+deg1) throughout, kmax the largest power of
        # D the block reaches; with no walk at all, an empty span
        xlo = min((lo + d for d, _, _, lo, hi in diagonals if lo <= hi),
                  default=horizon1)
        xhi = max((hi + d for d, _, _, lo, hi in diagonals if lo <= hi),
                  default=horizon1 - 1)
        kmax = max(xhi - horizon1, 0)
        dpow = _powers(self._dpow, kmax)
        p1 = [v * dpow[kmax - max(x - horizon1, 0)] for x, v in
              enumerate(self._psi1_row(t1).span(xlo, xhi), xlo)]
        p2 = self._psi2_row(t2)
        den = self._d ** m * self._psi1_denominator(horizon1 + kmax, t1)
        values, starts = [], []
        for d, lo2, hi2, lo, hi in diagonals:
            terms = list(map(mul, p1[lo + d - xlo:hi + d - xlo + 1],
                             p2[lo + m:hi + m + 1]))
            # sums[k]: the first k terms in the walk's direction, with a
            # minus sign on a backward walk; columns lo2..hi2 take the sums
            # of k = first..last terms, and k past either end of the walk
            # the empty or the full sum
            if forward:
                sums = list(accumulate(reversed(terms), initial=0))
                first, last = hi + 1 - hi2, hi + 1 - lo2
            else:
                sums = list(accumulate(terms, sub, initial=0))
                first, last = lo2 + m, hi2 + m
            pad = max(-first, 0)
            sums = [0] * pad + sums + sums[-1:] * max(last - len(terms), 0)
            run = sums[first + pad:last + pad + 1]
            if forward:
                run.reverse()
            starts.append(len(values) - lo2)
            values += ([Fraction(v, den) for v in run] if exact
                       else [v / den for v in run])
        # entry (x1, x2) sits at starts[x1 - x2 - dmin] + x2 in values
        index = np.asarray(starts)[np.subtract.outer(xs1, xs2) - (a1 - b2)]
        index += np.asarray(xs2)
        return np.asarray(values, dtype=object if exact else float)[
            index].tolist()

    def entry(self, t1, x1, t2, x2):
        """One kernel entry: the 1x1 block."""
        return self.block(t1, [x1], t2, [x2])[0][0]


# ---------------------------------------------------------------------------
# Windowed Fredholm determinant
# ---------------------------------------------------------------------------

def _windows(times, levels, kern):
    if len(times) != len(levels):
        raise ValueError(f"{len(times)} times but {len(levels)} levels")
    merged = {}
    for t, level in zip(times, levels):
        t, level = _checked_int(t, "time"), _checked_int(level, "level")
        merged[t] = max(merged.get(t, 0), level)
    blocks = []
    # ascending, so the earliest time meets the bound check first
    for t in sorted(merged):
        horizon = max_level(t, kern.m)
        level = merged[t]
        if level <= 0:
            continue
        if level > horizon:
            return None, True
        blocks.append((t, range(horizon - level + 1, horizon + 1)))
    return blocks, False


def joint_probability(times, levels, rates, exact=False):
    """Prob(L(t_i, M) >= l_i for all i) as a windowed Fredholm determinant.

    Thresholds l <= 0 are vacuous; l > t-M+1 is impossible (the tagged
    particle first moves at the step to time M and at most once per step,
    so L(t) <= t-M+1) and short-circuits to 0. Times from M-1 on are
    accepted; times and levels must be integers, one level per time, and
    there must be at least one particle. `rates` may also be a FiniteKernel,
    whose Psi caches then carry over between calls. With exact=True and
    rational rates the value is a Fraction with no rounding at all. The
    float route is accurate to about 1e-12 absolute and is range-checked
    by fredholm.checked_probability; deep tails need exact=True.
    """
    kern = rates if isinstance(rates, FiniteKernel) else FiniteKernel(rates)
    blocks, impossible = _windows(times, levels, kern)
    if impossible:
        return Fraction(0) if exact else 0.0
    p = det_discrete(partial(kern.block, exact=exact), blocks, exact)
    return p if exact else checked_probability(p)
