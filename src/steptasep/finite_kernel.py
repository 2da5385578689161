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

The independent routes, the kernel series summed term by term and direct
double-contour quadrature of the kernel, live with the tests
(tests/oracles.py), which compare them with this module pointwise.

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
from math import comb

from .combinatorics import (
    as_fraction,
    complete_homogeneous,
    elementary_symmetric,
)
from .fredholm import _integer, det_discrete


def integer_binomial(a, k):
    """C(a, k) for any integer a and k >= 0, exactly."""
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k)
    return (-1) ** k * comb(-a + k - 1, k)


def max_level(t, m):
    """t - m + 1, the most steps the tagged particle can have taken by time
    t; times below m - 1 carry no particle data and raise ValueError."""
    if t < m - 1:
        raise ValueError(f"time {t} below {m - 1}; no particle data")
    return t - m + 1


class FiniteKernel:
    """Exact evaluator for one vector of stay rates q_1..q_M.

    Caches the Psi values, which depend only on (x, t).
    """

    def __init__(self, rates):
        self.qs = tuple(as_fraction(q) for q in rates)
        if not self.qs:
            raise ValueError("no particles: the rate vector is empty")
        if any(not (0 <= q < 1) for q in self.qs):
            raise ValueError("stay rates must lie in [0, 1)")
        self.m = len(self.qs)
        self.ps = tuple(q / (1 - q) for q in self.qs)
        self._ep = elementary_symmetric(self.ps)
        self._eq = elementary_symmetric(self.qs)
        self._prod_one_minus_q = Fraction(1)
        for q in self.qs:
            self._prod_one_minus_q *= 1 - q
        self._psi1_cache = {}
        self._psi2_cache = {}
        self._hp = [1]
        self._hq = [1]

    def psi2(self, x, t):
        """Coefficient of w^(-x) in (1 + 1/w)^(t-M+1) prod_i(1 - p_i w)."""
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
        """Sum of the residues at z=0 and z=-1 of
        z^(t-M-x) (1+z)^(-(t-M+1)) prod_i 1/(1 - p_i z)."""
        key = (x, t)
        if key not in self._psi1_cache:
            horizon = max_level(t, self.m)
            total = Fraction(0)
            if x >= horizon:
                k = x - horizon
                h = complete_homogeneous(self._ep, k, self._hp)
                total += sum(
                    integer_binomial(-horizon, k - j) * h[j] for j in range(k + 1)
                )
            if horizon >= 1:
                deg = horizon - 1
                a = horizon - x - 1
                h = complete_homogeneous(self._eq, deg, self._hq)
                acc = sum(
                    (-1) ** j * integer_binomial(a, j) * h[deg - j]
                    for j in range(deg + 1)
                )
                sign = -1 if a % 2 else 1
                total += sign * self._prod_one_minus_q * acc
            self._psi1_cache[key] = total
        return self._psi1_cache[key]

    def block(self, t1, xs1, t2, xs2):
        """Kernel entries K(t1, x1; t2, x2) for x1 in xs1 (rows) and x2 in
        xs2 (columns), by one running sum per diagonal; exact."""
        horizon2 = max_level(t2, self.m)
        forward = t1 >= t2
        out = [[None] * len(xs2) for _ in xs1]
        diagonals = {}
        for i, x1 in enumerate(xs1):
            for j, x2 in enumerate(xs2):
                diagonals.setdefault(x1 - x2, []).append((x2, i, j))
        for d, cells in diagonals.items():
            # walk the diagonal in the direction its running sum grows
            cells.sort(reverse=forward)
            total = Fraction(0)
            w = horizon2 if forward else -self.m
            for x2, i, j in cells:
                if forward:
                    while w >= max(x2, -self.m):
                        total += self.psi1(w + d, t1) * self.psi2(w, t2)
                        w -= 1
                else:
                    while w <= min(x2 - 1, horizon2):
                        total -= self.psi1(w + d, t1) * self.psi2(w, t2)
                        w += 1
                out[i][j] = total
        return out

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
        t, level = _integer(t, "time"), _integer(level, "level")
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
    there must be at least one particle. With exact=True and rational rates
    the value is a Fraction with no rounding at all. The float route is
    accurate to about 1e-12 absolute and is clipped into [0, 1]; deep tails
    need exact=True.
    """
    kern = FiniteKernel(rates)
    blocks, impossible = _windows(times, levels, kern)
    if impossible:
        return Fraction(0) if exact else 0.0
    p = det_discrete(kern.block, blocks, exact)
    return p if exact else min(max(p, 0.0), 1.0)
