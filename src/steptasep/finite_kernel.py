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
    Psi1(x, t) is an integer over D^max(x - T, 0) B^(M + max(T - 1, 0)),
and a running sum along a diagonal is an integer over one common
denominator once each term is scaled to the diagonal's largest power of D.
The only Fraction built per kernel entry is the finished value, and on
the float route not even that: the integer division total / den is
correctly rounded, as float(Fraction(total, den)) is.

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
from math import comb, lcm, prod

from .combinatorics import (
    as_fraction,
    complete_homogeneous,
    elementary_symmetric,
)
from .fredholm import checked_probability, det_discrete
from .system import _checked_int


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


def _powers(powers, n):
    """Extend powers = [1, b, b^2, ...] in place through b^n."""
    while len(powers) <= n:
        powers.append(powers[-1] * powers[1])
    return powers


class FiniteKernel:
    """Exact evaluator for one vector of stay rates q_1..q_M.

    Caches the integer Psi numerators, which depend only on (x, t).
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
        self._eq = elementary_symmetric(big_q)
        self._ep = elementary_symmetric([int(p * self._d) for p in self.ps])
        # B^M prod_i(1 - q_i)
        self._prod_one_minus_q = prod(self._b - q for q in big_q)
        self._bpow, self._dpow = [1, self._b], [1, self._d]
        self._psi1_cache = {}
        self._psi2_cache = {}
        self._hp = [1]
        self._hq = [1]

    def __len__(self):
        return self.m

    def _psi1_denominator(self, x, t):
        horizon = max_level(t, self.m)
        return (self._d ** max(x - horizon, 0)
                * self._b ** (self.m + max(horizon - 1, 0)))

    def psi2_numerator(self, x, t):
        """D^M Psi2(x, t), an integer."""
        key = (x, t)
        if key not in self._psi2_cache:
            horizon = max_level(t, self.m)
            dpow = _powers(self._dpow, self.m)
            total = 0
            for b, eb in enumerate(self._ep):
                c = x + b
                if 0 <= c <= horizon:
                    total += ((-1) ** b * eb * dpow[self.m - b]
                              * comb(horizon, c))
            self._psi2_cache[key] = total
        return self._psi2_cache[key]

    def psi1_numerator(self, x, t):
        """Psi1(x, t) times its denominator D^max(x-T, 0) B^(M+max(T-1, 0)),
        an integer (T = t-M+1)."""
        key = (x, t)
        if key not in self._psi1_cache:
            horizon = max_level(t, self.m)
            k = max(x - horizon, 0)
            deg = max(horizon - 1, 0)
            dpow = _powers(self._dpow, k)
            bpow = _powers(self._bpow, self.m + deg)
            total = 0
            if x >= horizon:
                # residue at 0: sum_j C(-T, k-j) h_j(p), over D^k
                h = complete_homogeneous(self._ep, k, self._hp)
                total += bpow[self.m + deg] * sum(
                    integer_binomial(-horizon, k - j) * h[j] * dpow[k - j]
                    for j in range(k + 1))
            if horizon >= 1:
                # residue at -1: prod(1-q) times a sum over h_j(q), over
                # B^(M+deg)
                a = horizon - x - 1
                h = complete_homogeneous(self._eq, deg, self._hq)
                acc = sum(
                    (-1) ** j * integer_binomial(a, j) * h[deg - j] * bpow[j]
                    for j in range(deg + 1)
                )
                sign = -1 if a % 2 else 1
                total += sign * self._prod_one_minus_q * acc * dpow[k]
            self._psi1_cache[key] = total
        return self._psi1_cache[key]

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
        psi1, psi2 = self.psi1_numerator, self.psi2_numerator
        out = [[None] * len(xs2) for _ in xs1]
        diagonals = {}
        for i, x1 in enumerate(xs1):
            for j, x2 in enumerate(xs2):
                diagonals.setdefault(x1 - x2, []).append((x2, i, j))
        for d, cells in diagonals.items():
            # walk the diagonal in the direction its running sum grows
            cells.sort(reverse=forward)
            # Psi1 Psi2 terms are integers over D^M times the Psi1
            # denominator, whose power of D grows with w; each is scaled to
            # the largest one the walk reaches, at w = top
            top = horizon2 if forward else min(cells[-1][0] - 1, horizon2)
            kmax = max(top + d - horizon1, 0)
            dpow = _powers(self._dpow, kmax)
            den = self._d ** m * self._psi1_denominator(top + d, t1)
            total = 0
            w = horizon2 if forward else -m
            for x2, i, j in cells:
                if forward:
                    while w >= max(x2, -m):
                        total += (psi1(w + d, t1) * psi2(w, t2)
                                  * dpow[kmax - max(w + d - horizon1, 0)])
                        w -= 1
                else:
                    while w <= min(x2 - 1, horizon2):
                        total -= (psi1(w + d, t1) * psi2(w, t2)
                                  * dpow[kmax - max(w + d - horizon1, 0)])
                        w += 1
                out[i][j] = Fraction(total, den) if exact else total / den
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
