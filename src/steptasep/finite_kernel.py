"""Exact finite-size kernel and the multi-time distribution it determines.

The joint law of the tagged position at several times is a Fredholm
determinant det(1 + K g), where g = -1 on a half-infinite window per time and
the kernel K is built from two single-contour functions Psi1, Psi2. Both are
evaluated in closed form here: Psi2 is a single coefficient of a finite
Laurent polynomial, Psi1 is the pair of residues (at 0 and at -1) of its
integrand, so every kernel entry is an exact rational number when the stay
rates are rational.

Two independent evaluation routes exist for cross-checking: the Psi1*Psi2
series (primary, exact) and direct double-contour quadrature on circles
centered at -1/2. That center keeps the admissible radius window open for
every stay rate in [0, 1), including rates >= 1/2 where circles centered at
the origin would have to cross the poles at (1-q_i)/q_i.

Windows: the event L(t, M) >= l corresponds to "no points in (theta, infty)"
with theta = t - M + 1 - l. Kernel columns vanish identically at positions
beyond the Laurent support x = t - M + 1, so the determinant truncates to the
finite window (theta, t - M + 1] with no error; the `pad` argument extends
windows past that bound purely to let tests confirm the invariance.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .combinatorics import as_fraction, fraction_determinant
from .fredholm import det_discrete

QUADRATURE_TOL = 1e-12
RECONCILE_TOL = 1e-9


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


def _series_inverse_product(cs, kmax):
    """Coefficients of prod_i 1/(1 - c_i s) up to s^kmax, exact."""
    coeffs = [Fraction(0)] * (kmax + 1)
    coeffs[0] = Fraction(1)
    for c in cs:
        if c == 0:
            continue
        for k in range(1, kmax + 1):
            coeffs[k] += c * coeffs[k - 1]
    return coeffs


def _elementary_symmetric(cs):
    e = [Fraction(1)]
    for c in cs:
        e.append(Fraction(0))
        for k in range(len(e) - 1, 0, -1):
            e[k] += c * e[k - 1]
    return e


class FiniteKernel:
    """Exact evaluator for one vector of stay rates q_1..q_M.

    Caches the Psi values, which depend only on (x, t).
    """

    def __init__(self, rates):
        self.qs = tuple(as_fraction(q) for q in rates)
        if any(not (0 <= q < 1) for q in self.qs):
            raise ValueError("stay rates must lie in [0, 1)")
        self.m = len(self.qs)
        self.ps = tuple(q / (1 - q) for q in self.qs)
        self._e = _elementary_symmetric(self.ps)
        self._prod_one_minus_q = Fraction(1)
        for q in self.qs:
            self._prod_one_minus_q *= 1 - q
        self._psi1_cache = {}
        self._psi2_cache = {}
        self._inv_p_cache = [Fraction(1)]
        self._inv_q_cache = [Fraction(1)]

    def _bound(self, t):
        if t < self.m - 1:
            raise ValueError(f"time {t} below {self.m - 1}; no particle data")
        return t - self.m + 1

    def _inv_series(self, cache, cs, k):
        while len(cache) <= k:
            fresh = _series_inverse_product(cs, k)
            cache.clear()
            cache.extend(fresh)
        return cache

    def psi2(self, x, t):
        """Coefficient of w^(-x) in (1 + 1/w)^(t-M+1) prod_i(1 - p_i w)."""
        key = (x, t)
        if key not in self._psi2_cache:
            horizon = self._bound(t)
            total = Fraction(0)
            for b, eb in enumerate(self._e):
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
            horizon = self._bound(t)
            total = Fraction(0)
            if x >= horizon:
                k = x - horizon
                inv = self._inv_series(self._inv_p_cache, self.ps, k)
                total += sum(
                    integer_binomial(-horizon, k - j) * inv[j] for j in range(k + 1)
                )
            if horizon >= 1:
                deg = horizon - 1
                a = horizon - x - 1
                inv = self._inv_series(self._inv_q_cache, self.qs, deg)
                acc = sum(
                    (-1) ** j * integer_binomial(a, j) * inv[deg - j]
                    for j in range(deg + 1)
                )
                sign = -1 if a % 2 else 1
                total += sign * self._prod_one_minus_q * acc
            self._psi1_cache[key] = total
        return self._psi1_cache[key]

    def entry(self, t1, x1, t2, x2):
        """Kernel entry via the finite Psi1*Psi2 series; exact."""
        horizon2 = self._bound(t2)
        total = Fraction(0)
        if t1 >= t2:
            for mm in range(max(0, -self.m - x2), horizon2 - x2 + 1):
                total += self.psi1(x1 + mm, t1) * self.psi2(x2 + mm, t2)
        else:
            for mm in range(max(0, x2 - 1 - horizon2), x2 + self.m):
                total -= self.psi1(x1 - mm - 1, t1) * self.psi2(x2 - mm - 1, t2)
        return total


# ---------------------------------------------------------------------------
# Independent route: contour quadrature on circles centered at -1/2
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Windowed Fredholm determinant
# ---------------------------------------------------------------------------

def _windows(times, levels, m, pad):
    merged = {}
    for t, level in zip(times, levels):
        if t < m - 1:
            raise ValueError(f"time {t} is below {m - 1}; no particle data")
        merged[int(t)] = max(merged.get(int(t), 0), int(level))
    blocks = []
    for t in sorted(merged):
        level = merged[t]
        horizon = t - m + 1
        if level <= 0:
            continue
        if level > horizon:
            return None, True
        theta = horizon - level
        blocks.append((t, list(range(theta + 1, horizon + 1 + pad))))
    return blocks, False


def joint_probability(times, levels, rates, exact=False, pad=0):
    """Prob(L(t_i, M) >= l_i for all i) as a windowed Fredholm determinant.

    Thresholds l <= 0 are vacuous; l > t-M+1 is impossible (the tagged
    particle first moves at the step to time M and at most once per step,
    so L(t) <= t-M+1) and short-circuits to 0. Times from M-1 on are
    accepted. With exact=True and rational rates the value is a Fraction
    with no rounding at all.
    """
    kern = FiniteKernel(rates)
    blocks, impossible = _windows(times, levels, kern.m, pad)
    if impossible:
        return Fraction(0) if exact else 0.0
    if exact:
        points = [(t, x) for t, window in blocks for x in window]
        if not points:
            return Fraction(1)
        n = len(points)
        mat = [
            [
                (Fraction(1) if i == j else Fraction(0))
                - kern.entry(points[i][0], points[i][1], points[j][0], points[j][1])
                for j in range(n)
            ]
            for i in range(n)
        ]
        return fraction_determinant(mat)
    ts = [t for t, _ in blocks]
    return det_discrete(lambda i, x, j, y: float(kern.entry(ts[i], x, ts[j], y)),
                        [window for _, window in blocks])


def prob_tagged_at_least(t, level, rates, exact=False):
    return joint_probability([t], [level], rates, exact=exact)
