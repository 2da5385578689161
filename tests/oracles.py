"""Independent evaluation routes that exist only to cross-check the package.

- Finite kernel: the free transition weight phi and direct double-contour
  quadrature of the kernel on circles centered at -1/2. That center keeps
  the admissible radius window open for every stay rate in [0, 1),
  including rates >= 1/2 where circles centered at the origin would have to
  cross the poles at (1-q_i)/q_i.
- Critical kernel: the horizontal-line route for the perturbation
  integrals I_j.
- Special functions: plain Hermite polynomials and parabolic cylinder
  functions D_n, checked against the scaled Hermite sequence.
"""

import math
from math import comb

import numpy as np

from steptasep.finite_kernel import FiniteKernel
from steptasep.limit_kernels.special import psi2_sequence

_SQRT_2PI = math.sqrt(2.0 * math.pi)

QUADRATURE_TOL = 1e-12
RECONCILE_TOL = 1e-9


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
