"""The four limiting kernels.

Every kernel has one block form K(tau1, xs1, tau2, xs2), the matrix
K[a, b] between two point arrays (Nystrom nodes, or integer windows for the
discrete Hermite kernel), which the determinant engine consumes; a single
entry is a one-point block.

The critical family, the extended Airy kernel plus sum_j I_j x J_j with
one term per slow particle ahead of the tagged one, has one body: K2 is
the family at strengths (), K3 at (0,).  Equal-time blocks take the
Christoffel-Darboux form (Tracy-Widom, CMP 159, 1994), from one Airy ladder
Ai, Ai', ... per node array that also gives each J_j; unequal times
integrate over a lambda rule.  Forward-in-time entries are computed from the re-summed
representation

    K2(tau1<tau2) = int_0^inf e^{(tau2-tau1) lam} Ai(xi1+lam) Ai(xi2+lam) dlam
                    - airy_heat_integral(xi1, xi2, tau2-tau1),

where the second term is the closed-form whole-line integral; this replaces
the oscillatory integral over (-inf, 0] with a smooth positive integrand
plus an explicit Gaussian-type correction.  The discrete Hermite kernel
uses the analogous re-summation, with the whole-line lattice sum collapsing
to a Poisson-type propagator dt^(x2-x1)/(x2-x1)!, one recurrence per block.

Each border integral I_j has one route, a descending V contour (for K3,
I_1 is the Laplace complement of Ai).

The rank-n kernel evaluates its closed w1 contour exactly as a residue sum
over the poles -e^{tau1} eps_j (derivative residues for repeated values),
leaving a single vertical-line w2 integral with Gaussian decay.
"""

import math
from functools import lru_cache

import numpy as np

from ..combinatorics import elementary_symmetric
from .special import (  # noqa: F401  (perfbench wraps airy_derivative here)
    airy_ai,
    airy_derivative,
    airy_ladder,
    airy_pair,
    psi1,
    psi2_sequence,
)

_SQRT_PI = math.sqrt(math.pi)
# Gauss-Legendre order per panel of the half-line and contour rules
_ORDER = 64


# the one Gauss-Legendre rule per order, also fredholm's; read-only arrays
@lru_cache(maxsize=None)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _panel_nodes(a, b, order):
    t, w = _leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * t, half * w


def _paneled_rule(top, order):
    """Gauss-Legendre nodes/weights on [0, top] in panels of length 6."""
    edges = np.append(np.arange(0.0, top, 6.0), top)[:, None]
    x, w = _panel_nodes(edges[:-1], edges[1:], order)
    return x.ravel(), w.ravel()


def _half_line_rule(growth, xi_floor, order):
    """Nodes/weights for int_0^inf with integrand e^{growth*lam} Ai-pair.

    The Airy decay (4/3)(xi+lam)^(3/2) beats the exponential; the cut is
    placed where the worst-case log-integrand is below -40.  Short panels
    keep the Gauss rule accurate through the integrand's peak.
    """
    return _paneled_rule(
        30.0 + max(0.0, -xi_floor) + 3.0 * max(0.0, growth), order)


def airy_heat_integral(xi1, xi2, dpos):
    """int_R e^{dpos*lam} Ai(xi1+lam) Ai(xi2+lam) dlam, for dpos > 0."""
    if dpos <= 0:
        raise ValueError("needs a positive exponent rate")
    expo = (-((np.asarray(xi2) - np.asarray(xi1)) ** 2) / (4.0 * dpos)
            - dpos * (np.asarray(xi1) + np.asarray(xi2)) / 2.0
            + dpos ** 3 / 12.0)
    with np.errstate(over="ignore"):
        return np.exp(expo) / math.sqrt(4.0 * math.pi * dpos)


def extended_airy_block(tau1, xis1, tau2, xis2):
    """Extended Airy kernel on node arrays; rows xis1, columns xis2."""
    return kernel_K3prime_block(tau1, xis1, tau2, xis2, ())


def airy_kernel_quadrature(tau1, xis1, tau2, xis2, order=_ORDER):
    """Extended Airy kernel from the lambda rule, at any pair of times."""
    xis1 = np.atleast_1d(np.asarray(xis1, dtype=float))
    xis2 = np.atleast_1d(np.asarray(xis2, dtype=float))
    delta = tau1 - tau2
    growth = max(0.0, -delta)
    floor = min(xis1.min(), xis2.min())
    lam, w = _half_line_rule(growth, floor, order)
    a1 = airy_ai(xis1[:, None] + lam[None, :])
    # two times at one threshold pair a node set with itself
    a2 = a1 if np.array_equal(xis1, xis2) else airy_ai(
        xis2[:, None] + lam[None, :])
    with np.errstate(over="ignore"):
        weight = w * np.exp(-delta * lam)
    block = (a1 * weight) @ a2.T
    if delta < 0:
        block = block - airy_heat_integral(xis1[:, None], xis2[None, :], -delta)
    return block


def airy_kernel_cd(xis1, xis2):
    """Equal-time Airy kernel on node arrays, Christoffel-Darboux form."""
    return kernel_K3prime_block(0.0, xis1, 0.0, xis2, ())


def _perturbation_i_all(tau1, xis, etas, shift=0.25):
    """I_j(tau1, xi) for j = 1..n, on the descending V contour.

    The contour vertex sits at i*(min_k(eta_k - tau1) - shift), below every
    pole i*(eta_k - tau1); the two rays at angles pi/6 and 5pi/6 turn the
    cubic phase into e^{-u^3/3} decay.  Mirror symmetry makes the integral
    twice the real part of the right ray.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    etas = list(etas)
    # the contour only has to stay below every pole.  The integrand carries
    # e^{-xi c}, which magnifies rounding by e^{|xi c|}: at negative xi when
    # poles are high, so the vertex is capped at 1 (which also keeps the ray
    # exponent c^2 u / 2 from overflowing), and at positive xi when it is
    # low, so it sits only shift below the lowest pole.  With that pole
    # below the real axis (tau1 > min eta) the integral itself grows like
    # e^{xi (tau1 - min eta)}, so again only e^{xi shift} magnifies the
    # relative error.
    c = min(min(e - tau1 for e in etas) - shift, 1.0)
    top = max(9.0, 2.5 * abs(c))
    u1, w1 = _panel_nodes(0.0, 2.0, _ORDER)
    u2, w2 = _panel_nodes(2.0, top, _ORDER)
    u = np.concatenate([u1, u2])
    wq = np.concatenate([w1, w2])
    w = 1j * c + u * np.exp(1j * math.pi / 6.0)
    phase = np.exp(1j * w ** 3 / 3.0) * np.exp(1j * math.pi / 6.0)
    core = np.exp(1j * np.outer(xis, w)) * phase  # (n_xi, n_u)
    out = np.empty((len(etas), len(xis)))
    pole_prod = np.ones_like(w)
    for j, eta in enumerate(etas):
        pole_prod = pole_prod / (eta - tau1 + 1j * w)
        out[j] = (np.real(core * pole_prod) @ wq) / math.pi
    return out


def kernel_K3prime_block(tau1, xis1, tau2, xis2, etas):
    """Critical-family kernel: extended Airy plus sum_j I_j x J_j, one term
    per strength.  Equal times: (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y), and
    Ai'(x)^2 - x Ai(x)^2 at x = y, from the ladder that gives every J_j."""
    if not all(e >= 0 for e in etas):  # NaN fails too
        raise ValueError("defect strengths must be nonnegative")
    xis1 = np.atleast_1d(np.asarray(xis1, dtype=float))
    xis2 = np.atleast_1d(np.asarray(xis2, dtype=float))
    if tau1 == tau2 or etas:
        ladder = airy_ladder(xis2, airy_pair(xis2), len(etas) - 1)
    if tau1 == tau2:
        a2, p2 = ladder[:2]
        a1, p1 = (a2, p2) if np.array_equal(xis1, xis2) else airy_pair(xis1)
        diff = np.subtract.outer(xis1, xis2)
        same = diff == 0.0
        off = (np.outer(a1, p2) - np.outer(p1, a2)) / np.where(same, 1.0, diff)
        block = np.where(same, np.outer(p1, p2) - np.outer(xis1 * a1, a2),
                         off)
    else:
        block = airy_kernel_quadrature(tau1, xis1, tau2, xis2)
    if not etas:
        return block
    # J_j: prod_{k<j}(eta_k - tau2 + i w) expands in powers of (i w), and
    # each (i w)^r integrates to the ladder's Ai^(r)
    j_all = np.zeros((len(etas), len(xis2)))
    for j in range(len(etas)):
        e = elementary_symmetric([eta - tau2 for eta in etas[:j]])
        for r in range(j + 1):
            j_all[j] += e[j - r] * ladder[r]
    return block + _perturbation_i_all(tau1, xis1, etas).T @ j_all


def kernel_K3_block(tau1, xis1, tau2, xis2):
    """Critical-defect kernel: the multi-defect kernel at strengths (0,)."""
    return kernel_K3prime_block(tau1, xis1, tau2, xis2, (0.0,))


def gaussian_transition(xi1, xi2, dtau):
    """Forward transition density of the stationary Gaussian process.

    Mean e^{-dtau} xi1, variance (1 - e^{-2 dtau})/2, dtau > 0.
    """
    if dtau <= 0:
        raise ValueError("needs a positive time separation")
    decay = math.exp(-dtau)
    var = 1.0 - decay * decay
    z = (np.asarray(xi2) - decay * np.asarray(xi1)) ** 2 / var
    return np.exp(-z) / math.sqrt(math.pi * var)


def kernel_KG_block(tau1, xis1, tau2, xis2):
    """Rank-one Gaussian kernel; columns carry the stationary density.

    The diagonal blocks are e^{-xi2^2}/sqrt(pi) in the column variable;
    strictly forward blocks subtract the transition density.  This
    orientation is the epsilon -> 0 limit of the rank-n kernel and is the
    one whose two-time determinant reproduces the joint law of the
    stationary process (asserted in tests).
    """
    xis1 = np.atleast_1d(np.asarray(xis1, dtype=float))
    xis2 = np.atleast_1d(np.asarray(xis2, dtype=float))
    row = np.exp(-xis2 ** 2) / _SQRT_PI
    block = np.tile(row, (len(xis1), 1))
    if tau1 < tau2:
        block = block - gaussian_transition(xis1[:, None], xis2[None, :],
                                            tau2 - tau1)
    return block


def _series_product(a, b, length):
    """Cauchy product of power series over the last axis, up to
    h^(length-1); leading axes broadcast, and j runs over a."""
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                   + (length,), dtype=complex)
    for r in range(length):
        for j in range(r + 1):
            out[..., r] += a[..., j] * b[..., r - j]
    return out


def _exp_quadratic_series(c_lin, length):
    """Taylor coefficients of exp(c_lin*h - h^2) up to h^(length-1)."""
    c = np.asarray(c_lin, dtype=complex).ravel()
    lin = np.ones((len(c), length), dtype=complex)
    for r in range(1, length):
        lin[:, r] = lin[:, r - 1] * c / r
    quad = np.zeros(length, dtype=complex)
    quad[::2] = [(-1.0) ** k / math.factorial(k)
                 for k in range((length + 1) // 2)]
    return _series_product(quad, lin, length)


def _inverse_power_series(base, power, length):
    """Coefficients of (base + h)^(-power) up to h^(length-1)."""
    out = np.zeros(length, dtype=complex)
    out[0] = base ** (-power)
    for r in range(1, length):
        out[r] = out[r - 1] * (-(power + r - 1)) / (r * base)
    return out


def kernel_Kn_block(tau1, xis1, tau2, xis2, eps, step=0.05, half_width=8.0):
    """Rank-n Gaussian kernel for defect strengths eps (len n >= 1).

    The closed w1 contour around the poles -e^{tau1} eps_j is an exact
    residue sum; repeated strengths get derivative residues through local
    Taylor series.  The remaining w2 integral runs on Re(w2) = 1/2, where
    |e^{w2^2}| = e^{1/4 - y^2} and all poles sit on the nonpositive real
    axis, and is taken by the trapezoidal rule.
    """
    eps = [float(e) for e in eps]
    if not eps or not all(e >= 0 for e in eps):
        raise ValueError("needs a nonempty list of nonnegative strengths")
    xis1 = np.atleast_1d(np.asarray(xis1, dtype=float))
    xis2 = np.atleast_1d(np.asarray(xis2, dtype=float))
    n = len(eps)
    dprime = tau1 - tau2

    y = np.arange(-half_width, half_width + step / 2, step)
    w2 = 0.5 + 1j * y
    pnum = np.ones_like(w2)
    for e in eps:
        pnum = pnum * (math.exp(-tau2) * w2 + e)
    big_c = math.exp(dprime) * w2

    poles = [-math.exp(tau1) * e for e in eps]
    groups = {}
    for a in poles:
        groups[a] = groups.get(a, 0) + 1

    resid = np.zeros((len(xis1), len(w2)), dtype=complex)
    for alpha, mult in groups.items():
        base = np.exp(-alpha * alpha + 2.0 * alpha * xis1)  # (n_xi1,)
        series = _exp_quadratic_series(2.0 * xis1 - 2.0 * alpha, mult)
        other = np.zeros(mult, dtype=complex)
        other[0] = 1.0
        for beta, m_b in groups.items():
            if beta == alpha:
                continue
            other = _series_product(
                other, _inverse_power_series(alpha - beta, m_b, mult), mult)
        s_g = _series_product(other, series, mult)          # (n_xi1, mult)
        gpow = np.stack([(big_c - alpha) ** (-(r + 1)) for r in range(mult)])
        resid += (base[:, None] * s_g) @ gpow[::-1]
    resid *= math.exp(n * tau1)

    e2 = np.exp(w2[None, :] ** 2 - 2.0 * np.outer(xis2, w2))  # (n_xi2, n_w2)
    block = (step / math.pi) * np.real((resid * pnum) @ e2.T)
    if tau1 < tau2:
        block = block - gaussian_transition(xis1[:, None], xis2[None, :],
                                            tau2 - tau1)
    return block


def kernel_region1_block(tau1, xs1, tau2, xs2):
    """Discrete Hermite kernel at the onset of motion between windows of
    integer positions: sum_{m=0..x2} psi1(x1 - m, tau1) h_{x2-m}(tau2) from
    one psi1 per distinct argument, less for tau1 < tau2 the propagator
    dt^(x2-x1)/(x2-x1)! that re-sums the conditionally convergent tail."""
    xs1, xs2 = np.asarray(xs1, dtype=int), np.asarray(xs2, dtype=int)
    out, top = np.zeros((xs1.size, xs2.size)), xs2.max()
    if top >= 0:
        h, base = psi2_sequence(top, tau2), xs1.min() - top
        weights = np.array([psi1(x, tau1) for x in range(base, xs1.max() + 1)])
        for m in range(top + 1):
            live = xs2 >= m
            out[:, live] += np.outer(weights[xs1 - m - base],
                                     h[xs2[live] - m])
    if tau1 < tau2:
        k = xs2[None, :] - xs1[:, None]
        steps = (tau2 - tau1) / np.arange(1, k.max() + 1)
        poisson = np.cumprod(np.r_[1.0, steps])
        out -= np.where(k >= 0, poisson[np.maximum(k, 0)], 0.0)
    return out
