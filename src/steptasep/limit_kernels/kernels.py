"""The four limiting kernels.

All continuous kernels expose a block form K(tau1, xis1, tau2, xis2)
returning the matrix K[a, b] over node arrays, which is what the Nystrom
determinant engine consumes; a single entry is a one-point block.

Forward-in-time entries of the extended Airy kernel are computed from the
re-summed representation

    K2(tau1<tau2) = int_0^inf e^{(tau2-tau1) lam} Ai(xi1+lam) Ai(xi2+lam) dlam
                    - airy_heat_integral(xi1, xi2, tau2-tau1),

where the second term is the closed-form whole-line integral; this replaces
the oscillatory integral over (-inf, 0] with a smooth positive integrand
plus an explicit Gaussian-type correction.  The discrete Hermite kernel
uses the analogous re-summation, with the whole-line lattice sum collapsing
to a Poisson-type propagator dt^(x2-x1)/(x2-x1)!.

The rank-n kernel evaluates its closed w1 contour exactly as a residue sum
over the poles -e^{tau1} eps_j (derivative residues for repeated values),
leaving a single vertical-line w2 integral with Gaussian decay.
"""

import math
from functools import lru_cache

import numpy as np

from ..combinatorics import elementary_symmetric
from .special import (
    airy_ai,
    airy_derivative,
    airy_pair,
    psi1,
    psi2_sequence,
)

_SQRT_PI = math.sqrt(math.pi)
# Gauss-Legendre order per panel of the half-line and contour rules
_ORDER = 64


@lru_cache(maxsize=None)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _panel_nodes(a, b, order):
    t, w = _leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * t, half * w


def _paneled_rule(top, order):
    """Gauss-Legendre nodes/weights on [0, top] in panels of length 6."""
    edges = np.arange(0.0, top + 6.0, 6.0)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x_p, w_p = _panel_nodes(a, min(b, top), order)
        xs.append(x_p)
        ws.append(w_p)
    return np.concatenate(xs), np.concatenate(ws)


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


def extended_airy_block(tau1, xis1, tau2, xis2, order=_ORDER):
    """Extended Airy kernel on node arrays; rows xis1, columns xis2."""
    xis1 = np.atleast_1d(np.asarray(xis1, dtype=float))
    xis2 = np.atleast_1d(np.asarray(xis2, dtype=float))
    delta = tau1 - tau2
    growth = max(0.0, -delta)
    floor = min(xis1.min(), xis2.min())
    lam, w = _half_line_rule(growth, floor, order)
    a1 = airy_ai(xis1[:, None] + lam[None, :])
    # one-time blocks of det(I - K) pair a node set with itself
    a2 = a1 if np.array_equal(xis1, xis2) else airy_ai(
        xis2[:, None] + lam[None, :])
    with np.errstate(over="ignore"):
        weight = w * np.exp(-delta * lam)
    block = (a1 * weight) @ a2.T
    if delta < 0:
        block = block - airy_heat_integral(xis1[:, None], xis2[None, :], -delta)
    return block


def airy_kernel_cd(xi1, xi2):
    """Equal-time Airy kernel via the Christoffel-Darboux form."""
    if xi1 == xi2:
        ai, aip = airy_pair(xi1)
        return aip * aip - xi1 * ai * ai
    a1, p1 = airy_pair(xi1)
    a2, p2 = airy_pair(xi2)
    return (a1 * p2 - p1 * a2) / (xi1 - xi2)


def airy_laplace_complement(tau, xi):
    """e^{tau*xi - tau^3/3} - int_0^inf e^{-tau*lam} Ai(xi+lam) dlam.

    Equals int_{-inf}^0 e^{-tau*lam} Ai(xi+lam) dlam for every tau.  For
    tau <= -1.5 the difference form cancels badly, so the tail integral is
    taken directly: int_0^inf e^{tau*mu} Ai(xi-mu) dmu, whose exponential
    damps the Airy oscillation.
    """
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    if tau > -1.5:
        lam, w = _half_line_rule(max(0.0, -tau), float(xi.min()), _ORDER)
        vals = airy_ai(xi[:, None] + lam[None, :])
        integral = (vals * (w * np.exp(-tau * lam))) @ np.ones_like(lam)
        out = np.exp(tau * xi - tau ** 3 / 3.0) - integral
    else:
        # short panels resolve the Airy oscillation under the e^{tau*mu} damp
        mu, w = _paneled_rule(45.0 / (-tau), _ORDER)
        vals = airy_ai(xi[:, None] - mu[None, :])
        out = (vals * (w * np.exp(tau * mu))) @ np.ones_like(mu)
    return float(out[0]) if scalar else out


def kernel_K3_block(tau1, xis1, tau2, xis2):
    """Critical-defect kernel: extended Airy plus a rank-one border term."""
    xis1 = np.atleast_1d(np.asarray(xis1, dtype=float))
    xis2 = np.atleast_1d(np.asarray(xis2, dtype=float))
    base = extended_airy_block(tau1, xis1, tau2, xis2)
    border = airy_laplace_complement(tau1, xis1)
    return base + np.outer(border, airy_ai(xis2))


def _perturbation_i_all(tau1, xis, etas, shift=1.0):
    """I_j(tau1, xi) for j = 1..n, on the descending V contour.

    The contour vertex sits at i*(min_k(eta_k - tau1) - shift), below every
    pole i*(eta_k - tau1); the two rays at angles pi/6 and 5pi/6 turn the
    cubic phase into e^{-u^3/3} decay.  Mirror symmetry makes the integral
    twice the real part of the right ray.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    etas = list(etas)
    # the contour only has to stay below every pole; capping the vertex
    # keeps the ray exponent c^2 u / 2 from overflowing when poles are high,
    # and e^{-xi c} from magnifying rounding at negative xi
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


def _perturbation_j_all(tau2, xis, etas):
    """J_j(tau2, xi) for j = 1..n, from Airy derivatives.

    The polynomial prod_{k<j}(eta_k - tau2 + i w) expands in powers of
    (i w), and each (i w)^r integrates to the r-th Airy derivative.
    """
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    n = len(etas)
    ders = np.stack([airy_derivative(xis, r) for r in range(max(n, 1))])
    out = np.empty((n, len(xis)))
    for j in range(1, n + 1):
        e = elementary_symmetric([etas[k] - tau2 for k in range(j - 1)])
        acc = np.zeros(len(xis))
        for r in range(j):
            acc += e[j - 1 - r] * ders[r]
        out[j - 1] = acc
    return out


def kernel_K3prime_block(tau1, xis1, tau2, xis2, etas):
    """Multi-defect critical kernel: extended Airy plus sum_j I_j x J_j."""
    if any(e < 0 for e in etas):
        raise ValueError("defect strengths must be nonnegative")
    xis1 = np.atleast_1d(np.asarray(xis1, dtype=float))
    xis2 = np.atleast_1d(np.asarray(xis2, dtype=float))
    block = extended_airy_block(tau1, xis1, tau2, xis2)
    if not etas:
        return block
    i_all = _perturbation_i_all(tau1, xis1, etas)
    j_all = _perturbation_j_all(tau2, xis2, etas)
    return block + i_all.T @ j_all


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
    if not eps or any(e < 0 for e in eps):
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


def phi_poisson(x1, x2, dt):
    """Whole-line collapse of the lattice weight pairing: dt^k/k!."""
    k = x2 - x1
    if k < 0:
        return 0.0
    return float(dt) ** k / math.factorial(k)


def kernel_region1(tau1, x1, tau2, x2):
    """Discrete Hermite kernel at the onset of motion (integer positions).

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
