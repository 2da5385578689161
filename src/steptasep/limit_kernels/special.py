"""Special functions used by the limiting kernels.

The Airy function and its derivative have three routes: the Maclaurin
series on (-8, 4), summed in extended precision (np.longdouble); the
oscillatory asymptotic series in zeta = (2/3)|x|^(3/2) for x <= -8, the
real and imaginary parts of the fixed 32-term polynomial in i/zeta
sum_{k<32} c_k (i/zeta)^k, evaluated by Horner; and on the decay side
x >= 4 the saddle-point representation

    Ai(x) = e^(-zeta)/(2 pi x^(1/4)) int e^(-u^2) cos(u^3/(3 x^(3/4))) du.

Its integrand is even, entire and free of sign cancellation, so a
trapezoid on u in [0, 6.5] with step 1/4 keeps the RELATIVE error near
machine precision from x = 4 on, where the series cancels
catastrophically.  Downstream kernel integrals weight Ai by growing
exponentials, so relative accuracy in the decay band matters, not just
absolute accuracy.  Higher derivatives come from one (Ai, Ai') evaluation
and the recurrence Ai^(k+2) = x Ai^(k) + k Ai^(k-1), which is Ai'' = x Ai
differentiated.

Hermite polynomials enter as the factorial-scaled sequence
h_n(tau) = 2^(-n/2) H_n(tau/sqrt(2))/n!, whose recurrence
h_{n+1} = (tau*h_n - h_{n-1})/(n+1) stays bounded for large degree.  The
scaled sequence is exactly the lattice weight psi2 of the discrete Hermite
kernel.  The companion weight psi1 is a vertical-line integral
(1/2pi*i) int dz exp(z^2/2 - tau*z) z^(x-1); for x >= 1 it collapses to
exp(-tau^2/2) (x-1)! h_{x-1}(tau) / sqrt(2*pi), and for x <= 0 it is
evaluated by quadrature on the line z = 1 + i*y, where the integrand has a
Gaussian envelope and no sign cancellation.
"""

import math

import numpy as np

# Ai(0) and -Ai'(0) to 25 digits; the series needs them beyond double.
_AI0 = np.longdouble("0.3550280538878172392600632")
_AIP0 = np.longdouble("0.2588194037928067984051836")

_SERIES_CUTOFF = 8.0
_SADDLE_LO = 4.0
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# trapezoid nodes y on the line z = 1 + i*y of psi1_line_integral
_LINE_STEP = 0.05
_LINE_Y = np.arange(-12.0, 12.0 + _LINE_STEP / 2, _LINE_STEP)


def _asymptotic_u_coeffs(count):
    # u_0 = 1, u_k = u_{k-1} (6k-5)(6k-3)(6k-1) / (216 k (2k-1))
    u = [1.0]
    for k in range(1, count):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                 / (216.0 * k * (2 * k - 1)))
    return np.array(u)


# k = 0..31, one column per series: at the seam x = -8 (zeta = 15.08) term
# 31 is the smallest of both (5.7e-15, 5.8e-15), so this is the optimal
# truncation there, and for x < -8 every dropped term is smaller still.
_UK = _asymptotic_u_coeffs(32)
_VK = _UK * (6.0 * np.arange(32) + 1.0) / (1.0 - 6.0 * np.arange(32))
_UVK = np.stack([_UK, _VK], axis=1)


def _airy_series(x):
    """Maclaurin series for (Ai, Ai') in extended precision; |x| small."""
    x = np.asarray(x, dtype=np.longdouble)
    x3 = x * x * x
    t = np.ones_like(x)          # f terms
    s = x.copy()                 # g terms
    u = x * x / 2                # f' terms, k >= 1
    v = np.ones_like(x)          # g' terms
    f, g, fp, gp = t.copy(), s.copy(), u.copy(), v.copy()
    for k in range(120):
        t = t * x3 / ((3 * k + 2) * (3 * k + 3))
        s = s * x3 / ((3 * k + 3) * (3 * k + 4))
        u = u * x3 * (k + 2) / ((k + 1) * (3 * k + 5) * (3 * k + 6))
        v = v * x3 / ((3 * k + 1) * (3 * k + 3))
        f += t
        g += s
        fp += u
        gp += v
        if max(np.max(np.abs(t)), np.max(np.abs(s)),
               np.max(np.abs(u)), np.max(np.abs(v))) < 1e-24:
            break
    ai = _AI0 * f - _AIP0 * g
    aip = _AI0 * fp - _AIP0 * gp
    return ai.astype(float), aip.astype(float)


# trapezoid of the even saddle integrand folded onto the half line
_SADDLE_U = np.arange(0.0, 6.5 + 0.125, 0.25)
_SADDLE_W = np.where(_SADDLE_U > 0, 0.5, 0.25) * np.exp(-_SADDLE_U ** 2)


def _airy_saddle(x):
    """(Ai, Ai') on the decay side x >= 4 via the descent contour.

    Shifting the Fourier contour through the saddle at i*sqrt(x) leaves a
    Gaussian-weighted integrand with bounded phase, evaluated by the
    trapezoidal rule; both outputs keep near-machine relative accuracy.
    Row sums, not a matrix product, keep each value independent of the
    other points of the array.
    """
    zeta = (2.0 / 3.0) * x ** 1.5
    root4 = x ** 0.25
    phase = _SADDLE_U[None, :] ** 3 / (3.0 * root4[:, None] ** 3)
    c = np.cos(phase)
    s = np.sin(phase)
    front = np.exp(-zeta) / (2.0 * math.pi * root4)
    ai = front * (c * _SADDLE_W).sum(axis=1)
    re = (-np.sqrt(x)[:, None] * c
          - (_SADDLE_U[None, :] / root4[:, None]) * s)
    aip = front * (re * _SADDLE_W).sum(axis=1)
    return ai, aip


def _airy_asymptotic_neg(x):
    t = -x
    zeta = (2.0 / 3.0) * t ** 1.5
    root4 = t ** 0.25
    # P + iQ of both series in one Horner pass over i/zeta
    s_ai, s_aip = np.polynomial.polynomial.polyval(1j / zeta, _UVK)
    c = np.cos(zeta - 0.25 * math.pi)
    s = np.sin(zeta - 0.25 * math.pi)
    ai = (c * s_ai.real + s * s_ai.imag) / (_SQRT_PI * root4)
    aip = root4 * (s * s_aip.real - c * s_aip.imag) / _SQRT_PI
    return ai, aip


def airy_pair(x):
    """(Ai(x), Ai'(x)) for scalar or array input."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    # NaN meets no route and stays NaN
    ai = np.full_like(arr, np.nan)
    aip = np.full_like(arr, np.nan)
    routes = (((arr > -_SERIES_CUTOFF) & (arr < _SADDLE_LO), _airy_series),
              (arr >= _SADDLE_LO, _airy_saddle),
              (arr <= -_SERIES_CUTOFF, _airy_asymptotic_neg))
    for where, route in routes:
        if where.any():
            ai[where], aip[where] = route(arr[where])
    if np.ndim(x) == 0:
        return float(ai[0]), float(aip[0])
    return ai.reshape(np.shape(x)), aip.reshape(np.shape(x))


def airy_ai(x):
    """Airy function Ai."""
    return airy_pair(x)[0]


def airy_ladder(x, pair, top):
    """[Ai, Ai', ..., Ai^(max(top, 1))] at x from pair = (Ai(x), Ai'(x))."""
    ders = list(pair)
    for k in range(top - 1):
        ders.append(x * ders[k] + k * ders[k - 1])
    return ders


def airy_derivative(x, r):
    """r-th derivative of Ai, from one (Ai, Ai') evaluation."""
    x = np.asarray(x, dtype=float)
    return airy_ladder(x, airy_pair(x), r)[r]


def psi2_sequence(n, tau):
    """Array of h_k = 2^(-k/2) H_k(tau/sqrt(2))/k! for k = 0..n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = np.empty(n + 1)
    out[0] = 1.0
    if n >= 1:
        out[1] = tau
    for k in range(1, n):
        out[k + 1] = (tau * out[k] - out[k - 1]) / (k + 1)
    return out


def psi1_line_integral(x, tau):
    """Vertical-line route for psi1, valid for every integer x.

    (1/2pi) int dy Re[(exp(z^2/2 - tau z) z^(x-1))], z = 1 + i y.  The
    envelope is exp((1-y^2)/2), so a plain trapezoid on |y| <= 12 is
    spectrally accurate.
    """
    z = 1.0 + 1j * _LINE_Y
    vals = np.exp(z * z / 2.0 - tau * z) * z ** (x - 1)
    return float(np.real(np.sum(vals)) * _LINE_STEP / (2.0 * math.pi))


def psi1(x, tau):
    """Lattice weight psi1(x, tau).

    Closed form for x >= 1; quadrature on the shifted vertical line for
    x <= 0 where the integrand picks up negative powers of z.
    """
    if x >= 1:
        h = psi2_sequence(x - 1, tau)[x - 1]
        return math.exp(-tau * tau / 2.0) * math.factorial(x - 1) * h / _SQRT_2PI
    return psi1_line_integral(x, tau)
