"""Special functions used by the limiting kernels.

The Airy function and its derivative are computed from the Maclaurin
series on (-8, 4), from the asymptotic expansions in
zeta = (2/3)|x|^(3/2) for x <= -8 or x >= 9, and on [4, 9) from the
saddle-point representation

    Ai(x) = e^(-zeta)/(2 pi x^(1/4)) int e^(-u^2) cos(u^3/(3 x^(3/4))) du,

whose integrand has no sign cancellation, keeping the RELATIVE error near
machine precision through the decay band where the series cancels
catastrophically and the asymptotic series has not yet converged.  The
series is accumulated in extended precision (np.longdouble) for the
oscillatory side.  Downstream kernel integrals weight Ai by growing
exponentials, so relative accuracy in the decay band matters, not just
absolute accuracy.  Both asymptotic tails go through one summer,
sum_k c_k (unit/zeta)^k with unit -1 on the decaying side and unit i on the
oscillatory side, whose real and imaginary parts are the P and Q series.
Higher derivatives come from one (Ai, Ai') evaluation and the recurrence
Ai^(k+2) = x Ai^(k) + k Ai^(k-1), which is Ai'' = x Ai differentiated.

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
_SADDLE_HI = 9.0
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


_UK = _asymptotic_u_coeffs(42)
_VK = _UK * (6.0 * np.arange(42) + 1.0) / (1.0 - 6.0 * np.arange(42))
_VK[0] = 1.0


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


def _asymptotic_sum(zeta, unit, coeffs):
    """sum_k c_k (unit/zeta)^k, each entry stopped before its terms grow.

    unit -1 gives the decaying series of x >= 9; unit 1j the oscillatory
    pair of x <= -8, P its real part and Q its imaginary part.
    """
    pw = np.ones(zeta.shape, dtype=np.result_type(zeta, unit))
    total = coeffs[0] * pw
    prev_mag = np.full_like(zeta, np.inf)
    active = np.ones(zeta.shape, dtype=bool)
    for k in range(1, len(coeffs)):
        pw = pw * unit / zeta
        term = coeffs[k] * pw
        mag = np.abs(term)
        active &= mag < prev_mag
        total = np.where(active, total + term, total)
        prev_mag = mag
        if not active.any():
            break
    return total


def _airy_asymptotic_pos(x):
    zeta = (2.0 / 3.0) * x ** 1.5
    root4 = x ** 0.25
    s_ai = _asymptotic_sum(zeta, -1, _UK)
    s_aip = _asymptotic_sum(zeta, -1, _VK)
    e = np.exp(-zeta)
    ai = e / (2.0 * _SQRT_PI * root4) * s_ai
    aip = -root4 * e / (2.0 * _SQRT_PI) * s_aip
    return ai, aip


_SADDLE_U = np.arange(-6.5, 6.5 + 0.025, 0.05)
_SADDLE_W = 0.05 * np.exp(-_SADDLE_U ** 2)


def _airy_saddle(x):
    """(Ai, Ai') on the positive decay band via the descent contour.

    Shifting the Fourier contour through the saddle at i*sqrt(x) leaves a
    Gaussian-weighted integrand with bounded phase, evaluated by the
    trapezoidal rule; both outputs keep near-machine relative accuracy.
    """
    zeta = (2.0 / 3.0) * x ** 1.5
    root4 = x ** 0.25
    phase = _SADDLE_U[None, :] ** 3 / (3.0 * root4[:, None] ** 3)
    c = np.cos(phase)
    s = np.sin(phase)
    front = np.exp(-zeta) / (2.0 * math.pi * root4)
    ai = front * (c @ _SADDLE_W)
    re = (-np.sqrt(x)[:, None] * c
          - (_SADDLE_U[None, :] / root4[:, None]) * s)
    aip = front * (re @ _SADDLE_W)
    return ai, aip


def _airy_asymptotic_neg(x):
    t = -x
    zeta = (2.0 / 3.0) * t ** 1.5
    root4 = t ** 0.25
    s_ai = _asymptotic_sum(zeta, 1j, _UK)
    s_aip = _asymptotic_sum(zeta, 1j, _VK)
    c = np.cos(zeta - 0.25 * math.pi)
    s = np.sin(zeta - 0.25 * math.pi)
    ai = (c * s_ai.real + s * s_ai.imag) / (_SQRT_PI * root4)
    aip = root4 * (s * s_aip.real - c * s_aip.imag) / _SQRT_PI
    return ai, aip


def airy_pair(x):
    """(Ai(x), Ai'(x)) for scalar or array input."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    ai = np.empty_like(arr)
    aip = np.empty_like(arr)
    small = (arr > -_SERIES_CUTOFF) & (arr < _SADDLE_LO)
    if small.any():
        ai[small], aip[small] = _airy_series(arr[small])
    band = (arr >= _SADDLE_LO) & (arr < _SADDLE_HI)
    if band.any():
        ai[band], aip[band] = _airy_saddle(arr[band])
    pos = arr >= _SADDLE_HI
    if pos.any():
        ai[pos], aip[pos] = _airy_asymptotic_pos(arr[pos])
    neg = arr <= -_SERIES_CUTOFF
    if neg.any():
        ai[neg], aip[neg] = _airy_asymptotic_neg(arr[neg])
    if np.ndim(x) == 0:
        return float(ai[0]), float(aip[0])
    return ai.reshape(np.shape(x)), aip.reshape(np.shape(x))


def airy_ai(x):
    """Airy function Ai."""
    return airy_pair(x)[0]


def airy_derivative(x, r):
    """r-th derivative of Ai, by Ai^(k+2) = x Ai^(k) + k Ai^(k-1)."""
    x = np.asarray(x, dtype=float)
    ders = list(airy_pair(x))
    for k in range(r - 1):
        ders.append(x * ders[k] + k * ders[k - 1])
    return ders[r]


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
