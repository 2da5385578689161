"""Special functions vs library oracles and vs independent representations.

The Airy pair is checked against scipy on a wide grid in both absolute and
relative error (the kernels weight Ai by growing exponentials, so relative
accuracy in the decay band is load bearing), and against a rotated-contour
quadrature that shares no code with any of the three production routes.
The cylinder and Hermite weights are checked against mpmath and against
their defining line integral.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sps

from oracles import hermite_h, parabolic_d, parabolic_d_zero
from steptasep.limit_kernels.special import (
    airy_ai,
    airy_derivative,
    airy_pair,
    psi1,
    psi1_line_integral,
    psi2_sequence,
)

mp.mp.dps = 30


class TestAiryAccuracy:
    def test_matches_scipy_on_wide_grid(self):
        grid = np.linspace(-20.0, 20.0, 801)
        ai, aip = airy_pair(grid)
        ref_ai, ref_aip, _, _ = sps.airy(grid)
        assert np.max(np.abs(ai - ref_ai)) < 1e-12
        assert np.max(np.abs(aip - ref_aip)) < 1e-12

    def test_relative_accuracy_in_decay_band(self):
        # the law windows and the kernels' lambda rule reach past x = 20
        grid = np.linspace(0.0, 60.0, 1201)
        ai, aip = airy_pair(grid)
        ref_ai, ref_aip, _, _ = sps.airy(grid)
        assert np.max(np.abs(ai / ref_ai - 1.0)) < 1e-12
        assert np.max(np.abs(aip / ref_aip - 1.0)) < 1e-12

    def test_route_seams_accurate_on_both_sides(self):
        for seam in (-8.0, 4.0, 9.0):
            for x in (seam - 1e-9, seam, seam + 1e-9):
                ref = float(mp.airyai(x))
                assert abs(airy_ai(x) - ref) < 1e-12

    def test_rotated_contour_oracle(self):
        # Ai(x) = (1/pi) Re[ e^{i pi/6} int_0^inf
        #                    exp(i x u e^{i pi/6} - u^3/3) du ]
        rot = np.exp(1j * math.pi / 6.0)
        t, w = np.polynomial.legendre.leggauss(220)
        u = 0.5 * (t + 1.0) * 14.0
        wq = 0.5 * w * 14.0
        for x in [-6.3, -2.0, 0.0, 1.7, 3.3, 6.0, 8.5]:
            vals = np.exp(1j * x * u * rot - u**3 / 3.0)
            ref = float(np.real(rot * np.sum(wq * vals)) / math.pi)
            assert abs(airy_ai(x) - ref) < 1e-11

    def test_derivative_consistent_with_central_difference(self):
        h = 1e-5
        for x in [-7.0, -3.2, 0.0, 2.1, 5.0, 8.2, 12.0]:
            num = (airy_ai(x + h) - airy_ai(x - h)) / (2 * h)
            scale = max(1e-3, abs(num))
            assert abs(airy_pair(x)[1] - num) / scale < 1e-7

    def test_scalar_and_array_dispatch_agree(self):
        xs = np.array([-9.5, -1.0, 4.5, 10.0])
        ai, aip = airy_pair(xs)
        for i, x in enumerate(xs):
            a, p = airy_pair(float(x))
            assert a == ai[i] and p == aip[i]

    def test_nan_comes_back_as_nan(self):
        # NaN meets no route; it must not pick up stale memory, and the
        # other entries, one per route, keep their own values
        assert all(math.isnan(v) for v in airy_pair(math.nan))
        assert np.isnan(airy_ai(np.full(4, np.nan))).all()
        xs = np.array([np.nan, -9.5, np.nan, -1.0, 4.5, np.nan])
        ai, aip = airy_pair(xs)
        nan = np.isnan(xs)
        assert np.isnan(ai[nan]).all() and np.isnan(aip[nan]).all()
        ref_ai, ref_aip = airy_pair(xs[~nan])
        assert np.array_equal(ai[~nan], ref_ai)
        assert np.array_equal(aip[~nan], ref_aip)

    def test_positive_axis_monotone_decay(self):
        grid = np.linspace(0.0, 15.0, 301)
        vals = airy_ai(grid)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


class TestAiryDerivatives:
    def test_low_orders_match_pair(self):
        xs = np.linspace(-5, 5, 41)
        ai, aip = airy_pair(xs)
        assert np.allclose(airy_derivative(xs, 0), ai, rtol=0, atol=1e-14)
        assert np.allclose(airy_derivative(xs, 1), aip, rtol=0, atol=1e-14)

    def test_second_derivative_satisfies_ode(self):
        xs = np.linspace(-5, 5, 41)
        assert np.allclose(airy_derivative(xs, 2), xs * airy_ai(xs),
                           rtol=0, atol=1e-14)

    def test_third_derivative_closed_form(self):
        xs = np.linspace(-4, 4, 17)
        expect = airy_ai(xs) + xs * airy_pair(xs)[1]
        assert np.allclose(airy_derivative(xs, 3), expect, rtol=0, atol=1e-14)

    def test_high_order_matches_mpmath(self):
        # every Airy route: asymptotic below -8, series, saddle from 4 on
        for r in (4, 6, 7):
            for x in (-9.5, -2.3, 0.4, 1.9, 6.0, 10.5):
                ref = float(mp.diff(mp.airyai, x, r))
                assert abs(airy_derivative(x, r) - ref) < 1e-12 * abs(ref)


class TestHermiteWeights:
    def test_plain_recurrence_matches_scipy(self):
        xs = np.linspace(-3, 3, 13)
        for n in range(0, 9):
            ref = sps.eval_hermite(n, xs)
            mine = np.array([hermite_h(n, x) for x in xs])
            assert np.allclose(mine, ref, rtol=1e-12, atol=1e-9)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite_h(-1, 0.0)

    def test_scaled_sequence_matches_plain(self):
        tau = 1.3
        seq = psi2_sequence(12, tau)
        for n in range(13):
            plain = (2.0 ** (-n / 2.0) * hermite_h(n, tau / math.sqrt(2.0))
                     / math.factorial(n))
            assert abs(seq[n] - plain) < 1e-12 * max(1.0, abs(plain))


class TestParabolicCylinder:
    def test_matches_mpmath_on_grid(self):
        for n in (-1, 0, 1, 3, 8):
            for x in (-2.5, -0.3, 0.0, 1.7, 4.0):
                ref = float(mp.pcfd(n, x))
                mine = parabolic_d(n, x)
                assert abs(mine - ref) < 1e-11 * max(1.0, abs(ref))

    def test_values_at_zero_closed_form(self):
        for n in range(0, 7):
            assert abs(parabolic_d(n, 0.0) - parabolic_d_zero(n)) < 1e-12

    def test_three_term_recurrence(self):
        for x in (-1.2, 0.5, 2.0):
            for n in range(1, 7):
                lhs = parabolic_d(n + 1, x)
                rhs = x * parabolic_d(n, x) - n * parabolic_d(n - 1, x)
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_derivative_identity_links_erfc_branch(self):
        # D_{-1}'(x) = (x/2) D_{-1}(x) - D_0(x)
        h = 1e-6
        for x in (-1.5, 0.0, 1.5):
            num = (parabolic_d(-1, x + h) - parabolic_d(-1, x - h)) / (2 * h)
            expect = 0.5 * x * parabolic_d(-1, x) - parabolic_d(0, x)
            assert abs(num - expect) < 1e-8

    def test_degree_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            parabolic_d(-2, 0.0)


class TestPsi1:
    def test_closed_form_matches_line_integral(self):
        for x in range(1, 10):
            for tau in (-1.3, 0.0, 0.7, 2.1):
                a = psi1(x, tau)
                b = psi1_line_integral(x, tau)
                assert abs(a - b) < 1e-11 * max(1.0, abs(a))

    def test_value_at_zero_is_erfc(self):
        for tau in (-2.0, -0.5, 0.0, 0.9, 2.4):
            expect = 0.5 * math.erfc(tau / math.sqrt(2.0))
            assert abs(psi1(0, tau) - expect) < 1e-11

    def test_matches_weighted_cylinder_function(self):
        # psi1(x, tau) = e^{-tau^2/4} D_{x-1}(tau) / sqrt(2 pi); the
        # tau-dependent weight is the one consistent with the defining
        # line integral (an x-dependent weight fails by ~1e-2..1e-1).
        for x in (-2, -1, 0, 1, 2, 5):
            for tau in (-1.1, 0.3, 1.4):
                ref = (math.exp(-tau * tau / 4.0) * float(mp.pcfd(x - 1, tau))
                       / math.sqrt(2.0 * math.pi))
                assert abs(psi1(x, tau) - ref) < 1e-10

    def test_x_weighted_variant_is_not_the_line_integral(self):
        # sanity guard: the rival weight exp(-x^2/4) visibly disagrees
        x, tau = 0, 0.7
        rival = (math.exp(-x * x / 4.0) * float(mp.pcfd(x - 1, tau))
                 / math.sqrt(2.0 * math.pi))
        assert abs(psi1_line_integral(x, tau) - rival) > 1e-2

    def test_three_term_recurrence(self):
        # psi1(x+1) = tau psi1(x) - (x-1) psi1(x-1)
        for tau in (-0.7, 0.8):
            for x in range(-3, 8):
                lhs = psi1(x + 1, tau)
                rhs = tau * psi1(x, tau) - (x - 1) * psi1(x - 1, tau)
                assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
