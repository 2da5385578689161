"""Limiting kernels vs independent evaluation routes and vs the finite model.

Every kernel has at least two routes to the same number: re-summed versus
direct quadrature for the extended Airy kernel, V contour versus horizontal
line for the defect border integrals, residue series versus brute circle
contour for the rank-n Gaussian kernel, and finite inclusion-exclusion
versus determinant for the lattice onset kernel.  The onset kernel is also
cross-validated against the exact finite-system determinant under the
scaling map, with the deviation halving as the particle count quadruples.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy import special as sps

from oracles import _perturbation_i_line
from steptasep.finite_kernel import joint_probability
from steptasep.fredholm import region1_prob
from steptasep.limit_kernels import kernels as kk
from steptasep.limit_kernels.scaling import ScaledExperiment
from steptasep.limit_kernels.special import psi1, psi2_sequence

mp.mp.dps = 30

GRID1 = np.array([-3.0, -1.0, 0.0, 1.2, 2.5])
GRID2 = np.array([-2.5, -0.5, 0.0, 1.2, 3.0])


class TestExtendedAiry:
    def test_equal_time_matches_christoffel_darboux(self):
        block = kk.extended_airy_block(0.7, GRID1, 0.7, GRID2)
        for a, x1 in enumerate(GRID1):
            for b, x2 in enumerate(GRID2):
                assert abs(block[a, b] - kk.airy_kernel_cd(x1, x2)) < 1e-12

    def test_forward_matches_direct_oscillatory_route(self):
        for (t1, t2), (x1, x2) in itertools.product(
                [(0.0, 1.5), (-0.4, 0.8)], [(-1.0, 0.5), (2.0, -2.0)]):
            mine = float(kk.extended_airy_block(t1, [x1], t2, [x2])[0, 0])
            dp = t2 - t1
            ref, err = integrate.quad(
                lambda mu: -math.exp(-dp * mu) * sps.airy(x1 - mu)[0]
                * sps.airy(x2 - mu)[0], 0, 300, limit=4000)
            assert abs(mine - ref) < 1e-10 + 10 * abs(err)

    def test_backward_matches_plain_quadrature(self):
        for (t1, t2), (x1, x2) in itertools.product(
                [(1.5, 0.0), (0.8, 0.8)], [(-1.0, 0.5), (0.3, 0.3)]):
            mine = float(kk.extended_airy_block(t1, [x1], t2, [x2])[0, 0])
            dp = t1 - t2
            ref = float(mp.quad(
                lambda lam: mp.exp(-dp * lam) * mp.airyai(x1 + lam)
                * mp.airyai(x2 + lam), [0, 10, 20, 40]))
            assert abs(mine - ref) < 1e-11

    def test_heat_integral_matches_whole_line_quadrature(self):
        # the left tail decays like e^{dp*lam} only, so the reference
        # integral needs a cut far enough left for the smallest rate
        for dp in (0.3, 1.5, 3.0):
            cut = -120.0 / dp
            panels = list(np.arange(cut, 41.0, 8.0)) + [41.0]
            ref = float(mp.quad(
                lambda lam: mp.exp(dp * lam) * mp.airyai(-1.3 + lam)
                * mp.airyai(0.8 + lam), panels))
            assert abs(kk.airy_heat_integral(-1.3, 0.8, dp) - ref) < 1e-9

    def test_heat_integral_needs_positive_rate(self):
        with pytest.raises(ValueError):
            kk.airy_heat_integral(0.0, 0.0, 0.0)

    def test_node_doubling_stability(self):
        for dp in (1.2, 3.0):
            b1 = kk.extended_airy_block(0.0, GRID1, dp, GRID2, order=64)
            b2 = kk.extended_airy_block(0.0, GRID1, dp, GRID2, order=96)
            assert np.max(np.abs(b1 - b2)) < 1e-11


class TestLaplaceComplement:
    def test_both_routes_match_direct_reference_for_damped_times(self):
        # the direct integral int_0^inf e^{tau*mu} Ai(xi-mu) dmu converges
        # absolutely only for tau < 0; it pins both production routes on
        # either side of their -1.5 crossover
        def ref(tau, xi):
            return float(mp.quad(
                lambda mu: mp.exp(tau * mu) * mp.airyai(xi - mu),
                [0, 5, 10, 20, 40, 80]))

        for tau in (-2.5, -1.0, -0.3):
            for xi in (-3.0, 0.0, 2.0):
                assert abs(kk.airy_laplace_complement(tau, xi)
                           - ref(tau, xi)) < 1e-10

    def test_positive_time_matches_high_precision_complement(self):
        # for tau > 0 the function is the analytic continuation
        # e^{tau*xi - tau^3/3} - int_0^inf e^{-tau*lam} Ai(xi+lam) dlam
        for tau in (0.5, 1.2):
            for xi in (-2.0, 1.0):
                ref = float(
                    mp.e ** (tau * xi - tau ** 3 / 3.0)
                    - mp.quad(lambda lam: mp.exp(-tau * lam)
                              * mp.airyai(xi + lam), [0, 10, 20, 40]))
                assert abs(kk.airy_laplace_complement(tau, xi) - ref) < 1e-11

    def test_route_crossover_is_continuous(self):
        for xi in (-4.0, -1.0, 0.5, 3.0):
            lo = kk.airy_laplace_complement(-1.5 - 1e-9, xi)
            hi = kk.airy_laplace_complement(-1.5 + 1e-9, xi)
            assert abs(lo - hi) < 1e-8

    def test_value_at_zero_time(self):
        # B(0, xi) = 2/3 + int_0^xi Ai
        for xi in (-3.0, -1.0, 0.0, 2.0):
            ref = 2.0 / 3.0 + float(mp.quad(mp.airyai, [0, xi]))
            assert abs(kk.airy_laplace_complement(0.0, xi) - ref) < 1e-11

    def test_vectorized_over_positions(self):
        # scalar calls see a different node floor, so match closely
        # rather than bit-for-bit
        xis = np.array([-2.0, 0.0, 1.5])
        vec = kk.airy_laplace_complement(0.4, xis)
        for i, xi in enumerate(xis):
            assert abs(vec[i] - kk.airy_laplace_complement(0.4, float(xi))) \
                < 1e-13


class TestBorderIntegrals:
    def test_rank_one_term_equals_laplace_complement(self):
        # the j=1 contour integral with a single zero strength collapses
        # to the Laplace complement exactly
        for tau1 in (-0.8, 0.0, 0.6):
            xis = np.array([-2.0, 0.0, 1.3])
            i1 = kk._perturbation_i_all(tau1, xis, [0.0])[0]
            b = kk.airy_laplace_complement(tau1, xis)
            assert np.max(np.abs(i1 - b)) < 1e-10

    def test_rank_one_term_keeps_relative_accuracy(self):
        # the contour integrand carries e^{-xi c} at vertex height c, so a
        # high vertex magnifies rounding where xi is negative and the
        # complement is tiny (1e-12 at tau1 = -3)
        xis = np.linspace(-8.0, 12.0, 81)
        for tau1 in (-3.0, -2.0, -1.6, -1.0, -0.4, 0.0, 0.3, 1.0):
            i1 = kk._perturbation_i_all(tau1, xis, [0.0])[0]
            b = kk.airy_laplace_complement(tau1, xis)
            np.testing.assert_allclose(i1, b, rtol=1e-8, atol=0)

    def test_contour_shift_invariance(self):
        v1 = kk._perturbation_i_all(0.2, GRID1, [0.0, 1.1], shift=1.0)
        v2 = kk._perturbation_i_all(0.2, GRID1, [0.0, 1.1], shift=1.7)
        assert np.max(np.abs(v1 - v2)) < 1e-12

    def test_vee_contour_matches_horizontal_line(self):
        # the horizontal line converges only above the real axis, which
        # needs every pole above the contour height; use strengths with a
        # comfortably positive gap
        tau1, etas = -0.5, [2.5, 3.0]
        for xi in (-1.0, 0.0, 1.5):
            vee = kk._perturbation_i_all(tau1, np.array([xi]), etas)
            for j in range(len(etas)):
                line = _perturbation_i_line(tau1, xi, etas[:j + 1])
                assert abs(vee[j, 0] - line) < 1e-10

    def test_horizontal_line_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            _perturbation_i_line(0.5, 0.0, [0.2])


class TestCriticalKernels:
    def test_k3_continuous_through_zero_time(self):
        for xi1, xi2 in itertools.product((-1.0, 0.5), repeat=2):
            lo = float(kk.kernel_K3_block(-1e-7, [xi1], 0.4, [xi2])[0, 0])
            hi = float(kk.kernel_K3_block(+1e-7, [xi1], 0.4, [xi2])[0, 0])
            assert abs(lo - hi) < 1e-6

    def test_k3prime_reduces_to_k3(self):
        # one vanishing strength plus one sent to infinity; a merely large
        # second strength leaves an O(1/eta) residue, so it must be huge
        for (t1, t2) in [(0.3, 0.3), (-0.2, 0.9), (0.9, -0.2)]:
            k3 = kk.kernel_K3_block(t1, GRID1, t2, GRID2)
            red = kk.kernel_K3prime_block(t1, GRID1, t2, GRID2, [0.0, 1e12])
            assert np.max(np.abs(k3 - red)) < 1e-8

    def test_k3prime_reduces_to_extended_airy(self):
        for (t1, t2) in [(0.3, 0.3), (-0.2, 0.9)]:
            k2 = kk.extended_airy_block(t1, GRID1, t2, GRID2)
            red = kk.kernel_K3prime_block(t1, GRID1, t2, GRID2, [1e12])
            assert np.max(np.abs(k2 - red)) < 1e-8

    def test_k3prime_rejects_negative_strengths(self):
        with pytest.raises(ValueError):
            kk.kernel_K3prime_block(0.0, [0.0], 0.0, [0.0], [-0.5])


def _kn_brute(tau1, xi1, tau2, xi2, eps, step=0.05, half_width=8.0,
              circle_nodes=40000):
    """Same line integral, but the inner residue sum done as a brute
    trapezoidal circle contour around all poles."""
    n = len(eps)
    dp = tau1 - tau2
    y = np.arange(-half_width, half_width + step / 2, step)
    w2 = 0.5 + 1j * y
    pnum = np.ones_like(w2)
    for e in eps:
        pnum = pnum * (math.exp(-tau2) * w2 + e)
    poles = np.array([-math.exp(tau1) * e for e in eps])
    center = poles.mean()
    rad = max(0.2, 1.5 * np.max(np.abs(poles - center)) + 0.1)
    assert center + rad < math.exp(dp) * 0.5
    theta = np.linspace(0, 2 * math.pi, circle_nodes, endpoint=False)
    w1 = center + rad * np.exp(1j * theta)
    dw1 = 1j * rad * np.exp(1j * theta) * (2 * math.pi / circle_nodes)
    denom = np.ones_like(w1)
    for a in poles:
        denom = denom * (w1 - a)
    numer = np.exp(-w1 ** 2 + 2 * w1 * xi1) * math.exp(n * tau1) / denom
    big_c = math.exp(dp) * w2
    inner = np.array([np.sum(numer / (c - w1) * dw1) for c in big_c])
    inner = inner / (2j * math.pi)
    e2 = np.exp(w2 ** 2 - 2 * w2 * xi2)
    val = (step / math.pi) * float(np.real(np.sum(inner * pnum * e2)))
    if tau1 < tau2:
        val -= float(kk.gaussian_transition(xi1, xi2, tau2 - tau1))
    return val


class TestRankNGaussian:
    CASES = [
        (0.5, -0.7, 0.1, 0.4, [0.05, 0.22]),
        (0.5, -0.7, 0.1, 0.4, [0.22, 0.22]),
        (0.5, -0.7, 0.1, 0.4, [0.3, 0.3, 0.3]),
        (-0.3, 0.6, 0.4, -0.2, [0.0, 0.0, 0.25]),
        (0.1, 0.6, 0.9, -0.2, [0.15, 0.15]),
    ]

    def test_residue_series_matches_brute_contour(self):
        for t1, x1, t2, x2, eps in self.CASES:
            mine = float(kk.kernel_Kn_block(t1, [x1], t2, [x2], eps)[0, 0])
            ref = _kn_brute(t1, x1, t2, x2, eps)
            assert abs(mine - ref) < 1e-12

    def test_series_product_is_truncated_convolution(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        got = kk._series_product(a, b, 4)
        for row, a_row in zip(got, a):
            assert np.allclose(row, np.convolve(a_row, b)[:4],
                               rtol=1e-15, atol=1e-15)

    def test_confluent_limit_of_distinct_poles(self):
        # distinct poles at separation d cost ~1/d^2 in float cancellation
        # while the true gap is O(d); d = 1e-5 balances the two near 1e-5
        ka = kk.kernel_Kn_block(0.5, GRID1, 0.1, GRID2, [0.3, 0.3, 0.3])
        kb = kk.kernel_Kn_block(0.5, GRID1, 0.1, GRID2,
                                [0.3, 0.3 + 1e-5, 0.3 - 1e-5])
        assert np.max(np.abs(ka - kb) / (1.0 + np.abs(ka))) < 1e-4

    def test_mixed_multiplicity_confluent_limit(self):
        ka = kk.kernel_Kn_block(-0.3, GRID1, 0.4, GRID2, [0.0, 0.0, 0.7])
        kb = kk.kernel_Kn_block(-0.3, GRID1, 0.4, GRID2, [0.0, 1e-7, 0.7])
        assert np.max(np.abs(ka - kb)) < 1e-6

    def test_zero_strength_reduces_to_rank_one_gaussian(self):
        for (t1, t2) in [(0.0, 0.0), (0.2, 1.4), (1.4, 0.2)]:
            kg = kk.kernel_KG_block(t1, GRID1, t2, GRID2)
            kn = kk.kernel_Kn_block(t1, GRID1, t2, GRID2, [0.0])
            assert np.max(np.abs(kg - kn)) < 1e-12

    def test_line_refinement_stability(self):
        ka = kk.kernel_Kn_block(0.5, GRID1, 0.1, GRID2, [0.2, 0.9])
        kb = kk.kernel_Kn_block(0.5, GRID1, 0.1, GRID2, [0.2, 0.9],
                                step=0.025, half_width=10.0)
        assert np.max(np.abs(ka - kb) / (1.0 + np.abs(ka))) < 1e-12

    def test_rejects_empty_or_negative_strengths(self):
        with pytest.raises(ValueError):
            kk.kernel_Kn_block(0.0, [0.0], 0.0, [0.0], [])
        with pytest.raises(ValueError):
            kk.kernel_Kn_block(0.0, [0.0], 0.0, [0.0], [0.2, -0.1])


class TestGaussianKernel:
    def test_transition_density_normalized(self):
        t, w = np.polynomial.legendre.leggauss(200)
        xi2 = 12.0 * t
        wq = 12.0 * w
        for dtau in (0.3, 1.5):
            for xi1 in (-2.0, 0.0, 1.0):
                total = np.sum(wq * kk.gaussian_transition(xi1, xi2, dtau))
                assert abs(total - 1.0) < 1e-12

    def test_transition_reversible_under_stationary_density(self):
        for dtau in (0.4, 2.0):
            for xi1, xi2 in [(-1.0, 0.5), (0.3, 2.0)]:
                lhs = (math.exp(-xi1 ** 2)
                       * kk.gaussian_transition(xi1, xi2, dtau))
                rhs = (math.exp(-xi2 ** 2)
                       * kk.gaussian_transition(xi2, xi1, dtau))
                assert abs(lhs - rhs) < 1e-14

    def test_transition_needs_positive_gap(self):
        with pytest.raises(ValueError):
            kk.gaussian_transition(0.0, 0.0, 0.0)

    def test_backward_blocks_depend_only_on_column(self):
        block = kk.kernel_KG_block(1.0, GRID1, 0.2, GRID2)
        assert np.max(np.abs(block - block[0:1, :])) == 0.0


class TestOnsetKernel:
    def test_determinant_equals_inclusion_exclusion(self):
        taus, levels = [-0.3, 0.5], [2, 3]
        pts = [(i, x) for i, l in enumerate(levels) for x in range(l)]
        mat = np.array([[kk.kernel_region1(taus[i], x, taus[j], y)
                         for (j, y) in pts] for (i, x) in pts])
        total = 1.0
        for k in range(1, len(pts) + 1):
            for comb in itertools.combinations(range(len(pts)), k):
                sub = mat[np.ix_(comb, comb)]
                total += (-1) ** k * np.linalg.det(sub)
        det = region1_prob(taus, levels)
        assert abs(det - total) < 1e-12

    def test_zero_level_marginalizes(self):
        p2 = region1_prob([0.2, 0.9], [3, 0])
        p1 = region1_prob([0.2], [3])
        assert abs(p2 - p1) < 1e-14

    def test_onetime_values_are_decreasing_probabilities(self):
        prev = 1.0 + 1e-12
        for ell in range(0, 7):
            p = region1_prob([0.3], [ell])
            assert 0.0 <= p <= prev
            prev = p

    def test_forward_entry_equals_abel_summed_tail(self):
        # the forward branch re-sums sum_{k>=1} psi1(x1+k) psi2(x2+k),
        # which converges only conditionally; Abel regularization of the
        # literal tail must agree with the closed re-summation
        x1, x2, tau1, tau2 = 1, 3, 0.4, 1.1
        h = psi2_sequence(x2, tau2)
        window = sum(psi1(x1 - m, tau1) * h[x2 - m] for m in range(0, x2 + 1))
        target = kk.phi_poisson(x1, x2, tau2 - tau1) - window

        def abel_tail(r, terms):
            a_prev, a_cur = psi1(x1, tau1), psi1(x1 + 1, tau1)
            b_prev, b_cur = 1.0, tau2
            idx = 1
            while idx < x2 + 1:
                b_prev, b_cur = b_cur, (tau2 * b_cur - b_prev) / (idx + 1)
                idx += 1
            scale, total, rk = 1.0, 0.0, 1.0
            for k in range(1, terms + 1):
                rk *= r
                total += rk * a_cur * b_cur * scale
                xa = x1 + k
                a_prev, a_cur = a_cur, tau1 * a_cur - (xa - 1) * a_prev
                b_prev, b_cur = b_cur, (tau2 * b_cur - b_prev) / (idx + 1)
                idx += 1
                if max(abs(a_cur), abs(a_prev)) > 1e80:
                    a_cur /= 1e80
                    a_prev /= 1e80
                    scale *= 1e80
                m2 = max(abs(b_cur), abs(b_prev))
                if m2 != 0 and m2 < 1e-80:
                    b_cur *= 1e80
                    b_prev *= 1e80
                    scale /= 1e80
            return total

        v_half = abel_tail(0.995, 12000)
        v_quart = abel_tail(0.9975, 12000)
        extrapolated = 2 * v_quart - v_half
        assert abs(v_quart - target) < 5e-4
        assert abs(extrapolated - target) < 5e-5

    def test_poisson_propagator_values(self):
        assert kk.phi_poisson(2, 1, 0.5) == 0.0
        assert kk.phi_poisson(1, 1, 0.5) == 1.0
        assert abs(kk.phi_poisson(0, 3, 0.5) - 0.5 ** 3 / 6.0) < 1e-15

    def test_matches_finite_system_and_converges(self):
        diffs = {}
        for m in (200, 800):
            ex = ScaledExperiment(region="R1", m=m, q=0.1)
            t = ex.time_of(-0.045)
            tau = ex.tau_of(t)
            rates = (0.1,) * m
            worst = 0.0
            for ell in range(1, 4):
                fin = joint_probability([t], [ell], rates)
                lim = region1_prob([tau], [ell])
                worst = max(worst, abs(fin - lim))
            diffs[m] = worst
        assert diffs[200] < 0.07
        assert diffs[800] < 0.035
        assert diffs[800] < 0.65 * diffs[200]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            region1_prob([0.1], [1, 2])
