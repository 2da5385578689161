"""Limiting kernels vs independent evaluation routes and vs the finite model.

Every kernel has at least two routes to the same number: re-summed versus
direct quadrature for the extended Airy kernel, V contour versus horizontal
line and versus the real-line Laplace complement of Ai (tests/oracles.py)
for the defect border integrals, residue series versus brute circle
contour for the rank-n Gaussian kernel, and finite inclusion-exclusion
versus determinant for the lattice onset kernel.  The onset kernel is also
cross-validated against the exact finite-system determinant under the
scaling map, with the deviation halving as the particle count quadruples,
and its block against the scalar entry of tests/oracles.py.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy import special as sps

from oracles import (
    _perturbation_i_line,
    airy_laplace_complement,
    kernel_region1,
    phi_poisson,
)
from steptasep.combinatorics import elementary_symmetric
from steptasep.finite_kernel import joint_probability
from steptasep import fredholm
from steptasep.fredholm import LCUT, ORDER, _window, region1_prob
from steptasep.limit_kernels import kernels as kk
from steptasep.limit_kernels import special
from steptasep.limit_kernels.scaling import ScaledExperiment
from steptasep.limit_kernels.special import psi1, psi2_sequence

mp.mp.dps = 30

GRID1 = np.array([-3.0, -1.0, 0.0, 1.2, 2.5])
GRID2 = np.array([-2.5, -0.5, 0.0, 1.2, 3.0])


class TestExtendedAiry:
    def test_equal_time_matches_christoffel_darboux(self):
        # equal-time blocks are the Christoffel-Darboux form; the lambda
        # quadrature at equal times is the independent route
        block = kk.extended_airy_block(0.7, GRID1, 0.7, GRID2)
        quad = kk.airy_kernel_quadrature(0.7, GRID1, 0.7, GRID2)
        assert 0.0 < np.max(np.abs(block - quad)) < 1e-12

    def test_christoffel_darboux_diagonal_is_the_limit(self):
        # coinciding nodes take Ai'^2 - x Ai^2, the x -> y limit
        xs = np.array([-2.0, 0.5, 3.0])
        diag = np.diag(kk.airy_kernel_cd(xs, xs))
        near = np.diag(kk.airy_kernel_cd(xs, xs + 1e-6))
        np.testing.assert_allclose(diag, near, rtol=1e-5, atol=0)

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
            b1 = kk.airy_kernel_quadrature(0.0, GRID1, dp, GRID2, order=64)
            b2 = kk.airy_kernel_quadrature(0.0, GRID1, dp, GRID2, order=96)
            assert np.max(np.abs(b1 - b2)) < 1e-11


class TestLaplaceComplement:
    def test_both_routes_match_direct_reference_for_damped_times(self):
        # the direct integral int_0^inf e^{tau*mu} Ai(xi-mu) dmu converges
        # absolutely only for tau < 0; it pins both routes of the oracle on
        # either side of their -1.5 crossover
        def ref(tau, xi):
            return float(mp.quad(
                lambda mu: mp.exp(tau * mu) * mp.airyai(xi - mu),
                [0, 5, 10, 20, 40, 80]))

        for tau in (-2.5, -1.0, -0.3):
            for xi in (-3.0, 0.0, 2.0):
                assert abs(airy_laplace_complement(tau, xi)
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
                assert abs(airy_laplace_complement(tau, xi) - ref) < 1e-11

    def test_route_crossover_is_continuous(self):
        for xi in (-4.0, -1.0, 0.5, 3.0):
            lo = airy_laplace_complement(-1.5 - 1e-9, xi)
            hi = airy_laplace_complement(-1.5 + 1e-9, xi)
            assert abs(lo - hi) < 1e-8

    def test_value_at_zero_time(self):
        # B(0, xi) = 2/3 + int_0^xi Ai
        for xi in (-3.0, -1.0, 0.0, 2.0):
            ref = 2.0 / 3.0 + float(mp.quad(mp.airyai, [0, xi]))
            assert abs(airy_laplace_complement(0.0, xi) - ref) < 1e-11

    def test_vectorized_over_positions(self):
        # the vector route sweeps down the sorted distinct points, so it
        # matches scalar calls closely rather than bit-for-bit
        xis = np.array([1.5, -2.0, 0.0, -2.0, 4.0])
        vec = airy_laplace_complement(0.4, xis)
        assert vec[1] == vec[3]
        for i, xi in enumerate(xis):
            assert abs(vec[i] - airy_laplace_complement(0.4, float(xi))) \
                < 1e-13


class TestBorderSweep:
    """The vector route of airy_laplace_complement sweeps down the sorted
    points; a scalar call is the half-line rule at that one point."""

    @pytest.mark.parametrize("s", [-6.0, -1.0, 4.0])
    def test_nystrom_nodes_match_per_point_route(self, s):
        # below tau = 0 both routes subtract terms of size e^{tau*xi}
        # (1e4 at xi = -6, tau = -1.4), so a few ulps of that term are
        # allowed on top of the relative bound
        for lcut, order in ((LCUT, ORDER), (2.0 * LCUT, 2 * ORDER)):
            length, n = _window(s, lcut, order)
            t, _ = np.polynomial.legendre.leggauss(n)
            xs = s + length / 2.0 * (1.0 + t)
            for tau in (-1.4, -0.4, 0.0, 0.3, 1.2):
                vec = airy_laplace_complement(tau, xs)
                ref = np.array([airy_laplace_complement(tau, float(x))
                                for x in xs])
                scale = np.exp(tau * xs - tau ** 3 / 3.0)
                assert np.all(np.abs(vec - ref)
                              <= 1e-11 * np.abs(ref) + 1e-15 * scale)

    def test_wide_gap_matches_high_precision(self):
        # a 25-unit gap at tau = -1 grows e^{x - xi} by e^25 across it; one
        # 10-point rule over the whole gap is off by 0.12 at xi = -3
        xs = np.array([-3.0, 22.0])
        vec = airy_laplace_complement(-1.0, xs)
        for x, v in zip(xs, vec):
            ref = float(mp.quad(lambda mu: mp.exp(-mu) * mp.airyai(x - mu),
                                [0, 5, 10, 20, 30, 40, 80]))
            assert abs(v - ref) < 1e-10 * abs(ref)


class TestBorderIntegrals:
    def test_rank_one_term_equals_laplace_complement(self):
        # the j=1 contour integral with a single zero strength collapses
        # to the Laplace complement exactly
        for tau1 in (-0.8, 0.0, 0.6):
            xis = np.array([-2.0, 0.0, 1.3])
            i1 = kk._perturbation_i_all(tau1, xis, [0.0])[0]
            b = airy_laplace_complement(tau1, xis)
            assert np.max(np.abs(i1 - b)) < 1e-10

    def test_rank_one_term_keeps_relative_accuracy(self):
        # the contour integrand carries e^{-xi c} at vertex height c, so a
        # high vertex magnifies rounding where xi is negative and the
        # complement is tiny (1e-12 at tau1 = -3)
        xis = np.linspace(-8.0, 12.0, 81)
        for tau1 in (-3.0, -2.0, -1.6, -1.0, -0.4, 0.0, 0.3, 1.0):
            i1 = kk._perturbation_i_all(tau1, xis, [0.0])[0]
            b = airy_laplace_complement(tau1, xis)
            np.testing.assert_allclose(i1, b, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("tau1", [0.0, 0.5, 1.0])
    def test_rank_one_term_keeps_relative_accuracy_at_large_xi(self, tau1):
        # the vertex sits shift below the pole at -tau1, and e^{-xi c}
        # magnifies rounding by e^{xi shift} relative to the value: a unit
        # depth gave 2e-4 relative at xi = 28, tau1 = 0
        xis = np.array([16.0, 20.0, 24.0, 28.0])
        i1 = kk._perturbation_i_all(tau1, xis, [0.0])[0]
        np.testing.assert_allclose(i1, airy_laplace_complement(tau1, xis),
                                   rtol=1e-11, atol=0)

    def test_derivative_orders_from_one_airy_evaluation(self, monkeypatch):
        # the equal-time block and every J_j share one Airy ladder; with
        # I_j stubbed to the j-th unit row, row j - 1 of the block minus
        # the Christoffel-Darboux block is J_j alone, checked against J_j
        # built from airy_derivative
        calls = []

        def spy(x):
            calls.append(np.size(x))
            return special.airy_pair(x)

        monkeypatch.setattr(kk, "airy_pair", spy)
        monkeypatch.setattr(kk, "_perturbation_i_all",
                            lambda tau1, xis, etas: np.eye(len(etas),
                                                           len(xis)))
        xis = np.linspace(-5.0, 5.0, 50)
        etas = [0.3, 0.7, 1.1, 2.0]
        block = kk.kernel_K3prime_block(0.4, xis, 0.4, xis, etas)
        assert calls == [50]
        j_all = block[:len(etas)] - kk.airy_kernel_cd(xis, xis)[:len(etas)]
        for j in range(1, len(etas) + 1):
            e = elementary_symmetric([eta - 0.4 for eta in etas[:j - 1]])
            want = sum(e[j - 1 - r] * special.airy_derivative(xis, r)
                       for r in range(j))
            scale = max(np.max(np.abs(special.airy_derivative(xis, r)))
                        for r in range(j))
            assert np.max(np.abs(j_all[j - 1] - want)) <= 1e-15 * scale

    def test_contour_shift_invariance(self):
        # the default vertex depth against two deeper ones, also with a
        # repeated pole
        for etas in ([0.0, 1.1], [0.0, 0.0]):
            v0 = kk._perturbation_i_all(0.2, GRID1, etas)
            for shift in (1.0, 1.7):
                v = kk._perturbation_i_all(0.2, GRID1, etas, shift=shift)
                assert np.max(np.abs(v - v0)) < 1e-12

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

    @pytest.mark.parametrize("etas", [[-0.5], [0.0, math.nan]])
    def test_k3prime_rejects_negative_strengths(self, etas):
        with pytest.raises(ValueError):
            kk.kernel_K3prime_block(0.0, [0.0], 0.0, [0.0], etas)


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
        with pytest.raises(ValueError):
            kk.kernel_Kn_block(0.0, [0.0], 0.0, [0.0], [math.nan])


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
        mat = np.array([[kernel_region1(taus[i], x, taus[j], y)
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

    @pytest.mark.parametrize("tau", [-2.0, 0.3, 2.0])
    def test_deep_tail_is_a_probability(self, tau):
        # det(I - K) rounds to -6.9e-121 / -1.3e-77 / -7.5e-47 here
        assert 0.0 <= region1_prob([tau], [20]) <= 1.0

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
        target = -kk.kernel_region1_block(tau1, [x1], tau2, [x2])[0, 0]

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
        # a forward entry is the backward-ordering sum minus dt^k/k!
        def propagator(x1, x2, tau1=0.2, dt=0.5):
            h = psi2_sequence(x2, tau1 + dt)
            window = sum(psi1(x1 - m, tau1) * h[x2 - m]
                         for m in range(0, x2 + 1))
            entry = kk.kernel_region1_block(tau1, [x1], tau1 + dt, [x2])
            return window - entry[0, 0]

        assert phi_poisson(2, 1, 0.5) == propagator(2, 1) == 0.0
        assert phi_poisson(1, 1, 0.5) == 1.0
        assert abs(propagator(1, 1) - 1.0) < 1e-15
        assert abs(phi_poisson(0, 3, 0.5) - 0.5 ** 3 / 6.0) < 1e-15
        assert abs(propagator(0, 3) - 0.5 ** 3 / 6.0) < 1e-15

    @pytest.mark.parametrize("tau1, tau2", [(0.4, 0.4), (1.1, -0.3),
                                            (-0.3, 1.1)])
    def test_block_matches_scalar_entries(self, tau1, tau2):
        # windows off the origin, with negative columns where the sum is
        # empty and rows where the forward propagator vanishes
        xs1, xs2 = range(-3, 5), range(-2, 6)
        block = kk.kernel_region1_block(tau1, xs1, tau2, xs2)
        want = np.array([[kernel_region1(tau1, x, tau2, y) for y in xs2]
                         for x in xs1])
        assert np.max(np.abs(block - want)) < 1e-13

    def test_one_psi1_per_argument(self, monkeypatch):
        calls = []

        def counted(x, tau):
            calls.append(x)
            return psi1(x, tau)

        monkeypatch.setattr(kk, "psi1", counted)
        region1_prob([0.0], [60])
        assert len(calls) == len(set(calls)) <= 4 * 60

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

    @pytest.mark.parametrize("taus, levels", [
        ([0.3], [2.9]),
        ([0.3], [True]),  # once counted as level 1
        ([math.nan], [2]),
        ([0.1, math.inf], [1, 1]),
    ])
    def test_bad_input_rejected_before_kernel(self, monkeypatch, taus,
                                              levels):
        def no_kernel(*args):
            raise AssertionError("kernel evaluated before the input check")

        monkeypatch.setattr(fredholm, "kernel_region1_block", no_kernel)
        with pytest.raises(ValueError):
            region1_prob(taus, levels)
