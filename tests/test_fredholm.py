"""Determinant engine and reference law checks.

The two matrix laws are validated against an independent representation:
the Hastings-McLeod solution of the Painleve II equation q'' = s q + 2 q^3
with q ~ Ai at +infinity, integrated downward with the tail integrals
carried as extra state.  exp(-int (x-s) q^2) gives the unitary-ensemble
edge law and the extra factor exp(-int q) gives the squared
orthogonal-ensemble law.  Downward integration must run with zero
absolute tolerance: any absolute error floor seeded near the tiny
initial condition is amplified along the growing Airy direction.

The two-time stationary Gaussian determinant has a bivariate normal
closed form, which also settles where the stationary density factor
belongs: on the column variable the determinant reproduces the closed
form to machine precision, on the row variable it is off by order one
and is not even stable under quadrature refinement.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import mpmath
from scipy.integrate import solve_ivp
from scipy.special import airy as scipy_airy
from scipy.stats import multivariate_normal

from oracles import (
    airy_laplace_complement,
    kernel_region1,
    ou_joint_cdf_quadrature,
)
from steptasep import finite_kernel, fredholm
from steptasep.combinatorics import fraction_determinant
from steptasep.finite_kernel import joint_probability
from steptasep.fredholm import (
    LCUT,
    ORDER,
    ProbabilityRangeError,
    RefinementError,
    _det_once,
    _window,
    det_continuous,
    det_discrete,
    gaussian_r4_cdf,
    goe2_cdf,
    ks_distance,
    reference_law,
    region1_prob,
    tw_gue_cdf,
)
from steptasep.limit_kernels import kernels as kk
from steptasep.limit_kernels.kernels import (
    extended_airy_block,
    gaussian_transition,
    kernel_K3prime_block,
    kernel_KG_block,
    kernel_Kn_block,
)
from steptasep.limit_kernels.scaling import ScaledExperiment
from steptasep.limit_kernels.special import airy_ai
from steptasep.system import uniform_rates

_PII_SOL = None


def painleve_hastings_mcleod():
    """Solve q'' = sq + 2q^3 downward from q ~ Ai, carrying
    I = int_s^inf (x-s) q^2, K = int_s^inf q^2, J = int_s^inf q."""
    global _PII_SOL
    if _PII_SOL is None:
        s0 = 8.0
        ai0, aip0, _, _ = scipy_airy(s0)
        k0 = aip0 ** 2 - s0 * ai0 ** 2
        m0 = (-s0 ** 2 * ai0 ** 2 + s0 * aip0 ** 2 - ai0 * aip0) / 3.0
        j0 = float(mpmath.quad(mpmath.airyai, [s0, 30, 80]))

        def rhs(s, y):
            q, dq, i_, k_, j_ = y
            return [dq, s * q + 2.0 * q ** 3, -k_, -q * q, -q]

        _PII_SOL = solve_ivp(rhs, (s0, -7.0),
                             [ai0, aip0, m0 - s0 * k0, k0, j0],
                             method="DOP853", rtol=1e-13, atol=0.0,
                             dense_output=True)
        assert _PII_SOL.success
    return _PII_SOL


def pii_laws(s):
    q, dq, i_, k_, j_ = painleve_hastings_mcleod().sol(s)
    return math.exp(-i_), math.exp(-i_ - j_)


def bvn_cdf(s1, s2, dtau):
    rho = math.exp(-dtau)
    cov = [[0.5, 0.5 * rho], [0.5 * rho, 0.5]]
    return float(multivariate_normal(mean=[0.0, 0.0], cov=cov).cdf([s1, s2]))


JOINT_CASES = [(-0.5, 0.3, 0.7), (0.0, 0.0, 0.4), (1.0, -1.0, 1.5),
               (0.8, 0.8, 0.1)]


RATES2 = [Fraction(3, 10), Fraction(1, 2)]


def table_block(table):
    """The block function that reads a kernel stored entrywise."""
    def block(t1, xs1, t2, xs2):
        return [[table[(t1, x, t2, y)] for y in xs2] for x in xs1]
    return block


class TestDetDiscrete:
    def test_no_points_gives_one(self):
        def zero_block(t1, xs1, t2, xs2):
            return np.zeros((len(xs1), len(xs2)))

        assert det_discrete(zero_block, [(0, []), (1, [])]) == 1.0

    def test_single_point(self):
        val = det_discrete(lambda t1, xs1, t2, xs2: [[0.25]], [(0, [3])])
        assert abs(val - 0.75) < 1e-15

    def test_matches_dense_determinant(self):
        rng = np.random.default_rng(5)
        windows = [(0, [0, 1, 2]), (1, [5, 6])]
        table = {}
        points = [(i, x) for i, w in windows for x in w]
        mat = np.zeros((5, 5))
        for a, pa in enumerate(points):
            for b, pb in enumerate(points):
                table[pa + pb] = rng.normal() * 0.2
                mat[a, b] = table[pa + pb]
        val = det_discrete(table_block(table), windows)
        assert abs(val - np.linalg.det(np.eye(5) - mat)) < 1e-14

    def test_reproduces_onset_probability(self):
        taus = [-0.4, 0.3]
        levels = [3, 2]
        windows = [(tau, range(lv)) for tau, lv in zip(taus, levels)]

        def block(t1, xs1, t2, xs2):
            return [[kernel_region1(t1, x, t2, y) for y in xs2] for x in xs1]

        assert abs(det_discrete(block, windows)
                   - region1_prob(taus, levels)) < 1e-13

    def test_exact_and_float_routes_match_hand_built_matrix(self):
        # random rational blocks, with an empty window in the middle
        rng = random.Random(11)
        windows = [(0, [0, 1]), (1, []), (2, [4, 5, 6])]
        points = [(t, x) for t, xs in windows for x in xs]
        table = {pa + pb: Fraction(rng.randint(-3, 3), rng.randint(2, 9))
                 for pa in points for pb in points}
        want = fraction_determinant(
            [[int(a == b) - table[pa + pb] for b, pb in enumerate(points)]
             for a, pa in enumerate(points)])
        got = det_discrete(table_block(table), windows, exact=True)
        assert isinstance(got, Fraction) and got == want
        mat = np.array([[float(table[pa + pb]) for pb in points]
                        for pa in points])
        val = det_discrete(table_block(table), windows)
        assert abs(val - np.linalg.det(np.eye(len(points)) - mat)) < 1e-14

    def test_every_determinant_is_assembled_here(self, monkeypatch):
        # joint_probability reaches det_discrete through finite_kernel's
        # name, the Nystrom and onset determinants through fredholm's
        calls = []
        original = fredholm.det_discrete

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (fredholm, finite_kernel):
            monkeypatch.setattr(module, "det_discrete", spy)
        cases = [
            (lambda: joint_probability([4], [2], RATES2), 1),
            (lambda: joint_probability([4], [2], RATES2, exact=True), 1),
            (lambda: region1_prob([0.3], [3]), 1),
            (lambda: tw_gue_cdf(0.0), 2),  # coarse and refined rule
        ]
        for run, want in cases:
            calls.clear()
            run()
            assert len(calls) == want


class TestDetContinuous:
    def test_no_windows_gives_one(self):
        assert det_continuous(kernel_KG_block, [], []) == 1.0

    def test_nan_threshold_raises(self):
        for cdf in (tw_gue_cdf, goe2_cdf):
            with pytest.raises(ValueError, match="finite"):
                cdf(math.nan)

    def test_matrix_beyond_byte_budget_rejected(self):
        # s = -1e4 needs a 40,080-node refined matrix, 12.9 GB of float64
        def no_block(t1, x1, t2, x2):
            raise AssertionError("kernel evaluated before the budget check")

        with pytest.raises(ValueError, match="budget"):
            det_continuous(no_block, [0.0], [-1e4])
        with pytest.raises(ValueError, match="budget"):
            tw_gue_cdf(-1e4)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="align"):
            det_continuous(kernel_KG_block, [0.0], [1.0, 2.0])

    def test_long_range_kernel_refuses(self):
        # a constant kernel keeps gaining mass as the window grows, so
        # the doubled evaluation cannot agree with the first one
        def const_block(t1, x1, t2, x2):
            return np.full((len(np.atleast_1d(x1)), len(np.atleast_1d(x2))),
                           0.02)

        with pytest.raises(RefinementError) as info:
            det_continuous(const_block, [0.0], [0.0])
        assert abs(info.value.coarse - 0.8) < 1e-12
        assert abs(info.value.refined - 0.6) < 1e-12

    def test_value_outside_unit_interval_raises(self):
        # two critical defects give a stable determinant of 1.14 at s = 1,
        # which is not a probability
        def two_defects(t1, x1, t2, x2):
            return kernel_K3prime_block(t1, x1, t2, x2, (0.0, 0.0))

        with pytest.raises(ProbabilityRangeError, match="1.140") as info:
            det_continuous(two_defects, [0.0], [1.0])
        assert abs(info.value.refined - info.value.coarse) < 1e-8
        assert info.value.refined > 1.0 + fredholm.TOL

    def test_nan_value_raises(self):
        def nan_block(t1, x1, t2, x2):
            return np.full((len(x1), len(x2)), np.nan)

        with np.errstate(invalid="ignore"), \
                pytest.raises(ProbabilityRangeError, match="nan"):
            det_continuous(nan_block, [0.0], [0.0])

    def test_window_relabeling_invariance(self):
        a = det_continuous(kernel_KG_block, [0.0, 0.7], [-0.5, 0.3])
        b = det_continuous(kernel_KG_block, [0.7, 0.0], [0.3, -0.5])
        assert abs(a - b) < 1e-12

    def test_monotone_in_threshold(self):
        vals = [det_continuous(kernel_KG_block, [0.0, 0.5], [s, 0.0])
                for s in (-1.0, 0.0, 1.0)]
        assert vals[0] < vals[1] < vals[2]


class TestProbabilityCheck:
    """checked_probability is the one range check of every float
    determinant: the onset law, the float exact law and Nystrom."""

    @pytest.fixture
    def onset_entry(self, monkeypatch):
        # region1_prob([0.0], [1]) is then det(I - K) = 1 - value
        def set_entry(value):
            monkeypatch.setattr(
                fredholm, "kernel_region1_block",
                lambda t1, xs1, t2, xs2: np.full((len(xs1), len(xs2)), value))
        return set_entry

    @pytest.mark.parametrize("entry, want", [
        (1.0 + fredholm.TOL / 2, 0.0),  # det = -TOL/2
        (-fredholm.TOL / 2, 1.0),  # det = 1 + TOL/2
        (0.25, 0.75),
    ])
    def test_values_within_tol_are_clipped(self, onset_entry, entry, want):
        onset_entry(entry)
        assert region1_prob([0.0], [1]) == want

    @pytest.mark.parametrize("entry", [math.nan, 1.0 + 2 * fredholm.TOL,
                                       -2 * fredholm.TOL])
    def test_values_beyond_tol_raise(self, onset_entry, entry):
        onset_entry(entry)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ProbabilityRangeError) as info:
            region1_prob([0.0], [1])
        assert info.value.coarse is None

    def test_float_exact_law_is_checked(self, monkeypatch):
        kern = finite_kernel.FiniteKernel(RATES2)
        monkeypatch.setattr(
            kern, "block",
            lambda t1, xs1, t2, xs2, exact: np.full((len(xs1), len(xs2)),
                                                    np.nan))
        with np.errstate(invalid="ignore"), \
                pytest.raises(ProbabilityRangeError, match="nan"):
            joint_probability([4], [2], kern)

    @pytest.mark.parametrize("tau, raw", [(8.0, "1.9"), (5.0, "-1.7")])
    def test_wide_onset_window_raises(self, tau, raw):
        # the float kernel cancels beyond double precision here: the raw
        # determinants are about 1.9e43 and -1.7e25
        with pytest.raises(ProbabilityRangeError, match=raw):
            region1_prob([tau], [60])


class TestReferenceLawsAgainstPainleve:
    def test_tw_gue_matches_painleve(self):
        for s in np.arange(-6.0, 3.01, 0.75):
            f2, _ = pii_laws(float(s))
            assert abs(tw_gue_cdf(float(s)) - f2) < 1e-11

    def test_goe_squared_matches_painleve(self):
        # one-time determinant of the critically perturbed kernel against
        # the squared orthogonal-ensemble law from the Painleve side
        for s in np.arange(-6.0, 3.01, 0.75):
            _, g2 = pii_laws(float(s))
            assert abs(goe2_cdf(float(s)) - g2) < 1e-11

    @pytest.mark.parametrize("s", [-6.0, -3.0, 0.0, 3.0, 5.5, 8.0])
    def test_goe_squared_matches_laplace_complement_route(self, s):
        # the border integral I_1 by real-line quadrature instead of the
        # V contour; the refined nodes reach xi = s + 20, where the contour
        # drifts for tau >= 0, and s > 3 lies past the Painleve II checks
        def oracle_block(t1, x1, t2, x2):
            return (extended_airy_block(t1, x1, t2, x2)
                    + np.outer(airy_laplace_complement(t1, x1), airy_ai(x2)))

        assert abs(goe2_cdf(s) - det_continuous(oracle_block, [0.0], [s])) \
            < 1e-14

    def test_tw_gue_value_at_zero(self):
        assert abs(tw_gue_cdf(0.0) - 0.9693728283552624) < 1e-9

    def test_tw_gue_mean_from_table(self):
        law = reference_law("tw-gue")
        mids = 0.5 * (law.grid[1:] + law.grid[:-1])
        mean = float(mids @ np.diff(law.values))
        assert abs(mean - (-1.771086807411)) < 2e-3

    def test_gaussian_law_closed_form(self):
        assert gaussian_r4_cdf(0.0) == 0.5
        assert abs(gaussian_r4_cdf(1.0) - 0.5 * (1 + math.erf(1.0))) < 1e-15
        assert abs(gaussian_r4_cdf(-1.0) + gaussian_r4_cdf(1.0) - 1.0) < 1e-15


class TestGaussianTwoTime:
    def test_matches_bivariate_normal(self):
        for s1, s2, d in JOINT_CASES:
            val = det_continuous(kernel_KG_block, [0.0, d], [s1, s2])
            assert abs(val - bvn_cdf(s1, s2, d)) < 1e-10

    def test_quadrature_oracle_matches_closed_form(self):
        for s1, s2, d in JOINT_CASES:
            val = ou_joint_cdf_quadrature(s1, s2, 0.0, d)
            assert abs(val - bvn_cdf(s1, s2, d)) < 1e-10

    def test_row_placement_of_density_fails(self):
        # the other candidate reading, density factor on the row variable,
        # is off by order one (one case even exceeds 1)
        def row_variant(t1, x1, t2, x2):
            x1 = np.atleast_1d(np.asarray(x1, float))
            x2 = np.atleast_1d(np.asarray(x2, float))
            blk = np.tile((np.exp(-x1 ** 2) / math.sqrt(math.pi))[:, None],
                          (1, len(x2)))
            if t1 < t2:
                blk = blk - gaussian_transition(x1[:, None], x2[None, :],
                                                t2 - t1)
            return blk

        for s1, s2, d in JOINT_CASES:
            val = _det_once(row_variant, [0.0, d], [s1, s2], 10.0, 40)
            assert abs(val - bvn_cdf(s1, s2, d)) > 1e-2

    def test_rank_perturbed_kernel_reduces_at_zero_strength(self):
        def kn_block(t1, x1, t2, x2):
            return kernel_Kn_block(t1, x1, t2, x2, [0.0])

        for s1, s2, d in JOINT_CASES[:2]:
            a = det_continuous(kn_block, [0.0, d], [s1, s2])
            assert abs(a - bvn_cdf(s1, s2, d)) < 1e-8

    def test_joint_quadrature_time_properties(self):
        assert ou_joint_cdf_quadrature(0.4, -0.2, 1.0, 1.0) == \
            gaussian_r4_cdf(-0.2)
        sym = abs(ou_joint_cdf_quadrature(0.4, -0.2, 0.0, 0.8)
                  - ou_joint_cdf_quadrature(-0.2, 0.4, 0.8, 0.0))
        assert sym < 1e-14
        far = ou_joint_cdf_quadrature(0.5, -0.3, 0.0, 30.0)
        assert abs(far - gaussian_r4_cdf(0.5) * gaussian_r4_cdf(-0.3)) < 1e-9


class TestTwoTimeAiryLaw:
    """The two-time law det(I - K2) on (s1, inf) x (s2, inf) at times 0 and
    delta, the one law route through the unequal-time blocks.  The Airy
    process is stationary and reversible, and positively associated, so
    the law is symmetric, lies between the product and the minimum of its
    one-time marginals F2, and does not grow as the times separate."""

    S1, S2 = -1.0, 1.0

    def test_symmetric_under_swap_and_time_reversal(self):
        law = det_continuous(extended_airy_block, [0.0, 2.0],
                             [self.S1, self.S2])
        swapped = det_continuous(extended_airy_block, [2.0, 0.0],
                                 [self.S2, self.S1])
        reversed_ = det_continuous(extended_airy_block, [0.0, 2.0],
                                   [self.S2, self.S1])
        assert abs(law - swapped) < 1e-12
        assert abs(law - reversed_) < 1e-12

    def test_between_product_and_minimum_and_decreasing_in_gap(self):
        f1, f2 = tw_gue_cdf(self.S1), tw_gue_cdf(self.S2)
        laws = [det_continuous(extended_airy_block, [0.0, delta],
                               [self.S1, self.S2])
                for delta in (0.5, 2.0, 5.0)]
        for law in laws:
            assert f1 * f2 <= law <= min(f1, f2)
        assert laws[0] >= laws[1] >= laws[2]


class TestAiryEvaluationCount:
    """Equal-time laws cost one Airy point per Nystrom node, one airy_pair
    call per node array: the Christoffel-Darboux block and the border
    term's column factor J_1 = Ai(xi2) come from the same Airy ladder, and
    the border integral I_1 is a contour sum with no Airy evaluation.
    Re-integrating every node over a lambda rule costs ~350."""

    @pytest.mark.parametrize("cdf", [tw_gue_cdf, goe2_cdf])
    def test_points_linear_in_nodes(self, cdf, monkeypatch):
        for s in (-3.0, 0.0):
            points = []
            for name in ("airy_pair", "airy_ai"):
                def spy(x, _name=name, _orig=getattr(kk, name)):
                    points.append((_name, np.size(x)))
                    return _orig(x)
                monkeypatch.setattr(kk, name, spy)
            cdf(s)
            monkeypatch.undo()
            nodes = [_window(s, LCUT, ORDER)[1],
                     _window(s, 2.0 * LCUT, 2 * ORDER)[1]]
            assert points == [("airy_pair", n) for n in nodes]


class TestReferenceLawTables:
    @pytest.mark.parametrize("name", ["tw-gue", "goe-squared", "gaussian"])
    def test_grid_ends_carry_negligible_mass(self, name):
        law = reference_law(name)
        assert law.values[0] < 1e-6
        assert law.values[-1] > 1.0 - 1e-6

    @pytest.mark.parametrize("name", ["tw-gue", "goe-squared", "gaussian"])
    def test_monotone_and_clamped(self, name):
        law = reference_law(name)
        assert np.all(np.diff(law.values) >= -1e-9)
        assert law.cdf(-100.0) == 0.0
        assert law.cdf(100.0) == 1.0

    def test_interpolation_accuracy(self):
        for name, direct in [("tw-gue", tw_gue_cdf),
                             ("goe-squared", goe2_cdf),
                             ("gaussian", gaussian_r4_cdf)]:
            law = reference_law(name)
            for s in (-2.513, -0.781, 0.123, 1.337):
                assert abs(law.cdf(s) - direct(s)) < 5e-4

    def test_instance_cached(self):
        assert reference_law("tw-gue") is reference_law("tw-gue")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            reference_law("cauchy")


class TestKsDistance:
    def test_hand_case(self):
        val = ks_distance([0.25, 0.75], lambda x: x)
        assert abs(val - 0.25) < 1e-15

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=100)
        a = ks_distance(xs, gaussian_r4_cdf)
        b = ks_distance(xs[::-1], gaussian_r4_cdf)
        assert a == b

    def test_ideal_quantiles_are_tight(self):
        n = 50
        xs = (np.arange(1, n + 1) - 0.5) / n
        assert abs(ks_distance(xs, lambda x: x) - 0.5 / n) < 1e-12

    def test_gaussian_sample_agreement(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(scale=1 / math.sqrt(2), size=10000)
        assert ks_distance(xs, gaussian_r4_cdf) < 0.02

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="sample"):
            ks_distance([], gaussian_r4_cdf)

    def test_nan_sample_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            ks_distance([0.1, math.nan, -0.3], gaussian_r4_cdf)


class TestFiniteSizeLimit:
    def _worst_gap(self, m):
        exp = ScaledExperiment(region="R2", m=m, q=0.1, u=2.0)
        t = exp.time_of(0.0)
        rates = uniform_rates(m, 0.1)
        worst = 0.0
        for s in (-1.5, 0.0, 1.5):
            ell = exp.level_of(s, t)
            p = joint_probability([t], [ell], rates)
            worst = max(worst, abs(p - tw_gue_cdf(exp.s_of(ell, t))))
        return worst

    def test_tw_emerges_at_moderate_size(self):
        assert self._worst_gap(100) < 0.12

    @pytest.mark.slow
    def test_gap_shrinks_with_size(self):
        g100 = self._worst_gap(100)
        g200 = self._worst_gap(200)
        assert g200 < 0.09
        assert g200 < 0.88 * g100
