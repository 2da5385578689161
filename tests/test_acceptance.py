"""End-to-end acceptance gates for the package.

Each class pins one guaranteed behavior at its stated tolerance, from the
exact combinatorial layer (bitwise-exhaustive, rational arithmetic) up
through the limit kernels and the Monte Carlo harness.

Four distribution-panel gates are known to be red at this system size and
are kept red deliberately rather than loosened: at M=100 the lattice law
of the tagged distance carries atoms of mass up to 0.164, so its KS
distance from ANY continuous law is at least 0.082, and the measured
distances are 0.106 and 0.119 at t=200 (gate 0.08), 0.107 for the
slow-defect law at t=1000 (gate 0.08), and 0.051 for the Gaussian law at
t=3000 (gate 0.05, a location offset: with the sample mean subtracted the
distance is 0.015). The misses are finite-size effects that shrink like
M^(-1/3) (Airy-class) and M^(-1/2) (Gaussian), not implementation errors;
the exact finite-size distribution reproduces the simulation to sampling
accuracy.

The early-time check against Monte Carlo (TestOnsetDeterminant) is red as
well: its target, the limit value 0.5 of P(L >= 1), sits 2.95 standard
errors (at 10^4 samples) below the exact finite-size probability 0.5147
that the samples estimate, so it passes at about half of all seeds. Its
second test holds the same samples to the exact law.
"""

import itertools
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    all_growth_sequences,
    enumerate_growth_law,
    ou_joint_cdf_quadrature,
    phi,
    schur_weight,
)
from steptasep import harness
from steptasep.finite_kernel import FiniteKernel, joint_probability
from steptasep.fredholm import (
    det_continuous,
    region1_prob,
    tw_gue_cdf,
)
from steptasep.limit_kernels.kernels import (
    kernel_Kn_block,
    kernel_KG_block,
)
from steptasep.limit_kernels.scaling import ScaledExperiment
from steptasep.system import (
    SystemSpec,
    critical_scaled_time,
    mean_bulk,
    mean_defect,
    sample_ensemble,
    uniform_rates,
)


class TestExhaustiveCombinatorialIdentities:
    def test_all_binary_matrices_to_four_rows_and_columns(self):
        start = time.time()
        ok, details = harness._suite_combinatorial()
        elapsed = time.time() - start
        assert details["cases"] >= 65536
        assert details["failures"] == 0 and ok
        assert elapsed < 60.0

    def test_suite_fails_without_the_blocking_rule(self, monkeypatch):
        def unblocked(sites, row):
            return tuple(site + (not row[-1 - j])
                         for j, site in enumerate(sites))

        monkeypatch.setattr(harness.comb, "_tagged_row", unblocked)
        ok, details = harness._suite_combinatorial()
        assert details["cases"] == 74954
        assert details["failures"] > 0 and not ok

    # bisect_left makes the plain insertion dual; always bumping the first
    # entry gives one-column tableaux as tall as the word
    @pytest.mark.parametrize("find", [bisect_left, lambda row, x: 0],
                             ids=["dual", "first-entry"])
    def test_suite_fails_with_a_broken_normal_insertion(self, monkeypatch,
                                                        find):
        monkeypatch.setattr(harness.comb, "bisect_right", find)
        ok, details = harness._suite_combinatorial()
        assert details["cases"] == 74954
        assert details["failures"] > 0 and not ok

    # the states of each route are shared across matrices, so each route
    # gets a fault of its own: none may be hidden by the sharing
    def test_suite_fails_with_a_broken_left_down_dp(self, monkeypatch):
        def without_suffix_max(best, row):
            return tuple(b + v for b, v in zip(best, row))

        monkeypatch.setattr(harness.comb, "_left_down_row",
                            without_suffix_max)
        ok, details = harness._suite_combinatorial()
        assert details["cases"] == 74954
        assert details["failures"] > 0 and not ok

    def test_suite_fails_with_a_broken_dual_insertion(self, monkeypatch):
        monkeypatch.setattr(harness.comb, "bisect_left", bisect_right)
        ok, details = harness._suite_combinatorial()
        assert details["cases"] == 74954
        assert details["failures"] > 0 and not ok


class TestGrowthLawIsSchurMeasure:
    def test_pushforward_equals_schur_weights_exactly(self):
        rates = (Fraction(1, 3), Fraction(1, 2), Fraction(1, 4))
        for n_rows in range(1, 4):
            for n_cols in range(1, 4):
                rs = rates[:n_cols]
                law = enumerate_growth_law(n_rows, n_cols, rs)
                assert sum(law.values()) == Fraction(1)
                for seq in all_growth_sequences(n_rows, n_cols):
                    assert law.get(seq, Fraction(0)) == \
                        schur_weight(seq, rs)


class TestWindowedDeterminantAgainstEnumeration:
    def test_two_particles_all_thresholds_and_joint_pair(self):
        start = time.time()
        ok, details = harness._suite_oracle()
        assert ok and details["max_abs_deviation"] <= 1e-8
        assert time.time() - start < 60.0


class TestCaptureTimeConstants:
    def test_capture_time_is_ten_exactly(self):
        uc = critical_scaled_time(Fraction(1, 10), Fraction(2, 10))
        assert uc == 10
        assert abs(critical_scaled_time(0.1, 0.2) - 10.0) < 1e-12

    def test_mean_branches_meet_at_capture(self):
        a2 = float(mean_bulk(10.0, 0.1))
        ag = float(mean_defect(10.0, 0.1, 0.2))
        assert abs(a2 - 6.4) <= 1e-12
        assert abs(ag - 6.4) <= 1e-12
        assert abs(a2 - ag) <= 1e-12


class TestBulkMeanPosition:
    def test_mean_distance_at_four_hundred_particles(self):
        start = time.time()
        m, u, n = 400, 5.0, 2000
        t = int(u * m)
        spec = SystemSpec(m=m, rates=uniform_rates(m, 0.1), horizon=t)
        ls = sample_ensemble(spec, [t], n, 7,
                             harness.adaptive_chunk(t, m))[:, 0]
        assert abs(float(np.mean(ls)) / m - 2.5) <= 0.05
        assert time.time() - start < 60.0


@pytest.fixture(scope="module")
def fig8_reports(tmp_path_factory):
    cfg = harness.resolve_config(
        "fig8", out=str(tmp_path_factory.mktemp("fig8")))
    return harness.run_fig8(cfg)["variants"]


class TestScaledDistributionPanels:
    """Kolmogorov-Smirnov gates for the three distribution panels,
    10^4 samples each, M=100."""

    def test_t200_uniform_vs_tracy_widom(self, fig8_reports):
        ks = fig8_reports["fig8a_uniform"]["ks_distance"]
        assert ks <= 0.08, f"measured ks={ks:.4f}"

    def test_t200_defect_vs_tracy_widom(self, fig8_reports):
        ks = fig8_reports["fig8a_defect"]["ks_distance"]
        assert ks <= 0.08, f"measured ks={ks:.4f}"

    def test_t1000_uniform_vs_tracy_widom(self, fig8_reports):
        ks = fig8_reports["fig8b_uniform"]["ks_distance"]
        assert ks <= 0.08, f"measured ks={ks:.4f}"

    def test_t1000_defect_vs_goe_squared(self, fig8_reports):
        ks = fig8_reports["fig8b_defect"]["ks_distance"]
        assert ks <= 0.08, f"measured ks={ks:.4f}"

    def test_t3000_defect_vs_gaussian(self, fig8_reports):
        ks = fig8_reports["fig8c_defect"]["ks_distance"]
        assert ks <= 0.05, f"measured ks={ks:.4f}"


class TestTwoTimeGaussianClosedForm:
    def test_determinant_equals_double_integral(self):
        probes = [
            (0.3, -0.2, 0.0, 0.7),
            (-0.5, 0.3, 0.0, 0.7),
            (0.0, 0.0, 0.0, 0.4),
            (1.0, -1.0, 0.0, 1.5),
            (0.8, 0.8, 0.0, 0.1),
        ]
        for s1, s2, t1, t2 in probes:
            det = det_continuous(kernel_KG_block, [t1, t2], [s1, s2])
            integral = ou_joint_cdf_quadrature(s1, s2, t1, t2)
            assert abs(det - integral) <= 1e-6, (s1, s2, t1, t2)


class TestKernelReductionChain:
    def test_degenerations_on_probe_grid(self):
        ok, worst = harness._suite_kernels()
        assert ok, worst
        assert all(v <= 1e-8 for v in worst.values())

    def test_fixed_size_long_time_kernel_is_rank_m_gaussian(self):
        # the long-time limit at fixed particle number and the
        # merging-defect limit share one kernel: rank-n Gaussian with one
        # strength per particle; with n = M the two parameterizations are
        # the same call
        strengths = (0.3, 0.7)
        fixed = ScaledExperiment(region="fixedM", m=2, q=0.1,
                                 strengths=strengths, horizon=500.0)
        merging = ScaledExperiment(region="R4-degenerate", m=50, q=0.1,
                                   qbar=0.2, strengths=strengths)
        assert fixed.target_law == "gaussian"
        assert merging.target_law == "gaussian"
        x1 = np.array([-1.0, 0.0, 1.5])
        x2 = np.array([-0.5, 0.2, 2.0])
        block = kernel_Kn_block(-0.3, x1, 0.4, x2, strengths)
        refined = kernel_Kn_block(-0.3, x1, 0.4, x2, strengths,
                                  step=0.02, half_width=10.0)
        assert float(np.max(np.abs(block - refined))) <= 1e-8


class TestQuadratureStability:
    def test_tracy_widom_stable_under_doubling(self):
        # det_continuous refuses to return when doubling the order and the
        # cutoff moves the value by 1e-8 or more, so a clean evaluation is
        # itself the stability statement
        values = [tw_gue_cdf(s) for s in np.arange(-5.0, 2.01, 0.5)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_transition_weight_semigroup_exact(self):
        for t1, t2, t3 in itertools.combinations(range(13), 3):
            for x1 in range(-12, 13):
                row = {}
                for x3 in range(-12, 13):
                    total = sum(
                        phi(t1, t2, x1, y) * phi(t2, t3, y, x3)
                        for y in range(x1, x1 + t2 - t1 + 1))
                    row[x3] = total
                for x3, total in row.items():
                    assert total == phi(t1, t3, x1, x3)


class TestOnsetDeterminant:
    def test_matches_monte_carlo_at_four_hundred_particles(self):
        # the reference determinant sits at the nominal window center
        # tau = 0; the integer rounding of the matching lattice time and
        # the M^(-1/2) finite-size excess partially offset (both are
        # documented separately by the exact finite-size comparisons)
        m, q, n = 400, 0.1, 10000
        exp = ScaledExperiment(region="R1", m=m, q=q)
        t = exp.time_of(0.0)
        spec = SystemSpec(m=m, rates=uniform_rates(m, q), horizon=t)
        ls = sample_ensemble(spec, [t], n, 12,
                             harness.adaptive_chunk(t, m))[:, 0]
        for ell in (1, 2, 3):
            want = region1_prob([0.0], [ell])
            emp = float(np.mean(ls >= ell))
            se = np.sqrt(emp * (1.0 - emp) / n)
            assert abs(emp - want) <= 3.0 * se, (ell, emp, want, se)

    def test_monte_carlo_matches_exact_finite_size_law(self):
        # the same samples against the exact law of L(t, M) that they
        # estimate, at the same lattice time and the same 3 SE per level
        m, q, n = 400, 0.1, 10000
        t = ScaledExperiment(region="R1", m=m, q=q).time_of(0.0)
        spec = SystemSpec(m=m, rates=uniform_rates(m, q), horizon=t)
        ls = sample_ensemble(spec, [t], n, 12,
                             harness.adaptive_chunk(t, m))[:, 0]
        kern = FiniteKernel(uniform_rates(m, q))
        for ell in (1, 2, 3):
            want = joint_probability([t], [ell], kern)
            emp = float(np.mean(ls >= ell))
            se = np.sqrt(emp * (1.0 - emp) / n)
            assert abs(emp - want) <= 3.0 * se, (ell, emp, want, se)
