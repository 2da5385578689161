"""Scaling maps: coefficient values, round trips, admissibility checks."""

import math

import numpy as np
import pytest

from steptasep.fredholm import LAWS
from steptasep.limit_kernels.scaling import (
    REGION_TABLE,
    REGIONS,
    ScaledExperiment,
    coef_c,
    coef_d,
    coef_d1,
    coef_dg,
    continuous_coefs,
)
from steptasep.system import critical_scaled_time, mean_bulk, mean_defect


class TestCoefficients:
    def test_bulk_amplitudes_spot_values(self):
        assert abs(coef_c(2.0, 0.1) - 2.7734450974) < 1e-9
        assert abs(coef_d(2.0, 0.1) - 0.5768998281) < 1e-9
        assert abs(coef_d(10.0, 0.1) - 1.3207708996) < 1e-9

    def test_onset_amplitude(self):
        assert abs(coef_d1(0.1) - math.sqrt(0.1) / 0.9) < 1e-15

    def test_defect_amplitude_spot_value(self):
        assert abs(coef_dg(30.0, 0.1, 0.2) - 2.5298221281) < 1e-9

    def test_defect_amplitude_vanishes_at_capture_point(self):
        uc = critical_scaled_time(0.1, 0.2)
        assert coef_dg(uc + 1e-9, 0.1, 0.2) < 1e-3
        with pytest.raises(ValueError):
            coef_dg(uc - 0.5, 0.1, 0.2)

    def test_bulk_amplitudes_need_moving_particle(self):
        with pytest.raises(ValueError):
            coef_c(1.05, 0.1)
        with pytest.raises(ValueError):
            coef_d(0.8, 0.1)

    def test_continuous_coefs_are_rare_jump_limit(self):
        # with jumps per step 1-q -> 0 and the clock rescaled by (1-q),
        # the discrete bulk coefficients approach the continuous ones at
        # rate O(1-q)
        u = 4.0
        a, c, d = continuous_coefs(u)
        for one_minus_q in (1e-3, 1e-4):
            q = 1.0 - one_minus_q
            u_disc = u / one_minus_q
            assert abs(mean_bulk(u_disc, q) - a) < 0.6 * one_minus_q ** 0.9
            assert abs(coef_c(u_disc, q) * one_minus_q - c) \
                < 0.6 * one_minus_q ** 0.9
            assert abs(coef_d(u_disc, q) - d) < 0.6 * one_minus_q ** 0.9

    def test_continuous_mean_law(self):
        a, _, _ = continuous_coefs(9.0)
        assert abs(a - 4.0) < 1e-12


class TestScaledExperiment:
    def test_onset_round_first_inverse(self):
        ex = ScaledExperiment(region="R1", m=400, q=0.1)
        t = ex.time_of(0.0)
        assert t == 444
        assert abs(ex.tau_of(t) - (-0.0632455532)) < 1e-9

    def test_bulk_round_trip(self):
        ex = ScaledExperiment(region="R2", m=100, q=0.1, u=2.0)
        t = ex.time_of(0.7)
        assert abs(ex.tau_of(t) - 0.7) < 0.5 / (coef_c(2.0, 0.1) * 100 ** (2 / 3))
        ell = ex.level_of(-0.5, t)
        gap = 0.5 / (coef_d(2.0, 0.1) * 100 ** (1 / 3))
        assert abs(ex.s_of(ell, t) - (-0.5)) <= gap + 1e-12

    def test_bulk_level_uses_time_dependent_mean(self):
        ex = ScaledExperiment(region="R2", m=100, q=0.1, u=2.0)
        t1, t2 = ex.time_of(-1.0), ex.time_of(1.0)
        assert t1 < t2
        ell1, ell2 = ex.level_of(0.0, t1), ex.level_of(0.0, t2)
        drift = mean_bulk(t2 / 100, 0.1) - mean_bulk(t1 / 100, 0.1)
        assert abs((ell2 - ell1) - drift * 100) <= 1.0

    def test_capture_point_pins_scaled_time(self):
        ex = ScaledExperiment(region="R3", m=100, q=0.1, qbar=0.2)
        assert abs(ex.u - 10.0) < 1e-9
        with pytest.raises(ValueError):
            ScaledExperiment(region="R3", m=100, q=0.1, qbar=0.2, u=9.0)

    def test_defect_region_time_is_log_amplitude(self):
        ex = ScaledExperiment(region="R4", m=100, q=0.1, qbar=0.2)
        t = ex.time_of(30.0)
        assert t == 3000
        assert abs(ex.tau_of(t) - math.log(coef_dg(30.0, 0.1, 0.2))) < 1e-12

    def test_defect_region_position_round_trip(self):
        ex = ScaledExperiment(region="R4", m=100, q=0.1, qbar=0.2)
        t = ex.time_of(30.0)
        ell = ex.level_of(0.3, t)
        gap = 0.5 / (coef_dg(30.0, 0.1, 0.2) * 10.0)
        assert abs(ex.s_of(ell, t) - 0.3) <= gap + 1e-12
        assert abs(ell - (mean_defect(30.0, 0.1, 0.2) * 100
                          - coef_dg(30.0, 0.1, 0.2) * 10.0 * 0.3)) <= 0.5

    def test_fixed_count_round_trip(self):
        ex = ScaledExperiment(region="fixedM", m=3, q=0.3, horizon=500.0)
        t = ex.time_of(0.4)
        assert t == round(math.exp(0.8) * 500.0)
        assert abs(ex.tau_of(t) - 0.4) < 1e-3
        ell = ex.level_of(1.2, t)
        gap = 0.5 / math.sqrt(2 * 0.3 * 0.7 * t)
        assert abs(ex.s_of(ell, t) - 1.2) <= gap + 1e-12

    def test_rescaled_clock_round_trip(self):
        ex = ScaledExperiment(region="continuousR2", m=100, q=0.5, u=4.0)
        t = ex.time_of(0.0)
        assert t == 800
        assert ex.tau_of(t) == 0.0
        assert ex.level_of(0.0, t) == 100  # (sqrt(4)-1)^2 * 100

    def test_degenerate_rates_shrink_toward_defect_rate(self):
        ex = ScaledExperiment(region="R3-degenerate", m=100, q=0.1,
                              qbar=0.2, strengths=(0.0, 1.5))
        r = ex.rates()
        assert r[0] == 0.2
        amp = 0.2 * 0.8 / (coef_d(10.0, 0.1) * 100 ** (1 / 3))
        assert abs(r[1] - (0.2 - 1.5 * amp)) < 1e-12
        assert r[2] == 0.1

        ex4 = ScaledExperiment(region="R4-degenerate", m=100, q=0.1,
                               qbar=0.2, strengths=(0.2,))
        amp4 = 2 * 0.2 * 0.8 / 10.0
        assert abs(ex4.rates()[0] - (0.2 - 0.2 * amp4)) < 1e-12

    def test_fixed_count_rates_approach_common_value(self):
        ex = ScaledExperiment(region="fixedM", m=3, q=0.3, horizon=500.0,
                              strengths=(0.0, 0.5, 1.0))
        r = ex.rates()
        amp = math.sqrt(2 * 0.3 * 0.7 / 500.0)
        assert r[0] == 0.3
        assert abs(r[1] - (0.3 - 0.5 * amp)) < 1e-15
        assert abs(r[2] - (0.3 - 1.0 * amp)) < 1e-15

    def test_array_distances_match_scalar_map(self):
        cases = [
            (ScaledExperiment(region="R1", m=100, q=0.1), 0.0),
            (ScaledExperiment(region="R2", m=100, q=0.1, u=2.0), 0.0),
            (ScaledExperiment(region="R3", m=100, q=0.1, qbar=0.2), 0.0),
            (ScaledExperiment(region="R4", m=100, q=0.1, qbar=0.2), 30.0),
            (ScaledExperiment(region="continuousR2", m=100, q=0.5, u=4.0),
             0.0),
            (ScaledExperiment(region="fixedM", m=3, q=0.3, horizon=500.0),
             0.0),
        ]
        ls = np.arange(0, 60, 3, dtype=np.int64)
        for ex, x in cases:
            t = ex.time_of(x)
            whole = ex.s_of(ls, t)
            assert whole.dtype == np.float64
            assert [float(s) for s in whole] == [
                float(ex.s_of(int(l), t)) for l in ls], ex.region

    def test_lattice_time_is_own_scaled_time(self):
        ex = ScaledExperiment(region="R2", m=100, q=0.1, u=2.0)
        assert ex.lattice_time() == ex.time_of(0.0) == 200
        ex = ScaledExperiment(region="R4", m=100, q=0.1, qbar=0.2, u=30.0)
        assert ex.lattice_time() == 3000
        ex = ScaledExperiment(region="R4", m=100, q=0.1, qbar=0.2)
        with pytest.raises(ValueError, match=r"needs u\b"):
            ex.lattice_time()

    def test_target_laws(self):
        assert ScaledExperiment(region="R1", m=10, q=0.1).target_law \
            == "discrete-hermite"
        assert ScaledExperiment(region="R2", m=10, q=0.1,
                                u=2.0).target_law == "tw-gue"
        assert ScaledExperiment(region="continuousR2", m=10, q=0.1,
                                u=2.0).target_law == "tw-gue"
        assert ScaledExperiment(region="R3", m=10, q=0.1,
                                qbar=0.2).target_law == "goe-squared"
        assert ScaledExperiment(region="R3-degenerate", m=10, q=0.1,
                                qbar=0.2,
                                strengths=(1.0,)).target_law == "goe-squared"
        assert ScaledExperiment(region="R4", m=10, q=0.1,
                                qbar=0.2).target_law == "gaussian"
        assert ScaledExperiment(region="fixedM", m=3, q=0.1,
                                horizon=100.0).target_law == "gaussian"


class TestAdmissibility:
    def test_every_region_listed(self):
        assert set(REGIONS) == {
            "R1", "R2", "R3", "R3-degenerate", "R4", "R4-degenerate",
            "fixedM", "continuousR2"}

    def test_table_names_families_and_known_laws(self):
        assert REGIONS == tuple(REGION_TABLE)
        families = {family for family, _, _ in REGION_TABLE.values()}
        assert families == {"onset", "bulk", "defect", "fixedM", "clock"}
        for region, (_, law, _) in REGION_TABLE.items():
            # only the onset law is discrete, with no tabulated CDF
            assert law in LAWS or region == "R1", region

    def test_negative_lattice_time_rejected(self):
        ex = ScaledExperiment(region="R2", m=10, q=0.1, u=2.0)
        assert ex.time_of(-1.0) == 7
        with pytest.raises(ValueError, match="< 0"):
            ex.time_of(-3.0)  # would be t = -19
        with pytest.raises(ValueError, match="< 0"):
            ScaledExperiment(region="R1", m=10, q=0.1).time_of(-40.0)

    def test_time_before_onset_has_no_frame(self):
        # t = 3 is u = 0.3, before the tagged particle can move: the bulk
        # mean is NaN there
        ex = ScaledExperiment(region="R2", m=10, q=0.1, u=2.0)
        with pytest.raises(ValueError, match="frame"):
            ex.s_of(0, 3)
        with pytest.raises(ValueError, match="frame"):
            ex.level_of(0.0, 3)

    def test_fixed_count_frame_has_no_width_at_time_zero(self):
        # the fixedM width sqrt(2q(1-q)t) vanishes at t = 0
        ex = ScaledExperiment(region="fixedM", m=3, q=0.3, horizon=500.0)
        with pytest.raises(ValueError, match="frame"):
            ex.s_of(1, 0)
        for s in (-2.0, 0.0, 3.0):
            with pytest.raises(ValueError, match="frame"):
                ex.level_of(s, 0)

    def test_unknown_region_named_in_error(self):
        with pytest.raises(ValueError, match="region"):
            ScaledExperiment(region="R5", m=10, q=0.1)

    def test_bulk_window_bounds_named_in_error(self):
        with pytest.raises(ValueError, match="u_c"):
            ScaledExperiment(region="R2", m=10, q=0.1, u=20.0, qbar=0.2)
        with pytest.raises(ValueError, match=r"1/\(1-q\)"):
            ScaledExperiment(region="R2", m=10, q=0.1, u=1.05)

    def test_defect_region_needs_supercritical_time(self):
        with pytest.raises(ValueError, match="u_c"):
            ScaledExperiment(region="R4", m=10, q=0.1, qbar=0.2, u=5.0)
        ex = ScaledExperiment(region="R4", m=10, q=0.1, qbar=0.2)
        with pytest.raises(ValueError, match="u_c"):
            ex.time_of(9.5)

    def test_degenerate_defect_region_needs_supercritical_time(self):
        # u_c = 10 at q = 0.1, qbar = 0.2
        with pytest.raises(ValueError, match="u_c"):
            ScaledExperiment(region="R4-degenerate", m=100, q=0.1, qbar=0.2,
                             u=5.0, strengths=(0.2,))
        ex = ScaledExperiment(region="R4-degenerate", m=100, q=0.1, qbar=0.2,
                              u=30.0, strengths=(0.2,))
        assert ex.lattice_time() == 3000

    def test_defect_rate_window_enforced(self):
        with pytest.raises(ValueError, match="qbar"):
            ScaledExperiment(region="R3", m=10, q=0.1, qbar=0.05)
        with pytest.raises(ValueError, match="qbar"):
            ScaledExperiment(region="R4", m=10, q=0.1)

    def test_strengths_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ScaledExperiment(region="R2", m=10, q=0.1, u=2.0,
                             strengths=(-1.0,))

    @pytest.mark.parametrize("strengths", [(math.nan, 1.0), (math.inf,)])
    def test_strengths_must_be_finite(self, strengths):
        with pytest.raises(ValueError, match="strengths must be finite"):
            ScaledExperiment(region="R3-degenerate", m=10, q=0.1, qbar=0.2,
                             strengths=strengths)

    @pytest.mark.parametrize("region, extra, strengths, label", [
        ("fixedM", dict(m=3, q=0.3, horizon=500.0), (20.0, 0.0, 0.0), 1),
        ("R3-degenerate", dict(m=10, q=0.1, qbar=0.2), (0.0, 50.0), 2)])
    def test_strength_below_zero_rate_names_strengths(self, region, extra,
                                                      strengths, label):
        ex = ScaledExperiment(region=region, strengths=strengths, **extra)
        with pytest.raises(ValueError, match=(
                rf"^strengths .* stay rate of particle {label} at -[0-9.]+,"
                r" below 0")):
            ex.rates()

    def test_degenerate_regions_need_strengths(self):
        with pytest.raises(ValueError, match="strength"):
            ScaledExperiment(region="R3-degenerate", m=10, q=0.1, qbar=0.2)

    def test_fixed_count_needs_horizon_and_full_strengths(self):
        with pytest.raises(ValueError, match="horizon"):
            ScaledExperiment(region="fixedM", m=3, q=0.1)
        with pytest.raises(ValueError, match="one eps per particle"):
            ScaledExperiment(region="fixedM", m=3, q=0.1, horizon=100.0,
                             strengths=(1.0,))

    def test_rescaled_clock_needs_supersonic_time(self):
        with pytest.raises(ValueError, match="u_tilde"):
            ScaledExperiment(region="continuousR2", m=10, q=0.1, u=0.9)

    def test_rate_window_enforced(self):
        with pytest.raises(ValueError, match="q"):
            ScaledExperiment(region="R1", m=10, q=1.2)
        with pytest.raises(ValueError, match="positive"):
            ScaledExperiment(region="R1", m=0, q=0.1)

    @pytest.mark.parametrize("u", [math.inf, math.nan])
    @pytest.mark.parametrize("region, extra", [
        ("R1", {}), ("R2", {}), ("R3", {"qbar": 0.2}), ("R4", {"qbar": 0.2}),
        ("fixedM", {"horizon": 100.0}), ("continuousR2", {})])
    def test_non_finite_u_rejected_in_every_family(self, region, extra, u):
        # R4 once took u = inf to time_of, which overflowed in round()
        with pytest.raises(ValueError, match="u must be finite"):
            ScaledExperiment(region=region, m=100, q=0.1, u=u, **extra)

    @pytest.mark.parametrize("m", [100.5, math.inf, math.nan])
    def test_non_integral_m_rejected(self, m):
        # m = 100.5 once mapped levels at a fractional particle count
        with pytest.raises(ValueError, match="^m must be an integer"):
            ScaledExperiment(region="R2", m=m, q=0.1, u=2.0)

    def test_whole_float_m_counts_as_int(self):
        ex = ScaledExperiment(region="R2", m=100.0, q=0.1, u=2.0)
        plain = ScaledExperiment(region="R2", m=100, q=0.1, u=2.0)
        assert type(ex.m) is int and ex == plain
        assert ex.s_of(10, 200) == plain.s_of(10, 200)
