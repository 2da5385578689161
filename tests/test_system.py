"""Simulator checks: dynamics, couplings, reproducibility, mean law."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import trajectory_from_uniforms
from steptasep import combinatorics as comb
from steptasep import system as sy


def spec_uniform(m, q, horizon):
    return sy.SystemSpec(m=m, rates=sy.uniform_rates(m, q), horizon=horizon)


class TestSpecAndInitial:
    def test_step_initial_positions(self):
        assert list(sy.positions_trajectory(spec_uniform(1, 0.5, 1), 0)[0]) == [0]
        assert list(sy.positions_trajectory(spec_uniform(4, 0.5, 1), 0)[0]) == [3, 2, 1, 0]
        start = sy.positions_trajectory(spec_uniform(100, 0.5, 1), 0)[0]
        assert start[0] == 99 and start[99] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sy.SystemSpec(m=0, rates=(), horizon=1)
        with pytest.raises(ValueError):
            sy.SystemSpec(m=2, rates=(0.5,), horizon=1)
        with pytest.raises(ValueError):
            sy.SystemSpec(m=1, rates=(1.0,), horizon=1)
        with pytest.raises(ValueError):
            sy.SystemSpec(m=1, rates=(0.5,), horizon=-1)

    def test_defect_rates(self):
        rates = sy.defect_rates(5, 0.1, {1: 0.2, 4: 0.3})
        assert rates == (0.2, 0.1, 0.1, 0.3, 0.1)
        with pytest.raises(ValueError):
            sy.defect_rates(3, 0.1, {4: 0.2})


class TestStep:
    def test_deterministic_blocking(self):
        pos = sy.positions_trajectory(spec_uniform(2, 0.0, 4), seed=0)
        assert list(pos[1]) == [2, 0]  # rear particle blocked at start
        assert list(pos[2]) == [3, 1]

    def test_exclusion_preserved(self):
        pos = sy.positions_trajectory(spec_uniform(6, 0.4, 50), seed=3)
        assert pos.shape == (51, 6)
        assert np.all(np.diff(pos, axis=1) < 0)


class TestAgainstMatrixPicture:
    def matrix_to_uniforms(self, bits, rates):
        """Uniform block realizing the stay bits: particle j consumes matrix
        entry (t-j+1, M-j) at the step from t to t+1; rows outside the matrix
        mean an attempted hop."""
        n_rows = len(bits)
        m = len(bits[0])
        horizon = n_rows + m - 1
        u = np.empty((horizon, m))
        for t in range(horizon):
            for j in range(1, m + 1):
                r = t - j + 1
                bit = bits[r][m - j] if 0 <= r < n_rows else 0
                u[t, j - 1] = rates[j - 1] / 2 if bit else (1 + rates[j - 1]) / 2
        return u

    def test_exhaustive_equivalence(self):
        rates = [0.3, 0.6, 0.5]
        for n_rows in range(1, 4):
            for m in range(1, 4):
                for bits in comb.all_matrices(n_rows, m):
                    want, _ = comb.trajectory_from_matrix(bits)
                    got = trajectory_from_uniforms(
                        rates[:m], self.matrix_to_uniforms(bits, rates)
                    )
                    assert list(got) == want, bits

    def test_ensemble_matches_matrix_route(self):
        # sample k's stay bits, read as a 01 matrix: particle j consumes
        # entry (r, M-j) at the step from r+j-1 to r+j
        rates = (0.3, 0.6, 0.2, 0.5, 0.4)
        m, seed = len(rates), 31
        times = [0, 3, 4, 9, 17, 18]
        horizon = max(times)
        spec = sy.SystemSpec(m=m, rates=rates, horizon=horizon)
        n_rows = horizon - m + 1
        paths = []
        for k in range(7):
            gen = np.random.Generator(np.random.Philox(key=[seed, k]))
            stay = gen.random((horizon, m)) < np.array(rates)
            bits = [[int(stay[r + j - 1, j - 1]) for j in range(m, 0, -1)]
                    for r in range(n_rows)]
            path, _ = comb.trajectory_from_matrix(bits)
            paths.append([path[t] for t in times])
        for chunk in (1, 3, 64):
            ens = sy.sample_ensemble(spec, times, 7, seed, chunk_size=chunk)
            assert ens.tolist() == paths, chunk

    def test_two_step_joint_probability(self):
        # P(L(2,2)=1) factorizes over the two rates
        q1, q2 = Fraction(3, 10), Fraction(1, 2)
        law = comb.enumerate_exact_distribution(2, 2, [q1, q2])
        got = comb.prob_path_at_least(law, [(2, 1)])
        assert got == (1 - q1) * (1 - q2)


class TestPathProperties:
    def test_regularity_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(1, 7))
            horizon = int(rng.integers(1, 40))
            rates = rng.uniform(0.05, 0.9, size=m)
            path = trajectory_from_uniforms(rates, rng.random((horizon, m)))
            assert path[0] == 0
            assert set(np.diff(path).tolist()) <= {0, 1}
            for t, x in enumerate(path):
                assert 0 <= x <= max(0, t - m + 1)

    def test_monotone_coupling_in_rates(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            horizon = int(rng.integers(5, 30))
            u = rng.random((horizon, m))
            slow = rng.uniform(0.3, 0.9, size=m)
            fast = np.clip(slow - rng.uniform(0, 0.3, size=m), 0, None)
            path_slow = trajectory_from_uniforms(slow, u)
            path_fast = trajectory_from_uniforms(fast, u)
            assert np.all(path_fast >= path_slow)

    def test_particles_behind_are_irrelevant(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m, extra = 4, 3
            horizon = 15
            u = rng.random((horizon, m))
            u_ext = np.concatenate([u, rng.random((horizon, extra))], axis=1)
            rates = rng.uniform(0.1, 0.8, size=m)
            rates_ext = np.concatenate([rates, rng.uniform(0.1, 0.8, size=extra)])
            a = trajectory_from_uniforms(rates, u, tagged=m)
            b = trajectory_from_uniforms(rates_ext, u_ext, tagged=m)
            assert np.array_equal(a, b)


class TestEnsemble:
    def test_reproducible_and_chunk_invariant(self):
        spec = spec_uniform(5, 0.3, 30)
        times = [0, 7, 30]
        a = sy.sample_ensemble(spec, times, 23, master_seed=42, chunk_size=64)
        b = sy.sample_ensemble(spec, times, 23, master_seed=42, chunk_size=3)
        c = sy.sample_ensemble(spec, times, 23, master_seed=42, chunk_size=23)
        assert np.array_equal(a, b) and np.array_equal(a, c)
        assert not np.array_equal(
            a, sy.sample_ensemble(spec, times, 23, master_seed=43)
        )

    def test_default_chunk_respects_uniform_budget(self, monkeypatch):
        # a budget that holds two samples' uniform blocks must cap every
        # batch at two, however many samples are asked for
        spec = spec_uniform(5, 0.3, 30)
        monkeypatch.setattr(sy, "UNIFORM_BLOCK_BYTES", 2 * 30 * 5 * 8)
        batches = []
        evolve = sy._evolve

        def spy(stay):
            batches.append(stay.shape[0])
            return evolve(stay)

        monkeypatch.setattr(sy, "_evolve", spy)
        got = sy.sample_ensemble(spec, [7, 30], 5, master_seed=42)
        assert batches == [2, 2, 1]
        monkeypatch.setattr(sy, "_evolve", evolve)
        assert np.array_equal(
            got, sy.sample_ensemble(spec, [7, 30], 5, 42, chunk_size=5))

    def test_times_validated(self):
        spec = spec_uniform(3, 0.2, 10)
        with pytest.raises(ValueError):
            sy.sample_ensemble(spec, [11], 1, master_seed=0)
        with pytest.raises(ValueError):
            sy.sample_ensemble(spec, [-1], 5, master_seed=0)

    def test_block_beyond_memory_budget_rejected(self):
        # 250001 x 100 float64 uniforms is just over the 200 MB budget
        spec = spec_uniform(100, 0.1, 250001)
        with pytest.raises(ValueError, match="budget"):
            sy.sample_ensemble(spec, [250001], 1, master_seed=0)
        with pytest.raises(ValueError, match="budget"):
            sy.positions_trajectory(spec, 0)

    def test_tagged_cannot_move_before_its_turn(self):
        spec = spec_uniform(6, 0.2, 8)
        ens = sy.sample_ensemble(spec, [3, 5, 6], 40, master_seed=1)
        assert np.all(ens[:, 0] == 0)  # t < M
        assert np.all(ens[:, 1] == 0)
        assert np.all(ens[:, 2] <= 1)


class TestMeanLaw:
    def test_critical_time_and_continuity(self):
        uc = sy.critical_scaled_time(0.1, 0.2)
        assert abs(uc - 10.0) < 1e-12
        assert abs(sy.mean_bulk(uc, 0.1) - 6.4) < 1e-12
        assert abs(sy.mean_defect(uc, 0.1, 0.2) - 6.4) < 1e-12

    def test_piecewise_values(self):
        assert sy.mean_position_theory(0.5, 0.1) == 0.0
        assert sy.mean_position_theory(1.0 / 0.9, 0.1) == 0.0
        assert abs(sy.mean_position_theory(2.0, 0.1) - 0.4) < 1e-12
        assert abs(sy.mean_position_theory(5.0, 0.1) - 2.5) < 1e-12
        # beyond u_c the defect branch takes over
        assert abs(sy.mean_position_theory(30.0, 0.1, 0.2) - 22.4) < 1e-12
        # weak defect never switches branch
        assert sy.mean_position_theory(30.0, 0.1, 0.05) == pytest.approx(
            sy.mean_bulk(30.0, 0.1)
        )

    def test_array_input(self):
        u = np.array([0.0, 2.0, 10.0, 30.0])
        a = sy.mean_position_theory(u, 0.1, 0.2)
        assert a.shape == (4,)
        assert a[0] == 0.0
        assert abs(a[3] - 22.4) < 1e-12

    def test_equal_rates_rejected_for_critical_time(self):
        with pytest.raises(ValueError):
            sy.critical_scaled_time(0.1, 0.1)
        with pytest.raises(ValueError):
            sy.mean_defect(5.0, 0.2, 0.2)

    def test_onset_of_motion(self):
        # A2 vanishes exactly at u = 1/(1-q)
        for q in [0.1, 0.3, 0.5, 0.7]:
            assert abs(sy.mean_bulk(1.0 / (1.0 - q), q)) < 1e-12


@pytest.mark.slow
def test_mean_error_shrinks_with_system_size():
    q, u, n = 0.1, 5.0, 1200
    errs = []
    for m in (100, 400):
        t = int(u * m)
        spec = spec_uniform(m, q, t)
        ens = sy.sample_ensemble(spec, [t], n, master_seed=2024)
        errs.append(abs(ens[:, 0].mean() / m - 2.5))
    assert errs[1] < errs[0]
