"""Simulator checks: dynamics, couplings, reproducibility, mean law."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stay_bits_scalar, trajectory_from_uniforms
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

    @pytest.mark.parametrize("field, m, horizon", [
        ("m", 2.5, 3), ("horizon", 2, 2.5), ("m", "2", 3),
        ("horizon", 2, float("inf")), ("m", True, 3), ("horizon", 2, True)])
    def test_non_integral_sizes_name_their_field(self, field, m, horizon):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            sy.SystemSpec(m=m, rates=(0.2, 0.3), horizon=horizon)

    def test_whole_float_sizes_count_as_ints(self):
        spec = sy.SystemSpec(m=2.0, rates=(0.2, 0.3), horizon=np.float64(9))
        assert (spec.m, spec.horizon) == (2, 9)
        assert type(spec.m) is int and type(spec.horizon) is int
        plain = sy.SystemSpec(m=2, rates=(0.2, 0.3), horizon=9)
        assert np.array_equal(sy.sample_ensemble(spec, [9], 5, 3),
                              sy.sample_ensemble(plain, [9], 5, 3))

    def test_defect_rates(self):
        rates = sy.defect_rates(5, 0.1, {1: 0.2, 4: 0.3})
        assert rates == (0.2, 0.1, 0.1, 0.3, 0.1)
        with pytest.raises(ValueError):
            sy.defect_rates(3, 0.1, {4: 0.2})

    @pytest.mark.parametrize("rates, label", [
        ((False, 0.5), 1), ((0.5, True), 2), ((0.2, np.False_), 2)])
    def test_boolean_rates_name_their_particle(self, rates, label):
        # False once ran as the rate 0.0
        with pytest.raises(ValueError,
                           match=f"^stay rate of particle {label} must be"):
            sy.SystemSpec(m=2, rates=rates, horizon=3)

    @pytest.mark.parametrize("defects", [
        {True: 0.2}, {np.True_: 0.2}, {1.5: 0.2}, {"1": 0.2}, {0: 0.2}])
    def test_defect_labels_validated(self, defects):
        # True once put the defect on particle 1, 1.5 died in list indexing
        with pytest.raises(ValueError, match="^defect label must be"):
            sy.defect_rates(3, 0.1, defects)

    def test_boolean_defect_rate_refused(self):
        with pytest.raises(ValueError, match="^stay rate of particle 2"):
            sy.defect_rates(3, 0.1, {2: False})
        assert sy.defect_rates(3, 0.1, {np.int64(2): 0.2}) == (0.1, 0.2, 0.1)


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

    @pytest.mark.parametrize("times", [
        [0, 3, 4, 9, 17, 18],
        # past three time blocks, reported on both sides of a block edge
        [sy.TIME_BLOCK - 1, sy.TIME_BLOCK, sy.TIME_BLOCK + 1,
         3 * sy.TIME_BLOCK + 7],
    ])
    def test_ensemble_matches_matrix_route(self, times):
        # sample k's stay bits, read as a 01 matrix: particle j consumes
        # entry (r, M-j) at the step from r+j-1 to r+j
        rates = (0.3, 0.6, 0.2, 0.5, 0.4)
        m, seed = len(rates), 31
        horizon = max(times)
        spec = sy.SystemSpec(m=m, rates=rates, horizon=horizon)
        n_rows = horizon - m + 1
        paths = []
        for k in range(7):
            stay = stay_bits_scalar(rates, horizon, seed, k)
            bits = [[stay[r + j - 1][j - 1] for j in range(m, 0, -1)]
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
        # a block of stay bits that holds two samples' time blocks caps
        # every batch at two and every block at TIME_BLOCK steps, however
        # long the horizon and however many samples are asked for
        m, horizon = 5, 3 * sy.TIME_BLOCK + 7
        spec = spec_uniform(m, 0.3, horizon)
        cells = 2 * sy.TIME_BLOCK * m
        monkeypatch.setattr(sy, "BLOCK_CELLS", cells)
        blocks = []
        evolve = sy._evolve

        def spy(stay, pos=None):
            blocks.append(stay.shape)
            return evolve(stay, pos)

        monkeypatch.setattr(sy, "_evolve", spy)
        got = sy.sample_ensemble(spec, [7, horizon], 5, master_seed=42)
        assert [shape[0] for shape in blocks] == [2] * 8 + [1] * 4
        # one byte a stay bit
        assert all(np.prod(shape) <= cells for shape in blocks)
        assert sum(shape[1] for shape in blocks[:4]) == horizon
        monkeypatch.setattr(sy, "_evolve", evolve)
        assert np.array_equal(
            got, sy.sample_ensemble(spec, [7, horizon], 5, 42, chunk_size=5))

    def test_times_validated(self):
        spec = spec_uniform(3, 0.2, 10)
        with pytest.raises(ValueError):
            sy.sample_ensemble(spec, [11], 1, master_seed=0)
        with pytest.raises(ValueError):
            sy.sample_ensemble(spec, [-1], 5, master_seed=0)
        # True once ran as time 1
        for times in ([10.7], [np.float64(3.0)], ["3"], [True], [np.True_]):
            with pytest.raises(ValueError, match="^time must be an integer"):
                sy.sample_ensemble(spec, times, 2, master_seed=0)
        assert np.array_equal(sy.sample_ensemble(spec, [np.int64(9)], 4, 0),
                              sy.sample_ensemble(spec, [9], 4, 0))

    @pytest.mark.parametrize("n_samples", [2.5, 0, -1, "3", True])
    def test_n_samples_validated(self, n_samples):
        spec = spec_uniform(3, 0.2, 10)
        with pytest.raises(ValueError, match="^n_samples must be"):
            sy.sample_ensemble(spec, [10], n_samples, 0)

    @pytest.mark.parametrize("chunk_size", [-2, 0, 2.5])
    def test_chunk_size_validated(self, chunk_size):
        spec = spec_uniform(3, 0.2, 10)
        with pytest.raises(ValueError, match="chunk_size"):
            sy.sample_ensemble(spec, [10], 4, 0, chunk_size=chunk_size)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, False])
    def test_seed_validated(self, seed):
        spec = spec_uniform(3, 0.2, 10)
        with pytest.raises(ValueError, match="seed"):
            sy.sample_ensemble(spec, [10], 4, seed)
        with pytest.raises(ValueError, match="seed"):
            sy.positions_trajectory(spec, seed)

    def test_seeds_past_two_to_the_63_keep_their_own_streams(self):
        # a Philox key given as a list holding such a seed goes through
        # float64: 2**63 + 1 met 2**63, and 2**64 - 1 met seed 0
        spec = spec_uniform(3, 0.2, 10)
        seeds = (0, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1)
        draws = {tuple(sy.sample_ensemble(spec, [10], 20, s)[:, 0])
                 for s in seeds}
        assert len(draws) == len(seeds)

    def test_block_beyond_memory_budget_rejected(self):
        # the (horizon+1) x M int64 trajectory of 250001 steps of 100
        # particles is just over the 200 MB budget
        spec = spec_uniform(100, 0.1, 250001)
        with pytest.raises(ValueError, match="budget"):
            sy.positions_trajectory(spec, 0)

    def test_ensemble_memory_independent_of_horizon(self, monkeypatch):
        # with the cell budget at one time block of one sample, the
        # whole horizon is 20 times the budget: the ensemble streams it one
        # sample at a time to the same draws, the full trajectory is refused
        m, horizon = 4, 20 * sy.TIME_BLOCK
        spec = spec_uniform(m, 0.2, horizon)
        want = sy.sample_ensemble(spec, [horizon], 3, master_seed=5)
        assert sy.adaptive_chunk(horizon, m) >= 3
        monkeypatch.setattr(sy, "BLOCK_CELLS", sy.TIME_BLOCK * m)
        assert sy.adaptive_chunk(horizon, m) == 1
        assert np.array_equal(
            sy.sample_ensemble(spec, [horizon], 3, master_seed=5), want)
        monkeypatch.setattr(sy, "UNIFORM_BLOCK_BYTES", sy.TIME_BLOCK * m * 8)
        with pytest.raises(ValueError, match="budget"):
            sy.positions_trajectory(spec, 5)

    def test_work_limit_holds_at_the_limit(self, monkeypatch):
        # 3 samples of 4 particles to t=50 are 600 cells: allowed at a
        # limit of 600, refused at 599 before any stream is made
        spec = spec_uniform(4, 0.2, 50)
        want = sy.sample_ensemble(spec, [10, 50], 3, master_seed=8)
        monkeypatch.setattr(sy, "MAX_CELLS", 600)
        assert np.array_equal(
            sy.sample_ensemble(spec, [10, 50], 3, master_seed=8), want)
        made = []
        monkeypatch.setattr(sy, "_trajectories",
                            lambda *args: made.append(args) or iter(()))
        monkeypatch.setattr(sy, "MAX_CELLS", 599)
        with pytest.raises(ValueError, match="600 cells .* limit of 599"):
            sy.sample_ensemble(spec, [10, 50], 3, master_seed=8)
        assert made == []

    def test_row_zero_is_tagged_column_of_trajectory(self):
        horizon = 2 * sy.TIME_BLOCK + 3
        spec = sy.SystemSpec(m=6, rates=sy.defect_rates(6, 0.2, {1: 0.5}),
                             horizon=horizon)
        times = list(range(horizon + 1))
        ens = sy.sample_ensemble(spec, times, 3, master_seed=77, chunk_size=2)
        path = sy.positions_trajectory(spec, 77)
        assert ens[0].tolist() == path[:, -1].tolist()

    def test_tagged_cannot_move_before_its_turn(self):
        spec = spec_uniform(6, 0.2, 8)
        ens = sy.sample_ensemble(spec, [3, 5, 6], 40, master_seed=1)
        assert np.all(ens[:, 0] == 0)  # t < M
        assert np.all(ens[:, 1] == 0)
        assert np.all(ens[:, 2] <= 1)


@pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the sampler forks only where os.fork and sched_getaffinity exist")
class TestForkedShares:
    """With PARALLEL_CELLS at 0 every call splits its samples over forked
    processes, one share per core the process may use; the output stays
    that of one process, and no child outlives the call."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n_samples", [1, 3, 23])
    @pytest.mark.parametrize("chunk_size", [None, 1, 3, 81])
    @pytest.mark.parametrize("rates", [sy.uniform_rates(5, 0.3),
                                       sy.defect_rates(5, 0.2, {1: 0.6})])
    def test_bit_identical_to_one_process(self, rates, chunk_size,
                                          n_samples, monkeypatch):
        spec = sy.SystemSpec(m=5, rates=rates, horizon=2 * sy.TIME_BLOCK)
        times = [0, 7, sy.TIME_BLOCK + 1, 2 * sy.TIME_BLOCK]
        want = sy.sample_ensemble(spec, times, n_samples, 42, chunk_size)
        monkeypatch.setattr(sy, "PARALLEL_CELLS", 0)
        for _ in range(3):
            got = sy.sample_ensemble(spec, times, n_samples, 42, chunk_size)
            assert got.dtype == np.int64 and np.array_equal(got, want)
        self.assert_no_child_left()

    @pytest.mark.parametrize("cores, n_samples, workers", [
        (2, 1, 1), (2, 3, 2), (5, 3, 3), (5, 400, 5)])
    def test_one_share_per_core_at_most_one_per_sample(
            self, cores, n_samples, workers, monkeypatch):
        monkeypatch.setattr(sy.os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        assert sy._workers(sy.PARALLEL_CELLS - 1, n_samples) == 1
        assert sy._workers(sy.PARALLEL_CELLS, n_samples) == workers
        spec = spec_uniform(4, 0.2, 30)
        want = sy.sample_ensemble(spec, [30], n_samples, 6)
        monkeypatch.setattr(sy, "PARALLEL_CELLS", 0)
        assert np.array_equal(sy.sample_ensemble(spec, [30], n_samples, 6),
                              want)
        self.assert_no_child_left()

    @staticmethod
    def failing_from(first, monkeypatch):
        """Make every batch that holds a sample index >= first raise."""
        trajectories = sy._trajectories

        def failing(rates, horizon, master_seed, indices):
            if indices[-1] >= first:
                raise ArithmeticError(f"sample {indices[-1]}")
            return trajectories(rates, horizon, master_seed, indices)

        monkeypatch.setattr(sy, "_trajectories", failing)

    def test_child_error_names_its_samples(self, monkeypatch, capfd):
        # two shares of 10 samples: 0..4 in this process, 5..9 in a child
        monkeypatch.setattr(sy.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(sy, "PARALLEL_CELLS", 0)
        self.failing_from(5, monkeypatch)
        spec = spec_uniform(4, 0.2, 30)
        with pytest.raises(RuntimeError,
                           match=r"^samples 5\.\.9 failed in a forked "
                                 r"process \(exit status 1, 0 of 40 bytes"):
            sy.sample_ensemble(spec, [30], 10, 6, chunk_size=2)
        self.assert_no_child_left()
        assert "ArithmeticError: sample 6" in capfd.readouterr().err

    def test_error_in_this_process_reaps_children(self, monkeypatch):
        monkeypatch.setattr(sy.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(sy, "PARALLEL_CELLS", 0)
        self.failing_from(0, monkeypatch)
        spec = spec_uniform(4, 0.2, 30)
        with pytest.raises(ArithmeticError, match="^sample 1$"):
            sy.sample_ensemble(spec, [30], 10, 6, chunk_size=2)
        self.assert_no_child_left()


class TestPositionWidth:
    """Positions run in the narrowest integer type that holds M + horizon;
    the samples and trajectories come back as int64."""

    def test_past_the_int16_edge(self):
        # q = 0: the front particle moves every step, the tagged one
        # from step 2 on, to 40,001 and 39,999 at t = 40,000
        spec = spec_uniform(2, 0.0, 40000)
        ens = sy.sample_ensemble(spec, [40000], 3, master_seed=4)
        assert ens.dtype == np.int64 and ens.tolist() == [[39999]] * 3
        path = sy.positions_trajectory(spec, 4)
        assert path.dtype == np.int64
        assert path[40000].tolist() == [40001, 39999]

    @pytest.mark.parametrize("top, dtype", [
        (3, np.int16), (2 ** 15 - 1, np.int16), (2 ** 15, np.int32),
        (2 ** 31 - 1, np.int32), (2 ** 31, np.int64)])
    def test_dtype_rule(self, top, dtype):
        assert sy._position_dtype(top) == dtype

    @pytest.mark.parametrize("horizon, dtype", [
        (2 ** 15 - 3, np.int16), (2 ** 15 - 2, np.int32)])
    def test_samplers_switch_at_the_edge(self, horizon, dtype,
                                         monkeypatch):
        # M = 2, so M + horizon is 2**15 - 1 and 2**15
        starts = []
        evolve = sy._evolve

        def spy(stay, pos=None):
            starts.append(pos.dtype)
            return evolve(stay, pos)

        monkeypatch.setattr(sy, "_evolve", spy)
        spec = spec_uniform(2, 0.0, horizon)
        assert sy.sample_ensemble(spec, [horizon], 1, 0).tolist() == [
            [horizon - 1]]
        assert set(starts) == {np.dtype(dtype)}
        monkeypatch.setattr(sy, "_evolve", evolve)
        stay = np.zeros((horizon, 2), dtype=bool)
        assert next(sy._evolve(stay)).dtype == dtype

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 40), st.integers(1, 9),
           st.floats(0.0, 0.95), st.integers(0, 2 ** 32 - 1))
    def test_same_bits_same_positions_at_every_width(self, batch, steps, m,
                                                     q, seed):
        stay = np.random.default_rng(seed).random((batch, steps, m)) < q
        runs = []
        for dtype in (np.int16, np.int32, np.int64):
            start = np.broadcast_to(sy._initial_sites(m, dtype),
                                    (batch, m)).copy()
            runs.append([pos.astype(np.int64).tolist()
                         for pos in sy._evolve(stay, start)])
        assert runs[0] == runs[1] == runs[2]
        assert runs[0] == [pos.tolist() for pos in sy._evolve(stay)]


class FixedWords:
    """A stand-in tie stream that hands out given words in order."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


class TestByteThresholds:
    """Each stay bit is byte * 2**45 + V < ceil(q * 2**53), with V the top
    45 bits of a tie word read only when the byte equals c >> 45."""

    EDGE_RATES = [0.0, 2.0 ** -60, 0.1, 0.5, 1 - 2.0 ** -53]

    @staticmethod
    def assert_law(rates, tie_words):
        # every byte value for every rate, in cell order
        m = len(rates)
        stay_bytes = np.repeat(np.arange(256, dtype=np.uint8), m)
        hi, tie_below = (np.tile(a, 256) for a in sy._thresholds(rates))
        got = np.empty(stay_bytes.size, dtype=bool)
        sy._stay_bits(stay_bytes, hi, tie_below, FixedWords(tie_words), got)
        tops = [math.ceil(Fraction(q) * 2 ** 53) for q in rates]
        words = iter(tie_words)
        want = []
        for byte in range(256):
            for top in tops:
                tail = int(next(words)) >> 19 if byte == top >> 45 else 0
                want.append(byte * 2 ** 45 + tail < top)
        assert got.tolist() == want
        assert next(words, None) is None  # one tie word per tie, no more

    @classmethod
    def assert_law_at_the_tie(cls, rates, key):
        # Philox tie words, then the words on either side of each
        # rate's tie threshold and the extreme words
        ties = np.random.Philox(key=np.array(key, dtype=np.uint64),
                                counter=[0, 0, 0, 1]).random_raw(len(rates))
        cls.assert_law(rates, ties.tolist())
        for q in rates:
            lo = math.ceil(Fraction(q) * 2 ** 53) % 2 ** 45
            for word in (max(lo * 2 ** 19 - 1, 0), lo * 2 ** 19, 0,
                         2 ** 64 - 1):
                cls.assert_law([q], [word])

    def test_edge_rates(self):
        hi, _ = sy._thresholds([0.5])
        assert hi.tolist() == [128]  # lo = 0: the tie byte always moves
        self.assert_law_at_the_tie(self.EDGE_RATES, [3, 1])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                    max_size=6),
           st.integers(0, 2 ** 64 - 1))
    def test_drawn_rates(self, rates, seed):
        self.assert_law_at_the_tie(rates, [seed, 0])

    def test_trajectory_reads_the_scalar_layout(self):
        # positions_trajectory drives _evolve with exactly the oracle's
        # bits, over a partial last block and a partial last word
        rates = self.EDGE_RATES + [0.3, 0.9]
        horizon = 2 * sy.TIME_BLOCK + 5
        spec = sy.SystemSpec(m=len(rates), rates=rates, horizon=horizon)
        bits = np.array(stay_bits_scalar(rates, horizon, 2 ** 63 + 5, 0),
                        dtype=bool)
        want = [sy._initial_sites(len(rates)).tolist()]
        want += [pos.tolist() for pos in sy._evolve(bits)]
        assert sy.positions_trajectory(spec, 2 ** 63 + 5).tolist() == want


class TestStreamInvariance:
    """A sample's value at a time depends on its key alone: not on the
    chunk size, the time block, the horizon or the other times."""

    RATES = (0.3, 0.6, 0.2, 0.5, 0.4, 0.1, 0.7)

    def ensemble(self, times, chunk_size=None, n=9):
        spec = sy.SystemSpec(m=len(self.RATES), rates=self.RATES,
                             horizon=max(times))
        return sy.sample_ensemble(spec, times, n, 2024, chunk_size=chunk_size)

    def test_chunk_sizes(self):
        times = [5, sy.TIME_BLOCK, 2 * sy.TIME_BLOCK + 9]
        want = self.ensemble(times, chunk_size=1)
        for chunk in (3, 64):
            assert np.array_equal(self.ensemble(times, chunk_size=chunk), want)

    def test_horizons_at_shared_times(self):
        long_run = self.ensemble([9, 70, 150, 201])
        assert np.array_equal(self.ensemble([9]), long_run[:, :1])
        assert np.array_equal(self.ensemble([70, 9]), long_run[:, [1, 0]])
        assert np.array_equal(self.ensemble([150]), long_run[:, 2:3])

    def test_time_block(self, monkeypatch):
        times = [9, 70, 150, 201]
        want = self.ensemble(times, chunk_size=4)
        monkeypatch.setattr(sy, "TIME_BLOCK", 16)
        assert np.array_equal(self.ensemble(times, chunk_size=4), want)
        assert np.array_equal(self.ensemble(times[:2], chunk_size=4),
                              want[:, :2])


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
