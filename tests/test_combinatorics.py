"""Exact checks for the combinatorial layer.

The worked 6x4 matrix pins every correspondence in one place; the exhaustive
loops then prove the identities for all small sizes.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from steptasep import combinatorics as comb

# (row, column) positions of the ones, 1-based, in the worked example.
EXAMPLE_ONES = {
    (1, 1), (1, 3), (1, 4),
    (2, 1), (2, 2), (2, 3),
    (3, 2), (3, 4),
    (4, 1), (4, 4),
    (5, 3),
    (6, 1), (6, 2),
}


def example_matrix():
    return tuple(
        tuple(1 if (r + 1, c + 1) in EXAMPLE_ONES else 0 for c in range(4))
        for r in range(6)
    )


def random_matrix_strategy(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda n: st.integers(1, max_cols).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(0, 1), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            ).map(lambda rows: tuple(tuple(r) for r in rows))
        )
    )


class TestWorkedExample:
    def test_left_down_maximum(self):
        assert comb.longest_left_down_path(example_matrix()) == 5

    def test_tagged_particle_path(self):
        path, stays = comb.trajectory_from_matrix(example_matrix())
        assert len(path) == 6 + 4 - 1 + 1
        assert path[-1] == 1
        assert stays == 5

    def test_dual_rsk_shape(self):
        p, q = comb.dual_rsk(example_matrix())
        assert comb.tableau_shape(p) == (4, 3, 2, 2, 2)
        assert comb.tableau_shape(q) == (4, 3, 2, 2, 2)

    def test_first_column_identity(self):
        first_col, path_max, agree = comb.first_column_identity(example_matrix())
        assert (first_col, path_max, agree) == (5, 5, True)

    def test_growth_ends_at_final_shape(self):
        shapes = oracles.growth_shapes(example_matrix())
        assert shapes[-1] == (4, 3, 2, 2, 2)
        for prev, lam in zip(((),) + tuple(shapes), shapes):
            assert comb.is_horizontal_strip(lam, prev)


class TestTrajectory:
    def test_initial_positions_and_bounds(self):
        for n_rows in range(1, 4):
            for n_cols in range(1, 4):
                for bits in comb.all_matrices(n_rows, n_cols):
                    path, stays = comb.trajectory_from_matrix(bits)
                    assert path[0] == 0
                    for t, x in enumerate(path):
                        assert 0 <= x <= max(0, t - n_cols + 1)
                    steps = [b - a for a, b in zip(path, path[1:])]
                    assert set(steps) <= {0, 1}
                    assert stays == n_rows - path[-1]

    def test_no_stay_bits_means_free_flow(self):
        # all-zero matrix: the tagged particle moves as soon as unblocked
        n_rows, n_cols = 5, 3
        bits = tuple(tuple(0 for _ in range(n_cols)) for _ in range(n_rows))
        path, stays = comb.trajectory_from_matrix(bits)
        assert stays == 0
        assert path[-1] == n_rows

    def test_all_stay_bits_means_frozen(self):
        bits = tuple(tuple(1 for _ in range(3)) for _ in range(4))
        path, stays = comb.trajectory_from_matrix(bits)
        assert path[-1] == 0
        assert stays == 4


class TestLastPassageIdentities:
    def test_stays_equal_left_down_maximum_exhaustive(self):
        for n_rows in range(1, 4):
            for n_cols in range(1, 4):
                for bits in comb.all_matrices(n_rows, n_cols):
                    _path, stays = comb.trajectory_from_matrix(bits)
                    assert stays == comb.longest_left_down_path(bits)

    def test_first_column_identity_exhaustive(self):
        for n_rows in range(1, 4):
            for n_cols in range(1, 4):
                for bits in comb.all_matrices(n_rows, n_cols):
                    first_col, path_max, agree = comb.first_column_identity(bits)
                    assert agree, (bits, first_col, path_max)

    @settings(max_examples=200, deadline=None)
    @given(random_matrix_strategy())
    def test_dp_matches_word_oracle(self, bits):
        word = comb.column_word(bits)
        assert comb.longest_left_down_path(bits) == oracles.longest_nonincreasing_subsequence(word)

    @settings(max_examples=200, deadline=None)
    @given(random_matrix_strategy())
    def test_identities_on_random_matrices(self, bits):
        _path, stays = comb.trajectory_from_matrix(bits)
        first_col, path_max, agree = comb.first_column_identity(bits)
        assert stays == path_max
        assert agree


class TestSchur:
    def test_single_row_is_complete_homogeneous(self):
        xs = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]
        table = comb.complete_homogeneous(comb.elementary_symmetric(xs), 4)
        for k in range(5):
            assert comb.schur_polynomial((k,), xs) == table[k]

    def test_complete_homogeneous_matches_product_expansion(self):
        # zero and negative values, degrees past the number of variables,
        # and a table grown one degree per call
        for xs in ([Fraction(1, 2), Fraction(0), Fraction(-2, 3), Fraction(5, 4)],
                   [0.5, 0.0, -2 / 3, 1.25]):
            e = comb.elementary_symmetric(xs)
            table = comb.complete_homogeneous(e, 8)
            grown = [1]
            for k in range(9):
                comb.complete_homogeneous(e, k, grown)
            assert grown == table
            for k in range(9):
                expansion = sum(math.prod(c) for c in
                                itertools.combinations_with_replacement(xs, k))
                schur = comb.schur_polynomial((k,), xs)
                if isinstance(xs[0], Fraction):
                    assert table[k] == expansion == schur
                else:
                    assert abs(table[k] - expansion) < 1e-12
                    assert abs(table[k] - float(schur)) < 1e-12

    def test_single_column_is_elementary(self):
        xs = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)]
        # e_2 and e_3 by hand
        e2 = sum(xs[i] * xs[j] for i in range(3) for j in range(i + 1, 3))
        assert comb.schur_polynomial((1, 1), xs) == e2
        assert comb.schur_polynomial((1, 1, 1), xs) == xs[0] * xs[1] * xs[2]

    def test_hook_shape_product_formula(self):
        x, y, z = Fraction(2), Fraction(3), Fraction(5)
        assert comb.schur_polynomial((2, 1), [x, y, z]) == (x + y) * (y + z) * (z + x)

    def test_more_rows_than_variables_vanishes(self):
        assert comb.schur_polynomial((1, 1, 1), [Fraction(1), Fraction(2)]) == 0

    def test_enumeration_matches_determinant(self):
        xs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)]
        for shape in [(1,), (2,), (2, 1), (2, 2), (3, 1), (3, 2, 1), (4, 2)]:
            assert oracles._ssyt_sum(shape, xs) == comb.schur_polynomial(shape, xs)

    def test_horizontal_strip(self):
        assert comb.is_horizontal_strip((3, 1), (2,))
        assert comb.is_horizontal_strip((2, 2), (2, 1))
        assert not comb.is_horizontal_strip((2, 2), (1, 1))  # two cells in col 2
        assert not comb.is_horizontal_strip((2,), (3,))  # not contained
        assert comb.is_horizontal_strip((4,), ())
        assert not comb.is_horizontal_strip((1, 1), ())

    def test_conjugate(self):
        assert comb.conjugate((4, 3, 2, 2, 2)) == (5, 5, 2, 1)
        assert comb.conjugate(()) == ()
        assert comb.conjugate(comb.conjugate((4, 3, 2, 2, 2))) == (4, 3, 2, 2, 2)


class TestGrowthLaw:
    RATES = [Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)]

    def law_matches_weights(self, n_rows, n_cols):
        rates = self.RATES[:n_cols]
        law = oracles.enumerate_growth_law(n_rows, n_cols, rates)
        assert sum(law.values()) == 1
        for seq in oracles.all_growth_sequences(n_rows, n_cols):
            assert comb.schur_weight(seq, rates) == law.get(seq, Fraction(0)), seq

    def test_exact_pushforward_small_sizes(self):
        for n_rows in range(1, 4):
            for n_cols in range(1, 4):
                self.law_matches_weights(n_rows, n_cols)

    def test_unreachable_sequence_weight_is_zero(self):
        # second diagram drops a cell: impossible for a growth sequence
        assert comb.schur_weight(((2,), (1,)), [Fraction(1, 3)]) == 0
        # two cells added in one column: not a horizontal strip
        assert comb.schur_weight(((1, 1),), [Fraction(1, 3), Fraction(1, 5)]) == 0


class TestEnumeratedPathLaw:
    def test_total_mass_and_support(self):
        rates = [Fraction(3, 10), Fraction(1, 2)]
        law = comb.enumerate_exact_distribution(3, 2, rates)
        assert sum(law.values()) == 1
        for path in law:
            assert path[0] == 0
            assert all(b - a in (0, 1) for a, b in zip(path, path[1:]))

    def test_threshold_probability_single_particle(self):
        # one particle, free: L(t) counts hop bits among the first t entries
        q = Fraction(1, 4)
        law = comb.enumerate_exact_distribution(4, 1, [q])
        # P(L(4) >= 3) = P(Binom(4, 3/4) >= 3)
        p = 1 - q
        expect = 4 * p**3 * q + p**4
        assert comb.prob_path_at_least(law, [(4, 3)]) == expect


class TestGeometricModel:
    def test_first_row_equals_path_sum_exhaustive(self):
        import itertools

        for n_rows, n_cols in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
            cells = n_rows * n_cols
            for entries in itertools.product(range(3), repeat=cells):
                matrix = np.array(entries, dtype=int).reshape(n_rows, n_cols)
                assert oracles.geometric_growth_identity(matrix), matrix

    def test_first_row_equals_path_sum_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            matrix = oracles.sample_geometric_matrix(6, 5, [0.3, 0.4, 0.5, 0.2, 0.6], rng)
            assert oracles.geometric_growth_identity(matrix)

    def test_arrival_time_offset(self):
        matrix = np.array([[2, 0], [1, 3]])
        assert oracles.last_passage_sum(matrix) == 2 + 1 + 3
        assert oracles.arrival_time(matrix) == 6 + 2 + 2 - 1


class TestSampling:
    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            list(comb.all_matrices(5, 5))


def test_fraction_conversion_reads_decimal_literals():
    assert comb.as_fraction(0.3) == Fraction(3, 10)
    assert comb.as_fraction(1) == 1
    assert comb.as_fraction("2/7") == Fraction(2, 7)
