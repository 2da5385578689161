"""Kernel layer vs the exact enumeration oracle and vs itself.

The decisive checks: the windowed determinant reproduces the brute-force
path law as exact rational numbers, and the two independent kernel routes
(residue series, contour quadrature) agree pointwise.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from oracles import (kernel_K, kernel_quadrature, kernel_series, phi,
                     psi1_quadrature, ResiduePsi)
from steptasep import combinatorics as cb
from steptasep import finite_kernel as fk
from steptasep.fredholm import det_discrete


RATES2 = [Fraction(3, 10), Fraction(1, 2)]


class TestPhi:
    def test_zero_for_ordered_times(self):
        assert phi(3, 3, 0, 0) == 0
        assert phi(5, 2, 1, 0) == 0

    def test_binomial_values(self):
        assert phi(0, 3, 0, 1) == 3
        assert phi(0, 3, 0, 0) == 1
        assert phi(0, 3, 0, 3) == 1
        assert phi(0, 3, 0, 4) == 0
        assert phi(0, 3, 1, 0) == 0  # backward move carries no weight

    def test_semigroup_exact(self):
        for t1, t2, t3 in [(0, 2, 5), (1, 4, 12), (0, 7, 12)]:
            for x1 in range(-12, 13):
                for x3 in range(-12, 13):
                    direct = phi(t1, t3, x1, x3)
                    through = sum(
                        phi(t1, t2, x1, y) * phi(t2, t3, y, x3)
                        for y in range(x1, x3 + 1)
                    )
                    assert direct == through

    def test_matches_contour_coefficient(self):
        # numeric contour integral of (1+1/z)^dt z^(dx) dz/z
        for dt in (1, 3, 5):
            for dx in range(-2, dt + 2):
                z = np.exp(2j * np.pi * np.arange(256) / 256)
                vals = (1 + 1 / z) ** dt * z**dx
                num = np.mean(vals).real
                assert abs(num - phi(0, dt, 0, dx)) < 1e-9


class TestPsi:
    def poly_psi2_oracle(self, x, t, rates):
        """(1+1/w)^T prod(1-p_i w) expanded by explicit convolution."""
        kern = fk.FiniteKernel(rates)
        horizon = t - kern.m + 1
        # dict power -> coeff for (1+1/w)^T
        coeffs = {-a: Fraction(comb(horizon, a)) for a in range(horizon + 1)}
        for p in kern.ps:
            nxt = {}
            for pw, c in coeffs.items():
                nxt[pw] = nxt.get(pw, Fraction(0)) + c
                nxt[pw + 1] = nxt.get(pw + 1, Fraction(0)) - c * p
            coeffs = nxt
        return coeffs.get(-x, Fraction(0))

    def test_psi2_against_polynomial_expansion(self):
        kern = fk.FiniteKernel(RATES2)
        for t in range(2, 6):
            for x in range(-4, t + 2):
                assert kern.psi2(x, t) == self.poly_psi2_oracle(x, t, RATES2)

    def test_psi2_outside_support_vanishes(self):
        kern = fk.FiniteKernel(RATES2)
        assert kern.psi2(4, 4) == 0  # above T = 3
        assert kern.psi2(-3, 4) == 0  # below -M

    def test_psi1_single_particle_values(self):
        q = Fraction(1, 4)
        kern = fk.FiniteKernel([q])
        assert kern.psi1(1, 1) == q

    def test_psi1_quadrature_matches_exact(self):
        kern = fk.FiniteKernel(RATES2)
        for t in (2, 4):
            for x in range(-3, t + 2):
                want = float(kern.psi1(x, t))
                got = psi1_quadrature(x, t, kern)
                assert abs(got - want) < 1e-10, (x, t, want, got)

    def test_psi1_quadrature_with_mild_rates(self):
        kern = fk.FiniteKernel([Fraction(1, 10)] * 3)
        for x in range(-2, 6):
            assert abs(psi1_quadrature(x, 5, kern) - float(kern.psi1(x, 5))) < 1e-10

    def test_integer_route_equals_residue_route(self):
        # random rational rates with zero and slow (q up to 9/10) particles;
        # x runs from below -M to k = x - (t-M+1) = 12, where the quadrature
        # oracle no longer settles for p >= 1
        rng = random.Random(13)
        for m in range(1, 7):
            for _ in range(3):
                rates = [Fraction(rng.randrange(den), den)
                         for den in rng.choices(range(2, 11), k=m)]
                rates[rng.randrange(m)] = Fraction(0)
                rates[rng.randrange(m)] = Fraction(rng.randrange(7, 10), 10)
                kern = fk.FiniteKernel(rates)
                psi = ResiduePsi(rates)
                for t in (m - 1, m, m + 1, m + 4):
                    horizon = t - m + 1
                    for x in range(-m - 2, horizon + 13):
                        assert kern.psi1(x, t) == psi.psi1(x, t), (rates, x, t)
                        assert kern.psi2(x, t) == psi.psi2(x, t), (rates, x, t)

    def test_rows_equal_residue_route(self):
        # the rows themselves, grown in random steps at both ends, against
        # the residue formulas: zero and slow particles, x from below -M
        # (a > 0) through the anchor a = 0 to k = x - T = 12 (a < 0), and
        # T = 0 at t = M - 1
        rng = random.Random(24)
        for m in range(1, 7):
            for _ in range(3):
                rates = [Fraction(rng.randrange(den), den)
                         for den in rng.choices(range(2, 11), k=m)]
                rates[rng.randrange(m)] = Fraction(0)
                rates[rng.randrange(m)] = Fraction(rng.randrange(7, 10), 10)
                kern = fk.FiniteKernel(rates)
                psi = ResiduePsi(rates)
                for t in range(m - 1, m + 5):
                    horizon = t - m + 1
                    lo, hi = -m - 3, horizon + 12
                    row = kern._psi1_row(t)
                    for _ in range(4):
                        a, b = sorted(rng.sample(range(lo, hi + 1), 2))
                        row.span(a, b)
                    want = [psi.psi1(x, t) * kern._psi1_denominator(x, t)
                            for x in range(lo, hi + 1)]
                    assert row.span(lo, hi) == want, (rates, t)
                    want = [psi.psi2(x, t) * kern._d ** m
                            for x in range(-m, horizon + 1)]
                    assert kern._psi2_row(t) == want, (rates, t)

    def test_psi1_quadrature_far_above_support(self):
        # k = x - (t-M+1) runs to 12, deep into the p-series, with zero stay
        # rates among the particles; psi1 decays like max(p)^k there, so
        # the comparison is relative
        for rates in ([Fraction(0), Fraction(1, 4)],
                      [Fraction(0), Fraction(3, 10), Fraction(0)]):
            kern = fk.FiniteKernel(rates)
            for t in (3, 5):
                horizon = t - kern.m + 1
                for x in range(horizon + 10, horizon + 13):
                    want = float(kern.psi1(x, t))
                    got = psi1_quadrature(x, t, kern)
                    assert abs(got - want) < 1e-6 * abs(want), (rates, x, t)


class TestKernelRoutes:
    POINTS = [
        (2, 1, 2, 1), (2, 0, 2, 2), (3, 1, 2, 0), (2, 0, 3, 1),
        (4, 2, 2, 1), (2, -1, 4, 3), (3, 2, 3, -1), (2, 1, 4, 0),
    ]

    def test_series_vs_ordered_contours(self):
        kern = fk.FiniteKernel(RATES2)
        for t1, x1, t2, x2 in self.POINTS:
            want = float(kern.entry(t1, x1, t2, x2))
            got = kernel_quadrature(t1, x1, t2, x2, kern, ordered=True)
            assert abs(got - want) < 1e-9, (t1, x1, t2, x2)

    def test_series_vs_fixed_ordering_with_phi(self):
        kern = fk.FiniteKernel(RATES2)
        for t1, x1, t2, x2 in self.POINTS:
            want = float(kern.entry(t1, x1, t2, x2))
            got = kernel_quadrature(
                t1, x1, t2, x2, kern, ordered=False, subtract_phi=True
            )
            assert abs(got - want) < 1e-9, (t1, x1, t2, x2)

    def test_omitting_phi_breaks_forward_entries(self):
        kern = fk.FiniteKernel(RATES2)
        t1, x1, t2, x2 = 2, 1, 4, 1
        with_phi = kernel_quadrature(t1, x1, t2, x2, kern, ordered=False)
        without = kernel_quadrature(
            t1, x1, t2, x2, kern, ordered=False, subtract_phi=False
        )
        assert abs(with_phi - float(kern.entry(t1, x1, t2, x2))) < 1e-9
        assert abs(without - with_phi - phi(t1, t2, x1, x2)) < 1e-9
        assert phi(t1, t2, x1, x2) != 0

    def test_reconciled_entry_api(self):
        val = kernel_K(3, 1, 2, 0, RATES2)
        assert isinstance(val, float)
        # silent path agrees with checked path
        assert val == kernel_K(3, 1, 2, 0, RATES2, reconcile=False)

    def test_columns_vanish_beyond_support(self):
        # position above t-M+1 is unreachable; every kernel column there is 0
        kern = fk.FiniteKernel(RATES2)
        for t2 in (2, 3):
            horizon2 = t2 - 2 + 1
            for x2 in (horizon2 + 1, horizon2 + 2):
                for t1 in (2, 3, 4):
                    for x1 in range(-2, t1):
                        assert kern.entry(t1, x1, t2, x2) == 0, (t1, x1, t2, x2)


class TestKernelBlock:
    def test_block_equals_direct_series(self):
        # random rational rates with a zero stay rate, both time orders,
        # shuffled positions from below -M to past the support t2-M+1
        rng = random.Random(9)
        for m in range(1, 7):
            for _ in range(2):
                rates = [Fraction(rng.randrange(den), den)
                         for den in rng.choices(range(2, 13), k=m)]
                rates[rng.randrange(m)] = Fraction(0)
                kern = fk.FiniteKernel(rates)
                psi = ResiduePsi(rates)
                times = (m - 1, m + 1, m + 4)
                for t1, t2 in itertools.product(times, repeat=2):
                    xs1 = list(range(-m - 2, t1 - m + 4))
                    xs2 = list(range(-m - 2, t2 - m + 4))
                    rng.shuffle(xs1)
                    rng.shuffle(xs2)
                    got = kern.block(t1, xs1, t2, xs2)
                    want = [[kernel_series(t1, x1, t2, x2, psi)
                             for x2 in xs2] for x1 in xs1]
                    assert got == want, (rates, t1, t2)
                    # columns past the support t2-M+1 vanish: the sum is
                    # empty for t1 >= t2, and for t1 < t2 the full sum
                    # cancels on rows inside the row support
                    for (i, x1), (j, x2) in itertools.product(
                            enumerate(xs1), enumerate(xs2)):
                        if x2 > t2 - m + 1 and (t1 >= t2 or x1 <= t1 - m + 1):
                            assert got[i][j] == 0, (rates, t1, x1, t2, x2)

    def test_psi1_calls_quadratic_in_window(self, monkeypatch):
        # the n = 45 window at M=50, t=100 needs 1.5 n^2 products; one
        # series per entry made 46,575 psi1 calls. The rows make each
        # psi1 value once, so their lengths count the values made
        rows = []

        class Spy(fk._Psi1Row):
            def __init__(self, kern, t):
                super().__init__(kern, t)
                rows.append(self)

        monkeypatch.setattr(fk, "_Psi1Row", Spy)
        fk.joint_probability([100], [45], (0.5,) * 50)
        values = sum(len(row.below) + len(row.above) for row in rows)
        assert 0 < values <= 2 * 45 ** 2

    def test_rows_built_once_per_time_and_grown(self, monkeypatch):
        # a full M=50, t=100 column on one kernel: each level's window
        # reaches further in x, and the one row of t=100 grows to meet it;
        # a row rebuilt per level costs the column O(n) rebuilds
        builds, growths = [], []

        class Spy(fk._Psi1Row):
            def __init__(self, kern, t):
                builds.append((kern, t))
                super().__init__(kern, t)

            def span(self, lo, hi):
                before = len(self.below), len(self.above)
                out = super().span(lo, hi)
                if (len(self.below), len(self.above)) != before:
                    growths.append((lo, hi))
                return out

        monkeypatch.setattr(fk, "_Psi1Row", Spy)
        kern = fk.FiniteKernel((0.2,) + (0.1,) * 49)
        column = [fk.joint_probability([100], [level], kern)
                  for level in range(1, 52)]
        assert builds == [(kern, 100)]
        assert 1 < len(growths) <= 51
        assert list(kern._rows2) == [100]
        # the grown row is the row built at once, and the column the one
        # fresh kernels give
        row = kern._rows1[100]
        lo, hi = 51 - len(row.below), 51 + len(row.above) - 1
        fresh = fk.FiniteKernel(kern.qs)
        assert row.span(lo, hi) == fresh._psi1_row(100).span(lo, hi)
        assert column == [fk.joint_probability([100], [level], kern.qs)
                          for level in range(1, 52)]

    def test_no_fraction_arithmetic_in_block(self, monkeypatch):
        # the running sums stay in integers; each entry is one Fraction
        kern = fk.FiniteKernel([Fraction(1, 3), Fraction(0), Fraction(2, 7)])
        ops = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            def counted(self, other, _op=getattr(Fraction, name), _name=name):
                ops.append(_name)
                return _op(self, other)
            monkeypatch.setattr(Fraction, name, counted)
        for t1, t2 in itertools.product((4, 6), repeat=2):
            got = kern.block(t1, range(-4, 5), t2, range(-4, 5))
            assert all(type(v) is Fraction for row in got for v in row)
        assert ops == []


    def test_float_route_is_the_rounded_exact_route(self):
        # bit for bit: the q=0.5 column at M=50, t=100, where float terms
        # of 3e26 cancel, and the two-time grid on the defect rates
        def rounded(kern):
            return lambda *args: [[float(v) for v in row]
                                  for row in kern.block(*args)]

        uniform = fk.FiniteKernel((0.5,) * 50)
        defect = fk.FiniteKernel((0.2,) + (0.1,) * 49)
        windows = {80: range(17, 32), 100: range(22, 52)}
        pairs = [(uniform, 100, range(1, 52), 100, range(1, 52))]
        pairs += [(defect, t1, windows[t1], t2, windows[t2])
                  for t1, t2 in itertools.product(windows, repeat=2)]
        for kern, *args in pairs:
            got = kern.block(*args, exact=False)
            assert all(type(v) is float for row in got for v in row)
            assert got == rounded(kern)(*args), args
        for l1, l2 in itertools.product((3, 9, 15), (6, 18, 30)):
            blocks = [(80, range(32 - l1, 32)), (100, range(52 - l2, 52))]
            want = min(max(det_discrete(rounded(defect), blocks), 0.0), 1.0)
            got = fk.joint_probability([80, 100], [l1, l2], defect)
            assert got == want, (l1, l2)

def oracle_joint(law, pairs):
    return cb.prob_path_at_least(law, pairs)


class TestDeterminantAgainstEnumeration:
    @pytest.mark.parametrize(
        "m,n",
        [(1, 3), (1, 5), (2, 2), (2, 4), (3, 3), (4, 2)],
    )
    def test_one_time_exact(self, m, n):
        rates = [Fraction(3, 10), Fraction(1, 2), Fraction(1, 5), Fraction(2, 5)][:m]
        law = cb.enumerate_exact_distribution(n, m, rates)
        for t in range(m, n + m):
            horizon = t - m + 1
            for level in range(0, horizon + 2):
                want = oracle_joint(law, [(t, level)])
                got = fk.joint_probability([t], [level], rates, exact=True)
                assert got == want, (m, n, t, level)

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (2, 4)])
    def test_two_time_exact(self, m, n):
        rates = [Fraction(3, 10), Fraction(1, 2), Fraction(1, 5)][:m]
        law = cb.enumerate_exact_distribution(n, m, rates)
        times = list(range(m, n + m))
        for t1, t2 in itertools.combinations(times, 2):
            h1, h2 = t1 - m + 1, t2 - m + 1
            for l1 in range(0, h1 + 2):
                for l2 in range(0, h2 + 2):
                    want = oracle_joint(law, [(t1, l1), (t2, l2)])
                    got = fk.joint_probability([t1, t2], [l1, l2], rates, exact=True)
                    assert got == want, (t1, l1, t2, l2)

    def test_three_time_exact(self):
        m, n = 2, 3
        rates = RATES2
        law = cb.enumerate_exact_distribution(n, m, rates)
        times = [2, 3, 4]
        for levels in itertools.product(range(0, 3), repeat=3):
            want = oracle_joint(law, list(zip(times, levels)))
            got = fk.joint_probability(times, list(levels), rates, exact=True)
            assert got == want, levels

    def test_float_route_close_to_exact(self):
        rates = RATES2
        for t, level in [(2, 1), (3, 2), (4, 2)]:
            want = float(fk.joint_probability([t], [level], rates, exact=True))
            got = fk.joint_probability([t], [level], rates)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("m, q, t, level", [
        (30, Fraction(9, 10), 80, 5), (60, Fraction(1, 2), 150, 40)])
    def test_float_route_stays_a_probability_in_deep_tails(self, m, q, t,
                                                            level):
        # exact values 1.6e-64 and 2.9e-212; cancellation in the float
        # determinant used to leave -4.4e-60 and -1.0e-125
        want = fk.joint_probability([t], [level], [q] * m, exact=True)
        got = fk.joint_probability([t], [level], [float(q)] * m)
        assert 0.0 <= got <= 1.0
        assert abs(got - float(want)) < 1e-12


class TestDeterminantProperties:
    def test_single_particle_binomial_law(self):
        q = Fraction(1, 4)
        for t in range(1, 6):
            for level in range(0, t + 2):
                want = sum(
                    comb(t, k) * (1 - q) ** k * q ** (t - k)
                    for k in range(level, t + 1)
                )
                got = fk.joint_probability([t], [level], [q], exact=True)
                assert got == want

    def test_vacuous_and_impossible_levels(self):
        assert fk.joint_probability([3], [0], RATES2) == 1.0
        assert fk.joint_probability([3], [-2], RATES2) == 1.0
        assert fk.joint_probability([3], [2 + 2], RATES2) == 0.0
        assert fk.joint_probability([3], [3], RATES2, exact=True) == 0

    def test_level_above_support_is_exactly_zero(self):
        # L(t) <= t - M + 1, so level t - M + 2 is impossible on both routes
        rates, t = [Fraction(1, 2)] * 5, 12
        assert fk.joint_probability([t], [t - 3], rates) == 0.0
        assert fk.joint_probability([t], [t - 3], rates, exact=True) == 0
        # the exact determinant on the window {0..t-M+1} vanishes as well
        kern = fk.FiniteKernel(rates)
        window = range(0, t - 3)
        mat = [[(1 if x == y else 0) - kern.entry(t, x, t, y) for y in window]
               for x in window]
        assert cb.fraction_determinant(mat) == 0

    def test_time_one_below_tagged_label(self):
        # at t = M - 1 the tagged particle has not moved: L = 0
        for exact in (False, True):
            assert fk.joint_probability([1], [0], RATES2, exact=exact) == 1
            assert fk.joint_probability([1], [1], RATES2, exact=exact) == 0
            assert fk.joint_probability([1, 3], [1, 1], RATES2,
                                        exact=exact) == 0

    def test_marginalization_second_time(self):
        for l1 in (1, 2):
            one = fk.joint_probability([3], [l1], RATES2, exact=True)
            two = fk.joint_probability([3, 4], [l1, 0], RATES2, exact=True)
            assert one == two

    def test_monotone_in_levels(self):
        vals = [
            fk.joint_probability([4], [level], RATES2) for level in range(0, 5)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(-1e-12 <= v <= 1 + 1e-12 for v in vals)

    def test_padding_the_window_changes_nothing(self):
        # windows (t-M+1-l, t-M+1] extended by `pad` points past the support
        kern = fk.FiniteKernel(RATES2)
        for pad in (1, 3):
            a = fk.joint_probability([2, 4], [1, 2], RATES2, exact=True)
            points = [(t, x) for t, level in ((2, 1), (4, 2))
                      for x in range(t - 1 - level + 1, t - 1 + 1 + pad)]
            mat = [[(1 if p == r else 0) - kern.entry(*p, *r) for r in points]
                   for p in points]
            b = cb.fraction_determinant(mat)
            assert a == b

    def test_conjugation_invariance(self):
        kern = fk.FiniteKernel(RATES2)
        times, levels = [2, 4], [1, 2]
        blocks, _ = fk._windows(times, levels, kern)
        points = [(t, x) for t, window in blocks for x in window]
        base = np.eye(len(points))
        gauged = np.eye(len(points))
        c = 1.7
        for i, (ti, xi) in enumerate(points):
            for j, (tj, xj) in enumerate(points):
                v = float(kern.entry(ti, xi, tj, xj))
                base[i, j] -= v
                gauged[i, j] -= v * c ** (xj - xi)
        assert abs(np.linalg.det(base) - np.linalg.det(gauged)) < 1e-10

    def test_equal_time_thresholds_merge(self):
        a = fk.joint_probability([4, 4], [1, 2], RATES2, exact=True)
        b = fk.joint_probability([4], [2], RATES2, exact=True)
        assert a == b

    def test_rejects_time_before_tagged_label(self):
        with pytest.raises(ValueError):
            fk.joint_probability([0], [1], RATES2)

    @pytest.mark.parametrize("times, levels, rates", [
        ([10, 12], [3], (0.5,) * 5),  # one level for two times
        ([10.7], [3], (0.5,) * 5),
        ([10], [2.9], (0.5,) * 5),
        ([True], [1], (0.5,)),  # True once ran as time 1
        ([10], [True], (0.5,) * 5),
        ([10], [2], ()),  # no tagged particle
    ])
    def test_rejects_malformed_input(self, times, levels, rates):
        with pytest.raises(ValueError):
            fk.joint_probability(times, levels, rates)

    def test_accepts_numpy_integers(self):
        rates = (Fraction(1, 2),) * 5
        want = fk.joint_probability([10, 12], [3, 4], rates, exact=True)
        got = fk.joint_probability([np.int64(10), np.int32(12)],
                                   np.array([3, 4]), rates, exact=True)
        assert got == want
