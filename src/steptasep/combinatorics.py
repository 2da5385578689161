"""Exact combinatorics behind the tagged-particle law.

01 matrices with Bernoulli columns, the left-down last-passage quantity, the
dual RSK correspondence, Schur-function weights of growth sequences, and the
enumerated law of the tagged path. Everything is exact: probabilities come
out as fractions.Fraction whenever the stay rates are rational, so this
module is the ground truth the determinant machinery is checked against.
The cross-check-only routes (SSYT enumeration of Schur polynomials, the
enumerated growth law, the geometric-entry variant) live with the tests
(tests/oracles.py).

Conventions. A matrix is a tuple of N row-tuples of length M with entries in
{0, 1}. Column c (0-based) carries the stay indicators of particle M - c
(1-based label), i.e. entry (i, M+1-j) is 1 with probability q_j. Entry 1
means "stay", entry 0 means "try to hop".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

# Hard guard for 2^(N*M) matrix enumerations.
ENUMERATION_CELL_LIMIT = 22


def as_fraction(x):
    """Exact rational from an int, Fraction, string, or decimal-literal float.

    Floats are converted through repr so 0.3 means 3/10, not the binary
    double closest to it. Oracle probabilities stay exact that way.
    """
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


# ---------------------------------------------------------------------------
# 01 matrices and the tagged-particle trajectory
# ---------------------------------------------------------------------------

def all_matrices(n_rows, n_cols):
    """Yield every 01 matrix of the given size as a tuple of row tuples."""
    if n_rows * n_cols > ENUMERATION_CELL_LIMIT:
        raise ValueError(f"{n_rows}x{n_cols} exceeds the enumeration guard")
    for code in range(1 << (n_rows * n_cols)):
        yield tuple(
            tuple((code >> (r * n_cols + c)) & 1 for c in range(n_cols))
            for r in range(n_rows)
        )


def matrix_probability(bits, rates):
    """Exact probability of one matrix under the Bernoulli column law."""
    n_rows = len(bits)
    n_cols = len(bits[0]) if n_rows else len(rates)
    prob = Fraction(1)
    for c in range(n_cols):
        q = as_fraction(rates[n_cols - 1 - c])
        ones = sum(bits[r][c] for r in range(n_rows))
        prob *= q**ones * (1 - q) ** (n_rows - ones)
    return prob


def trajectory_from_matrix(bits):
    """Evolve the step initial condition through a 01 matrix.

    Particle j reads entry (i, M+1-j) at the step from time i+j-2 to i+j-1;
    a blocked particle stays regardless of the entry. Rows beyond N never
    influence the tagged particle up to time N+M-1.

    Returns
    -------
    (path, stays) : (list of int, int)
        path[t] is the tagged position L(t, M) for t = 0..N+M-1, and
        stays = N - L(N+M-1, M) counts the tagged particle's stay steps.
    """
    n_rows = len(bits)
    n_cols = len(bits[0]) if n_rows else 0
    if n_cols == 0:
        raise ValueError("matrix must have at least one column")
    pos = [n_cols - j for j in range(1, n_cols + 1)]
    path = [0]
    for t in range(n_rows + n_cols - 1):
        front = pos[:]
        for j in range(1, n_cols + 1):
            r = t - j + 1
            stay = bits[r][n_cols - j] if 0 <= r < n_rows else 0
            blocked = j > 1 and front[j - 2] == pos[j - 1] + 1
            if not stay and not blocked:
                pos[j - 1] += 1
        path.append(pos[n_cols - 1])
    return path, n_rows - path[-1]


# ---------------------------------------------------------------------------
# Left-down last passage
# ---------------------------------------------------------------------------

def longest_left_down_path(bits):
    """Maximum number of 1-entries on a path with strictly increasing row
    indices and weakly decreasing column indices. O(N*M)."""
    n_rows = len(bits)
    n_cols = len(bits[0]) if n_rows else 0
    best = [0] * n_cols
    for r in range(n_rows):
        row = bits[r]
        new = list(best)
        suffix = 0
        for c in range(n_cols - 1, -1, -1):
            if best[c] > suffix:
                suffix = best[c]
            if row[c] and suffix + 1 > new[c]:
                new[c] = suffix + 1
        best = new
    return max(best, default=0)


def column_word(bits):
    """Second row of the two-line array: column indices (1-based) of the
    1-entries, rows top to bottom, left to right within a row."""
    return [c + 1 for row in bits for c, v in enumerate(row) if v]


# ---------------------------------------------------------------------------
# Dual and normal RSK
# ---------------------------------------------------------------------------

def _insert(rows, x, find):
    """Row insertion: x displaces the entry at find(row, x), bisect_left
    (leftmost >= x) for dual and bisect_right (leftmost > x) for normal
    insertion. Returns the row index where the cascade ends (a new cell
    appears there)."""
    for r, row in enumerate(rows):
        idx = find(row, x)
        if idx == len(row):
            row.append(x)
            return r
        row[idx], x = x, row[idx]
    rows.append([x])
    return len(rows) - 1


def dual_rsk(bits):
    """Dual RSK of a 01 matrix.

    Returns
    -------
    (p, q) : pair of list-of-lists tableaux of equal shape. Rows of p are
        strictly increasing (its transpose is semistandard); q is
        semistandard and records which input row created each cell.
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for i, row in enumerate(bits, start=1):
        for c, v in enumerate(row):
            if v:
                r = _insert(p_rows, c + 1, bisect_left)
                if r == len(q_rows):
                    q_rows.append([])
                q_rows[r].append(i)
    return p_rows, q_rows


def normal_rsk(word):
    """Insertion tableau of the normal RSK algorithm applied to a word."""
    rows: list[list[int]] = []
    for x in word:
        _insert(rows, x, bisect_right)
    return rows


def tableau_shape(rows):
    return tuple(len(r) for r in rows)


def transpose_tableau(rows):
    if not rows:
        return []
    return [
        [rows[r][c] for r in range(len(rows)) if c < len(rows[r])]
        for c in range(len(rows[0]))
    ]


def conjugate(shape):
    """Transpose of a Young diagram given as weakly decreasing parts."""
    shape = tuple(p for p in shape if p > 0)
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > c) for c in range(shape[0]))


def first_column_identity(bits):
    """First-column length of the dual-RSK shape vs the left-down maximum.

    Returns
    -------
    (first_column, path_max, agree) where agree also requires the symmetry
    p-transpose == normal RSK of the reversed column word.
    """
    p, _q = dual_rsk(bits)
    shape = tableau_shape(p)
    first_column = conjugate(shape)[0] if shape else 0
    path_max = longest_left_down_path(bits)
    symmetric = transpose_tableau(p) == normal_rsk(column_word(bits)[::-1])
    return first_column, path_max, (first_column == path_max and symmetric)


# ---------------------------------------------------------------------------
# Schur polynomials (exact)
# ---------------------------------------------------------------------------

def is_horizontal_strip(lam, mu):
    """True when mu is contained in lam and lam/mu has no two cells in the
    same column (interlacing lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...)."""
    lam = tuple(p for p in lam if p > 0)
    mu = tuple(p for p in mu if p > 0)
    if len(mu) > len(lam):
        return False
    for i, part in enumerate(lam):
        m = mu[i] if i < len(mu) else 0
        if m > part:
            return False
        if i + 1 < len(lam) and lam[i + 1] > m:
            return False
    return True


def elementary_symmetric(xs):
    """e_0..e_n of the values xs, in their own arithmetic (Fractions stay
    exact). e_k is the coefficient of s^k in prod_i (1 + x_i s)."""
    e = [1]
    for x in xs:
        e.append(0)
        for k in range(len(e) - 1, 0, -1):
            e[k] += x * e[k - 1]
    return e


def complete_homogeneous(e, degree, h=None):
    """h_0..h_degree (coefficients of prod_i 1/(1 - x_i s)) from the e_k of
    the same x, by h_k = sum_{j>=1} (-1)^(j+1) e_j h_(k-j). A given list
    h_0..h_(k-1) is extended in place, so no coefficient is computed twice."""
    h = [1] if h is None else h
    for k in range(len(h), degree + 1):
        h.append(sum((-1) ** (j + 1) * e[j] * h[k - j]
                     for j in range(1, min(k, len(e) - 1) + 1)))
    return h


def fraction_determinant(mat):
    """Exact determinant by Gaussian elimination with Fraction entries."""
    n = len(mat)
    mat = [row[:] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col] == 0:
                continue
            factor = mat[r][col] * inv
            for c in range(col, n):
                mat[r][c] -= factor * mat[col][c]
    return det


def schur_polynomial(shape, xs):
    """Exact Schur polynomial s_shape(xs) as the Jacobi-Trudi determinant
    det(h_{shape_i - i + j}); zero when the shape needs more rows than there
    are variables."""
    shape = tuple(p for p in shape if p > 0)
    xs = [as_fraction(x) for x in xs]
    if len(shape) > len(xs):
        return Fraction(0)
    if not shape:
        return Fraction(1)
    n = len(shape)
    table = complete_homogeneous(elementary_symmetric(xs), shape[0] + n)

    def h(d):
        return Fraction(table[d]) if d >= 0 else Fraction(0)

    return fraction_determinant(
        [[h(shape[i] - i + j) for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# The growth-sequence measure
# ---------------------------------------------------------------------------

def schur_weight(seq, rates):
    """Exact probability of a growth sequence of Young diagrams.

    The weight is prod_i (1-q_i)^N times the Schur polynomial of the final
    conjugate shape in the variables p_i = q_i/(1-q_i), provided every
    consecutive difference (starting from the empty diagram) is a horizontal
    strip; otherwise the sequence is unreachable and the weight is 0.
    """
    qs = [as_fraction(q) for q in rates]
    n_steps = len(seq)
    prev = ()
    for lam in seq:
        if not is_horizontal_strip(lam, prev):
            return Fraction(0)
        prev = lam
    ps = [q / (1 - q) for q in reversed(qs)]
    weight = schur_polynomial(conjugate(seq[-1]), ps)
    for q in qs:
        weight *= (1 - q) ** n_steps
    return weight


# ---------------------------------------------------------------------------
# Brute-force law of the tagged path
# ---------------------------------------------------------------------------

def _pushforward(n_rows, n_cols, rates, key):
    """Exact law of key(bits) over all 2^(N*M) matrices."""
    law: dict[tuple, Fraction] = {}
    for bits in all_matrices(n_rows, n_cols):
        k = key(bits)
        law[k] = law.get(k, Fraction(0)) + matrix_probability(bits, rates)
    return law


def enumerate_exact_distribution(n_rows, n_cols, rates):
    """Exact joint law of the whole tagged path (L(0), ..., L(N+M-1)).

    Returns a dict mapping path tuples to Fraction probabilities. This is the
    oracle the determinant formula is compared against.
    """
    return _pushforward(n_rows, n_cols, rates,
                        lambda bits: tuple(trajectory_from_matrix(bits)[0]))


def prob_path_at_least(law, constraints):
    """P(L(t_i) >= l_i for all i) under an enumerated path law."""
    total = Fraction(0)
    for path, p in law.items():
        if all(path[t] >= level for t, level in constraints):
            total += p
    return total
