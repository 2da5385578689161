"""Exact combinatorics behind the tagged-particle law.

01 matrices with Bernoulli columns, the left-down last-passage quantity, the
dual RSK correspondence, the elementary and complete symmetric functions and
the exact Fraction determinant behind the finite kernel, and the enumerated
law of the tagged path. Everything is exact: probabilities come out as
fractions.Fraction whenever the stay rates are rational, so this module is
the ground truth the determinant machinery is checked against. The
cross-check-only routes (Schur polynomials by Jacobi-Trudi and by SSYT
enumeration, Schur weights of growth sequences, the enumerated growth law,
the geometric-entry variant) live with the tests (tests/oracles.py).

The three row-recursive routines (the tagged dynamics, the left-down DP and
dual RSK) are each a fold of one row step, and normal RSK of the reversed
column word is a fold over the rows bottom-up. The four steps are pure:
each takes a tuple state and one matrix row and returns a new tuple state.
fold_rows folds one such step over every matrix of a size level by level:
each distinct state is stepped once per row value, and each matrix gets
the id of its final state. The exhaustive identity suite folds the four
steps this way.

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


def _tagged_row(sites, row):
    """Sites of particles 1..M after each has read one more matrix row.

    Particle j reads column M-j of row r at the step from time r+j-1 to
    r+j, once particle j-1 has read row r: it moves iff the entry is 0 and
    particle j-1, already past that row, is not on the next site.
    """
    new = []
    for j, site in enumerate(sites):
        if not row[-1 - j] and (j == 0 or new[j - 1] != site + 1):
            site += 1
        new.append(site)
    return tuple(new)


def trajectory_from_matrix(bits):
    """Evolve the step initial condition through a 01 matrix.

    Particle j reads entry (i, M+1-j) at the step from time i+j-2 to i+j-1;
    a blocked particle stays regardless of the entry. Before its first row
    particle j is blocked by particle j-1, which has not moved yet, and rows
    beyond N never influence the tagged particle up to time N+M-1. So the
    dynamics is a row recursion (`_tagged_row`), and the tagged particle
    is at the origin until time M.

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
    sites = tuple(range(n_cols - 1, -1, -1))
    path = [0] * n_cols
    for row in bits:
        sites = _tagged_row(sites, row)
        path.append(sites[-1])
    return path, n_rows - path[-1]


# ---------------------------------------------------------------------------
# Left-down last passage
# ---------------------------------------------------------------------------

def _left_down_row(best, row):
    """One row of the left-down DP: best[c] is the largest number of
    1-entries on a path through the rows so far that ends in column c."""
    new = list(best)
    suffix = 0
    for c in range(len(best) - 1, -1, -1):
        if best[c] > suffix:
            suffix = best[c]
        if row[c] and suffix + 1 > new[c]:
            new[c] = suffix + 1
    return tuple(new)


def longest_left_down_path(bits):
    """Maximum number of 1-entries on a path with strictly increasing row
    indices and weakly decreasing column indices. O(N*M)."""
    best = (0,) * (len(bits[0]) if bits else 0)
    for row in bits:
        best = _left_down_row(best, row)
    return max(best, default=0)


def column_word(bits):
    """Second row of the two-line array: column indices (1-based) of the
    1-entries, rows top to bottom, left to right within a row."""
    return [c + 1 for row in bits for c, v in enumerate(row) if v]


# ---------------------------------------------------------------------------
# Dual and normal RSK
# ---------------------------------------------------------------------------

def _insert(rows, x, find):
    """Row insertion into a list of list rows, in place: x displaces the
    entry at find(row, x), bisect_left (leftmost >= x) for dual and
    bisect_right (leftmost > x) for normal insertion."""
    for row in rows:
        idx = find(row, x)
        if idx == len(row):
            row.append(x)
            return
        row[idx], x = x, row[idx]
    rows.append([x])


def _inserted(tableau, word, find):
    """The tuple tableau with the word row-inserted into a copy of it."""
    rows = [list(r) for r in tableau]
    for x in word:
        _insert(rows, x, find)
    return tuple(map(tuple, rows))


def _dual_row(p, row):
    """The tuple tableau p with the 1-entries of one matrix row (column c
    gives c+1) dual-inserted, left to right."""
    return _inserted(p, column_word((row,)), bisect_left)


def _normal_row(p, row):
    """The tuple tableau p with the column indices of one matrix row
    normal-inserted, right to left."""
    return _inserted(p, column_word((row,))[::-1], bisect_right)


def dual_rsk(bits):
    """Dual RSK of a 01 matrix.

    Returns
    -------
    (p, q) : pair of list-of-lists tableaux of equal shape. Rows of p are
        strictly increasing (its transpose is semistandard); q is
        semistandard and records which input row created each cell: the
        cells p gains at input row i hold i in q.
    """
    p, q = (), []
    for i, row in enumerate(bits, start=1):
        p = _dual_row(p, row)
        q += [[] for _ in range(len(p) - len(q))]
        for q_row, p_row in zip(q, p):
            q_row += [i] * (len(p_row) - len(q_row))
    return [list(r) for r in p], q


def normal_rsk(word):
    """Insertion tableau of the normal RSK algorithm applied to a word."""
    return [list(r) for r in _inserted((), word, bisect_right)]


def transpose_tableau(rows):
    if not rows:
        return []
    return [[row[c] for row in rows if c < len(row)]
            for c in range(len(rows[0]))]


def first_column_identity(bits):
    """First-column length of the dual-RSK shape vs the left-down maximum.

    Returns
    -------
    (first_column, path_max, agree) where agree also requires the symmetry
    p-transpose == normal RSK of the reversed column word.
    """
    p, _q = dual_rsk(bits)
    first_column = len(p)
    path_max = longest_left_down_path(bits)
    symmetric = transpose_tableau(p) == normal_rsk(column_word(bits)[::-1])
    return first_column, path_max, (first_column == path_max and symmetric)


# ---------------------------------------------------------------------------
# Folding one row step over every matrix of a size
# ---------------------------------------------------------------------------

def fold_rows(n_rows, n_cols, start, step, bottom_up=False):
    """Fold step(state, row) over the rows of every n_rows x n_cols matrix.

    Returns (ids, states): states[ids[code]] is step folded from start over
    the rows of the matrix with index code in all_matrices (bit r*M + c is
    entry (r, c)), top row first, or bottom row first when bottom_up. States
    must be hashable and step must not change its argument. The fold goes
    level by level, and each distinct state is stepped once per row value,
    so matrices whose rows read so far lead to equal states share all the
    work after them.
    """
    if n_rows * n_cols > ENUMERATION_CELL_LIMIT:
        raise ValueError(f"{n_rows}x{n_cols} exceeds the enumeration guard")
    rows = [tuple((v >> c) & 1 for c in range(n_cols))
            for v in range(1 << n_cols)]
    index = {start: 0}  # state -> id, in order of discovery
    table = []  # table[i][v]: id of step(state i, row v)
    ids = [0]
    for _ in range(n_rows):
        for state in list(index)[len(table):]:
            table.append([index.setdefault(step(state, row), len(index))
                          for row in rows])
        if bottom_up:  # the row read now is the top one: code = code*2^M + v
            ids = [j for i in ids for j in table[i]]
        else:  # the row read now is the bottom one: code += v * 2^(k*M)
            ids = [table[i][v] for v in range(len(rows)) for i in ids]
    return ids, list(index)


# ---------------------------------------------------------------------------
# Symmetric functions and the exact determinant
# ---------------------------------------------------------------------------

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
