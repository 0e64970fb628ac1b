"""Exact rational linear algebra against numpy's float answers."""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from oracles import dense_rref, ref_psd_check
from wctree.linalg import (column, dot, int_nthroot_floor, int_row, mat_vec,
                           nthroot_brackets, nullspace, pivot, psd_check, rank,
                           row_reduce, solve, sqrt_lower, sqrt_upper)


def random_matrix(rng, rows, cols, den=6):
    return [[Fraction(rng.randint(-8, 8), rng.randint(1, den)) for _ in range(cols)]
            for _ in range(rows)]


def to_np(mat):
    return np.array([[float(x) for x in row] for row in mat])


def as_fractions(rows):
    """Integer rows (numerators, then the denominator) read as Fraction rows."""
    return [[Fraction(x, row[-1]) for x in row[:-1]] for row in rows]


def test_rank_matches_numpy():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, rows, cols)
        assert rank(mat) == np.linalg.matrix_rank(to_np(mat), tol=1e-9)


def test_row_reduce_matches_dense_elimination():
    """Skipping zero columns and unit pivots must leave every entry as it was."""
    rng = random.Random(17)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        mat = [[Fraction(rng.choice([0, 0, 1, -1, rng.randint(-8, 8)]), rng.randint(1, 4))
                for _ in range(cols)] for _ in range(rows)]
        red, pivots = row_reduce(mat)
        assert (as_fractions(red), pivots) == dense_rref(mat)
        assert all(gcd(*row) == 1 and row[-1] > 0 for row in red)


def test_pivot_is_one_dense_elimination_step_on_the_listed_rows():
    """Read as Fractions, the integer rows take exactly one dense Fraction step.

    Some rows start scaled by a common factor, so their entries share one
    with the denominator; every row the step changes comes out divided by
    the gcd of its entries, with a positive denominator, and every other row
    is the same object as before, untouched.
    """
    rng = random.Random(19)
    for _ in range(300):
        rows, cols = rng.randint(2, 6), rng.randint(1, 7)
        mat = [[Fraction(rng.choice([0, 0, 1, -1, rng.randint(-8, 8)]), rng.randint(1, 4))
                for _ in range(cols)] for _ in range(rows)]
        r, c = rng.randrange(rows), rng.randrange(cols)
        if mat[r][c] == 0 or rng.random() < 0.3:
            mat[r][c] = rng.choice([Fraction(1), Fraction(-3, 2), Fraction(5), Fraction(1, 3)])
        listed = sorted(rng.sample(range(rows), rng.randint(0, rows)))
        m = [int_row(row) for row in mat]
        m = [[k * x for x in row] for row, k in zip(m, rng.choices([1, 1, 2, 6], k=rows))]
        before = [row[:] for row in m]
        objects = list(m)
        pivot(m, r, c, listed)

        top = mat[r]
        dense = [row if i != r else [x / top[c] for x in top] for i, row in enumerate(mat)]
        for i in listed:
            if i != r:
                f = mat[i][c] / top[c]
                dense[i] = [a - f * b for a, b in zip(mat[i], top)]
        assert as_fractions(m) == dense
        for i in range(rows):
            changed = (i == r and mat[r][c] != 1) or (i in listed and i != r and mat[i][c])
            if changed:
                assert gcd(*m[i]) == 1 and m[i][-1] > 0
            else:
                assert m[i] is objects[i] and m[i] == before[i]


def test_int_row_and_column_round_trip():
    values = [Fraction(1, 6), Fraction(-3, 4), 2, Fraction(0)]
    row = int_row(values)
    assert row == [2, -9, 24, 0, 12]
    assert column([row], 1) == [Fraction(-3, 4)]
    assert as_fractions([row]) == [values]


def test_nullspace_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        mat = random_matrix(rng, rows, cols)
        basis = nullspace(mat)
        assert len(basis) == cols - rank(mat)
        for vec in basis:
            assert any(x != 0 for x in vec)
            assert all(sum(row[j] * vec[j] for j in range(cols)) == 0 for row in mat)


def test_solve_consistent_and_inconsistent():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    x = solve(a, [Fraction(5), Fraction(11)])
    assert x == [Fraction(1), Fraction(2)]
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve(singular, [Fraction(1), Fraction(3)]) is None
    # consistent but not unique
    assert solve(singular, [Fraction(1), Fraction(2)]) is None


def test_psd_check_matches_eigenvalues():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 5)
        b = random_matrix(rng, n, rng.randint(1, 5))
        gram = [[sum(b[i][k] * b[j][k] for k in range(len(b[0]))) for j in range(n)]
                for i in range(n)]
        shift = Fraction(rng.randint(-2, 2), 4)
        mat = [[gram[i][j] - (shift if i == j else 0) for j in range(n)] for i in range(n)]
        ok, witness = psd_check([int_row(row) for row in mat])
        eigs = np.linalg.eigvalsh(to_np(mat))
        if ok:
            assert eigs.min() > -1e-9
            assert witness is None
        else:
            assert eigs.min() < 1e-9
            # refutation witness: v with v' A v < 0, checked exactly
            quad = sum(witness[i] * mat[i][j] * witness[j]
                       for i in range(n) for j in range(n))
            assert quad < 0


def _symmetric_cases(rng):
    """Seeded symmetric matrices of three kinds, n up to 6."""
    kind = rng.randrange(3)
    n = rng.randint(1, 6)
    if kind == 0:  # Gram minus a shift: PSD or a negative pivot
        b = random_matrix(rng, n, rng.randint(1, 6))
        shift = Fraction(rng.randint(-2, 3), 4)
        return [[sum((x * y for x, y in zip(b[i], b[j])), Fraction(0))
                 - (shift if i == j else 0) for j in range(n)] for i in range(n)]
    if kind == 1:  # sparse with zero diagonals: the zero-diagonal exit
        mat = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < (0.25 if i == j else 0.4):
                    mat[i][j] = mat[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return mat
    # singular: a Gram matrix of fewer vectors than its size, perhaps with a
    # deficit on a leading block as in t^2 G - G_k
    b = random_matrix(rng, n, rng.randint(1, max(1, n - 1)))
    gram = [[sum((x * y for x, y in zip(b[i], b[j])), Fraction(0)) for j in range(n)]
            for i in range(n)]
    k, t_sq = rng.randint(0, n), Fraction(rng.randint(1, 12), 4)
    return [[t_sq * gram[i][j] - (gram[i][j] if i < k and j < k else 0)
             for j in range(n)] for i in range(n)]


def test_psd_check_matches_the_congruence_reference():
    """Elimination on [S | I] returns exactly the old congruence's answer,
    whether the integer rows of S are each over their own lcm or all over
    one unreduced common denominator: no answer, and no witness, depends on
    how a row is written."""
    rng = random.Random(29)
    exits = {"psd": 0, "negative pivot": 0, "zero diagonal": 0}
    for _ in range(5000):
        mat = _symmetric_cases(rng)
        ok, witness, how = ref_psd_check(mat)
        assert psd_check([int_row(row) for row in mat]) == (ok, witness)
        den = 6 * lcm(*(x.denominator for row in mat for x in row))
        assert psd_check([[x.numerator * (den // x.denominator) for x in row] + [den]
                          for row in mat]) == (ok, witness)
        exits[how] += 1
    assert all(count > 100 for count in exits.values()), exits


def test_mat_vec_and_dot():
    a = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(1, 2)]]
    assert mat_vec(a, [Fraction(2), Fraction(4)]) == [Fraction(2), Fraction(6)]
    assert dot([Fraction(1, 3), Fraction(3)], [Fraction(3), Fraction(1, 3)]) == Fraction(2)


@pytest.mark.parametrize("value", [Fraction(2), Fraction(1, 3), Fraction(49, 4),
                                   Fraction(10**12, 7), Fraction(0)])
def test_sqrt_brackets_enclose(value):
    lo = sqrt_lower(value, 64)
    hi = sqrt_upper(value, 64)
    assert lo <= hi
    assert lo * lo <= value <= hi * hi
    assert hi - lo <= Fraction(1, 2**40)


def test_sqrt_exact_on_perfect_squares():
    assert sqrt_lower(Fraction(9, 16), 32) == Fraction(3, 4)
    assert sqrt_upper(Fraction(9, 16), 32) == Fraction(3, 4)


def test_int_nthroot_floor():
    for n, k, want in [(26, 3, 2), (27, 3, 3), (28, 3, 3), (1, 5, 1), (0, 4, 0)]:
        assert int_nthroot_floor(n, k) == want


def test_nthroot_brackets_enclose():
    rng = random.Random(17)
    for _ in range(80):
        t = Fraction(rng.randint(0, 400), rng.randint(1, 40))
        k = rng.randint(2, 5)
        lo, hi = nthroot_brackets(t, k, 48)
        assert lo <= hi and lo >= 0
        assert lo**k <= t <= hi**k
        assert hi - lo <= Fraction(1, 2**30)
