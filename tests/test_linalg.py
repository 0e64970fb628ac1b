"""Exact rational linear algebra against numpy's float answers."""

import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import dense_rref
from wctree.linalg import (dot, int_nthroot_floor, mat_vec, nthroot_brackets,
                           nullspace, psd_check, rank, row_reduce, solve,
                           sqrt_lower, sqrt_upper)


def random_matrix(rng, rows, cols, den=6):
    return [[Fraction(rng.randint(-8, 8), rng.randint(1, den)) for _ in range(cols)]
            for _ in range(rows)]


def to_np(mat):
    return np.array([[float(x) for x in row] for row in mat])


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
        assert row_reduce(mat) == dense_rref(mat)


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
        ok, witness = psd_check(mat)
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
