"""Exact linear algebra over Fraction matrices.

Everything here is small and dense: matrices are lists of lists of Fraction,
sized by the handful of vectors appearing in a tree node.  The point is not
speed but that ranks, kernels, positive-semidefiniteness, and square-root
brackets come out *certified*, so predicates built on top can return exact
verdicts instead of float guesses.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

Matrix = list[list[Fraction]]


def as_fraction(x) -> Fraction:
    """x as a Fraction; one that already is a Fraction is shared, not copied."""
    return x if type(x) is Fraction else Fraction(x)


def pivot(m: Matrix, r: int, c: int, rows) -> None:
    """One exact elimination step: a unit pivot at m[r][c], column c cleared in `rows`.

    Row r is divided by its entry in column c, unless that entry is already
    1; then each listed row other than r loses its multiple of row r, and
    rows not listed are left alone.  Only the columns where the pivot row is
    nonzero can change, so skipping the rest leaves every entry exactly as a
    dense update would.
    """
    prow = m[r]
    inv = prow[c]
    if inv != 1:
        prow = [x / inv for x in prow]
        m[r] = prow
    targets = [m[i] for i in rows if i != r and m[i][c]]
    if not targets:
        return
    nonzero = [j for j, x in enumerate(prow) if x]
    for row in targets:
        f = row[c]
        for j in nonzero:
            row[j] -= f * prow[j]


def row_reduce(rows) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form, as a fresh Fraction matrix, and the pivot columns."""
    m = [[as_fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot(m, r, c, range(len(m)))
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(row_reduce(rows)[1])


def nullspace(rows) -> list[list[Fraction]]:
    """Basis of the kernel of the matrix (columns = unknowns)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve(rows, rhs) -> list[Fraction] | None:
    """The exact solution of A x = b, or None when there is none or more than one."""
    if not rows:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    red, pivots = row_reduce([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(ncols)):  # a free unknown, or inconsistent
        return None
    return [red[r][ncols] for r in range(ncols)]


def mat_vec(rows, x) -> list[Fraction]:
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def psd_check(sym: Matrix) -> tuple[bool, list[Fraction] | None]:
    """Decide x^T S x >= 0 for all x, exactly.

    Returns (True, None) or (False, w) with an explicit rational witness
    satisfying w^T S w < 0.  Elimination with diagonal pivots on [S | I]: a
    negative diagonal pivot, or a zero diagonal with a nonzero off-diagonal
    partner, yields the witness, read off the right block in original
    coordinates.
    """
    n = len(sym)
    # This is symmetric congruence elimination.  For symmetric S, the
    # congruence by a diagonal pivot changes the rows not yet pivoted exactly
    # as plain row elimination does, since their pivot-column entries equal
    # the pivot row's; rows already pivoted are never read again.  So row i
    # of the right block is the current i-th coordinate in original ones.
    m = [[as_fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(sym)]
    live = list(range(n))
    while live:
        idx = next((i for i in live if m[i][i] != 0), None)
        if idx is None:
            # every live diagonal entry is zero
            for i in live:
                for j in live:
                    if j != i and m[i][j] != 0:
                        # t e_i + e_j on the block [[0, c], [c, 0]] gives 2tc = -1
                        t = -1 / (2 * m[i][j])
                        return False, [t * a + b for a, b in zip(m[i][n:], m[j][n:])]
            return True, None
        if m[idx][idx] < 0:
            return False, m[idx][n:]
        live.remove(idx)
        pivot(m, idx, idx, live)
    return True, None


def sqrt_lower(s: Fraction, bits: int = 64) -> Fraction:
    """Dyadic lower bound for sqrt(s), within 2^(1-bits) of the true value."""
    if s < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    n = s.numerator * scale * scale // s.denominator
    return Fraction(isqrt(n), scale)


def sqrt_upper(s: Fraction, bits: int = 64) -> Fraction:
    if s < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    num = s.numerator * scale * scale
    q, r = divmod(num, s.denominator)
    n = q + (1 if r else 0)
    root = isqrt(n)
    if root * root < n:
        root += 1
    return Fraction(root, scale)


def int_nthroot_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0, k >= 1, by Newton iteration on ints."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0 or k == 1:
        return x if k == 1 else 0
    guess = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nxt = ((k - 1) * guess + x // guess ** (k - 1)) // k
        if nxt >= guess:
            break
        guess = nxt
    while guess ** k > x:
        guess -= 1
    return guess


def nthroot_brackets(t: Fraction, k: int, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Dyadic lo <= t^(1/k) <= hi with hi - lo <= 2^(2-bits)."""
    if t < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    n = t.numerator * scale**k // t.denominator
    lo = int_nthroot_floor(n, k)
    return Fraction(lo, scale), Fraction(lo + 2, scale)
