"""Exact linear algebra on integer rows.

Everything here is small and dense, sized by the handful of vectors
appearing in a tree node.  Ranks, kernels, positive-semidefiniteness, and
square-root brackets come out *certified*, so predicates built on top can
return exact verdicts instead of float guesses.

Elimination runs on integer rows.  A row is a list of int numerators
followed by one positive denominator: [a_0, ..., a_(k-1), d] holds the
rationals a_j / d.  `int_row` builds one from ints or Fractions with a
single lcm.  Answers come back as integer rows too: each kernel vector of
`nullspace` and the solution of `solve` is one row in lowest terms.
Fractions appear only in the witness of `psd_check` and in the root
brackets, which callers ship as values, so the update loop of `pivot` is
int arithmetic alone.  Each row keeps its own denominator and is divided by
the gcd of its entries after every update.
One common (Bareiss) denominator for the whole matrix was slower, 1.42 s
against 0.96 s on 964 simplex programs recorded from CLI runs, because every
pivot then rescales every row, not only the rows it clears.

`psd_check` takes its matrix as integer rows, which the l2 prefix test
builds straight from an integer Gram matrix; its answer and witness depend
only on the rational entries, not on how a row is written.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

Row = list[int]  # numerators, then one positive denominator


def int_row(values) -> Row:
    """Ints or Fractions as one integer row over the lcm of their denominators."""
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    if den == 1:
        return [v.numerator for v in values] + [1]
    return [v.numerator * (den // q) for v, q in zip(values, dens)] + [den]


def _reduced(row: Row) -> Row:
    g = gcd(*row)
    return row if g == 1 else [x // g for x in row]


def pivot(m: list[Row], r: int, c: int, rows) -> None:
    """One exact elimination step: a unit pivot at m[r][c], column c cleared in `rows`.

    Row r is divided by its entry in column c, unless that entry is already
    1 (equal to the row's denominator); it then has denominator d = m[r][c].
    Each listed row t other than r with a nonzero in column c becomes
    (d t - t[c] m[r]) over d times its own denominator: the subtraction
    touches only the columns where row r is nonzero, and when d != 1 every
    other entry is scaled by d.  Every changed row is divided by the gcd of
    its entries and denominator.  Rows not listed are left alone.
    """
    prow = m[r]
    d = prow[c]
    if d != prow[-1]:
        prow = prow[:-1] + [d]
        if d < 0:
            prow = [-x for x in prow]
        prow = m[r] = _reduced(prow)
        d = prow[-1]
    targets = [i for i in rows if i != r and m[i][c]]
    if not targets:
        return
    nonzero = [(j, x) for j, x in enumerate(prow[:-1]) if x]
    for i in targets:
        row = m[i]
        f = row[c]
        if d != 1:
            row = [d * x for x in row]
        for j, x in nonzero:
            row[j] -= f * x
        m[i] = _reduced(row)


def row_reduce(rows) -> tuple[list[Row], list[int]]:
    """Reduced row-echelon form, as fresh integer rows, and the pivot columns."""
    m = [int_row(row) for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) - 1 if m else 0
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


def nullspace(rows) -> list[Row]:
    """Basis of the kernel of the matrix (columns = unknowns), one integer
    row per vector in lowest terms; its free unknown's entry is the
    denominator, so the vector holds 1 there."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        den = lcm(*(row[-1] for row in red if row[fc]))
        vec = [0] * ncols + [den]
        vec[fc] = den
        for pc, row in zip(pivots, red):
            vec[pc] = -row[fc] * (den // row[-1])
        basis.append(_reduced(vec))
    return basis


def solve(rows, rhs) -> Row | None:
    """The exact solution of A x = b as one integer row in lowest terms, or
    None when there is none or more than one."""
    if not rows:
        return [1] if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    red, pivots = row_reduce([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(ncols)):  # a free unknown, or inconsistent
        return None
    den = lcm(*(row[-1] for row in red[:ncols]))
    return [row[ncols] * (den // row[-1]) for row in red[:ncols]] + [den]


def mat_vec(rows, x) -> list[Fraction]:
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def psd_check(rows: list[Row]) -> tuple[bool, list[Fraction] | None]:
    """Decide x^T S x >= 0 for all x, exactly, for S given as integer rows.

    Row i holds the n numerators of row i of S and a positive denominator,
    reduced or not; the answer depends only on the rational entries.
    Returns (True, None) or (False, w) with an explicit rational witness
    satisfying w^T S w < 0.  Elimination with diagonal pivots on [S | I]: a
    negative diagonal pivot, or a zero diagonal with a nonzero off-diagonal
    partner, yields the witness, read off the right block in original
    coordinates.
    """
    n = len(rows)
    # This is symmetric congruence elimination.  For symmetric S, the
    # congruence by a diagonal pivot changes the rows not yet pivoted exactly
    # as plain row elimination does, since their pivot-column entries equal
    # the pivot row's; rows already pivoted are never read again.  So row i
    # of the right block is the current i-th coordinate in original ones.
    m = [row[:-1] + [row[-1] * (i == j) for j in range(n)] + [row[-1]]
         for i, row in enumerate(rows)]
    live = list(range(n))
    while live:
        idx = next((i for i in live if m[i][i] != 0), None)
        if idx is None:
            # every live diagonal entry is zero
            for i in live:
                ri = m[i]
                for j in live:
                    c = ri[j]
                    if j != i and c:
                        # t e_i + e_j on the block [[0, c], [c, 0]] gives 2tc = -1,
                        # with t = -ri[-1] / (2 c) against row i's denominator
                        rj = m[j]
                        return False, [Fraction(2 * c * b - a * rj[-1], 2 * c * rj[-1])
                                       for a, b in zip(ri[n:-1], rj[n:-1])]
            return True, None
        if m[idx][idx] < 0:
            return False, [Fraction(x, m[idx][-1]) for x in m[idx][n:-1]]
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
    """floor(x ** (1/k)) for x >= 0, k >= 1: `isqrt` for k = 2, else integer
    Newton steps ((k-1) g + x // g^(k-1)) // k, which fall to the root from
    any g at or above it (AM-GM) and stop there.  The first g is a float root
    of y = x >> s (s a multiple of k), within 2^-45 of y^(1/k), padded by
    2^-40 of itself and by 2, times 2^(s/k): above (y^(1/k) + 1) 2^(s/k)."""
    if x < 0:
        raise ValueError("negative radicand")
    if k == 1 or x < 2:
        return x
    if k == 2:
        return isqrt(x)
    s = max(0, -(-(x.bit_length() - 1000) // k) * k)  # y = x >> s is below 2^1000
    guess = (int(float(x >> s) ** (1.0 / k) * (1 + 2.0 ** -40)) + 2) << (s // k)
    while True:
        nxt = ((k - 1) * guess + x // guess ** (k - 1)) // k
        if nxt >= guess:
            return guess
        guess = nxt


def nthroot_brackets(t: Fraction, k: int, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Dyadic lo <= t^(1/k) <= hi with hi - lo <= 2^(2-bits)."""
    if t < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    n = t.numerator * scale**k // t.denominator
    lo = int_nthroot_floor(n, k)
    return Fraction(lo, scale), Fraction(lo + 2, scale)
