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


def _as_fraction_matrix(rows) -> Matrix:
    return [[as_fraction(x) for x in row] for row in rows]


def row_reduce(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and the pivot column indices."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # Only the columns where the pivot row is nonzero can change; skipping
        # the rest leaves every entry exactly as a dense update would.
        prow = m[r]
        inv = prow[c]
        if inv != 1:
            prow = [x / inv for x in prow]
            m[r] = prow
        nonzero = [j for j, x in enumerate(prow) if x]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                for j in nonzero:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = row_reduce(_as_fraction_matrix(rows))
    return len(pivots)


def nullspace(rows) -> list[list[Fraction]]:
    """Basis of the kernel of the matrix (columns = unknowns)."""
    mat = _as_fraction_matrix(rows)
    if not mat:
        return []
    ncols = len(mat[0])
    red, pivots = row_reduce(mat)
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
    mat = _as_fraction_matrix(rows)
    b = [as_fraction(x) for x in rhs]
    if not mat:
        return [] if all(x == 0 for x in b) else None
    ncols = len(mat[0])
    aug = [row + [bv] for row, bv in zip(mat, b)]
    red, pivots = row_reduce(aug)
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
    satisfying w^T S w < 0.  Symmetric congruence elimination: a negative
    diagonal pivot, or a zero diagonal with a nonzero off-diagonal partner,
    yields the witness in original coordinates.
    """
    n = len(sym)
    m = _as_fraction_matrix(sym)
    # basis[i] expresses the current i-th coordinate in original coordinates
    basis = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    done = [False] * n
    for _ in range(n):
        idx = next((i for i in range(n) if not done[i] and m[i][i] != 0), None)
        if idx is None:
            # all remaining diagonal entries are zero
            for i in range(n):
                if done[i]:
                    continue
                for j in range(n):
                    if not done[j] and j != i and m[i][j] != 0:
                        # [[0, c], [c, d]] block is indefinite for c != 0
                        c, d = m[i][j], m[j][j]
                        t = -(d + 1) / (2 * c)
                        w = [t * a + b for a, b in zip(basis[i], basis[j])]
                        return False, w
            return True, None
        if m[idx][idx] < 0:
            return False, basis[idx][:]
        pivv = m[idx][idx]
        done[idx] = True
        others = [j for j in range(n) if not done[j]]
        coeffs = {j: m[j][idx] / pivv for j in others if m[j][idx] != 0}
        for j, f in coeffs.items():
            basis[j] = [a - f * b for a, b in zip(basis[j], basis[idx])]
        # congruence update from a snapshot of the pivot row (matrix is symmetric)
        pivrow = m[idx][:]
        zero = Fraction(0)
        for a in range(n):
            fa = coeffs.get(a, zero)
            rowa = m[a]
            pa = pivrow[a]
            for b in range(n):
                fb = coeffs.get(b, zero)
                if fa or fb:
                    rowa[b] += -fa * pivrow[b] - fb * pa + fa * fb * pivv
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
