"""Exact linear programming over rationals: two-phase primal simplex with Bland's rule.

Small problems only (tens of variables).  Used to minimize polyhedral norms
over the probability simplex.  One solve returns both the optimal point and
the optimal dual values of the inequality rows, read off the final tableau,
so no second program is needed for a dual certificate.  All arithmetic stays
in Fraction, so optimal values are exact and a primal/dual pair can be
cross-checked by equality instead of tolerance.  Variables are nonnegative;
callers split free variables themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import as_fraction, pivot


@dataclass
class LpResult:
    """Outcome of one solve.

    x and value are the optimal point and objective value.  duals holds one
    optimal dual value per a_ub row, in order: the rate of change of the
    optimal value in that row's bound.  So value == b_ub . duals when there
    are no equality rows, and duals <= 0 when minimizing, >= 0 when
    maximizing.  x and duals are empty and value is None unless optimal.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction]
    value: Fraction | None
    duals: list[Fraction]


def _run_simplex(tableau, basis, ncols) -> str:
    """Minimize the last tableau row; Bland's rule on both choices."""
    while True:
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best_ratio = None
        best_row = None
        for i in range(len(tableau) - 1):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_ratio, best_row = ratio, i
        if best_row is None:
            return "unbounded"
        pivot(tableau, best_row, col, range(len(tableau)))
        basis[best_row] = col


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=False) -> LpResult:
    """min (or max) c.x subject to a_ub.x <= b_ub, a_eq.x == b_eq, x >= 0."""
    n = len(c)
    cost = [as_fraction(v) for v in c]
    if maximize:
        cost = [-v for v in cost]

    rows: list[tuple[list[Fraction], bool, Fraction]] = []
    for row, b in zip(a_ub, b_ub):
        rows.append(([as_fraction(v) for v in row], True, as_fraction(b)))
    for row, b in zip(a_eq, b_eq):
        rows.append(([as_fraction(v) for v in row], False, as_fraction(b)))
    m = len(rows)
    nslack = sum(1 for _, has_slack, _ in rows if has_slack)
    total = n + nslack

    body: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_basic: list[int | None] = []
    slack_at = 0
    for coeffs, has_slack, b in rows:
        row = coeffs + [Fraction(0)] * nslack
        col = None
        if has_slack:
            col = n + slack_at
            row[col] = Fraction(1)
            slack_at += 1
        if b < 0:
            row = [-v for v in row]
            b = -b
            col = None  # slack coefficient is now -1: not a ready basis column
        body.append(row)
        rhs.append(b)
        slack_basic.append(col)

    art_rows = [i for i in range(m) if slack_basic[i] is None]
    art_col = {i: total + k for k, i in enumerate(art_rows)}
    width = total + len(art_rows) + 1

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i in range(m):
        row = body[i] + [Fraction(0)] * len(art_rows) + [rhs[i]]
        if i in art_col:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        else:
            basis.append(slack_basic[i])
        tableau.append(row)

    # phase 1: minimize the sum of artificials, priced out against their
    # rows, where each artificial's entry is already 1
    if art_rows:
        obj = [Fraction(0)] * width
        for i in art_rows:
            obj[art_col[i]] = Fraction(1)
        tableau.append(obj)
        for i in art_rows:
            pivot(tableau, i, art_col[i], [m])
        status = _run_simplex(tableau, basis, width - 1)
        if status != "optimal" or tableau[-1][-1] != 0:
            return LpResult("infeasible", [], None, [])
        tableau.pop()
        # pivot remaining artificials out of the basis; drop redundant rows
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= total:
                col = next((j for j in range(total) if tableau[i][j] != 0), None)
                if col is None:
                    drop.append(i)
                else:
                    pivot(tableau, i, col, range(len(tableau)))
                    basis[i] = col
        for i in reversed(drop):
            tableau.pop(i)
            basis.pop(i)

    # phase 2 on structural + slack columns; the cost row is priced out
    # against the basic columns, whose entries are already 1
    tableau = [row[:total] + [row[-1]] for row in tableau]
    tableau.append(cost + [Fraction(0)] * (total - n + 1))
    for i, bcol in enumerate(basis):
        pivot(tableau, i, bcol, [len(tableau) - 1])
    status = _run_simplex(tableau, basis, total)
    if status == "unbounded":
        return LpResult("unbounded", [], None, [])

    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = tableau[i][-1]
    value = sum((a * b for a, b in zip(cost, x)), Fraction(0))
    # The objective row is cost minus pi times the stored rows, so the reduced
    # cost of the slack of a_ub row i is -y_i, whether or not the row was
    # negated for b < 0 (the sign flip hits both the slack and pi_i).
    duals = [-d for d in tableau[-1][n:total]]
    if maximize:
        value = -value
        duals = [-y for y in duals]
    return LpResult("optimal", x, value, duals)
