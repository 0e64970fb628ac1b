"""Exact linear programming over rationals: two-phase primal simplex with Bland's rule.

Small problems only (tens of variables).  Used to minimize polyhedral norms
over the probability simplex.  One solve returns both the optimal point and
the optimal dual values of the inequality rows, read off the final tableau,
so no second program is needed for a dual certificate.  The tableau is made
of the integer rows of `linalg` (int numerators over one positive
denominator per row), so the solve is exact and a primal/dual pair can be
cross-checked by equality instead of tolerance.  Inputs, ints or Fractions,
become integer rows once; signs are read off numerators, and Bland's ratio
test compares rhs_i a_k with rhs_k a_i, the denominators cancelling.
Fractions appear again only in the returned x, value and duals.  Variables
are nonnegative; callers split free variables themselves.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import int_row, pivot
from .spaces import Record


class LpResult(Record):
    """Outcome of one solve.

    x and value are the optimal point and objective value.  duals holds one
    optimal dual value per a_ub row, in order: the rate of change of the
    optimal value in that row's bound.  So value == b_ub . duals when there
    are no equality rows, and duals <= 0 when minimizing, >= 0 when
    maximizing.  x and duals are empty and value is None unless optimal.
    pivots counts the basis changes over both phases: the simplex steps and
    the artificials pivoted out of the basis.
    """

    __slots__ = _fields = ("status", "x", "value", "duals", "pivots")

    def __init__(self, status: str,  # "optimal" | "infeasible" | "unbounded"
                 x: list[Fraction], value: Fraction | None, duals: list[Fraction],
                 pivots: int):
        super().__init__(status, x, value, duals, pivots)


def _run_simplex(tableau, basis, ncols) -> tuple[str, int]:
    """Minimize the last tableau row; Bland's rule on both choices.

    Returns the status and the number of pivots taken.
    """
    steps = 0
    while True:
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal", steps
        best_row = None
        for i in range(len(tableau) - 1):
            row = tableau[i]
            a = row[col]
            if a > 0:
                b = row[-2]
                # b / a against best_b / best_a, both rows over one denominator
                if (
                    best_row is None
                    or (cmp := b * best_a - best_b * a) < 0
                    or (cmp == 0 and basis[i] < basis[best_row])
                ):
                    best_row, best_a, best_b = i, a, b
        if best_row is None:
            return "unbounded", steps
        pivot(tableau, best_row, col, range(len(tableau)))
        basis[best_row] = col
        steps += 1


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=False) -> LpResult:
    """min (or max) c.x subject to a_ub.x <= b_ub, a_eq.x == b_eq, x >= 0."""
    n = len(c)
    cost = int_row(c)
    if maximize:
        cost = [-v for v in cost[:-1]] + cost[-1:]

    # each row: its coefficients, then b, then the denominator
    rows = [(int_row([*row, b]), True) for row, b in zip(a_ub, b_ub)]
    rows += [(int_row([*row, b]), False) for row, b in zip(a_eq, b_eq)]
    m = len(rows)
    nslack = sum(1 for _, has_slack in rows if has_slack)
    total = n + nslack

    body: list[list[int]] = []
    slack_basic: list[int | None] = []
    slack_at = 0
    for coeffs, has_slack in rows:
        den = coeffs[-1]
        row = coeffs[:n] + [0] * nslack + coeffs[n:]
        col = None
        if has_slack:
            col = n + slack_at
            row[col] = den
            slack_at += 1
        if row[-2] < 0:
            row = [-v for v in row[:-1]] + [den]
            col = None  # slack coefficient is now -1: not a ready basis column
        body.append(row)
        slack_basic.append(col)

    art_rows = [i for i in range(m) if slack_basic[i] is None]
    art_col = {i: total + k for k, i in enumerate(art_rows)}
    width = total + len(art_rows) + 1  # columns, the rhs included

    tableau: list[list[int]] = []
    basis: list[int] = []
    for i in range(m):
        row = body[i][:total] + [0] * len(art_rows) + body[i][total:]
        if i in art_col:
            row[art_col[i]] = row[-1]
            basis.append(art_col[i])
        else:
            basis.append(slack_basic[i])
        tableau.append(row)

    # phase 1: minimize the sum of artificials, priced out against their
    # rows, where each artificial's entry is already 1
    pivots = 0
    if art_rows:
        obj = [0] * (width + 1)
        for i in art_rows:
            obj[art_col[i]] = 1
        obj[-1] = 1
        tableau.append(obj)
        for i in art_rows:
            pivot(tableau, i, art_col[i], [m])
        status, pivots = _run_simplex(tableau, basis, width - 1)
        if status != "optimal" or tableau[-1][-2] != 0:
            return LpResult("infeasible", [], None, [], pivots)
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
                    pivots += 1
        for i in reversed(drop):
            tableau.pop(i)
            basis.pop(i)

    # phase 2 on structural + slack columns; the cost row is priced out
    # against the basic columns, whose entries are already 1
    tableau = [row[:total] + row[-2:] for row in tableau]
    tableau.append(cost[:n] + [0] * (total - n + 1) + cost[n:])
    for i, bcol in enumerate(basis):
        pivot(tableau, i, bcol, [len(tableau) - 1])
    status, steps = _run_simplex(tableau, basis, total)
    pivots += steps
    if status == "unbounded":
        return LpResult("unbounded", [], None, [], pivots)

    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = Fraction(tableau[i][-2], tableau[i][-1])
    # The objective row is cost minus pi times the stored rows, so its rhs is
    # -c.x, and the reduced cost of the slack of a_ub row i is -y_i, whether
    # or not the row was negated for b < 0 (the sign flip hits both the slack
    # and pi_i).  Maximizing negated the cost, so both signs flip back.
    obj = tableau[-1]
    sign = 1 if maximize else -1
    value = Fraction(sign * obj[-2], obj[-1])
    duals = [Fraction(sign * v, obj[-1]) for v in obj[n:total]]
    return LpResult("optimal", x, value, duals, pivots)
