"""Exact simplex solver against scipy.optimize.linprog and the Fraction simplex it replaced."""

import random
from fractions import Fraction

import numpy as np
import pytest

scipy_opt = pytest.importorskip("scipy.optimize")

import oracles
from oracles import ref_solve_lp
from wctree import lp, predicates
from wctree.lp import solve_lp
from wctree.spaces import L1, Vector


def frac_list(rng, n, lo=-6, hi=6, den=4):
    return [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n)]


def assert_dual_optimal(res, c, a_ub, b_ub, maximize=False):
    """Exact LP duality for inequality-only programs: the returned duals are
    dual feasible and b . y equals the optimal value."""
    sense = -1 if maximize else 1
    y = res.duals
    assert len(y) == len(b_ub)
    assert all(sense * yi <= 0 for yi in y)
    for j, cj in enumerate(c):
        assert sense * (cj - sum(row[j] * yi for row, yi in zip(a_ub, y))) >= 0
    assert sum(b * yi for b, yi in zip(b_ub, y)) == res.value


def test_known_lp():
    # min -x - y  s.t.  x + y <= 1, x, y >= 0  ->  value -1 on the segment
    res = solve_lp(c=[Fraction(-1), Fraction(-1)],
                   a_ub=[[Fraction(1), Fraction(1)]], b_ub=[Fraction(1)])
    assert res.status == "optimal"
    assert res.value == Fraction(-1)
    assert sum(res.x) == Fraction(1)


def test_infeasible_lp():
    res = solve_lp(c=[Fraction(1)], a_eq=[[Fraction(1)]], b_eq=[Fraction(-1)])
    assert res.status == "infeasible"


def test_unbounded_lp():
    res = solve_lp(c=[Fraction(-1)], a_ub=[[Fraction(-1)]], b_ub=[Fraction(1)])
    assert res.status == "unbounded"


def test_equality_constraints_respected():
    res = solve_lp(c=[Fraction(2), Fraction(3)],
                   a_eq=[[Fraction(1), Fraction(1)]], b_eq=[Fraction(1)])
    assert res.status == "optimal"
    assert res.value == Fraction(2)
    assert res.x[0] == 1 and res.x[1] == 0


def test_random_lps_match_scipy():
    """Value agreement on bounded feasible programs, scipy as float oracle."""
    rng = random.Random(20240817)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        m_ub = rng.randint(1, 3)
        c = frac_list(rng, n)
        a_ub = [frac_list(rng, n) for _ in range(m_ub)]
        b_ub = frac_list(rng, m_ub, lo=0, hi=8)
        # a simplex cap keeps everything bounded and usually feasible
        a_ub.append([Fraction(1)] * n)
        b_ub.append(Fraction(5))
        mine = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub)
        ref = scipy_opt.linprog(
            c=[float(x) for x in c],
            A_ub=[[float(x) for x in row] for row in a_ub],
            b_ub=[float(x) for x in b_ub],
            bounds=[(0, None)] * n, method="highs")
        if mine.status == "optimal":
            assert ref.status == 0
            assert abs(float(mine.value) - ref.fun) < 1e-7
            # exact feasibility of the returned point
            for row, bound in zip(a_ub, b_ub):
                assert sum(r * x for r, x in zip(row, mine.x)) <= bound
            assert_dual_optimal(mine, c, a_ub, b_ub)
            checked += 1
        elif mine.status == "infeasible":
            assert ref.status == 2
    assert checked >= 60


def test_random_equality_lps_match_scipy():
    rng = random.Random(99)
    checked = 0
    for _ in range(80):
        n = rng.randint(2, 4)
        c = frac_list(rng, n)
        a_eq = [[Fraction(1)] * n]
        b_eq = [Fraction(1)]
        a_ub = [frac_list(rng, n) for _ in range(rng.randint(0, 2))]
        b_ub = frac_list(rng, len(a_ub), lo=1, hi=6)
        mine = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        ref = scipy_opt.linprog(
            c=[float(x) for x in c],
            A_ub=[[float(x) for x in row] for row in a_ub] or None,
            b_ub=[float(x) for x in b_ub] or None,
            A_eq=[[1.0] * n], b_eq=[1.0],
            bounds=[(0, None)] * n, method="highs")
        if mine.status == "optimal" and ref.status == 0:
            assert abs(float(mine.value) - ref.fun) < 1e-7
            assert sum(mine.x) == 1
            checked += 1
    assert checked >= 40


def test_maximize_flag():
    res = solve_lp(c=[Fraction(1), Fraction(2)],
                   a_ub=[[Fraction(1), Fraction(1)]], b_ub=[Fraction(1)],
                   maximize=True)
    assert res.status == "optimal"
    assert res.value == Fraction(2)


def test_duals_of_negated_row_and_maximize():
    # x + y >= 1 is stored as -x - y <= -1, a row negated for its b < 0
    c = [Fraction(1), Fraction(1)]
    a_ub = [[Fraction(-1), Fraction(-1)], [Fraction(1), Fraction(0)]]
    b_ub = [Fraction(-1), Fraction(3)]
    res = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub)
    assert res.value == 1 and res.duals == [Fraction(-1), Fraction(0)]
    assert res.pivots == 1  # phase 1 reaches a vertex that is already optimal
    assert_dual_optimal(res, c, a_ub, b_ub)

    # max x + 2y  s.t.  x + y <= 1, y <= 3/4: both bounds are worth 1 at the margin
    c = [Fraction(1), Fraction(2)]
    a_ub = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    b_ub = [Fraction(1), Fraction(3, 4)]
    res = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub, maximize=True)
    assert res.value == Fraction(7, 4) and res.duals == [Fraction(1), Fraction(1)]
    assert res.pivots == 2
    assert_dual_optimal(res, c, a_ub, b_ub, maximize=True)

    # random programs mixing negated rows with both senses
    rng = random.Random(7)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        c = frac_list(rng, n)
        a_ub = [frac_list(rng, n) for _ in range(rng.randint(1, 3))]
        b_ub = frac_list(rng, len(a_ub), lo=-4, hi=8)
        a_ub.append([Fraction(1)] * n)
        b_ub.append(Fraction(5))
        maximize = rng.random() < 0.5
        res = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub, maximize=maximize)
        if res.status == "optimal":
            assert_dual_optimal(res, c, a_ub, b_ub, maximize)
            checked += 1
    assert checked >= 30


def _seeded_lp(rng):
    """A small LP with the degenerate features Bland's rule must get through.

    Most programs are feasible at a point x0 with zero entries, and most
    inequalities are tight there, so right-hand sides are often zero and the
    ratio test ties.  Rows are duplicated and negated (b < 0 needs an
    artificial), an equality may be repeated as a multiple of another, which
    phase 1 then drops, and the senses, feasibility and boundedness vary.
    """
    n = rng.randint(1, 5)
    c = frac_list(rng, n, lo=-4, hi=4, den=3)
    x0 = [rng.choice([Fraction(0), Fraction(0), Fraction(rng.randint(1, 3), rng.randint(1, 2))])
          for _ in range(n)]
    feasible = rng.random() < 0.8

    def rhs(row, slack):
        b = sum((a * x for a, x in zip(row, x0)), Fraction(0)) + slack
        return b if feasible else b + rng.randint(-3, 3)

    a_ub = [frac_list(rng, n, lo=-3, hi=3, den=2) for _ in range(rng.randint(0, 4))]
    b_ub = [rhs(row, rng.choice([0, 0, 1])) for row in a_ub]
    if a_ub and rng.random() < 0.4:
        k = rng.randrange(len(a_ub))
        a_ub.append(list(a_ub[k]))
        b_ub.append(b_ub[k])
    if a_ub and rng.random() < 0.4:
        k = rng.randrange(len(a_ub))
        a_ub.append([-v for v in a_ub[k]])
        b_ub.append(-b_ub[k] + rng.choice([0, 1]))
    a_eq = [frac_list(rng, n, lo=-2, hi=3, den=2) for _ in range(rng.randint(0, 2))]
    b_eq = [rhs(row, 0) for row in a_eq]
    if a_eq and rng.random() < 0.5:
        k, f = rng.randrange(len(a_eq)), Fraction(rng.choice([1, 2, -3]), rng.randint(1, 2))
        a_eq.append([f * v for v in a_eq[k]])
        b_eq.append(f * b_eq[k])
    if rng.random() < 0.6:  # a cap keeps most programs bounded
        a_ub.append([Fraction(1)] * n)
        b_ub.append(rhs([Fraction(1)] * n, rng.choice([0, 1])))
    return c, a_ub, b_ub, a_eq, b_eq, rng.random() < 0.3


def _recorded(monkeypatch, owner, attr, solve, args, rhs):
    """Solve while logging each elimination step: its row, its column, the rows
    it lists, and whether it is a basis change that tied at ratio zero.  A
    tableau row keeps its right-hand side at index `rhs`."""
    log = []
    step = getattr(owner, attr)

    def recording(m, r, c, rows):
        tie = (r in rows and m[r][rhs] == 0
               and any(i != r and m[i][c] > 0 and m[i][rhs] == 0 for i in rows[:-1]))
        log.append((r, c, tuple(rows), tie))
        step(m, r, c, rows)

    with monkeypatch.context() as patch:
        patch.setattr(owner, attr, recording)
        return solve(*args), log


def test_solve_lp_follows_the_fraction_simplex_pivot_for_pivot(monkeypatch):
    """Integer rows change no pivot: same steps, basis, x, value and duals.

    A step that lists its own pivot row changes the basis (basis[r] = c
    follows it); the other steps price an objective row out.  So the logs
    give the basis after every pivot, and the reference's pivot count.
    """
    rng = random.Random(20261018)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0, "maximize": 0,
            "dropped row": 0, "zero-ratio tie": 0}
    for _ in range(400):
        c, a_ub, b_ub, a_eq, b_eq, maximize = _seeded_lp(rng)
        args = (c, a_ub, b_ub, a_eq, b_eq, maximize)
        res, log = _recorded(monkeypatch, lp, "pivot", solve_lp, args, rhs=-2)
        ref, ref_log = _recorded(monkeypatch, oracles, "ref_pivot", ref_solve_lp, args, rhs=-1)
        assert log == ref_log
        assert (res.status, res.x, res.value, res.duals) == (ref.status, ref.x, ref.value,
                                                             ref.duals)
        assert res.pivots == sum(r in rows for r, _, rows, _ in ref_log)
        seen[res.status] += 1
        seen["maximize"] += maximize and res.status == "optimal"
        # phase 2 prices its cost row, listed after the rows kept, on fewer rows
        m = len(a_ub) + len(a_eq)
        seen["dropped row"] += any(r not in rows and rows[0] < m for r, _, rows, _ in log)
        seen["zero-ratio tie"] += any(tie for *_, tie in log)
    assert all(count >= 20 for count in seen.values()), seen


def test_solve_lp_builds_fractions_only_at_its_boundary(monkeypatch):
    """One solve of a seeded l1 simplex LP constructs at most n + rows + 2
    Fractions: the zero of x, its basic entries, the value and the duals.
    Fraction arithmetic inside the pivot loop would cost that much per pivot."""
    rng = random.Random(5)
    vs = tuple(Vector.from_pairs((i, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                                 for i in range(6)) for _ in range(7))
    calls = []
    real_solve = lp.solve_lp
    with monkeypatch.context() as patch:
        patch.setattr(lp, "solve_lp", lambda *args: calls.append(args) or real_solve(*args))
        predicates._simplex_min_polyhedral(L1, vs)
    (args,) = calls
    c, a_ub = args[0], args[1]
    assert all(type(v) is int for row in a_ub for v in row)

    built = []
    fraction_new = Fraction.__new__
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__",
                      lambda cls, *a, **k: built.append(1) or fraction_new(cls, *a, **k))
        res = solve_lp(*args)
    assert res.status == "optimal" and res.pivots >= 10
    assert len(built) <= len(c) + len(a_ub) + 2
