"""Simplex minimum, duality, domination, and prefix-boundedness predicates."""

import ast
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import (brute_l2_simplex_min, coordinate, grid_simplex_min, ref_rank,
                     ref_schauder_analyze, ref_simplex_min_bracket_lower,
                     ref_simplex_min_bracket_upper, ref_simplex_min_qp, sampled_basis_constant)
from wctree import predicates, sets
from wctree.errors import ConfigurationError, ContractViolation
from wctree.predicates import (FAILS, FW_GAP_STOP, HOLDS, INCONCLUSIVE, MARGIN_GRID_BITS,
                               DualCertificate, SimplexMinResult, is_M_schauder,
                               is_eps_dominating, mazur_combination, simplex_min_norm)
from wctree.sets import build_set, hilbert_cube
from wctree.spaces import (C0, L1, L2, Functional, Vector, combine, conjugate_norm, lp_space,
                           norm, pairing)
from wctree.trees import WcTree

F = Fraction
E = Vector.unit


def units(m):
    return [E(i) for i in range(m)]


# ---------------------------------------------------------------------------
# simplex minimum: exact closed forms


def test_min_of_unit_vectors_l1_is_one():
    res = simplex_min_norm(L1, units(4))
    assert res.exact == 1
    assert res.method == "exact-lp"
    assert sum(res.witness.weights) == 1


def test_min_of_orthonormal_l2_is_inverse_sqrt_m():
    for m in (1, 2, 3, 4, 5, 16, 24):
        res = simplex_min_norm(L2, units(m))
        assert res.exact_sq == F(1, m)
        assert res.method in ("exact-qp", "exact-structural")
        # uniform weights attain it
        assert all(w == F(1, m) for w in res.witness.weights)


def test_min_of_unit_vectors_sup_is_inverse_m():
    for m in range(1, 6):
        res = simplex_min_norm(C0, units(m))
        assert res.exact == F(1, m)


def test_min_with_opposing_vectors_is_zero():
    res = simplex_min_norm(L1, [E(0), E(0).scale(F(-1))])
    assert res.exact == 0
    assert norm(L1, res.witness.combo).exact == 0


@pytest.mark.parametrize("space", [L1, C0], ids=["l1", "sup"])
def test_min_of_zero_vectors_is_certified_by_the_zero_functional(space):
    """With no coordinate rows the LP still answers 0 at the first vertex."""
    res = simplex_min_norm(space, [Vector.zero()] * 3)
    assert (res.lo, res.hi, res.exact, res.method) == (0, 0, 0, "exact-lp")
    assert res.witness.weights == (1, 0, 0)
    assert res.certificate == DualCertificate(Functional(space, Vector.zero()), F(0), F(0))


@pytest.mark.parametrize("space, solver, a, b", [
    (L1, "_simplex_min_polyhedral", E(0), E(0).scale(F(3)) + E(1)),
    (lp_space(F(3, 2)), "_simplex_min_bracket_lower", E(0), E(1).scale(F(2))),
], ids=["l1", "lp3/2"])
def test_memo_hit_returns_weights_in_callers_order(monkeypatch, space, solver, a, b):
    real = getattr(predicates, solver)
    solves = []
    monkeypatch.setattr(predicates, solver,
                        lambda sp, vs: solves.append(vs) or real(sp, vs))
    memo = {}
    forward = simplex_min_norm(space, [a, b], memo=memo)
    backward = simplex_min_norm(space, [b, a], memo=memo)
    assert len(solves) == 1  # one memo, one solve for both orders
    assert backward.witness.weights == forward.witness.weights[::-1]
    assert forward.witness.weights != backward.witness.weights
    for res, order in ((forward, [a, b]), (backward, [b, a])):
        assert combine(res.witness.weights, order) == res.witness.combo
    assert backward.witness.combo == forward.witness.combo
    assert backward.witness.norm == forward.witness.norm
    assert (backward.lo, backward.hi, backward.method, backward.certificate) == \
        (forward.lo, forward.hi, forward.method, forward.certificate)
    simplex_min_norm(space, [b, a])  # without a memo, a plain solve
    assert len(solves) == 2


def test_memo_weights_follow_repeated_vectors():
    memo = {}
    vs = [E(0), E(1), E(0).scale(F(3)) + E(1), E(1)]
    first = simplex_min_norm(L1, vs, memo=memo)
    for order in ([E(1), E(0), E(1), E(0).scale(F(3)) + E(1)],
                  [E(0).scale(F(3)) + E(1), E(1), E(1), E(0)]):
        res = simplex_min_norm(L1, order, memo=memo)
        assert combine(res.witness.weights, order) == first.witness.combo
        assert sum(res.witness.weights) == 1
    assert len(memo) == 1


REPEAT_SPACES = [L1, C0, L2, lp_space(F(3, 2))]


def test_one_memo_entry_serves_every_repetition_like_a_direct_solve():
    """A multiset of vectors with repeats, served from the memo entry of its
    distinct vectors, has the minimum a direct solve of the multiset finds:
    the same lower end, exact value, method and certificate bound, a
    certificate that pairs above that bound with every vector, and weights
    that sit on first occurrences and combine to the witness."""
    rng = random.Random(1414)
    starts = Counter()
    for trial in range(320):
        space = REPEAT_SPACES[trial % 4]
        distinct = [Vector.from_pairs((p, F(rng.randint(-3, 3), rng.randint(1, 3)))
                                      for p in rng.sample(range(4), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 4))]
        vs = distinct + [rng.choice(distinct) for _ in range(rng.randint(1, 3))]
        rng.shuffle(vs)
        oracle = predicates._simplex_min_solve(space, tuple(vs))
        memo = {}
        start = rng.choice(["none", "other order"]
                           + ["lower end"] * (space.exactness == "bracket"))
        if start == "other order":
            simplex_min_norm(space, rng.sample(vs, len(vs)), memo)
        elif start == "lower end":  # eps 0 is decided by the lower end alone
            is_eps_dominating(space, rng.sample(distinct, len(distinct)), F(0), memo=memo)
            (_, lo), = memo.values()
            assert isinstance(lo, Fraction)
        starts[start] += 1
        res = simplex_min_norm(space, vs, memo)
        assert len(memo) == 1
        assert (res.lo, res.exact, res.exact_sq, res.method) == \
            (oracle.lo, oracle.exact, oracle.exact_sq, oracle.method)
        if space.exactness != "bracket":
            assert (res.certificate is None) == (oracle.certificate is None)
            if res.certificate is not None:
                bound = res.certificate.lower_bound
                assert bound == oracle.certificate.lower_bound
                assert all(pairing(res.certificate.functional, x) >= bound for x in vs)
        weights = res.witness.weights
        assert all(w == 0 for i, w in enumerate(weights) if vs[i] in vs[:i])
        assert sum(weights) == 1
        assert combine(weights, vs) == res.witness.combo
    assert min(starts["none"], starts["other order"]) >= 100 and starts["lower end"] >= 20, starts


# ---------------------------------------------------------------------------
# simplex minimum: the solver-free certificates against the solvers


def _polyhedral_node(rng):
    """Three to five vectors in one orthant of five coordinates (every
    coefficient positive, or every coefficient of a coordinate one sign), or
    one to five with mixed signs on three coordinates; at times a zero or
    repeated vector among them."""
    kind = rng.choice(["positive", "orthant", "mixed", "mixed"])
    signs = [rng.choice([1, -1]) for _ in range(5)]
    width = 3 if kind == "mixed" else 5
    vs = []
    for _ in range(rng.randint(1 if kind == "mixed" else 3, 5)):
        roll = rng.random()
        if vs and roll < 0.08:
            vs.append(rng.choice(vs))
        elif roll < 0.12:
            vs.append(Vector.zero())
        else:
            vs.append(Vector.from_pairs(
                (p, F(rng.randint(1, 4) * (1 if kind == "positive" else signs[p] if
                                           kind == "orthant" else rng.choice([1, -1])),
                      rng.randint(1, 3)))
                for p in rng.sample(range(width), rng.randint(1, 3))))
    return tuple(vs)


def _assert_independently_certified(space, res, vs):
    """The certificate alone proves the minimum: a functional of exact
    conjugate norm at most 1, pairing with every x_n to at least the value,
    and a simplex combination of the vectors with exactly that norm."""
    cert, w = res.certificate, res.witness
    assert cert.lower_bound == res.exact == res.lo == res.hi and cert.gap == 0
    assert conjugate_norm(space, cert.functional.vec).exact <= 1
    assert all(pairing(cert.functional, x) >= res.exact for x in vs)
    assert all(a >= 0 for a in w.weights) and sum(w.weights) == 1
    assert combine(w.weights, vs) == w.combo and norm(space, w.combo).exact == res.exact


@pytest.mark.parametrize("space", [L1, C0], ids=["l1", "sup"])
def test_vertex_minimum_matches_the_lp(monkeypatch, space):
    """On 400 seeded nodes the minimum equals the LP's value, whether a
    vertex certifies it or the LP runs, and every certificate checks out
    without the solver; nodes that the LP has to solve keep its weights."""
    rng = random.Random(1976 if space is L1 else 1977)
    solves = []
    real = predicates.lp.solve_lp
    monkeypatch.setattr(predicates.lp, "solve_lp", lambda *a: solves.append(a) or real(*a))
    taken = Counter()
    for _ in range(400):
        vs = _polyhedral_node(rng)
        solves.clear()
        res = predicates._simplex_min_polyhedral(space, vs)
        lp_ran = len(solves)
        weights, value, _ = predicates._lp_minimum(space, vs)
        assert res.method == "exact-lp" and res.exact == value, vs
        assert lp_ran == (predicates._vertex_minimum(space, vs) is None)
        if lp_ran:
            taken["lp"] += 1
            assert res.witness.weights == weights
        else:
            taken["vertex"] += 1
            (i,) = [n for n, a in enumerate(res.witness.weights) if a]
            assert res.witness.weights[i] == 1 and norm(space, vs[i]).exact == value
        _assert_independently_certified(space, res, vs)
    assert min(taken.values()) >= 60, taken


def _l2_node(rng):
    """Pairwise orthogonal nonzero vectors (disjoint supports, or pairs
    a(e_i + e_j), b(e_i - e_j)), or random ones."""
    if rng.random() < 0.5:
        return tuple(_random_l2_node(rng, rng.randint(1, 6)))
    vs = []
    coords = rng.sample(range(8), 8)
    while coords and len(vs) < 5:
        i = coords.pop()
        a = F(rng.choice([1, -1]) * rng.randint(1, 4), rng.randint(1, 3))
        if coords and rng.random() < 0.5:
            j = coords.pop()
            b = F(rng.choice([1, -1]) * rng.randint(1, 4), rng.randint(1, 3))
            vs += [(E(i) + E(j)).scale(a), (E(i) - E(j)).scale(b)]
        else:
            vs.append(Vector.from_pairs([(i, a)] + [(p, a) for p in coords[:rng.randint(0, 1)]]))
            del coords[:len(vs[-1].support) - 1]
    rng.shuffle(vs)
    return tuple(vs)


def test_orthogonal_l2_minimum_matches_wolfe(monkeypatch):
    """On 600 seeded nodes the l2 minimum, weights, exact square and
    certificate included, equals the Fraction form of Wolfe's method, and on
    orthogonal nodes also `_wolfe` on the same Gram matrix; only nodes with
    a non-diagonal Gram matrix run Wolfe's loop."""
    rng = random.Random(1978)
    wolfe = []
    real = predicates._wolfe
    monkeypatch.setattr(predicates, "_wolfe", lambda q, d: wolfe.append(q) or real(q, d))
    taken = Counter()
    for _ in range(600):
        vs = _l2_node(rng)
        wolfe.clear()
        res = predicates._simplex_min_qp(L2, vs)
        assert res == ref_simplex_min_qp(L2, vs), vs
        q, d = predicates._int_gram(vs)
        orthogonal = all(q[i][j] == 0 for i in range(len(vs)) for j in range(i))
        if not wolfe:
            taken["closed form"] += 1
            assert orthogonal and all(q[i][i] > 0 for i in range(len(vs)))
            assert real(q, d) == (res.witness.weights, res.exact_sq)
            cert = res.certificate
            assert conjugate_norm(L2, cert.functional.vec).lo <= 1
            assert all(pairing(cert.functional, x) >= cert.lower_bound for x in vs)
            assert norm(L2, combine(res.witness.weights, vs)).exact_sq == res.exact_sq
        else:
            taken["wolfe"] += 1
            assert not orthogonal or any(q[i][i] == 0 for i in range(len(vs)))
    assert min(taken.values()) >= 200, taken


# ---------------------------------------------------------------------------
# simplex minimum against the dumb grid


@pytest.mark.parametrize("space", [L1, L2, C0], ids=["l1", "l2", "sup"])
def test_random_instances_never_beat_grid(space):
    """The grid value is feasible, so a sound solver can only be <= it."""
    rng = random.Random(2024)
    for _ in range(40):
        m = rng.randint(1, 4)
        vs = []
        for _ in range(m):
            entries = [(p, F(rng.randint(-4, 4), rng.randint(1, 4)))
                       for p in rng.sample(range(6), rng.randint(1, 3))]
            v = Vector.from_pairs([(p, c) for p, c in entries if c != 0])
            vs.append(v if not v.is_zero else E(0))
        res = simplex_min_norm(space, vs)
        grid = grid_simplex_min(space, vs, steps=32)
        assert float(res.lo) <= grid + 1e-9
        # and the witness is genuinely feasible with the claimed norm
        w = res.witness
        assert sum(w.weights) == 1 and all(x >= 0 for x in w.weights)
        assert float(w.norm.lo) <= grid + 1e-9


def test_grid_converges_to_exact_value_on_smooth_instance():
    vs = [E(0), E(1), E(2)]
    res = simplex_min_norm(L2, vs)
    grid = grid_simplex_min(L2, vs, steps=66)  # grid contains (1/3, 1/3, 1/3)
    assert abs(grid - math.sqrt(1.0 / 3.0)) < 1e-12
    assert abs(grid**2 - float(res.exact_sq)) < 1e-12


# ---------------------------------------------------------------------------
# l2 simplex minimum against the brute-force support oracle


def _random_l2_node(rng, m):
    """Random small vectors, with zero, repeated and affinely dependent ones mixed in."""
    vs = []
    for _ in range(m):
        roll = rng.random()
        if vs and roll < 0.1:
            vs.append(rng.choice(vs))
        elif roll < 0.15:
            vs.append(Vector.zero())
        elif len(vs) >= 2 and roll < 0.3:
            a, b = rng.sample(vs, 2)
            t = F(rng.randint(-2, 3), rng.randint(1, 3))
            vs.append(combine([1 - t, t], [a, b]))
        else:
            vs.append(Vector.from_pairs(
                (p, F(rng.randint(-4, 4), rng.randint(1, 3)))
                for p in rng.sample(range(4), rng.randint(1, 3))))
    return vs


def _assert_certified_l2_minimum(res, vs):
    w = res.witness
    assert all(a >= 0 for a in w.weights) and sum(w.weights) == 1
    assert combine(w.weights, vs) == w.combo
    assert norm(L2, w.combo).exact_sq == res.exact_sq
    if res.certificate is not None:
        for v in vs:
            assert pairing(res.certificate.functional, v) >= res.certificate.lower_bound


def test_l2_minimum_matches_brute_force_oracle():
    rng = random.Random(4096)
    for _ in range(300):
        vs = _random_l2_node(rng, rng.randint(1, 8))
        res = simplex_min_norm(L2, vs)
        value_sq, combo = brute_l2_simplex_min(vs)
        assert res.method == "exact-qp"
        assert res.exact_sq == value_sq
        assert res.witness.combo.entries == combo
        _assert_certified_l2_minimum(res, vs)


@pytest.mark.parametrize("vs, weights", [
    ([E(0), E(0)], (1, 0)),
    ([E(0), E(0), E(1)], (F(1, 2), 0, F(1, 2))),
    ([E(1), E(0), E(0)], (F(1, 2), F(1, 2), 0)),
    ([Vector.zero(), E(0), Vector.zero()], (1, 0, 0)),
])
def test_l2_minimum_breaks_ties_toward_lower_indices(vs, weights):
    """Repeated and zero vectors leave the weights open; the lowest index wins."""
    assert predicates._simplex_min_qp(L2, tuple(vs)).witness.weights == weights


def test_l2_minimum_of_sixteen_random_vectors_is_certified():
    rng = random.Random(16)
    # a positive first coordinate keeps the hull away from 0, so a certificate exists
    vs = [Vector.from_pairs([(0, F(rng.randint(1, 4), rng.randint(1, 3)))] +
                            [(p, F(rng.randint(-4, 4), rng.randint(1, 3))) for p in range(1, 6)])
          for _ in range(16)]
    res = simplex_min_norm(L2, vs)
    assert res.certificate is not None
    _assert_certified_l2_minimum(res, vs)
    # optimality of the minimum point itself: <z, x_n> >= ||z||^2 for every n
    z = dict(res.witness.combo.entries)
    for v in vs:
        assert sum(c * z.get(p, 0) for p, c in v.entries) >= res.exact_sq


@pytest.mark.parametrize("corrupt", ["diagonal", "off-diagonal"])
def test_qp_minimum_refuses_a_wrong_answer(monkeypatch, corrupt):
    """The Gram value must equal the witness norm; a wrong Gram matrix is refused.

    The integer Gram matrix Q = D^2 G is corrupted by 1/2 on the scale of G:
    doubling D makes that 2 D^2 on the scale of the returned Q.  A corrupted
    diagonal leaves Q diagonal, so the closed form answers and is refused; a
    corrupted off-diagonal entry sends the node to Wolfe's method."""
    int_gram = predicates._int_gram

    def perturbed(vs):
        q, d = int_gram(vs)
        q = [[4 * x for x in row] for row in q]
        if corrupt == "diagonal":
            q[0][0] -= 2 * d * d
        else:
            q[0][1] += 2 * d * d
            q[1][0] += 2 * d * d
        return q, 2 * d

    monkeypatch.setattr(predicates, "_int_gram", perturbed)
    with pytest.raises(ContractViolation):
        predicates._simplex_min_qp(L2, tuple(units(3)))


def _qp_outcome(solve, vs):
    try:
        return solve(L2, vs)
    except ContractViolation as exc:
        return ContractViolation, str(exc)


def test_qp_minimum_matches_the_fraction_wolfe(monkeypatch):
    """Wolfe's method on the integer Gram matrix returns exactly the result,
    weights, witness norm and certificate included, or the refusal, of the
    Fraction form it replaced."""
    rng = random.Random(1976)
    kinds = Counter()
    sizes = []
    real_solve = predicates.linalg.solve
    monkeypatch.setattr(predicates.linalg, "solve",
                        lambda rows, rhs: sizes.append(len(rows)) or real_solve(rows, rhs))
    for trial in range(2400):
        vs = tuple(_random_l2_node(rng, 1 + trial % 9))
        sizes.clear()
        got = _qp_outcome(predicates._simplex_min_qp, vs)
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            kinds["step back"] += 1
        assert got == _qp_outcome(ref_simplex_min_qp, vs), vs
        if not isinstance(got, SimplexMinResult):
            kinds["refused"] += 1
        else:
            kinds["zero" if got.exact_sq == 0 else "positive"] += 1
            kinds["interior" if sum(1 for w in got.witness.weights if w) > 1 else "vertex"] += 1
    assert kinds["zero"] > 100 and kinds["positive"] > 1000, kinds
    assert kinds["interior"] > 500 and kinds["vertex"] > 500, kinds
    assert kinds["step back"] > 100, kinds


def test_qp_minimum_builds_fractions_only_at_its_boundary(monkeypatch):
    """One Wolfe solve on a seeded 9-vector node, with a step back, hands
    `linalg.solve` int systems, reads its int solutions, and constructs
    Fractions only for the step-back ratios, the minimum, its exact root and
    the weights, beyond what the witness and certificate checks on the
    vectors build.  Fraction pairings in the major cycles would cost over a
    thousand."""
    rng = random.Random(9)
    vs = tuple(Vector.from_pairs((i, F(rng.randint(-4, 4), rng.randint(1, 3)))
                                 for i in range(6)) for _ in range(9))
    solves = []
    real_solve = predicates.linalg.solve
    built = []
    fraction_new = Fraction.__new__
    with monkeypatch.context() as patch:
        patch.setattr(predicates.linalg, "solve",
                      lambda rows, rhs: solves.append(rows) or real_solve(rows, rhs))
        patch.setattr(Fraction, "__new__",
                      lambda cls, *a, **k: built.append(1) or fraction_new(cls, *a, **k))
        res = predicates._simplex_min_qp(L2, vs)
        solve_count = len(built)
        combo = combine(res.witness.weights, vs)
        norm(L2, combo)
        predicates._dual_certificate_l2(L2, vs, combo, res.exact_sq)
        checks = len(built) - solve_count
    sizes = [len(rows) for rows in solves]
    assert res.method == "exact-qp" and res.certificate is not None
    assert any(b <= a for a, b in zip(sizes, sizes[1:])), sizes  # a step back happened
    assert all(type(x) is int for rows in solves for row in rows for x in row)
    # a solve at size s that steps back compares at most s - 1 ratios
    back = sum(a for a, b in zip(sizes, sizes[1:]) if b <= a)
    assert solve_count - checks <= back + len(vs) + 2, (solve_count, checks)


# ---------------------------------------------------------------------------
# duality


def test_weak_duality_and_self_evidence():
    rng = random.Random(7)
    for space in (L1, L2, C0):
        for _ in range(30):
            m = rng.randint(1, 4)
            vs = [Vector.from_pairs(
                [(p, F(rng.randint(-3, 3), rng.randint(1, 3)))
                 for p in rng.sample(range(5), rng.randint(1, 3))]) for _ in range(m)]
            vs = [v if not v.is_zero else E(0) for v in vs]
            res = simplex_min_norm(space, vs)
            cert = res.certificate
            if cert is None:
                continue
            # weak duality against the primal enclosure
            assert cert.lower_bound <= res.hi + F(1, 10**12)
            assert cert.gap >= 0
            # self-evidence: dual norm within bound, inequalities hold exactly
            assert conjugate_norm(space, cert.functional.vec).lo <= cert.functional.bound
            for v in vs:
                assert pairing(cert.functional, v) >= cert.lower_bound


@pytest.mark.parametrize("corrupt", ["value", "scaled-duals", "zero-duals"])
def test_polyhedral_minimum_refuses_a_wrong_lp_answer(monkeypatch, corrupt):
    """The value agreement, dual-ball and pairing checks on the one LP solve
    are what certify an l1 minimum; each must reject a corrupted answer.  No
    vertex of e0 + e1, e0 - e1 is the minimum e0, so the LP runs."""
    solve_lp = predicates.lp.solve_lp
    solves = []

    def corrupted(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        solves.append(res)
        if corrupt == "value":
            return res._replace(value=res.value + 1)
        if corrupt == "scaled-duals":
            return res._replace(duals=[2 * y for y in res.duals])
        return res._replace(duals=[F(0)] * len(res.duals))

    monkeypatch.setattr(predicates.lp, "solve_lp", corrupted)
    with pytest.raises(ContractViolation):
        predicates._simplex_min_polyhedral(L1, (E(0) + E(1), E(0) - E(1)))
    assert len(solves) == 1


@pytest.mark.parametrize("space, vs, corrupt", [
    (L1, (E(0), E(0).scale(F(3)) + E(1)), "outside-ball"),
    (C0, (E(0) + E(1).scale(F(1, 2)), E(0).scale(F(2))), "outside-ball"),
    (L1, (E(0) + E(1), E(0) - E(1)), "above-minimum"),
    (C0, (E(0), E(1)), "above-minimum"),
], ids=["l1-ball", "sup-ball", "l1-value", "sup-value"])
def test_polyhedral_minimum_refuses_a_wrong_closed_form(monkeypatch, space, vs, corrupt):
    """A vertex functional outside the dual unit ball, or a vertex claimed as
    the minimum with its sign functional where the true minimum is lower,
    fails the same checks as an LP answer, before any LP runs."""
    vertex_minimum = predicates._vertex_minimum
    solves = []
    monkeypatch.setattr(predicates.lp, "solve_lp", lambda *a: solves.append(a))
    if corrupt == "outside-ball":
        assert vertex_minimum(space, vs) is not None  # the vertex certifies itself

        def wrong(space, vs):
            weights, value, g = vertex_minimum(space, vs)
            return weights, value, g.scale(F(2))
    else:
        assert vertex_minimum(space, vs) is None

        def wrong(space, vs):
            return (F(1), F(0)), norm(space, vs[0]).exact, Vector.from_pairs(
                (p, F((c > 0) - (c < 0))) for p, c in vs[0].entries)

    monkeypatch.setattr(predicates, "_vertex_minimum", wrong)
    with pytest.raises(ContractViolation):
        predicates._simplex_min_polyhedral(space, vs)
    assert solves == []


def test_orthonormal_dual_certificate_is_tight():
    res = simplex_min_norm(L2, units(4))
    cert = res.certificate
    assert cert is not None
    assert cert.lower_bound == F(1, 2)
    assert cert.gap == 0
    # the certifying functional is the half-sum of the first four coordinates
    assert cert.functional.vec == Vector.from_pairs([(i, F(1, 2)) for i in range(4)])


def test_mazur_combination_flattens():
    w = mazur_combination(L2, [E(0), E(0).scale(F(-1)), E(1)])
    assert w.norm.hi == 0
    assert sum(w.weights) == 1


# ---------------------------------------------------------------------------
# domination predicate


def test_domination_empty_node_holds_vacuously():
    v = is_eps_dominating(L2, [], F(1, 2))
    assert v.holds


def test_domination_boundary_is_non_strict():
    # unit vectors in l1: minimum is exactly 1, so eps = 1 holds with margin 0
    v = is_eps_dominating(L1, units(3), F(1))
    assert v.holds and v.margin == 0.0 and v.exact_margin == 0


@pytest.mark.parametrize("space, vectors", [
    (lp_space(3), [Vector.zero()]),  # a negative band would certify the zero vector
    (L1, units(3)),
    (L2, []),
])
def test_domination_refuses_a_negative_tolerance(space, vectors):
    with pytest.raises(ConfigurationError) as info:
        is_eps_dominating(space, vectors, F(1, 3), F(-1))
    assert info.value.pointer == "/tol"


def test_domination_failure_produces_witness():
    v = is_eps_dominating(L2, units(3), F(3, 5))
    assert v.fails
    w = v.witness
    assert w is not None and sum(w.weights) == 1
    # witness norm is certified below the level
    assert w.norm.hi < F(3, 5)


def test_domination_margins_shrink_along_prefixes():
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        m = rng.randint(2, 4)
        vs = [Vector.from_pairs(
            [(p, F(rng.randint(1, 4), rng.randint(1, 3)))
             for p in rng.sample(range(5), rng.randint(1, 3))]) for _ in range(m)]
        eps = F(rng.randint(1, 10), 20)
        full = is_eps_dominating(L2, vs, eps)
        if not full.holds:
            continue
        checked += 1
        for k in range(len(vs)):
            prefix = is_eps_dominating(L2, vs[:k], eps)
            assert prefix.holds
            if k and prefix.margin is not None and full.margin is not None:
                assert prefix.margin >= full.margin - 1e-12
    assert checked >= 10


def test_domination_bracket_space_uses_tol_band():
    sp = lp_space(F(3, 2))
    vs = [E(0), E(1)]
    # true simplex minimum is 2^(1/p - 1) = 2^(-1/3) ~ 0.7937
    clear = is_eps_dominating(sp, vs, F(7, 10), F(1, 100))
    assert clear.holds
    hopeless = is_eps_dominating(sp, vs, F(9, 10), F(1, 100))
    assert hopeless.fails
    knife_edge = is_eps_dominating(sp, vs, F(7937, 10000), F(1, 100))
    assert knife_edge.inconclusive


# ---------------------------------------------------------------------------
# bracket domination: the upper end on demand


@pytest.fixture
def upper_ends(monkeypatch):
    """The vector tuples for which a bracket minimum's upper end is computed."""
    calls = []
    real = predicates._simplex_min_bracket_upper
    monkeypatch.setattr(predicates, "_simplex_min_bracket_upper",
                        lambda space, vs, lo: calls.append(vs) or real(space, vs, lo))
    return calls


def test_holding_bracket_node_computes_no_upper_end(upper_ends):
    sp = lp_space(F(3, 2))
    memo = {}
    assert is_eps_dominating(sp, [E(0), E(1)], F(7, 10), F(1, 100), memo).holds
    assert is_eps_dominating(sp, [E(0), E(1)], F(7, 10), F(1, 100)).holds
    assert upper_ends == []
    (solved, lo), = memo.values()  # the entry holds the lower end alone
    assert solved == (E(0), E(1)) and isinstance(lo, Fraction) and lo >= F(71, 100)


def test_failing_bracket_node_computes_one_upper_end_for_all_orders(upper_ends):
    # five distinct unit vectors in lp:3/2 have minimum 5^(-1/3) ~ 0.585 < 3/5
    sp = lp_space(F(3, 2))
    memo = {}
    combos = set()
    for order in itertools.permutations(units(5)):
        v = is_eps_dominating(sp, order, F(3, 5), memo=memo)
        assert v.fails
        assert combine(v.witness.weights, order) == v.witness.combo
        combos.add(v.witness.combo)
    assert len(upper_ends) == 1 and len(memo) == 1 and len(combos) == 1


def test_inconclusive_hilbert_cube_node_computes_upper_end_on_demand(upper_ends):
    sp = lp_space(3)
    cube = hilbert_cube(sp)
    # the one inconclusive node of the eps 1/3 scan: its prefix bound is
    # undecided, while its minimum in [0.5, 0.5024] clears eps by the lower end
    tree = WcTree(cube, F(1, 3), F(2))
    ev = tree.member((3, 6))
    assert ev.verdict.inconclusive and ev.domination.holds
    assert upper_ends == []
    # at eps inside the enclosure the domination itself straddles
    vs = (cube.selector(3), cube.selector(6))
    for _ in range(3):
        v = is_eps_dominating(sp, vs, F(501, 1000), memo=tree.simplex_memo)
        assert v.inconclusive
    assert upper_ends == [vs]
    (_, res), = tree.simplex_memo.values()
    assert res == simplex_min_norm(sp, vs)


LAZY_SPACES = [lp_space(F(4, 3)), lp_space(F(3, 2)), lp_space(3)]


def _enclosure_verdict(res, eps, tol):
    """The domination verdict a full bracket enclosure gives."""
    if res.lo >= eps + tol:
        return HOLDS, float(res.lo - eps), None, None
    if res.hi < eps:
        return FAILS, float(res.hi - eps), None, res.witness
    return INCONCLUSIVE, None, None, None


def test_lazy_bracket_domination_matches_the_eager_enclosure():
    """Verdicts and memo entries with the upper end on demand are what the
    eager, memo-less enclosure gives, for eps below, inside and above it."""
    rng = random.Random(1707)
    kinds = Counter()
    for trial in range(120):
        space = LAZY_SPACES[trial % 3]
        vs = [Vector.from_pairs([(p, F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)))
                                 for p in rng.sample(range(4), rng.randint(1, 3))])
              for _ in range(rng.randint(1, 3))]
        eager = simplex_min_norm(space, vs)
        tol = F(rng.choice([0, 0, 1]), 1000)
        nudge = F(rng.randint(1, 40), 1000)
        for eps in (eager.lo - tol - nudge, (eager.lo + eager.hi) / 2, eager.hi + nudge):
            if eps <= 0:
                continue
            lazy = is_eps_dominating(space, vs, eps, tol, {})
            want = _enclosure_verdict(eager, eps, tol)
            assert (lazy.kind, lazy.margin, lazy.exact_margin, lazy.witness) == want
            kinds[lazy.kind] += 1
        # start the memo entry with its lower end, then fill it from another order
        memo = {}
        is_eps_dominating(space, vs, eager.lo - tol - nudge, tol, memo)
        (_, lo), = memo.values()
        assert lo == eager.lo
        order = vs[::-1]
        hit = simplex_min_norm(space, order, memo)
        (solved, filled), = memo.values()
        assert solved == tuple(vs) and filled == eager
        assert (hit.lo, hit.hi, hit.method, hit.witness.norm) == \
            (eager.lo, eager.hi, eager.method, eager.witness.norm)
        assert combine(hit.witness.weights, order) == eager.witness.combo
    assert sum(kinds.values()) >= 300
    assert min(kinds[k] for k in (HOLDS, FAILS, INCONCLUSIVE)) >= 40, kinds


BRACKET_EXPONENTS = [F(3, 2), F(4, 3), F(3), F(5, 2)]


def _seeded_nodes(rng, per_set):
    """(space, vectors): 1-4 distinct vectors drawn from the first 24
    selectors of every built-in set, in lp:P for every P above."""
    for kind in sorted(sets._BUILDERS):
        for p in BRACKET_EXPONENTS:
            model = build_set(kind, lp_space(p))
            for _ in range(per_set):
                picks = rng.sample(range(24), rng.randint(1, 4))
                yield model.space, tuple(dict.fromkeys(map(model.selector, picks)))


def _outcome(solve):
    """What solve() returns, or the type and message of what it raises."""
    try:
        return solve()
    except (ContractViolation, ValueError) as exc:
        return type(exc), str(exc)


def test_pruned_lower_end_matches_the_unpruned_reference(monkeypatch):
    """The lower end solves a sup LP or an l2 QP only when its norm at the
    uniform combination beats the best candidate so far; it is the Fraction
    that solving every comparison minimum gives, and it skips some of each."""
    real = predicates.simplex_min_norm
    solved = Counter()
    monkeypatch.setattr(predicates, "simplex_min_norm", lambda space, vs, memo=None: (
        solved.update([space]) or real(space, vs, memo)))
    nodes, below_two = 0, 0
    for space, vs in _seeded_nodes(random.Random(1818), 60):
        want = _outcome(lambda: ref_simplex_min_bracket_lower(space, vs, real))
        got = _outcome(lambda: predicates._simplex_min_bracket_lower(space, vs))
        assert got == want, (space, vs)
        nodes += 1
        below_two += space.p < 2
    # the reference solves sup for every node and l2 for every p < 2
    assert nodes >= 400
    assert 0 < solved[C0] < nodes and 0 < solved[L2] < below_two, solved


def _affinely_dependent(vs) -> bool:
    rows = sorted({r for v in vs for r in v.support})
    diffs = [[coordinate(v - vs[0], r) for r in rows] for v in vs[1:]]
    return ref_rank(diffs) < len(diffs) if diffs else False


def test_sparse_descent_is_bit_identical_to_the_dense_reference(monkeypatch):
    """The descent multiplies out nonzero coefficients only, in the order of
    the dense sums, so it projects the same floats bit for bit (float.hex
    tells signed zeros apart) as the full-schedule dense reference, until
    the first point whose Frank-Wolfe gap is at most FW_GAP_STOP times its
    norm, where it stops.  On 600 nodes it finds the same enclosure, method,
    minimizing combination and weights, moved to the node's order, but on
    two of the affinely dependent nodes, whose minimizing weights are not
    unique: there the stopped descent keeps the uniform weights, while the
    full schedule ends on the vertex (e0 + e1)/2.  The nodes mix in negative
    coefficients (unit-ball and dense-space, whose products with a zero
    weight are -0.0), a repeated vector, and a vector beside its negation,
    whose minimum is 0."""
    traces: dict[str, list] = {"sparse": [], "dense": []}

    def traced(real, trace):
        return lambda a: trace.append([x.hex() for x in a]) or real(a)

    monkeypatch.setattr(predicates, "_project_simplex",
                        traced(predicates._project_simplex, traces["sparse"]))
    monkeypatch.setattr(oracles, "_ref_project_simplex",
                        traced(oracles._ref_project_simplex, traces["dense"]))
    rng = random.Random(1819)
    seen = Counter()
    other = {}
    for space, vs in _seeded_nodes(rng, 25):
        extra = rng.choice(vs)
        node = vs + rng.choice([(), (extra,), (-extra,)])
        distinct = tuple(dict.fromkeys(node))
        traces["sparse"].clear()
        traces["dense"].clear()
        visits: list = []
        got = simplex_min_norm(space, node)
        want = ref_simplex_min_bracket_upper(space, distinct, got.lo, visits)
        assert (got.hi, got.method, got.witness.combo, got.witness.norm) == \
            (want.hi, want.method, want.witness.combo, want.witness.norm), (space, node)
        assert combine(got.witness.weights, node) == got.witness.combo
        pop = dict(zip(distinct, want.witness.weights))
        moved = tuple(pop.pop(v, F(0)) for v in node)
        if got.witness.weights != moved:
            other[space, node] = got.witness.weights, moved
        stop = next((i for i, (a, f, grad) in enumerate(visits)
                     if sum(g * w for g, w in zip(grad, a)) - min(grad) <= f * FW_GAP_STOP),
                    None)
        # each start projects 120 times between its 121 evaluations
        cut = len(traces["dense"]) if stop is None else stop - stop // 121
        assert traces["sparse"] == traces["dense"][:cut], (space, node)
        seen["nodes"] += 1
        seen["negative"] += any(c < 0 for v in node for _, c in v.entries)
        seen["repeat"] += len(distinct) < len(node)
        seen["zero"] += want.hi == 0
        seen["dependent"] += _affinely_dependent(distinct)
        seen["at once" if stop == 0 else "full" if stop is None else "midway"] += 1
    assert seen["nodes"] == 600
    assert min(seen.values()) >= 30, seen
    mid, third = Vector(((0, F(1, 2)), (1, F(1, 2)))), (F(1, 3),) * 3
    assert other == {(lp_space(F(4, 3)), (E(1), E(0), mid)): (third, (F(0), F(0), F(1))),
                     (lp_space(F(3)), (E(1), mid, E(0))): (third, (F(0), F(1), F(0)))}, other


def test_no_module_asserts():
    """`python -O` strips asserts, so every module of the library must check
    its contracts by raising, `ContractViolation` for internal ones."""
    modules = sorted(Path(predicates.__file__).parent.glob("*.py"))
    assert {"predicates.py", "sets.py", "trees.py"} <= {m.name for m in modules}
    for path in modules:
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"


# ---------------------------------------------------------------------------
# prefix-boundedness predicate

# above the basis constant of every node these tests build, so a report at
# this bound brackets the constant as it would at any larger one (the l2
# doubling phase gives up past 2^40)
ABOVE_EVERY_CONSTANT = F(1 << 40)


def test_schauder_disjoint_supports_is_exactly_one():
    rep = is_M_schauder(L2, [E(0), E(1), E(2)], F(1))
    assert rep.verdict.holds
    assert rep.constant_lo == 1 and rep.constant_hi == 1
    assert rep.method == "exact-structural"


def test_schauder_known_constants():
    pair = [E(0), E(0) + E(1)]
    # l1: ||a e0|| <= ||a e0 + b(e0+e1)|| always (constant exactly 1)
    rep = is_M_schauder(L1, pair, F(1))
    assert rep.verdict.holds and rep.constant_hi == 1
    # sup: worst ratio is 2 (a=1, b=-1/2), an exact polyhedral decision
    rep = is_M_schauder(C0, pair, F(2))
    assert rep.verdict.holds
    assert rep.constant_lo == 2 == rep.constant_hi
    assert is_M_schauder(C0, pair, F(199, 100)).verdict.fails
    # l2: constant is sqrt(2), bracketed on the dyadic grid
    rep = is_M_schauder(L2, pair, F(3, 2))
    assert rep.verdict.holds
    root2 = math.sqrt(2.0)
    assert float(rep.constant_lo) <= root2 <= float(rep.constant_hi)
    assert rep.constant_hi - rep.constant_lo <= F(1, 2**(MARGIN_GRID_BITS - 1))
    assert is_M_schauder(L2, pair, F(7, 5)).verdict.fails  # 7/5 < sqrt 2
    # sqrt 2 < M below the grid point above it: the bracket straddles M
    straddled = F(14143, 10000)
    rep = is_M_schauder(L2, pair, straddled)
    assert rep.verdict.inconclusive and rep.constant_lo < straddled < rep.constant_hi
    _assert_matches_reference(rep, pair, ref_schauder_analyze(L2, pair, straddled, 0))


def _assert_kernel_witness(vs, w):
    """A structural failure ships a kernel vector z and no norms, checked
    exactly: sum z_n x_n = 0, z_n = 0 for n < k - 1, sum_{n<k} z_n x_n != 0."""
    z, k = w.coefficients, w.prefix
    assert w.prefix_norm is None and w.full_norm is None
    assert combine(z, vs).is_zero
    assert not any(z[:k - 1]) and not combine(z[:k], vs[:k]).is_zero


def _kernel_as_reference(vs):
    """Whether a structural failure ships the reference engine's kernel: it
    does unless a dependence comes before the first repeat."""
    first = next((j for j, v in enumerate(vs) if v in vs[:j]), None)
    if first is None:
        return True
    rows = sorted({p for v in vs[:first] for p in v.support})
    return ref_rank([[coordinate(v, r) for v in vs[:first]] for r in rows]) == first


def test_schauder_repeats_are_unbounded():
    # the first repeat x_j = x_i ships e_j - e_i with prefix i + 1
    nodes = [([E(0), E(0)], 1, (-1, 1)),
             ([E(0), E(1), E(2), E(1), E(0)], 2, (0, -1, 0, 1, 0))]
    for space in (L1, C0, L2, lp_space(F(3, 2))):
        for vs, prefix, kernel in nodes:
            rep = is_M_schauder(space, vs, F(100))
            assert rep.verdict.fails and rep.unbounded
            assert rep.method == "exact-structural" and rep.verdict.margin == math.inf
            _assert_kernel_witness(vs, rep.verdict.witness)
            assert (rep.verdict.witness.prefix, rep.verdict.witness.coefficients) == \
                (prefix, kernel)


def test_schauder_witness_on_failure_is_self_evident():
    pair = [E(0), E(0) + E(1)]
    rep = is_M_schauder(C0, pair, F(3, 2))
    w = rep.verdict.witness
    assert w is not None
    # the exhibited coefficients certify ratio > M
    assert w.prefix_norm.lo > F(3, 2) * w.full_norm.hi


def test_schauder_sampled_oracle_never_exceeds_reported_constant():
    rng = random.Random(12)
    np_rng = np.random.default_rng(12)
    for space in (L1, L2, C0):
        for _ in range(12):
            m = rng.randint(1, 4)
            vs = []
            for _ in range(m):
                entries = [(p, F(rng.randint(-3, 3), rng.randint(1, 2)))
                           for p in rng.sample(range(5), rng.randint(1, 3))]
                v = Vector.from_pairs([(p, c) for p, c in entries if c != 0])
                vs.append(v if not v.is_zero else E(rng.randint(0, 4)))
            rep = is_M_schauder(space, vs, ABOVE_EVERY_CONSTANT)
            if rep.unbounded:
                continue
            sampled = sampled_basis_constant(space, vs, np_rng, trials=150)
            assert sampled <= float(rep.constant_hi) * (1 + 1e-9) + 1e-9


def test_schauder_input_validation():
    with pytest.raises(ValueError):
        is_M_schauder(L2, [Vector.zero()], F(1))
    with pytest.raises(ValueError):
        is_M_schauder(L2, [E(0)], F(0))
    with pytest.raises(ValueError):
        is_M_schauder(L2, [E(0), Vector.zero()], F(1))


def test_failing_gram_report_bounds_the_constant_by_its_witness_ratio():
    """A failure at M takes the constant's lower end from its PSD witness:
    the exact prefix ratio of the witness exceeds M, and so does its lower
    root on the coarsest 2^-12, 2^-24, ... grid that clears M.  The margin
    is then negative, as on every failure; below M = 1 the lower end is 1,
    the least basis constant."""
    pair = [E(0), E(0) + E(1)]
    rep = is_M_schauder(L2, pair, F(7, 5))
    assert rep.method == "exact-gram" and rep.verdict.fails
    w = rep.verdict.witness
    ratio_sq = w.prefix_norm.exact_sq / w.full_norm.exact_sq
    assert ratio_sq > F(49, 25)
    assert rep.constant_lo == F(5791, 4096) and rep.constant_hi is None
    assert F(7, 5) < rep.constant_lo and rep.constant_lo ** 2 <= ratio_sq
    assert rep.verdict.exact_margin == F(7, 5) - F(5791, 4096) < 0
    assert rep.verdict.margin == float(F(7, 5) - F(5791, 4096))
    assert w.prefix_norm.lo > F(7, 5) * w.full_norm.hi
    rep = is_M_schauder(L2, pair, F(1, 2))
    assert rep.method == "exact-gram" and rep.verdict.fails
    assert rep.constant_lo == 1 and rep.constant_hi is None
    assert rep.verdict.exact_margin == F(-1, 2) and rep.verdict.margin == -0.5


def test_every_failing_gram_report_has_a_negative_margin():
    """Seeded full-rank l2 nodes failing at M from 1 to 5/2, M on the 2^-12
    grid among them: every margin is negative, and the lower end is a
    certified lower bound of the witness's exact prefix ratio."""
    rng = random.Random(1207)
    failed = 0
    for _ in range(300):
        vs = _schauder_node(rng, L2)
        big_m = F(rng.randint(4096, 10240), 4096)
        rep = is_M_schauder(L2, vs, big_m)
        if rep.method != "exact-gram" or not rep.verdict.fails:
            continue
        failed += 1
        w = rep.verdict.witness
        assert rep.verdict.exact_margin < 0 and rep.verdict.margin < 0
        assert rep.constant_lo > big_m
        assert rep.constant_lo ** 2 <= w.prefix_norm.exact_sq / w.full_norm.exact_sq
    assert failed >= 30, failed


# the lp:P nodes run the sampled probe, whose bracket norms cost the most
SCHAUDER_SPACES = [L1, L2, C0] * 3 + [lp_space(F(3, 2)), lp_space(3)]
SCHAUDER_BOUNDS = [ABOVE_EVERY_CONSTANT, F(1), F(3, 2), F(2), F(5, 2), F(7, 3)]


def _schauder_tuple(rep):
    """A `SchauderReport` in the plain-tuple form of `ref_schauder_analyze`."""
    v, w = rep.verdict, rep.verdict.witness
    witness = None if w is None else (w.prefix, w.coefficients, w.prefix_norm, w.full_norm)
    return (v.kind, v.margin, v.exact_margin, v.detail, witness, rep.method,
            rep.constant_lo, rep.constant_hi, rep.unbounded)


def _assert_matches_reference(rep, vs, ref):
    """Every field but the witness equals the reference's; so does the witness,
    except that a structural failure ships a kernel vector without norms, and
    the reference's kernel only where `_kernel_as_reference` says so."""
    got = _schauder_tuple(rep)
    assert got[:4] + got[5:] == ref[:4] + ref[5:]
    if not (rep.method == "exact-structural" and rep.verdict.fails):
        assert got[4] == ref[4]
        return
    _assert_kernel_witness(vs, rep.verdict.witness)
    if _kernel_as_reference(vs):
        assert got[4][:2] == ref[4][:2]


def _schauder_node(rng, space):
    """A few nonzero vectors on four coordinates, at times with a repeated or
    scaled copy of an earlier one; at most three in lp:P."""
    vs = []
    for _ in range(rng.randint(1, 4 if space.exactness != "bracket" else 3)):
        if vs and rng.random() < 0.15:
            vs.append(rng.choice(vs).scale(F(rng.choice([1, -1, 2, -3]), rng.randint(1, 2))))
            continue
        support = rng.sample(range(4), rng.randint(1, 3))
        vs.append(Vector.from_pairs([(p, F(rng.choice([-2, -1, 1, 1, 2, 3]), rng.randint(1, 2)))
                                     for p in support]))
    return vs


def test_schauder_reports_match_the_reference_engine():
    """Every report equals the reference copy of the four-method engine in
    `oracles`, for every method and verdict it can give; a structural failure's
    witness is checked as `_assert_matches_reference` says.  Structural and
    polyhedral constants are exact (c_lo = c_hi), so they never straddle M,
    sampling never certifies a bound, and a straddling Gram bracket needs an
    M closer to the constant than these nodes meet (see
    `test_schauder_known_constants`)."""
    rng = random.Random(1701)
    seen = Counter()
    for trial in range(1500):
        space = SCHAUDER_SPACES[trial % len(SCHAUDER_SPACES)]
        vs = _schauder_node(rng, space)
        big_m = rng.choice(SCHAUDER_BOUNDS)
        seed = rng.randint(0, 9)
        rep = is_M_schauder(space, vs, big_m, rng_seed=seed)
        try:
            _assert_matches_reference(rep, vs, ref_schauder_analyze(space, vs, big_m, seed))
        except AssertionError as exc:
            raise AssertionError((space, vs, big_m, seed)) from exc
        seen[rep.method, rep.verdict.kind] += 1
    possible = set(itertools.product(
        ("exact-structural", "exact-polyhedral", "exact-gram", "sampled"),
        (HOLDS, FAILS, INCONCLUSIVE))) - {("exact-structural", INCONCLUSIVE),
                                          ("exact-polyhedral", INCONCLUSIVE),
                                          ("exact-gram", INCONCLUSIVE),
                                          ("sampled", HOLDS)}
    assert set(seen) == possible, seen


def test_polyhedral_reports_match_the_reference_engine_on_dense_nodes():
    """On 320 seeded l1 and c0 nodes of 3-4 vectors with wide supports on
    5-6 coordinates, every report, witness included, equals the reference
    engine's, whose kernels and solves run on its own dense elimination.
    There c0 solves tens of row subsets against every sign pattern and l1
    takes a kernel per subset, so the int rows of `linalg` feed every
    candidate."""
    rng = random.Random(2812)
    seen = Counter()
    for trial in range(320):
        space = (L1, C0)[trial % 2]
        dim = rng.randint(5, 6)
        vs = [Vector.from_pairs([(p, F(rng.choice([-3, -2, -1, 1, 1, 2, 3]), rng.randint(1, 3)))
                                 for p in rng.sample(range(dim), rng.randint(2, dim))])
              for _ in range(rng.randint(3, 4))]
        big_m = rng.choice(SCHAUDER_BOUNDS[1:])
        rep = is_M_schauder(space, vs, big_m)
        try:
            _assert_matches_reference(rep, vs, ref_schauder_analyze(space, vs, big_m, 0))
        except AssertionError as exc:
            raise AssertionError((space, vs, big_m)) from exc
        seen[space.kind, rep.method, rep.verdict.kind] += 1
    for kind in ("lp", "c0"):
        for verdict in (HOLDS, FAILS):
            assert seen[kind, "exact-polyhedral", verdict] >= 40, seen
    assert sum(n for (_, method, _), n in seen.items() if method == "exact-polyhedral") >= 300


def test_repeat_nodes_fail_on_sight_as_the_reference_engine_fails_them():
    """Nodes that repeat a vector, a third of them with a dependence before
    the first repeat, fail as the reference engine fails them, and every
    shipped kernel vector passes the exact check."""
    rng = random.Random(1703)
    spaces_ = (L1, C0, L2, lp_space(F(3, 2)))
    dense = build_set("dense-space", L1)
    cases = [(space, [dense.selector(i) for i in (1, 2, 3, 1)]) for space in spaces_]
    for trial in range(600):
        space = spaces_[trial % 4]
        vs = _schauder_node(rng, space)[:3]
        if trial % 3 == 0:
            vs.append(rng.choice(vs).scale(F(rng.choice([-1, 2, 3]))))
        vs.insert(rng.randint(1, len(vs)), rng.choice(vs))
        cases.append((space, vs))
    other_kernel = 0
    for space, vs in cases:
        big_m = rng.choice(SCHAUDER_BOUNDS)
        rep = is_M_schauder(space, vs, big_m)
        assert rep.verdict.fails and rep.unbounded
        _assert_matches_reference(rep, vs, ref_schauder_analyze(space, vs, big_m, 0))
        other_kernel += not _kernel_as_reference(vs)
    assert other_kernel >= 100, other_kernel


def test_schauder_single_vector_is_constant_one():
    rep = is_M_schauder(L1, [E(0) + E(3)], F(1))
    assert rep.verdict.holds and rep.constant_hi == 1
