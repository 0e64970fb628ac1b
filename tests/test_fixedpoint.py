"""Finite posets, ascending orbits, uniformization, averaged iteration."""

import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import brute_ascend, brute_maximal_elements
from wctree.errors import ConfigurationError, ContractViolation
from wctree.fixedpoint import (FinitePoset, NonexpMapHandle, build_map,
                               invariant_set_saturate, km_iterate,
                               maximal_via_uniformization, uniformize_least,
                               uniformize_relation, verify_nonexpansive,
                               zermelo_iterate)
from wctree.sets import unit_ball
from wctree.spaces import C0, L1, L2, Vector

F = Fraction


def chain(n):
    els = list(range(n))
    return FinitePoset(els, [(i, j) for i in els for j in els if i <= j])


def random_poset(rng, n):
    """Random DAG on 0..n-1 (edges up only), transitively closed."""
    els = list(range(n))
    le = {(i, i) for i in els}
    for i in els:
        for j in els[i + 1:]:
            if rng.random() < 0.3:
                le.add((i, j))
    changed = True
    while changed:
        changed = False
        for a, b in list(le):
            for c, d in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    return FinitePoset(els, le)


# ---------------------------------------------------------------------------
# posets and validation


def test_poset_axioms_validated():
    with pytest.raises(ConfigurationError):
        FinitePoset([1, 1], [])
    with pytest.raises(ConfigurationError):
        FinitePoset([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(ConfigurationError):
        FinitePoset([1, 2, 3], [(1, 2), (2, 3)])  # no (1, 3): not transitive


def test_from_cover_closure():
    p = FinitePoset.from_cover("abc", [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert not p.leq("c", "a")
    assert p.is_maximal("c") and not p.is_maximal("a")


def test_zermelo_on_chain_reaches_top():
    p = chain(6)
    result = zermelo_iterate(p, lambda x: min(x + 1, 5), start=0)
    assert result.fixed_point == 5
    assert result.orbit == (0, 1, 2, 3, 4, 5)
    assert result.steps == 5


def test_zermelo_rejects_non_expansive_map():
    p = chain(3)
    with pytest.raises(ConfigurationError):
        zermelo_iterate(p, {0: 0, 1: 0, 2: 2}, start=0)  # 1 -> 0 descends


def test_zermelo_rejects_unknown_start():
    with pytest.raises(ConfigurationError):
        zermelo_iterate(chain(3), lambda x: x, start=99)


def test_zermelo_matches_brute_ascent_on_random_posets():
    rng = random.Random(71)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 12))
        f = {x: uniformize_least(p, p.strict_successors(x) or [x]) for x in p.elements}
        start = rng.choice(p.elements)
        mine = zermelo_iterate(p, f, start)
        ref = brute_ascend(lambda x: f[x], start, len(p.elements))
        assert mine.fixed_point == ref
        assert f[mine.fixed_point] == mine.fixed_point
        # the orbit ascends strictly until it stops
        for a, b in zip(mine.orbit, mine.orbit[1:]):
            assert p.leq(a, b) and a != b


def test_maximal_via_uniformization_is_truly_maximal():
    rng = random.Random(72)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 12))
        result = maximal_via_uniformization(p)
        assert result.fixed_point in brute_maximal_elements(p)


def test_maximal_prefers_early_insertion_on_antichains():
    p = FinitePoset.from_cover(["bottom", "b", "a"], [("bottom", "b"), ("bottom", "a")])
    # both a and b are maximal; the deterministic choice is the earliest listed
    assert maximal_via_uniformization(p).fixed_point == "b"


def test_uniformize_least_picks_earliest_and_rejects_empty():
    p = chain(4)
    assert uniformize_least(p, [3, 1, 2]) == 1
    with pytest.raises(ValueError):
        uniformize_least(p, [])


def test_uniformize_relation_laws_small():
    p = chain(5)
    rel = [(0, 3), (0, 1), (2, 4), (2, 2), (4, 0)]
    choice = uniformize_relation(p, rel)
    assert set(choice) == {0, 2, 4}            # same domain
    assert all((x, y) in rel for x, y in choice.items())  # graph subset
    assert choice == {0: 1, 2: 2, 4: 0}        # least partner each time


# ---------------------------------------------------------------------------
# averaged iteration


def test_km_identity_map_has_zero_residual():
    res = km_iterate(L2, build_map("identity"), steps=5)
    assert res.final_residual == 0.0
    assert res.checks.residual_monotone


def test_km_constant_map_converges_geometrically():
    target = Vector.unit(3)
    res = km_iterate(L2, build_map("constant", target), steps=40)
    # residual halves each step: ||x_n - T x_n|| = (1/2)^n ||x_0 - c||
    assert res.final_residual < 1e-10
    assert res.checks.residual_monotone
    assert res.checks.shadow_deviation < 1e-12


def test_km_halving_map():
    res = km_iterate(L1, build_map("halving"), steps=80)
    assert res.final_residual < 1e-9
    assert res.checks.residual_monotone


def test_km_shift_respects_domain_checks():
    res = km_iterate(L2, build_map("shift"), steps=64, domain=unit_ball(L2))
    assert res.checks.domain_ok is True
    assert res.checks.residual_monotone
    assert res.checks.shadow_deviation < 1e-9
    assert len(res.residuals) == 65  # one per step plus the closing residual


def test_km_weight_validation():
    with pytest.raises(ConfigurationError):
        km_iterate(L2, build_map("shift"), steps=5, weight=F(0))
    with pytest.raises(ConfigurationError):
        km_iterate(L2, build_map("shift"), steps=5, weight=F(1))


def test_km_custom_start():
    start = Vector.from_pairs([(0, F(1, 2)), (1, F(1, 2))])
    res = km_iterate(C0, build_map("halving"), steps=30, start=start)
    assert res.final_residual < 1e-4
    assert res.checks.residual_monotone


def test_build_map_validation():
    with pytest.raises(ConfigurationError):
        build_map("warp-core")


def test_verify_nonexpansive_catches_doubling():
    doubling = NonexpMapHandle("doubling", lambda v: v.scale(F(2)), lambda arr: 2.0 * arr)
    bad_pairs = verify_nonexpansive(L2, doubling, unit_ball(L2), pairs=10)
    assert bad_pairs
    for x, y in bad_pairs:
        assert x != y


def test_verify_nonexpansive_passes_registered_maps():
    for name in ("identity", "shift", "halving"):
        assert verify_nonexpansive(L2, build_map(name), unit_ball(L2), pairs=10) == []


def test_saturation_closes_or_exhausts():
    const = build_map("constant", Vector.unit(0))
    sat = invariant_set_saturate(const, [Vector.unit(5)])
    assert sat.closed and len(sat.points) == 2

    shift = build_map("shift")
    sat = invariant_set_saturate(shift, [Vector.unit(0)], max_points=16)
    assert not sat.closed and sat.exhausted
