"""Set models: selectors, membership, interleaved combinations."""

from fractions import Fraction

import pytest

from wctree.errors import ConfigurationError, ModelIntegrityError
from wctree.sets import (build_set, dense_space, explicit_list, hilbert_cube,
                         set_from_json, summing_hull, summing_vector, unit_ball,
                         unit_vector_family, unit_vector_hull)
from wctree.spaces import C0, L1, L2, Vector, combine, dense_point, lp_space, norm

F = Fraction


def _pair(a, b):
    """Cantor pairing, the map whose inverse the interleaved selectors unpair."""
    return (a + b) * (a + b + 1) // 2 + b


def assert_combinations_select_exactly(model, depth):
    """An interleaved model's selector(2 * pair(pair(n, m), q16) + 1) is exactly
    q*sel(n) + (1-q)*sel(m), q = q16/16, for every pair among the first `depth`
    points and every 16th from 0 to 1."""
    for n in range(depth):
        for m in range(n + 1, depth):
            for q16 in range(17):
                q = F(q16, 16)
                z = combine([q, 1 - q], [model.selector(n), model.selector(m)])
                j = 2 * _pair(_pair(n, m), q16) + 1
                assert model.selector(j) == z, (model.ident, n, m, q16)


def test_summing_vector():
    assert summing_vector(1) == Vector.unit(0)
    assert summing_vector(3).entries == ((0, F(1)), (1, F(1)), (2, F(1)))


def test_unit_vector_hull_membership_and_units():
    hull = unit_vector_hull(L1)
    # unit vectors sit at fixed enumerated slots
    for k in range(6):
        assert hull.selector(4 * k) == Vector.unit(k)
    # simplex points belong, others do not
    mid = Vector.from_pairs([(0, F(1, 2)), (3, F(1, 2))])
    assert hull.exact_contains(mid) is True
    assert hull.exact_contains(Vector.unit(0).scale(F(2))) is False
    assert hull.exact_contains(Vector.from_pairs([(0, F(-1))])) is False


def test_unit_vector_hull_interleaved_combinations_close():
    assert_combinations_select_exactly(unit_vector_hull(L1), 6)


def test_summing_hull_membership():
    sh = summing_hull(L2)
    assert sh.exact_contains(summing_vector(4)) is True
    stair = Vector.from_pairs([(0, F(1)), (1, F(1, 2))])
    assert sh.exact_contains(stair) is True
    rising = Vector.from_pairs([(0, F(1, 2)), (1, F(1))])
    assert sh.exact_contains(rising) is False
    assert_combinations_select_exactly(sh, 5)


def test_every_selected_point_is_member():
    for model in [unit_vector_hull(L1), summing_hull(L2), hilbert_cube(L2),
                  unit_vector_family(L2), unit_ball(L2)]:
        for i in range(80):
            inside = model.exact_contains(model.selector(i))
            assert inside is not False, (model.ident, i)


def test_selector_bound_is_enforced():
    from wctree.sets import SetModel
    bad = SetModel("bad", L2, lambda i: Vector.unit(0).scale(F(7)), bound=F(1))
    with pytest.raises(ModelIntegrityError):
        bad.selector(0)


def test_hilbert_cube_clamps():
    cube = hilbert_cube(L2)
    for i in range(200):
        v = cube.selector(i)
        for pos, coeff in v.entries:
            assert abs(coeff) <= F(1, 2 ** (pos + 1))
    assert cube.exact_contains(Vector.unit(0)) is False
    assert cube.exact_contains(Vector.unit(0).scale(F(1, 2))) is True


def test_unit_ball_rescales_whole_space():
    ball = unit_ball(L2)
    found_halved = False
    for i in range(400):
        v = ball.selector(i)
        nv = norm(L2, v)
        assert nv.exact_sq is None or nv.exact_sq <= 1
        if v == Vector.unit(0).scale(F(1, 2)):
            found_halved = True
    assert found_halved
    assert ball.exact_contains(Vector.unit(0)) is True
    assert ball.exact_contains(Vector.unit(0).scale(F(3, 2))) is False


def test_unit_vector_family_is_bare_units():
    fam = unit_vector_family(L2)
    for i in range(10):
        assert fam.selector(i) == Vector.unit(i)
    assert fam.exact_contains(Vector.unit(3)) is True
    mid = Vector.from_pairs([(0, F(1, 2)), (1, F(1, 2))])
    assert fam.exact_contains(mid) is False


def test_explicit_list_cycles():
    pts = [Vector.unit(0), Vector.unit(1).scale(F(1, 2))]
    model = explicit_list(C0, pts)
    assert [model.selector(i) for i in range(4)] == pts + pts


def test_build_set_registry_and_json_roundtrip():
    model = build_set("unit-vector-hull", L1)
    again = set_from_json({"kind": "unit-vector-hull", "space": {"kind": "lp", "p": "1"},
                           "params": {}})
    for i in range(32):
        assert model.selector(i) == again.selector(i)
    points = [[[0, "1/3"], [2, "-2/5"]], [[1, "3/4"]]]
    listed = set_from_json({"kind": "explicit-list", "space": {"kind": "c0"},
                            "params": {"points": points}})
    assert [listed.selector(i).to_json() for i in range(3)] == points + points[:1]
    assert listed.space == C0 and listed.exact_contains(Vector.unit(1).scale(F(3, 4)))
    with pytest.raises(ConfigurationError):
        build_set("no-such-kind", L1)


def test_dense_space_is_whole_space():
    ds = dense_space(lp_space(F(3, 2)))
    assert ds.exact_contains(Vector.from_pairs([(5, F(-7, 3))])) is True
    assert [ds.selector(i) for i in range(200)] == [dense_point(i) for i in range(200)]


def test_ball_combinations_select_exactly():
    assert_combinations_select_exactly(unit_ball(L2), 6)

