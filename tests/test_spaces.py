"""Norm evaluation, vectors, functionals, and the dense enumeration."""

import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import densify, float_norm
import wctree
from wctree.errors import ConfigurationError
from wctree.spaces import (BUILTIN_SPACES, C0, L1, L2, Functional, SpaceModel,
                           Vector, combine, conjugate_norm, dense_point,
                           lp_space, norm, norm_cmp, pairing, sup_space)

SPACES = [L1, L2, C0, lp_space(Fraction(3, 2)), lp_space(Fraction(4))]

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
vectors = st.builds(
    lambda pairs: Vector.from_pairs([(p, c) for p, c in pairs if c != 0]),
    st.lists(st.tuples(st.integers(min_value=0, max_value=12), coeffs),
             max_size=5, unique_by=lambda t: t[0]))


def test_vector_basics():
    v = Vector.from_pairs([(3, Fraction(1, 2)), (0, Fraction(-1))])
    assert v.entries == ((0, Fraction(-1)), (3, Fraction(1, 2)))
    assert v.support == (0, 3)
    assert (v + (-v)).is_zero
    assert (v - v).is_zero
    assert v.scale(Fraction(2)).entries == ((0, Fraction(-2)), (3, Fraction(1)))
    assert v.shift(2).support == (2, 5)
    assert Vector.from_json(v.to_json()) == v


def test_vector_builds_no_fraction_for_fraction_inputs_or_absent_positions(monkeypatch):
    """from_pairs builds no Fraction from Fraction coefficients, and a dot
    product over absent positions (no common one) answers with one shared
    zero; `entries` reads every coefficient, ints included, as a Fraction."""
    half, third = Fraction(1, 2), Fraction(-1, 3)
    built = []
    fraction_new = Fraction.__new__
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__",
                      lambda cls, *a, **k: built.append(a) or fraction_new(cls, *a, **k))
        v = Vector.from_pairs([(3, half), (0, third)])
        zeros = [v.dot(Vector.unit(p)) for p in (1, 2, 5)]
        assert not built, built
        w = Vector.from_pairs([(1, 2)])
    assert v.entries == ((0, third), (3, half))
    assert zeros == [0, 0, 0] and all(type(z) is Fraction for z in zeros)
    assert w.entries == ((1, Fraction(2)),) and type(w.entries[0][1]) is Fraction


def test_norms_and_pairings_build_one_fraction_each(monkeypatch):
    """A vector holds int numerators over one denominator, so a norm or a
    pairing builds a Fraction only for its result: one for an l1 or sup norm
    and for `dot`, three for an l2 norm (its exact square and the two root
    brackets of NormValue), and none for a combination or an exact
    comparison."""
    v = Vector.from_pairs([(0, Fraction(3, 4)), (2, Fraction(-5, 6)), (7, Fraction(1, 9))])
    w = Vector.from_pairs([(2, Fraction(2, 3)), (7, Fraction(-3)), (9, Fraction(1, 2))])
    half, threshold = Fraction(1, 2), Fraction(7, 5)
    built = []
    fraction_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *a, **k: built.append(a) or fraction_new(cls, *a, **k))

    def builds(call) -> int:
        built.clear()
        call()
        return len(built)

    assert builds(lambda: norm(L1, v)) <= 1
    assert builds(lambda: norm(C0, v)) <= 1
    assert builds(lambda: norm(L2, v)) <= 3
    assert builds(lambda: v.dot(w)) <= 1
    for call in (lambda: combine([half, threshold], [v, w]), lambda: v + w, lambda: v - w,
                 lambda: -v, lambda: v.scale(half), lambda: v.shift(2), lambda: v == w,
                 lambda: [norm_cmp(space, v, threshold) for space in (L1, C0, L2)]):
        assert builds(call) == 0


def test_vector_refuses_coefficients_that_are_not_ints_or_fractions():
    """A float would pass through the norms unconverted and be reported as an
    exact value, so only ints and Fractions are coefficients."""
    for bad in (0.5, 2.0, "1/2", Decimal("0.5")):
        with pytest.raises(ValueError, match="neither an int nor a Fraction"):
            Vector(((0, bad),))
        with pytest.raises(ValueError, match="neither an int nor a Fraction"):
            Vector.from_pairs([(0, bad)])
    assert Vector(((0, 2),)) == Vector.from_pairs([(0, Fraction(2))])


def test_accepted_vectors_round_trip_through_json_and_bad_entries_are_refused():
    """`to_json` writes each coefficient with str(), so a bool coefficient,
    an int to isinstance, would be written as "True", which `from_json`
    refuses; both constructors refuse bools, and name a negative position as
    such rather than as out of order.  The checks raise, so they hold under
    `python -O` too."""
    for entries in ((), ((0, 1),), ((0, Fraction(-3, 4)), (7, 2)), ((2, Fraction(5, 3)),)):
        v = Vector(entries)
        assert Vector.from_json(v.to_json()) == v
        assert Vector.from_json(Vector.from_pairs(entries).to_json()) == v
    for bad in (True, False):
        with pytest.raises(ValueError, match="neither an int nor a Fraction"):
            Vector(((0, bad),))
        with pytest.raises(ValueError, match="neither an int nor a Fraction"):
            Vector.from_pairs([(0, bad)])
    for make in (Vector, Vector.from_pairs):
        with pytest.raises(ValueError, match="positions are naturals"):
            make(((-1, 1),))
        with pytest.raises(ValueError, match="positions are naturals"):
            make(((-2, 1), (-1, 1)))


def test_from_ints_reduces_to_lowest_terms():
    v = Vector.from_ints([1, 4, 6], [6, 0, -9], 12)
    assert (v.support, v.nums, v.den) == ((1, 6), (2, -3), 4)
    assert v == Vector.from_pairs([(1, Fraction(1, 2)), (6, Fraction(-3, 4))])
    assert Vector.from_ints([], [], 5) == Vector() and Vector().den == 1
    for support, nums, den in (([1, 1], [1, 1], 1), ([2, 1], [1, 1], 1), ([0], [1], 0),
                               ([0], [1, 2], 1), ([-1], [1], 1)):
        with pytest.raises(ValueError):
            Vector.from_ints(support, nums, den)


# a thousand seeded vectors, each against the Fraction reference; the check
# prints its failures rather than asserting, so that it also runs under `-O`
DIFFERENTIAL_CHECK = """
import random
from fractions import Fraction as F
from oracles import RefVector, ref_combine, ref_norm
from wctree.spaces import C0, L1, L2, Vector, combine, lp_space, norm, norm_cmp

rng = random.Random(21)
SPACES = [L1, C0, L2, lp_space(F(3, 2)), lp_space(F(3))]
failures = []

def check(ok, what):
    if not ok:
        failures.append(what)

def rational(num, den):
    return F(rng.randint(-num, num), rng.randint(1, den))

def ref_cmp(space, r, t):
    if t < 0:
        return 1
    if space.exactness == "square":
        sq = ref_norm(space, r).exact_sq
        return (sq > t * t) - (sq < t * t)
    nv = ref_norm(space, r)
    if nv.exact is not None:
        return (nv.exact > t) - (nv.exact < t)
    return 1 if nv.lo > t else -1 if nv.hi < t else None

try:
    Vector(((0, 0.5),))
    failures.append("a float coefficient was accepted")
except ValueError:
    pass
prev = prev_ref = None
for i in range(1000):
    # repeated positions are summed, and some sums cancel
    pairs = [(rng.randint(0, 12), rational(30, 40)) for _ in range(rng.randint(0, 7))]
    v, r = Vector.from_pairs(pairs), RefVector.from_pairs(pairs)
    check(v.entries == r.entries, ("from_pairs", i))
    check(hash(v) == hash((v.support, v.nums, v.den)), ("hash", i))
    twin = Vector(r.entries)
    check(twin == v and hash(twin) == hash(v) and twin.entries == r.entries, ("rebuild", i))
    for space in SPACES:
        check(norm(space, v) == ref_norm(space, r), ("norm", space.ident, i))
        for t in (rational(6, 5), ref_norm(space, r).hi):
            check(norm_cmp(space, v, t) == ref_cmp(space, r, t), ("norm_cmp", space.ident, i))
    t = rational(9, 9)
    check(v.scale(t).entries == r.scale(t).entries, ("scale", i))
    if t:
        check(v.scale(t).scale(1 / t) == v, ("scale back", i))
    check(v.shift(3).entries == r.shift(3).entries, ("shift", i))
    check((-v).entries == r.scale(-1).entries, ("neg", i))
    if prev is not None:
        a, b = rational(5, 7), rational(5, 7)
        check(v.dot(prev) == r.dot(prev_ref), ("dot", i))
        check(combine([a, b], [v, prev]).entries
              == ref_combine([a, b], [r, prev_ref]).entries, ("combine", i))
        check((v + prev).entries == ref_combine([1, 1], [r, prev_ref]).entries, ("add", i))
        check((v - prev).entries == ref_combine([1, -1], [r, prev_ref]).entries, ("sub", i))
        check((v == prev) == (r.entries == prev_ref.entries), ("equality", i))
    # every third vector is followed by itself, built from its pairs reversed
    prev, prev_ref = (v, r) if i % 3 else (Vector.from_pairs(pairs[::-1]), r)
print(failures or "ok")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_vector_matches_the_fraction_reference(flags):
    """Norms (l1, sup, the l2 square and brackets, lp:3/2 and lp:3 brackets,
    their floats included), norm comparisons, `dot`, `combine`, `scale`,
    `shift`, `from_pairs`, equality and hash of the int form agree with
    `oracles.RefVector`, the Fraction form it replaced."""
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(wctree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", DIFFERENTIAL_CHECK],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "ok"


# one vector built four ways; the check prints its verdict rather than
# asserting, so that it also runs under `python -O`
EQUAL_VECTORS_CHECK = """
from fractions import Fraction as F
from wctree.spaces import Vector, combine
vs = [Vector.from_pairs([(3, 2), (0, F(1, 2)), (5, 1), (5, -1)]),
      Vector.from_pairs([(0, 1), (3, 4)]).scale(F(1, 2)),
      combine([F(1, 2), F(2)], [Vector.unit(0), Vector.unit(3)]),
      Vector.from_json([[0, "1/2"], [3, "2/1"]])]
print(all(v == vs[0] for v in vs)
      and len({hash(v) for v in vs}) == 1
      and all(hash(v) == hash((v.support, v.nums, v.den)) for v in vs)
      and len(dict.fromkeys(vs)) == 1 and len(frozenset(vs)) == 1
      and len({vs[0]: 0, Vector.unit(0): 1}) == 2)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_equal_vectors_share_one_hash_and_one_slot(flags):
    """Equal vectors from `from_pairs`, `scale`, `combine` and `from_json`
    hash alike, to the hash of their int fields `(support, nums, den)`, and
    take one slot in a dict and in a frozenset."""
    src = str(Path(wctree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", EQUAL_VECTORS_CHECK],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "True"


def test_vector_hashes_its_entries_once(monkeypatch):
    v = Vector.from_pairs([(0, Fraction(1, 3)), (4, Fraction(-2, 7))])
    hashed = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda c: hashed.append(c) or real(c))
    assert len({hash(v), hash(v), hash(v)}) == 1 and len(hashed) == 0
    assert {v: 1}[Vector(v.entries)] == 1 and len(hashed) == 0
    object.__setattr__(v, "_hash", 12345)  # the first hash is kept and served
    assert hash(v) == 12345


def test_vector_rejects_zero_entries_silently():
    v = Vector.from_pairs([(0, Fraction(0)), (1, Fraction(1))])
    assert v.support == (1,)


def test_exactness_by_space():
    assert L1.exactness == "rational"
    assert C0.exactness == "rational"
    assert L2.exactness == "square"
    assert lp_space(Fraction(3, 2)).exactness == "bracket"


def test_norm_exact_values():
    v = Vector.from_pairs([(0, Fraction(3, 4)), (2, Fraction(-1, 4))])
    assert norm(L1, v).exact == Fraction(1)
    assert norm(C0, v).exact == Fraction(3, 4)
    nv = norm(L2, v)
    assert nv.exact is None and nv.exact_sq == Fraction(10, 16)
    assert nv.lo <= nv.hi
    assert nv.lo ** 2 <= Fraction(10, 16) <= nv.hi ** 2


@settings(max_examples=120)
@given(vectors, vectors)
def test_triangle_inequality_certified(u, v):
    for space in SPACES:
        lhs = norm(space, u + v)
        rhs_u, rhs_v = norm(space, u), norm(space, v)
        # certified enclosures must not contradict the triangle inequality
        assert lhs.lo <= rhs_u.hi + rhs_v.hi + Fraction(1, 2**40)


@settings(max_examples=120)
@given(vectors, st.fractions(min_value=-3, max_value=3, max_denominator=8))
def test_homogeneity_certified(v, t):
    for space in SPACES:
        scaled = norm(space, v.scale(t))
        base = norm(space, v)
        lo = abs(t) * base.lo
        hi = abs(t) * base.hi
        assert scaled.lo <= hi + Fraction(1, 2**40)
        assert scaled.hi >= lo - Fraction(1, 2**40)
        if base.exact is not None:
            assert scaled.exact == abs(t) * base.exact


def test_norm_against_float_oracle():
    rng = random.Random(5)
    for _ in range(250):
        entries = [(rng.randint(0, 9), Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
                   for _ in range(rng.randint(0, 5))]
        v = Vector.from_pairs([(p, c) for p, c in dict(entries).items() if c != 0])
        for space in SPACES:
            ref = float_norm(space.kind, space.p, densify([v]))[0] if v.entries else 0.0
            nv = norm(space, v)
            assert float(nv.lo) <= ref + 1e-9
            assert float(nv.hi) >= ref - 1e-9
            assert nv.hi - nv.lo <= Fraction(1, 2**40)


def test_norm_cmp_decides_exactly():
    v = Vector.from_pairs([(0, Fraction(1)), (1, Fraction(1))])
    assert norm_cmp(L1, v, Fraction(2)) == 0
    assert norm_cmp(L1, v, Fraction(3)) == -1
    assert norm_cmp(C0, v, Fraction(1, 2)) == 1
    # l2 norm is sqrt(2); comparison happens on squares, hence exact
    assert norm_cmp(L2, v, Fraction(3, 2)) == -1
    assert norm_cmp(L2, v, Fraction(7, 5)) == 1
    # on l2 it is the comparison of norm(...).exact_sq with the threshold's
    # square, exact ties included, and 1 below a zero threshold
    rng = random.Random(31)
    outcomes = {-1: 0, 0: 0, 1: 0}
    for _ in range(600):
        if rng.random() < 0.4:  # a scaled Pythagorean vector has a rational norm
            a, b, c = rng.choice([(3, 4, 5), (5, 12, 13), (8, 15, 17)])
            t = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 5))
            p, q = rng.sample(range(6), 2)
            v = Vector.from_pairs([(p, a * t), (q, -b * t)])
            thresholds = [c * abs(t), c * abs(t) + Fraction(1, 97), c * abs(t) - Fraction(1, 97)]
        else:
            v = Vector.from_pairs((p, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                                  for p in rng.sample(range(6), rng.randint(0, 4)))
            thresholds = [Fraction(rng.randint(-3, 12), rng.randint(1, 4)), Fraction(0)]
        sq = norm(L2, v).exact_sq
        for t in thresholds:
            want = 1 if t < 0 else (sq > t * t) - (sq < t * t)
            assert norm_cmp(L2, v, t) == want, (v, t)
            outcomes[want] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_space_parsing_and_conjugates():
    assert BUILTIN_SPACES["l1"].conjugate_kind() == ("c0", None)
    assert BUILTIN_SPACES["sup"].conjugate_kind() == ("lp", Fraction(1))
    assert L2.conjugate_kind() == ("lp", Fraction(2))
    assert lp_space(Fraction(3)).conjugate_kind() == ("lp", Fraction(3, 2))
    with pytest.raises(ConfigurationError):
        lp_space(Fraction(1, 2))


def test_pairing_and_hoelder():
    rng = random.Random(9)
    for _ in range(200):
        u = Vector.from_pairs([(i, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                               for i in rng.sample(range(8), rng.randint(1, 4))])
        v = Vector.from_pairs([(i, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                               for i in rng.sample(range(8), rng.randint(1, 4))])
        val = sum(c * dict(v.entries).get(i, 0) for i, c in u.entries)
        assert u.dot(v) == v.dot(u) == val
        for space in (L1, L2, C0):
            bound = conjugate_norm(space, u).hi * norm(space, v).hi
            assert abs(val) <= bound + Fraction(1, 2**30)


def test_functional_validates_claimed_bound():
    g = Vector.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    f = Functional(L2, g, Fraction(1))  # dual l2 norm is sqrt(1/2) <= 1
    with pytest.raises(ConfigurationError):
        Functional(L2, g, Fraction(1, 2))  # sqrt(1/2) > 1/2
    assert pairing(f, Vector.unit(0)) == Fraction(1, 2)
    assert pairing(f, Vector.unit(0) + Vector.unit(1)) == Fraction(1)
    # dual of sup is summable: exactly 1 here, so the bound is tight
    Functional(C0, g, Fraction(1))
    with pytest.raises(ConfigurationError):
        Functional(C0, g, Fraction(99, 100))


def test_functional_refuses_a_bound_it_cannot_decide():
    """The dual of l3/2 is l3, whose bracket of ||e_0|| = 1 straddles the bound 1."""
    space = lp_space(Fraction(3, 2))
    with pytest.raises(ConfigurationError, match="cannot be decided"):
        Functional(space, Vector.unit(0), Fraction(1))
    Functional(space, Vector.unit(0).scale(Fraction(1, 2)), Fraction(1))
    with pytest.raises(ConfigurationError, match="exceeds"):
        Functional(space, Vector.unit(0) + Vector.unit(1), Fraction(1))


def test_dense_enumeration_bijection():
    seen = {}
    for n in range(4000):
        v = dense_point(n)
        assert v not in seen
        seen[v] = n
    assert dense_point(0) == Vector.zero()
    assert dense_point(1) == Vector.unit(0)


def test_combine():
    vs = [Vector.unit(0), Vector.unit(1)]
    w = combine([Fraction(1, 3), Fraction(2, 3)], vs)
    assert w.entries == ((0, Fraction(1, 3)), (1, Fraction(2, 3)))
