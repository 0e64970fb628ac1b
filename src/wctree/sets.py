"""Countable dense models of norm-closed, norm-bounded sets.

A set is represented by a *selector*: a total function from naturals onto a
dense sequence in the set.  Analyses never see the abstract set, only the
selector, so every built-in model documents what its enumeration hits.

Convex built-ins (hulls, balls, the cube, the whole space) additionally
expose ``combo_index``: given indices n, m and a sixteenth q16/16, it returns
an index that is *guaranteed* to select exactly q*sel(n) + (1-q)*sel(m).
For the hull and ball models this works by interleaving a rational convex
combination stream with the base enumeration:

    selector(2j)   = base(j)
    selector(2j+1) = q*selector(n) + (1-q)*selector(m)
                     where unpair(j) = (pair(n, m), q16), q = (q16 mod 17)/16

The references n, m never exceed j, so the recursion is well founded, and
every rational 16th-grid combination of earlier points appears at a
computable odd index.  Models whose points are stable under combination
(the cube, the whole space) instead locate combinations by exact encoding.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable

from . import enumeration, spaces
from .errors import ConfigurationError, ModelIntegrityError, UnsupportedModelError
from .spaces import SpaceModel, Vector


def summing_vector(k: int) -> Vector:
    """The k-th summing-basis vector e_0 + e_1 + ... + e_{k-1}, k >= 1."""
    if k < 1:
        raise ValueError("summing vectors are indexed from 1")
    return Vector.from_ints(range(k), [1] * k)


class SetModel:
    """A bounded closed set presented by a dense selector sequence.

    Points are memoized and integrity-checked on first access: if the model
    declares a norm bound, any selected point certified to exceed it raises
    ModelIntegrityError instead of silently poisoning downstream analyses.
    """

    def __init__(
        self,
        ident: str,
        space: SpaceModel,
        kind: str,
        base: Callable[[int], Vector],
        *,
        params: dict | None = None,
        interleave: bool = False,
        bound: Fraction | None = None,
        membership: Callable[[Vector], bool | None] | None = None,
        encode: Callable[[Vector], int] | None = None,
        whole_space: bool = False,
    ):
        self.ident = ident
        self.space = space
        self.kind = kind
        self.params = dict(params or {})
        self.bound = bound
        self.whole_space = whole_space
        self._base = base
        self._interleave = interleave
        self._membership = membership
        self._encode = encode
        self._cache: dict[int, Vector] = {}

    def selector(self, index: int) -> Vector:
        if index < 0:
            raise ValueError("selector indices are naturals")
        hit = self._cache.get(index)
        if hit is not None:
            return hit
        if not self._interleave:
            point = self._base(index)
        elif index % 2 == 0:
            point = self._base(index // 2)
        else:
            inner, q16 = enumeration.unpair((index - 1) // 2)
            n, m = enumeration.unpair(inner)
            q = Fraction(q16 % 17, 16)
            point = spaces.combine([q, 1 - q], [self.selector(n), self.selector(m)])
        if self.bound is not None:
            if spaces.norm_cmp(self.space, point, self.bound) == 1:
                raise ModelIntegrityError(
                    f"model {self.ident!r}: selector({index}) exceeds bound {self.bound}"
                )
        self._cache[index] = point
        return point

    def combo_index(self, n: int, m: int, q16: int) -> int | None:
        """Index selecting exactly (q16/16)*sel(n) + (1-q16/16)*sel(m), if known."""
        if not 0 <= q16 <= 16:
            raise ValueError("q16 must lie in 0..16")
        if self._interleave:
            return 2 * enumeration.pair(enumeration.pair(n, m), q16) + 1
        if self._encode is not None:
            q = Fraction(q16, 16)
            z = spaces.combine([q, 1 - q], [self.selector(n), self.selector(m)])
            return self._encode(z)
        return None

    def exact_contains(self, v: Vector) -> bool | None:
        """Exact membership in the represented closed set, when decidable."""
        if self._membership is None:
            return None
        return self._membership(v)

    def to_json(self) -> dict:
        return {
            "id": self.ident,
            "kind": self.kind,
            "space": self.space.to_json(),
            "params": self.params,
        }

    def __repr__(self):
        return f"SetModel({self.ident!r}, kind={self.kind!r}, space={self.space.ident!r})"


# ---------------------------------------------------------------------------
# built-in models


def _simplex_normalize(v: Vector) -> Vector:
    """Map any vector onto the unit-coefficient simplex: |coords| / their sum."""
    if v.is_zero:
        return Vector.unit(0)
    nums = [abs(n) for n in v.nums]  # over v.den, which cancels
    return Vector.from_ints(v.support, nums, sum(nums))


def unit_vector_hull(space: SpaceModel, ident: str = "unit-vector-hull") -> SetModel:
    """Closed convex hull of the unit vectors e_0, e_1, ...

    Base stream: even slots walk the unit vectors themselves (so e_k sits at
    selector index 4k after interleaving), odd slots normalize the universal
    dense enumeration onto the simplex.
    """

    def base(i: int) -> Vector:
        if i % 2 == 0:
            return Vector.unit(i // 2)
        return _simplex_normalize(spaces.dense_point(i // 2))

    strict = space.kind == "lp" and space.p == 1

    def member(v: Vector) -> bool:
        if any(n < 0 for n in v.nums):
            return False
        total = sum(v.nums)  # the coefficient sum is total / v.den
        # the coefficient sum is norm-continuous only in l1; elsewhere the
        # closure fills the whole sub-simplex
        return total == v.den if strict else total <= v.den

    return SetModel(
        ident, space, "unit-vector-hull", base,
        interleave=True, bound=Fraction(1), membership=member,
    )


def summing_hull(space: SpaceModel, ident: str = "summing-hull") -> SetModel:
    """Closed convex hull of the summing vectors s_1, s_2, ...

    Even base slots list the summing vectors (s_{k+1} at selector index 4k);
    odd slots reuse the dense enumeration as a weight pattern on them.
    """

    def base(i: int) -> Vector:
        if i % 2 == 0:
            return summing_vector(i // 2 + 1)
        weights = _simplex_normalize(spaces.dense_point(i // 2))
        # sum_p w_p s_{p+1} has coordinate j equal to the sum of w_p over p >= j
        top = weights.support[-1]
        w = dict(zip(weights.support, weights.nums))
        tails = list(accumulate(w.get(j, 0) for j in range(top, -1, -1)))[::-1]
        return Vector.from_ints(range(top + 1), tails, weights.den)

    def member(v: Vector) -> bool:
        # combinations have coordinates 1 = x_0 >= x_1 >= ... >= 0 on an
        # initial segment, and coordinate evaluation survives norm limits
        if v.is_zero or v.support[0] != 0 or v.nums[0] != v.den:
            return False
        coords = dict(zip(v.support, v.nums))  # numerators over v.den
        prev = v.den
        for j in range(v.support[-1] + 1):
            c = coords.get(j, 0)
            if c < 0 or c > prev:
                return False
            prev = c
        return True

    bound = Fraction(1) if space.kind == "c0" else None
    return SetModel(
        ident, space, "summing-hull", base,
        interleave=True, bound=bound, membership=member,
    )


def dense_space(space: SpaceModel, ident: str = "dense-space") -> SetModel:
    """The whole space, enumerated by the universal dense sequence."""
    return SetModel(
        ident, space, "dense-space", spaces.dense_point,
        membership=lambda v: True, encode=spaces.dense_index, whole_space=True,
    )


def unit_ball_model(source: SetModel, ident: str = "unit-ball") -> SetModel:
    """Closed unit ball derived from a whole-space dense model by rescaling.

    Index i unpairs to (n, k); the source point v = source(n) is scaled by
    s = min(1, (1 - 2^-(k+1)) / r) where r is a certified rational upper
    bound on ||v|| (the exact norm when it is rational).  Every output lands
    strictly inside the ball and the outputs are dense there, so the model
    presents the closed ball as the closure of its open interior.
    """
    if not source.whole_space:
        raise UnsupportedModelError(
            "unit-ball rescaling needs a model marked as enumerating the whole space"
        )
    space = source.space

    def base(i: int) -> Vector:
        n, k = enumeration.unpair(i)
        v = source.selector(n)
        if v.is_zero:
            return v
        nv = spaces.norm(space, v)
        r = nv.exact if nv.exact is not None else nv.hi
        s = min(Fraction(1), (1 - Fraction(1, 2 ** (k + 1))) / r)
        return v.scale(s)

    def member(v: Vector) -> bool | None:
        cmp = spaces.norm_cmp(space, v, Fraction(1))
        return None if cmp is None else cmp <= 0

    return SetModel(
        ident, space, "unit-ball", base,
        interleave=True, bound=Fraction(1), membership=member,
        params={"source": source.kind},
    )


def unit_ball(space: SpaceModel, ident: str = "unit-ball") -> SetModel:
    return unit_ball_model(dense_space(space), ident)


def hilbert_cube(space: SpaceModel, ident: str = "hilbert-cube") -> SetModel:
    """Points with |x_j| <= 2^-(j+1); dense via clamping the universal stream.

    Clamping is idempotent and every rational point of the cube clamps to
    itself, so the enumeration hits each of them and combinations can be
    located by exact re-encoding.
    """

    def clamp(v: Vector) -> Vector:
        # a coefficient n / den beyond the cap 1 / c = 2^-(p+1) becomes +-1 / c
        caps = [2 << p for p in v.support]
        den = lcm(v.den, *(c for c, n in zip(caps, v.nums) if abs(n) * c > v.den))
        nums = [n * (den // v.den) if abs(n) * c <= v.den else (den // c if n > 0 else -(den // c))
                for c, n in zip(caps, v.nums)]
        return Vector.from_ints(v.support, nums, den)

    def base(i: int) -> Vector:
        return clamp(spaces.dense_point(i))

    def member(v: Vector) -> bool:
        return all(abs(n) * (2 << p) <= v.den for p, n in zip(v.support, v.nums))

    return SetModel(
        ident, space, "hilbert-cube", base,
        bound=Fraction(1), membership=member, encode=spaces.dense_index,
    )


def unit_vector_family(space: SpaceModel, ident: str = "unit-vector-family") -> SetModel:
    """The bare (non-convex) set {e_0, e_1, ...} of unit vectors."""

    def member(v: Vector) -> bool:
        return v.nums == (1,) and v.den == 1

    return SetModel(
        ident, space, "unit-vector-family", Vector.unit,
        bound=Fraction(1), membership=member,
    )


def explicit_list(space: SpaceModel, points: list[Vector], ident: str = "explicit-list") -> SetModel:
    """A finite set given outright; the selector cycles through the list."""
    pts = list(points)
    if not pts:
        raise ConfigurationError("explicit-list needs at least one point", "/points")
    return SetModel(
        ident, space, "explicit-list",
        lambda i: pts[i % len(pts)],
        membership=lambda v: v in pts,
        params={"points": [p.to_json() for p in pts]},
    )


_BUILDERS: dict[str, Callable[..., SetModel]] = {
    "unit-vector-hull": unit_vector_hull,
    "summing-hull": summing_hull,
    "unit-ball": unit_ball,
    "hilbert-cube": hilbert_cube,
    "unit-vector-family": unit_vector_family,
    "dense-space": dense_space,
}


def build_set(kind: str, space: SpaceModel, params: dict | None = None, ident: str | None = None) -> SetModel:
    params = params or {}
    if kind == "explicit-list":
        pts = [Vector.from_json(p) for p in params.get("points", [])]
        return explicit_list(space, pts, ident or kind)
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise ConfigurationError(f"unknown set kind {kind!r}", "/kind")
    return builder(space, ident or kind)


def set_from_json(data) -> SetModel:
    if not isinstance(data, dict):
        raise ConfigurationError("set model must be an object", "/")
    space = SpaceModel.from_json(data.get("space", {}))
    kind = str(data.get("kind"))
    return build_set(kind, space, data.get("params"), data.get("id"))

