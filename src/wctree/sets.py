"""Countable dense models of norm-closed, norm-bounded sets.

A set is represented by a *selector*: a total function from naturals onto a
dense sequence in the set.  Analyses never see the abstract set, only the
selector, so every built-in model documents what its enumeration hits.

The hull and ball models interleave a rational convex combination stream
with their base enumeration:

    selector(2j)   = base(j)
    selector(2j+1) = q*selector(n) + (1-q)*selector(m)
                     where unpair(j) = (c, q16), unpair(c) = (n, m),
                     q = (q16 mod 17)/16

with `unpair` the inverse Cantor pairing of :mod:`wctree.enumeration`.  The
references n, m never exceed j, so the recursion is well founded, and every
16th-grid combination q*sel(n) + (1-q)*sel(m), 0 <= q <= 1, is selected at
the odd index 2*pair(pair(n, m), 16q) + 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable

from . import enumeration, spaces
from .errors import ConfigurationError, ModelIntegrityError
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
        base: Callable[[int], Vector],
        *,
        interleave: bool = False,
        bound: Fraction | None = None,
        membership: Callable[[Vector], bool | None] | None = None,
    ):
        self.ident = ident
        self.space = space
        self.bound = bound
        self._base = base
        self._interleave = interleave
        self._membership = membership
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

    def exact_contains(self, v: Vector) -> bool | None:
        """Exact membership in the represented closed set, when decidable."""
        if self._membership is None:
            return None
        return self._membership(v)

    def __repr__(self):
        return f"SetModel({self.ident!r}, space={self.space.ident!r})"


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
        ident, space, base,
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
        ident, space, base,
        interleave=True, bound=bound, membership=member,
    )


def dense_space(space: SpaceModel, ident: str = "dense-space") -> SetModel:
    """The whole space, enumerated by the universal dense sequence."""
    return SetModel(
        ident, space, spaces.dense_point,
        membership=lambda v: True,
    )


def unit_ball(space: SpaceModel, ident: str = "unit-ball") -> SetModel:
    """Closed unit ball, from the universal dense sequence by rescaling.

    Index i unpairs to (n, k); the dense point v = dense_point(n) is scaled by
    s = min(1, (1 - 2^-(k+1)) / r) where r is a certified rational upper
    bound on ||v|| (the exact norm when it is rational).  Every output lands
    strictly inside the ball and the outputs are dense there, so the model
    presents the closed ball as the closure of its open interior.
    """

    def base(i: int) -> Vector:
        n, k = enumeration.unpair(i)
        v = spaces.dense_point(n)
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
        ident, space, base,
        interleave=True, bound=Fraction(1), membership=member,
    )


def hilbert_cube(space: SpaceModel, ident: str = "hilbert-cube") -> SetModel:
    """Points with |x_j| <= 2^-(j+1); dense via clamping the universal stream.

    Clamping is idempotent and every rational point of the cube clamps to
    itself, so the enumeration hits each of them, combinations included.
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
        ident, space, base,
        bound=Fraction(1), membership=member,
    )


def unit_vector_family(space: SpaceModel, ident: str = "unit-vector-family") -> SetModel:
    """The bare (non-convex) set {e_0, e_1, ...} of unit vectors."""

    def member(v: Vector) -> bool:
        return v.nums == (1,) and v.den == 1

    return SetModel(
        ident, space, Vector.unit,
        bound=Fraction(1), membership=member,
    )


def explicit_list(space: SpaceModel, points: list[Vector], ident: str = "explicit-list") -> SetModel:
    """A finite set given outright; the selector cycles through the list."""
    pts = list(points)
    if not pts:
        raise ConfigurationError("explicit-list needs at least one point", "/params/points")
    return SetModel(
        ident, space, lambda i: pts[i % len(pts)],
        membership=lambda v: v in pts,
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
    if kind == "explicit-list":
        if not isinstance(params, dict | None):
            raise ConfigurationError("set parameters must be an object", "/params")
        points = (params or {}).get("points", [])
        if not isinstance(points, list):
            raise ConfigurationError("points must be a list", "/params/points")
        pts = []
        for n, point in enumerate(points):
            try:
                pts.append(Vector.from_json(point))
            except ConfigurationError as exc:
                raise ConfigurationError(str(exc), f"/params/points/{n}") from exc
        return explicit_list(space, pts, ident or kind)
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise ConfigurationError(f"unknown set kind {kind!r}", "/kind")
    if params not in (None, {}):
        raise ConfigurationError(f"{kind} takes no parameters", "/params")
    return builder(space, ident or kind)


def set_from_json(data) -> SetModel:
    if not isinstance(data, dict):
        raise ConfigurationError("set model must be an object", "/")
    try:
        space = SpaceModel.from_json(data.get("space", {}))
    except ConfigurationError as exc:  # its pointer is relative to the space object
        raise ConfigurationError(str(exc).removeprefix(f"{exc.pointer}: "),
                                 "/space" + exc.pointer.rstrip("/")) from exc
    kind = str(data.get("kind"))
    return build_set(kind, space, data.get("params"), data.get("id"))

