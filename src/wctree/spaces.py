"""Sequence-space models over finitely supported rational vectors.

A point is a sparse vector with exact ``Fraction`` coefficients; a space fixes
the norm used to measure it.  Three norms have fully exact evaluation paths:
l1 and the sup norm produce rational values, and l2 exposes the exact squared
norm so comparisons can be routed through squares.  Any other rational
exponent p >= 1 is supported in bracket mode: the norm is returned as a float
together with a guaranteed error bound derived from dyadic root brackets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from . import enumeration, linalg
from .errors import ConfigurationError

BRACKET_BITS = 96
_ZERO = Fraction(0)  # shared: a Fraction is immutable


class Record:
    """A record whose fields, named in `_fields`, live in `__slots__`: for the
    records that validate, are mutable or must not be tuples (the others are
    `typing.NamedTuple`s).  Like a dataclass, it compares equal by its field
    values, prints them by name, and is unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({body})"

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), self._values()


class FrozenRecord(Record):
    """A `Record` that refuses assignment once `__init__` has filled it, and
    hashes as the tuple of its field values, like a frozen dataclass."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Vector(FrozenRecord):
    """Finitely supported rational vector: sorted (position, coefficient) pairs.

    Entries are normalized on construction: strictly increasing positions,
    no zero coefficients.  Equality therefore means identical support and
    identical coefficients.
    """

    __slots__ = ("entries", "_hash")
    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, Fraction], ...] = ()):
        prev = -1
        for pos, coeff in entries:
            if pos <= prev:
                raise ValueError("entries must have strictly increasing positions")
            if coeff == 0:
                raise ValueError("zero coefficients must not be stored")
            prev = pos
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        # hash((entries,)), computed on first use and kept on the instance
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.entries,)))
            return self._hash

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, Fraction]]) -> "Vector":
        acc: dict[int, Fraction] = {}
        for pos, coeff in pairs:
            if pos < 0:
                raise ValueError("positions are naturals")
            if not isinstance(coeff, Fraction):
                coeff = Fraction(coeff)
            acc[pos] = acc[pos] + coeff if pos in acc else coeff
        return Vector(tuple((p, c) for p, c in sorted(acc.items()) if c != 0))

    @staticmethod
    def zero() -> "Vector":
        return Vector()

    @staticmethod
    def unit(i: int) -> "Vector":
        return Vector(((i, Fraction(1)),))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)

    def coeff(self, pos: int) -> Fraction:
        for p, c in self.entries:
            if p == pos:
                return c
            if p > pos:
                break
        return _ZERO

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "Vector") -> "Vector":
        return Vector.from_pairs(self.entries + other.entries)

    def __sub__(self, other: "Vector") -> "Vector":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "Vector":
        return self.scale(Fraction(-1))

    def scale(self, factor: Fraction) -> "Vector":
        factor = Fraction(factor)
        if factor == 0:
            return Vector()
        return Vector(tuple((p, factor * c) for p, c in self.entries))

    def dot(self, other: "Vector") -> Fraction:
        """Exact inner product over the common support."""
        mine = dict(self.entries)
        return sum((mine[p] * c for p, c in other.entries if p in mine), _ZERO)

    def shift(self, offset: int = 1) -> "Vector":
        """Move every coefficient `offset` positions to the right."""
        return Vector(tuple((p + offset, c) for p, c in self.entries))

    def to_json(self) -> list[list]:
        return [[p, str(c)] for p, c in self.entries]

    @staticmethod
    def from_json(data) -> "Vector":
        try:
            return Vector.from_pairs((int(p), Fraction(str(c))) for p, c in data)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"bad vector payload: {exc}") from exc

    def __repr__(self):
        if not self.entries:
            return "Vector(0)"
        body = " + ".join(f"({c})*e{p}" for p, c in self.entries)
        return f"Vector({body})"


class SpaceModel(FrozenRecord):
    """A norm on the finitely supported rational vectors.

    kind "lp" with rational p >= 1, or "c0" for the sup norm.  The dense
    family is the universal enumeration from :mod:`wctree.enumeration` and is
    shared by every space.
    """

    __slots__ = _fields = ("ident", "kind", "p")

    def __init__(self, ident: str, kind: str, p: Fraction | None = None):
        if kind == "lp":
            if p is None or Fraction(p) < 1:
                raise ConfigurationError("lp spaces need rational p >= 1", "/p")
        elif kind == "c0":
            if p is not None:
                raise ConfigurationError("c0 takes no exponent", "/p")
        else:
            raise ConfigurationError(f"unknown space kind {kind!r}", "/kind")
        super().__init__(ident, kind, p)

    @property
    def exactness(self) -> str:
        """'rational' (l1/sup), 'square' (l2), or 'bracket' (other p)."""
        if self.kind == "c0" or self.p == 1:
            return "rational"
        if self.p == 2:
            return "square"
        return "bracket"

    def conjugate_kind(self) -> tuple[str, Fraction | None]:
        """Norm kind of the dual pairing: c0 <-> l1, lp <-> lq."""
        if self.kind == "c0":
            return "lp", Fraction(1)
        if self.p == 1:
            return "c0", None
        q = self.p / (self.p - 1)
        return "lp", q

    def to_json(self) -> dict:
        return {"id": self.ident, "kind": self.kind, "p": None if self.p is None else str(self.p)}

    @staticmethod
    def from_json(data) -> "SpaceModel":
        if not isinstance(data, dict):
            raise ConfigurationError("space must be an object", "/")
        kind = data.get("kind")
        p = data.get("p")
        try:
            pfrac = None if p is None else Fraction(str(p))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"bad exponent: {exc}", "/p") from exc
        return SpaceModel(str(data.get("id", kind)), str(kind), pfrac)


def lp_space(p) -> SpaceModel:
    p = Fraction(p)
    return SpaceModel(f"l{p}", "lp", p)


def sup_space() -> SpaceModel:
    return SpaceModel("c0", "c0", None)


L1 = lp_space(1)
L2 = lp_space(2)
C0 = sup_space()

BUILTIN_SPACES = {"l1": L1, "l2": L2, "c0": C0, "sup": C0}


class NormValue(NamedTuple):
    """A norm evaluation with a certified enclosure.

    value/error are floats for reporting; lo <= true norm <= hi always holds
    with exact rational endpoints.  When the norm itself is rational, `exact`
    is set; for l2 the exact square is set instead.
    """

    value: float
    error: float
    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None
    exact_sq: Fraction | None = None


def _enclose(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    if lo == hi:  # an exact norm needs no Fraction arithmetic
        value = float(lo)
        return value, abs(value) * 1e-15 + 1e-300
    value = float((lo + hi) / 2)
    slack = abs(value) * 1e-15 + 1e-300
    return value, float(hi - lo) / 2 + slack


def norm(space: SpaceModel, v: Vector) -> NormValue:
    """Norm of v in the given space, with a certified error bound."""
    if space.kind == "c0":
        m = max((abs(c) for _, c in v.entries), default=Fraction(0))
        val, err = _enclose(m, m)
        return NormValue(val, err, m, m, exact=m)
    p = space.p
    if p == 1:
        s = sum((abs(c) for _, c in v.entries), Fraction(0))
        val, err = _enclose(s, s)
        return NormValue(val, err, s, s, exact=s)
    if p == 2:
        sq = _square(v)
        lo = linalg.sqrt_lower(sq, BRACKET_BITS)
        hi = linalg.sqrt_upper(sq, BRACKET_BITS)
        val, err = _enclose(lo, hi)
        return NormValue(val, err, lo, hi, exact_sq=sq)
    return _bracket_norm(v, p)


def _square(v: Vector) -> Fraction:
    """The exact square of the l2 norm."""
    return sum((c * c for _, c in v.entries), _ZERO)


def _bracket_norm(v: Vector, p: Fraction) -> NormValue:
    """Sum of |c|^p via integer-root brackets, then the 1/p-th root bracket."""
    a, b = p.numerator, p.denominator
    slo = Fraction(0)
    shi = Fraction(0)
    for _, c in v.entries:
        t = abs(c) ** a
        if b == 1:
            slo += t
            shi += t
        else:
            tlo, thi = linalg.nthroot_brackets(t, b, BRACKET_BITS)
            slo += tlo
            shi += thi
    if shi == 0:
        return NormValue(0.0, 0.0, Fraction(0), Fraction(0))
    lo, _ = linalg.nthroot_brackets(slo**b, a, BRACKET_BITS)
    _, hi = linalg.nthroot_brackets(shi**b, a, BRACKET_BITS)
    val, err = _enclose(lo, hi)
    return NormValue(val, err, lo, hi)


def norm_cmp(space: SpaceModel, v: Vector, threshold: Fraction) -> int | None:
    """Certified comparison of ||v|| against a rational threshold.

    Returns -1/0/+1 when decidable; None only on the bracket path when the
    enclosure straddles the threshold.
    """
    threshold = Fraction(threshold)
    if threshold < 0:
        return 1  # norms are nonnegative
    if space.exactness == "square":
        sq, t2 = _square(v), threshold * threshold
        return (sq > t2) - (sq < t2)
    nv = norm(space, v)
    if nv.exact is not None:
        return (nv.exact > threshold) - (nv.exact < threshold)
    if nv.lo > threshold:
        return 1
    if nv.hi < threshold:
        return -1
    return None


def conjugate_norm(space: SpaceModel, v: Vector) -> NormValue:
    """Norm of v measured in the conjugate (dual pairing) norm of the space."""
    kind, q = space.conjugate_kind()
    dual = SpaceModel(f"{space.ident}*", kind, q)
    return norm(dual, v)


def pairing(f: "Functional", v: Vector) -> Fraction:
    """Exact duality pairing <f, v> over the common support."""
    return f.vec.dot(v)


class Functional(FrozenRecord):
    """A dual-space element in the conjugate-norm representation.

    `bound` is the claimed dual norm bound; construction verifies it, and
    refuses a bound that the certified conjugate norm cannot decide either way.
    """

    __slots__ = _fields = ("space", "vec", "bound")

    def __init__(self, space: SpaceModel, vec: Vector, bound: Fraction = Fraction(1)):
        cmp = _dual_norm_cmp(space, vec, Fraction(bound))
        if cmp == 1:
            raise ConfigurationError("functional exceeds its claimed dual-norm bound")
        if cmp is None:
            raise ConfigurationError("the dual-norm bound cannot be decided")
        super().__init__(space, vec, bound)

    def to_json(self) -> dict:
        return {"vector": self.vec.to_json(), "bound": str(self.bound)}


def _dual_norm_cmp(space: SpaceModel, vec: Vector, bound: Fraction) -> int | None:
    kind, q = space.conjugate_kind()
    dual = SpaceModel("_dual", kind, q)
    return norm_cmp(dual, vec, bound)


def combine(coeffs: Iterable[Fraction], vectors: Iterable[Vector]) -> Vector:
    """Exact linear combination sum(coeffs[i] * vectors[i])."""
    coeffs = list(coeffs)
    vectors = list(vectors)
    if len(coeffs) != len(vectors):
        raise ValueError("coefficient/vector length mismatch")
    pairs: list[tuple[int, Fraction]] = []
    for a, v in zip(coeffs, vectors):
        a = Fraction(a)
        if a != 0:
            pairs.extend((p, a * c) for p, c in v.entries)
    return Vector.from_pairs(pairs)


def dense_point(index: int) -> Vector:
    """The index-th vector of the documented universal enumeration.

    Index 0 is the zero vector, index 1 is e_0, and every finitely supported
    rational vector appears exactly once; see :mod:`wctree.enumeration`.
    """
    if index < 0:
        raise ValueError("enumeration indices are naturals")
    return Vector(enumeration.support_decode(index))


def dense_index(v: Vector) -> int:
    """Inverse of :func:`dense_point`."""
    return enumeration.support_encode(v.entries)
