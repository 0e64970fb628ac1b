"""Sequence-space models over finitely supported rational vectors.

A point is a sparse vector of exact rational coefficients, held as int
numerators over one positive int denominator in lowest terms (one
denominator for the whole vector, as in fraction-free elimination); a space
fixes the norm used to measure it.  Three norms have fully exact evaluation
paths: l1 and the sup norm produce rational values, and l2 exposes the exact
squared norm so comparisons can be routed through squares.  Any other
rational exponent p >= 1 is supported in bracket mode: the norm is returned
as a certified enclosure between two dyadic root brackets.  Norms, pairings,
combinations and norm comparisons are int arithmetic; a ``Fraction`` is
built only for a result, such as a norm's endpoints or a coefficient read
through ``Vector.entries``.  ``SpaceModel``, ``Functional`` and
``NormValue`` are namedtuples, the first two checked in ``__new__``; a
``NormValue`` stores the exact endpoints alone, and the floats of a report
are read from them.  ``Vector`` is a ``__slots__`` class, not a tuple, that
refuses assignment and is copied and pickled as ``Vector(entries)``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from . import enumeration, linalg
from .errors import ConfigurationError

BRACKET_BITS = 96
_ZERO, _ONE = Fraction(0), Fraction(1)  # shared: a Fraction is immutable


def as_fraction(x) -> Fraction:
    """x itself when it is a Fraction, else x converted: a Fraction is immutable."""
    return x if isinstance(x, Fraction) else Fraction(x)


class Vector:
    """Finitely supported rational vector, held as integers.

    `support` is the strictly increasing tuple of positions, `nums` the
    nonzero int numerators there, and `den` the one positive int
    denominator of them all: coefficient i is nums[i] / den.  The form is
    in lowest terms (gcd(den, *nums) == 1), so it is unique, and equality
    means identical support and identical coefficients.  Arithmetic reads
    these fields only.  `entries`, the sorted (position, coefficient) pairs,
    is the public view, built as Fractions each time it is read.
    """

    __slots__ = ("support", "nums", "den", "_hash")

    def __init__(self, entries: tuple[tuple[int, Fraction], ...] = ()):
        prev = -1
        for pos, coeff in entries:
            if pos < 0:
                raise ValueError("positions are naturals")
            if pos <= prev:
                raise ValueError("entries must have strictly increasing positions")
            if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction)):
                raise ValueError(f"coefficient {coeff!r} is neither an int nor a Fraction")
            if coeff == 0:
                raise ValueError("zero coefficients must not be stored")
            prev = pos
        den = lcm(*(c.denominator for _, c in entries))
        _init(self, tuple(p for p, _ in entries),
              tuple(c.numerator * (den // c.denominator) for _, c in entries), den)

    @property
    def entries(self) -> tuple[tuple[int, Fraction], ...]:
        den = self.den
        return tuple((p, Fraction(n, den)) for p, n in zip(self.support, self.nums))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.den == other.den and self.nums == other.nums
                and self.support == other.support)

    def __hash__(self):
        # hash of the fields, computed on first use and kept on the instance
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.support, self.nums, self.den)))
            return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through Vector(entries)
        return Vector, (self.entries,)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, Fraction]]) -> "Vector":
        """Sum the coefficients of equal positions, which may come in any order."""
        acc: dict[int, Fraction] = {}
        for pos, coeff in pairs:
            if pos < 0:
                raise ValueError("positions are naturals")
            if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction)):
                raise ValueError(f"coefficient {coeff!r} is neither an int nor a Fraction")
            acc[pos] = acc[pos] + coeff if pos in acc else coeff
        return Vector(tuple((p, c) for p, c in sorted(acc.items()) if c != 0))

    @staticmethod
    def from_ints(support: Iterable[int], nums: Iterable[int], den: int = 1) -> "Vector":
        """The vector with coefficient nums[i] / den at position support[i].

        Positions must strictly increase and den must be positive; zero
        numerators are dropped and the rest reduced to lowest terms.
        """
        support, nums = tuple(support), tuple(nums)
        if len(support) != len(nums):
            raise ValueError("support/numerator length mismatch")
        if den <= 0:
            raise ValueError("the denominator must be positive")
        if any(b <= a for a, b in zip(support, support[1:])) or (support and support[0] < 0):
            raise ValueError("positions must be strictly increasing naturals")
        return _reduced(support, nums, den)

    @staticmethod
    def zero() -> "Vector":
        return Vector()

    @staticmethod
    def unit(i: int) -> "Vector":
        return Vector(((i, _ONE),))

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other: "Vector") -> "Vector":
        return _combined([(1, 1, self), (1, 1, other)])

    def __sub__(self, other: "Vector") -> "Vector":
        return _combined([(1, 1, self), (-1, 1, other)])

    def __neg__(self) -> "Vector":
        return _of(self.support, tuple(-n for n in self.nums), self.den)

    def scale(self, factor: Fraction) -> "Vector":
        factor = as_fraction(factor)
        if factor == 0:
            return Vector()
        a, b = factor.numerator, factor.denominator
        return _reduced(self.support, tuple(a * n for n in self.nums), b * self.den)

    def int_dot(self, other: "Vector") -> int:
        """The inner product times self.den * other.den, an int."""
        mine = dict(zip(self.support, self.nums))
        return sum(mine[p] * n for p, n in zip(other.support, other.nums) if p in mine)

    def dot(self, other: "Vector") -> Fraction:
        """Exact inner product over the common support."""
        s = self.int_dot(other)
        return Fraction(s, self.den * other.den) if s else _ZERO

    def shift(self, offset: int = 1) -> "Vector":
        """Move every coefficient `offset` positions to the right."""
        return _of(tuple(p + offset for p in self.support), self.nums, self.den)

    def to_json(self) -> list[list]:
        return [[p, str(c)] for p, c in self.entries]

    @staticmethod
    def from_json(data) -> "Vector":
        """The vector of [position, coefficient] pairs; a position must be a
        JSON integer (not a boolean), a coefficient a rational or its string."""
        try:
            pairs = [(p, Fraction(str(c))) for p, c in data]
            for p, _ in pairs:
                if p.__class__ is not int:
                    raise ValueError(f"position {p!r} is not an integer")
            return Vector.from_pairs(pairs)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigurationError(f"bad vector payload: {exc}") from exc

    def __repr__(self):
        if not self.nums:
            return "Vector(0)"
        body = " + ".join(f"({c})*e{p}" for p, c in self.entries)
        return f"Vector({body})"


def _init(v: Vector, support: tuple, nums: tuple, den: int) -> None:
    object.__setattr__(v, "support", support)
    object.__setattr__(v, "nums", nums)
    object.__setattr__(v, "den", den)


def _of(support: tuple, nums: tuple, den: int) -> Vector:
    """A Vector of fields already in lowest terms, without checks."""
    v = object.__new__(Vector)
    _init(v, support, nums, den)
    return v


def _reduced(support: tuple, nums: tuple, den: int) -> Vector:
    """A Vector of sorted positions and int numerators over den > 0, with the
    zero numerators dropped and the rest in lowest terms."""
    if 0 in nums:
        kept = [(p, n) for p, n in zip(support, nums) if n]
        support, nums = tuple(p for p, _ in kept), tuple(n for _, n in kept)
    g = gcd(den, *nums)
    if g != 1:
        nums, den = tuple(n // g for n in nums), den // g
    return _of(support, nums, den)


def _combined(terms: list[tuple[int, int, Vector]]) -> Vector:
    """sum(a / b * v) over the (a, b, v) terms, b > 0, over one common denominator."""
    den = lcm(*(b * v.den for _, b, v in terms))
    acc: dict[int, int] = {}
    get = acc.get
    for a, b, v in terms:
        f = a * (den // (b * v.den))
        for p, n in zip(v.support, v.nums):
            acc[p] = get(p, 0) + f * n
    support = tuple(sorted(acc))
    return _reduced(support, tuple(acc[p] for p in support), den)


class SpaceModel(namedtuple("SpaceModel", "ident kind p")):
    """A norm on the finitely supported rational vectors.

    kind "lp" with rational p >= 1, or "c0" for the sup norm.  The dense
    family is the universal enumeration from :mod:`wctree.enumeration` and is
    shared by every space.
    """

    __slots__ = ()

    def __new__(cls, ident: str, kind: str, p: Fraction | None = None):
        if kind == "lp":
            if p is None or Fraction(p) < 1:
                raise ConfigurationError("lp spaces need rational p >= 1", "/p")
        elif kind == "c0":
            if p is not None:
                raise ConfigurationError("c0 takes no exponent", "/p")
        else:
            raise ConfigurationError(f"unknown space kind {kind!r}", "/kind")
        return super().__new__(cls, ident, kind, p)

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
            return "lp", _ONE
        if self.p == 1:
            return "c0", None
        if self.p == 2:  # self-dual
            return "lp", self.p
        return "lp", self.p / (self.p - 1)

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


class NormValue(namedtuple("NormValue", "lo hi exact exact_sq", defaults=(None, None))):
    """A norm evaluation with a certified enclosure lo <= true norm <= hi.

    The endpoints are exact rationals.  When the norm itself is rational,
    `exact` is set; for l2 the exact square is set instead (both Fraction |
    None).  The report floats `value` and `error`, the enclosure's midpoint
    and half-width, are read from lo and hi (error 0.0 for a bracket zero).
    """

    __slots__ = ()

    @property
    def value(self) -> float:
        return _enclose(self.lo, self.hi)[0]

    @property
    def error(self) -> float:
        if not self.hi and self.exact is None and self.exact_sq is None:
            return 0.0
        return _enclose(self.lo, self.hi)[1]


def _enclose(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """The midpoint and half-width of [lo, hi] as floats, from int arithmetic:
    an int quotient is correctly rounded, as float() of the Fraction is."""
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    value = (a * d + c * b) / (2 * b * d)
    slack = abs(value) * 1e-15 + 1e-300
    return value, (c * b - a * d) / (b * d) / 2 + slack


def norm(space: SpaceModel, v: Vector) -> NormValue:
    """Norm of v in the given space, with a certified error bound."""
    p = space.p
    if space.kind == "c0" or p == 1:
        s = max(map(abs, v.nums), default=0) if space.kind == "c0" else sum(map(abs, v.nums))
        exact = Fraction(s, v.den)
        return NormValue(exact, exact, exact=exact)
    if p == 2:
        sq = Fraction(_square(v), v.den * v.den)
        lo = linalg.sqrt_lower(sq, BRACKET_BITS)
        hi = linalg.sqrt_upper(sq, BRACKET_BITS)
        return NormValue(lo, hi, exact_sq=sq)
    return _bracket_norm(v, p)


def _square(v: Vector) -> int:
    """The exact square of the l2 norm, times den^2."""
    return sum(n * n for n in v.nums)


def _bracket_norm(v: Vector, p: Fraction) -> NormValue:
    """Sum of |c|^p via integer-root brackets, then the 1/p-th root bracket.

    With p = a/b, each |c|^a = |n|^a / den^a; for b > 1 its b-th root is
    bracketed on the 2^-BRACKET_BITS grid, and the brackets are summed.
    """
    if not v.nums:
        return NormValue(_ZERO, _ZERO)
    a, b = p.numerator, p.denominator
    scale = 1 << BRACKET_BITS
    if b == 1:
        slo = shi = (sum(abs(n) ** a for n in v.nums), v.den ** a)
    else:
        dpow = v.den ** a
        lo_sum = sum(linalg.int_nthroot_floor(abs(n) ** a * scale ** b // dpow, b)
                     for n in v.nums)
        slo, shi = (lo_sum, scale), (lo_sum + 2 * len(v.nums), scale)
    lo = Fraction(_root_floor(*slo, b, a), scale)
    hi = Fraction(_root_floor(*shi, b, a) + 2, scale)
    return NormValue(lo, hi)


def _root_floor(num: int, den: int, b: int, a: int) -> int:
    """floor(2^BRACKET_BITS * (num/den)^(b/a)), the lower root bracket's numerator."""
    return linalg.int_nthroot_floor(num ** b * (1 << BRACKET_BITS) ** a // den ** b, a)


def norm_cmp(space: SpaceModel, v: Vector, threshold: Fraction) -> int | None:
    """Certified comparison of ||v|| against a rational threshold.

    Returns -1/0/+1 when decidable; None only on the bracket path when the
    enclosure straddles the threshold.
    """
    return _norm_cmp(space.kind, space.p, v, as_fraction(threshold))


def _norm_cmp(kind: str, p: Fraction | None, v: Vector, t: Fraction) -> int | None:
    if t < 0:
        return 1  # norms are nonnegative
    tn, td = t.numerator, t.denominator
    if kind == "c0" or p == 1:  # ||v|| = s / den: compare s * td with tn * den
        s = max(map(abs, v.nums), default=0) if kind == "c0" else sum(map(abs, v.nums))
        lhs, rhs = s * td, tn * v.den
    elif p == 2:  # compare the squares
        lhs, rhs = _square(v) * td * td, tn * tn * v.den * v.den
    else:
        nv = _bracket_norm(v, p)
        if nv.lo > t:
            return 1
        if nv.hi < t:
            return -1
        return None
    return (lhs > rhs) - (lhs < rhs)


def conjugate_norm(space: SpaceModel, v: Vector) -> NormValue:
    """Norm of v measured in the conjugate (dual pairing) norm of the space."""
    kind, q = space.conjugate_kind()
    dual = SpaceModel(f"{space.ident}*", kind, q)
    return norm(dual, v)


def pairing(f: "Functional", v: Vector) -> Fraction:
    """Exact duality pairing <f, v> over the common support."""
    return f.vec.dot(v)


class Functional(namedtuple("Functional", "space vec bound")):
    """A dual-space element in the conjugate-norm representation.

    `bound` is the claimed dual norm bound; construction verifies it, and
    refuses a bound that the certified conjugate norm cannot decide either way.
    """

    __slots__ = ()

    def __new__(cls, space: SpaceModel, vec: Vector, bound: Fraction = _ONE):
        kind, q = space.conjugate_kind()
        cmp = _norm_cmp(kind, q, vec, as_fraction(bound))
        if cmp == 1:
            raise ConfigurationError("functional exceeds its claimed dual-norm bound")
        if cmp is None:
            raise ConfigurationError("the dual-norm bound cannot be decided")
        return super().__new__(cls, space, vec, bound)

    def to_json(self) -> dict:
        return {"vector": self.vec.to_json(), "bound": str(self.bound)}


def combine(coeffs: Iterable[Fraction], vectors: Iterable[Vector]) -> Vector:
    """Exact linear combination sum(coeffs[i] * vectors[i])."""
    coeffs = list(coeffs)
    vectors = list(vectors)
    if len(coeffs) != len(vectors):
        raise ValueError("coefficient/vector length mismatch")
    terms = []
    for a, v in zip(coeffs, vectors):
        a = as_fraction(a)
        if a != 0:
            terms.append((a.numerator, a.denominator, v))
    return _combined(terms)


def dense_point(index: int) -> Vector:
    """The index-th vector of the documented universal enumeration.

    Index 0 is the zero vector, index 1 is e_0, and every finitely supported
    rational vector appears exactly once; see :mod:`wctree.enumeration`.
    """
    if index < 0:
        raise ValueError("enumeration indices are naturals")
    return Vector(enumeration.support_decode(index))
