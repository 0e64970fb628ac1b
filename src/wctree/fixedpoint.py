"""Order-theoretic fixed points and averaged iteration of nonexpansive maps.

Two independent instruments live here.  The combinatorial one runs the
ascending-orbit argument on explicit finite posets: an expansive map is
verified, its orbit from any start is strictly ascending, and the fixed
point it stops at is certified; choosing "least strict successor" as the map
turns the same engine into a maximal-element finder.  The metric one runs
the averaged iteration x' = (1-t) x + t T(x) for registered nonexpansive
maps, tracking the residual ||x - T x||, which is non-increasing for any
fixed averaging weight in any normed space.  The first few steps are
shadowed in exact rational arithmetic and checked against the float path
and, when a domain model is supplied, against exact set membership.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

from . import spaces
from .errors import ConfigurationError, ContractViolation
from .sets import SetModel
from .spaces import SpaceModel, Vector

if TYPE_CHECKING:
    import numpy as np

Element = Hashable
SHADOW_STEPS = 12  # the first iterations `km_iterate` repeats in exact arithmetic


class FinitePoset:
    """A finite partial order, validated outright on construction."""

    def __init__(self, elements: Sequence[Element], le: Iterable[tuple[Element, Element]]):
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ConfigurationError("duplicate poset elements", "/elements")
        idx = {e: i for i, e in enumerate(self.elements)}
        self._index = idx
        rel = set()
        for a, b in le:
            if a not in idx or b not in idx:
                raise ConfigurationError(f"relation mentions unknown element {a!r} or {b!r}",
                                         "/le")
            rel.add((a, b))
        for e in self.elements:
            rel.add((e, e))
        for a, b in rel:
            if a != b and (b, a) in rel:
                raise ConfigurationError(f"antisymmetry broken on {a!r}, {b!r}", "/le")
        for a, b in rel:
            for c in self.elements:
                if (b, c) in rel and (a, c) not in rel:
                    raise ConfigurationError(
                        f"transitivity broken: {a!r} <= {b!r} <= {c!r}", "/le")
        self.le = rel
        # finite nonempty chains always contain their maximum, so the
        # chain-completeness the ascending-orbit argument needs is automatic

    @classmethod
    def from_cover(cls, elements: Sequence[Element],
                   covers: Iterable[tuple[Element, Element]]) -> "FinitePoset":
        """Build from Hasse-style cover pairs by transitive closure."""
        elements = list(elements)
        idx = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        adj = [[False] * n for _ in range(n)]
        for a, b in covers:
            if a not in idx or b not in idx:
                raise ConfigurationError(f"cover mentions unknown element {a!r} or {b!r}",
                                         "/covers")
            adj[idx[a]][idx[b]] = True
        for i in range(n):
            adj[i][i] = True
        for k in range(n):
            for i in range(n):
                if adj[i][k]:
                    row_k = adj[k]
                    row_i = adj[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        le = {(elements[i], elements[j]) for i in range(n) for j in range(n) if adj[i][j]}
        return cls(elements, le)

    def leq(self, a: Element, b: Element) -> bool:
        return (a, b) in self.le

    def strict_successors(self, a: Element) -> list[Element]:
        return [b for b in self.elements if b != a and self.leq(a, b)]

    def is_maximal(self, a: Element) -> bool:
        return not self.strict_successors(a)

    def index(self, a: Element) -> int:
        return self._index[a]


def uniformize_least(poset: FinitePoset, candidates: Iterable[Element]) -> Element:
    """Deterministic choice: the candidate listed earliest in the poset."""
    pool = list(candidates)
    if not pool:
        raise ValueError("cannot choose from an empty candidate set")
    return min(pool, key=poset.index)


def uniformize_relation(
    poset: FinitePoset,
    relation: Iterable[tuple[Element, Element]],
) -> dict[Element, Element]:
    """Thin a relation to a choice function with the same domain.

    The result maps each x that relates to something onto the least such
    partner, so its graph is a subset of the relation, it is functional by
    construction, and x is in its domain exactly when x related to anything.
    """
    pools: dict[Element, list[Element]] = {}
    for a, b in relation:
        if b not in poset._index:
            raise ConfigurationError(f"relation value {b!r} is not a poset element",
                                     "/relation")
        pools.setdefault(a, []).append(b)
    return {a: uniformize_least(poset, pool) for a, pool in pools.items()}


class AscentResult(namedtuple("AscentResult", "fixed_point orbit")):
    """The fixed point an ascent reached, and its orbit up to it."""

    __slots__ = ()

    @property
    def steps(self) -> int:
        return len(self.orbit) - 1


def zermelo_iterate(
    poset: FinitePoset,
    step: Callable[[Element], Element] | dict,
    start: Element,
) -> AscentResult:
    """Ascend x, f(x), f(f(x)), ... to the guaranteed fixed point.

    The map must be expansive (x <= f(x) everywhere); this is checked
    exactly over the whole poset before iterating, so the orbit is strictly
    ascending until it stops and can take at most |P| - 1 steps.
    """
    f = step.__getitem__ if isinstance(step, dict) else step
    if start not in poset._index:
        raise ConfigurationError(f"start {start!r} is not a poset element", "/start")
    for x in poset.elements:
        try:
            y = f(x)
        except KeyError as exc:
            raise ConfigurationError(f"map undefined on {x!r}", "/map") from exc
        if y not in poset._index:
            raise ConfigurationError(f"map leaves the poset at {x!r} -> {y!r}", "/map")
        if not poset.leq(x, y):
            raise ConfigurationError(f"map is not expansive at {x!r}: {y!r} is not above it",
                                     "/map")
    orbit = [start]
    current = start
    for _ in range(len(poset.elements)):
        nxt = f(current)
        if nxt == current:
            return AscentResult(current, tuple(orbit))
        orbit.append(nxt)
        current = nxt
    raise ContractViolation("ascending orbit failed to stabilize within |P| steps")


def maximal_via_uniformization(poset: FinitePoset) -> AscentResult:
    """Find a maximal element by ascending through least strict successors."""

    def step(x: Element) -> Element:
        succ = poset.strict_successors(x)
        return uniformize_least(poset, succ) if succ else x

    start = uniformize_least(poset, poset.elements)
    result = zermelo_iterate(poset, step, start)
    if not poset.is_maximal(result.fixed_point):
        raise ContractViolation("ascent stopped below a strict successor")
    return result


# ---------------------------------------------------------------------------
# nonexpansive maps and averaged iteration


class NonexpMapHandle(namedtuple("NonexpMapHandle", "name apply_vec apply_arr description",
                                 defaults=("",))):
    """A named nonexpansive map with exact and dense-float implementations.

    apply_vec acts on sparse rational vectors; apply_arr acts on dense float
    arrays indexed from coordinate 0 (and may lengthen them).
    """

    __slots__ = ()


def _shift_arr(arr: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.empty(arr.size + 1)
    out[0] = 0.0
    out[1:] = arr
    return out


def _constant_handle(point: Vector) -> NonexpMapHandle:
    import numpy as np

    dense = np.zeros(point.support[-1] + 1 if point.support else 0)
    for p, n in zip(point.support, point.nums):
        dense[p] = n / point.den

    def apply_arr(arr: np.ndarray) -> np.ndarray:
        out = np.zeros(max(arr.size, dense.size))
        out[: dense.size] = dense
        return out

    return NonexpMapHandle(
        "constant", lambda v: point, apply_arr,
        "sends everything to one point",
    )


MAP_REGISTRY: dict[str, Callable[[Vector], NonexpMapHandle]] = {
    "identity": lambda point: NonexpMapHandle(
        "identity", lambda v: v, lambda a: a.copy(), "leaves every point fixed"),
    "shift": lambda point: NonexpMapHandle(
        "shift", lambda v: v.shift(1), _shift_arr,
        "moves every coordinate one slot right (an isometry)"),
    "halving": lambda point: NonexpMapHandle(
        "halving", lambda v: v.scale(Fraction(1, 2)), lambda a: a / 2.0,
        "contracts toward the origin with factor 1/2"),
    "constant": _constant_handle,
}


def build_map(name: str, point: Vector | None = None) -> NonexpMapHandle:
    """The registered map `name`; only "constant" reads `point` (default 0)."""
    builder = MAP_REGISTRY.get(name)
    if builder is None:
        raise ConfigurationError(f"unknown map {name!r}", "/map")
    return builder(point if point is not None else Vector.zero())


def verify_nonexpansive(
    space: SpaceModel,
    handle: NonexpMapHandle,
    model: SetModel,
    pairs: int = 24,
) -> list[tuple[Vector, Vector]]:
    """Certified counterexamples to nonexpansiveness among enumerated pairs.

    Empty list means no enumerated pair refutes the claim (a spot check, not
    a proof).  A pair is reported only when the norm enclosures certify
    ||Tx - Ty|| > ||x - y||.
    """
    bad: list[tuple[Vector, Vector]] = []
    pts = [model.selector(i) for i in range(pairs)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            before = spaces.norm(space, pts[i] - pts[j])
            after = spaces.norm(space, handle.apply_vec(pts[i]) - handle.apply_vec(pts[j]))
            if after.lo > before.hi:
                bad.append((pts[i], pts[j]))
    return bad


def _float_norm(space: SpaceModel, arr: np.ndarray) -> float:
    import numpy as np

    if space.kind == "c0":
        return float(np.max(np.abs(arr))) if arr.size else 0.0
    p = float(space.p)
    if p == 1:
        return float(np.sum(np.abs(arr)))
    if p == 2:
        return float(np.sqrt(np.sum(arr * arr)))
    return float(np.sum(np.abs(arr) ** p) ** (1.0 / p))


class KmChecks(namedtuple("KmChecks",
                          "residual_monotone shadow_deviation shadow_steps domain_ok")):
    """The checks run on an averaged iteration (domain_ok None without a domain)."""

    __slots__ = ()


class KmResult(namedtuple("KmResult", "residuals final weight checks")):
    """residuals[n] is ||x_n - T x_n||; the last entry describes `final`."""

    __slots__ = ()

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


def km_iterate(
    space: SpaceModel,
    handle: NonexpMapHandle,
    steps: int,
    weight: Fraction = Fraction(1, 2),
    start: Vector | None = None,
    domain: SetModel | None = None,
) -> KmResult:
    """Averaged iteration x' = (1-t) x + t T(x) with residual tracking.

    Runs in dense float64 with an exact rational shadow over the first
    `SHADOW_STEPS` iterations; the shadow must agree with the float path and,
    if a domain model is given, stay inside it under exact membership.
    """
    import numpy as np

    weight = Fraction(weight)
    if not 0 < weight < 1:
        raise ConfigurationError("averaging weight must lie strictly in (0, 1)", "/weight")
    if steps < 1:
        raise ConfigurationError("need at least one step", "/steps")
    x_vec = start if start is not None else Vector.unit(0)
    arr = np.zeros(x_vec.support[-1] + 1 if x_vec.support else 1)
    for p, n in zip(x_vec.support, x_vec.nums):
        arr[p] = n / x_vec.den
    t = float(weight)

    shadow = x_vec
    shadow_dev = 0.0
    domain_ok: bool | None = None if domain is None else True
    run_shadow = min(SHADOW_STEPS, steps)

    residuals = []
    monotone = True
    for n in range(steps + 1):
        tx = handle.apply_arr(arr)
        if tx.size > arr.size:
            arr = np.pad(arr, (0, tx.size - arr.size))
        resid = _float_norm(space, arr - tx)
        if residuals and resid > residuals[-1] + 1e-9:
            monotone = False
        residuals.append(resid)
        if n == steps:  # the last residual is that of the returned point itself
            break
        arr = (1.0 - t) * arr + t * tx

        if n < run_shadow:
            shadow = spaces.combine([1 - weight, weight],
                                    [shadow, handle.apply_vec(shadow)])
            for p, n in zip(shadow.support, shadow.nums):
                ref = arr[p] if p < arr.size else 0.0
                shadow_dev = max(shadow_dev, abs(n / shadow.den - ref))
            if domain is not None and domain_ok:
                inside = domain.exact_contains(shadow)
                if inside is False:
                    domain_ok = False
    if shadow_dev > 1e-9 * max(1.0, float(np.max(np.abs(arr)))):
        raise ContractViolation(
            f"float path diverged from the exact shadow by {shadow_dev}")
    checks = KmChecks(monotone, shadow_dev, run_shadow, domain_ok)
    return KmResult(tuple(residuals), arr, t, checks)


# ---------------------------------------------------------------------------
# invariant-set saturation


class SaturationResult(namedtuple("SaturationResult", "points rounds exhausted")):
    """The orbit's points, the rounds run, and whether the budget was hit
    while new points were still appearing."""

    __slots__ = ()

    @property
    def closed(self) -> bool:
        return not self.exhausted


def invariant_set_saturate(
    handle: NonexpMapHandle,
    seeds: Iterable[Vector],
    max_points: int = 1024,
) -> SaturationResult:
    """Close a finite seed set under the map, or report the budget ran out.

    Breadth-first orbit closure: the result is the least invariant superset
    of the seeds when `exhausted` is False.
    """
    seen: dict[tuple, Vector] = {}
    frontier: list[Vector] = []
    for v in seeds:
        if v.entries not in seen:
            seen[v.entries] = v
            frontier.append(v)
    if not seen:
        raise ValueError("need at least one seed point")
    rounds = 0
    exhausted = False
    while frontier:
        rounds += 1
        nxt: list[Vector] = []
        for v in frontier:
            image = handle.apply_vec(v)
            if image.entries not in seen:
                if len(seen) >= max_points:
                    exhausted = True
                    nxt = []
                    break
                seen[image.entries] = image
                nxt.append(image)
        if exhausted:
            break
        frontier = nxt
    return SaturationResult(tuple(seen.values()), rounds, exhausted)
