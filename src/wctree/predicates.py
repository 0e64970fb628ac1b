"""Decision procedures for the two node predicates and their certificates.

Both predicates reduce to optimization over finitely many rational vectors:

* summing-basis domination asks whether every simplex combination of the
  node's vectors has norm at least eps — a convex minimum over the simplex;
* the M-Schauder test asks whether every prefix of the node, under every
  coefficient pattern, stays within factor M of the full combination — a
  maximum of norm ratios, i.e. the basis constant of the finite sequence.

For l1 and the sup norm both problems are polyhedral: a minimum is a vertex
that a sign functional certifies, else a rational LP's value and duals; for
l2 they are quadratic and solved on one integer Gram matrix Q = D^2 G that
clears the denominators D of the node: the minimum in closed form when Q is
diagonal, else by Wolfe's min-norm-point method, and the constant by PSD
tests.  Every minimum passes the same exact checks of its certificate.
Remaining exponents run in bracket mode: certified lower bounds come from
exactly solvable comparison norms, each solved only when its norm at the
uniform combination could raise the best one so far; upper bounds (computed
only when the lower bound does not decide) from exact evaluation at rational
points that a float descent over the nonzero coefficients finds, stopped by
its Frank-Wolfe gap; and verdicts degrade to "inconclusive" when the
enclosure straddles the threshold.  A domination verdict depends on the
set of the vectors alone, up to the order of a failing witness's weights
(`reordered`), so a `trees.WcTree` asks for it once per set.  A sampled
probe can certify failure but never success.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction
from math import isqrt

from . import linalg, lp, spaces
from .errors import ConfigurationError, ContractViolation
from .spaces import Functional, SpaceModel, Vector

POLYHEDRAL_BUDGET = 250_000
MARGIN_GRID_BITS = 12  # basis constants are bracketed on the 2^-12 grid
FW_GAP_STOP = 2.0 ** -40  # a descent ends once its Frank-Wolfe gap is this share of f

_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)  # shared: immutable

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class Verdict3(namedtuple("Verdict3", "kind margin exact_margin witness detail",
                          defaults=(None, None, None, ""))):
    """Three-valued decision with a signed slack and supporting evidence.

    margin is the certified slack of the decision in the direction of the
    verdict (how far above eps the minimum sits, how much room is left under
    M), a float, with exact_margin its Fraction; None when the path taken
    does not quantify it.
    """

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.kind == HOLDS

    @property
    def fails(self) -> bool:
        return self.kind == FAILS

    @property
    def inconclusive(self) -> bool:
        return self.kind == INCONCLUSIVE


class SimplexWitness(namedtuple("SimplexWitness", "weights combo norm")):
    """Simplex weights (Fractions), the `Vector` they combine to, and its norm."""

    __slots__ = ()


class DualCertificate(namedtuple("DualCertificate", "functional lower_bound gap")):
    """Functional of dual norm <= 1 with <g, x_n> >= lower_bound for all n.

    Pairing any simplex combination against g shows its norm is at least
    lower_bound, so the certificate is checkable without re-optimizing.
    """

    __slots__ = ()


class SimplexMinResult(namedtuple("SimplexMinResult",
                                  "lo hi witness method exact exact_sq certificate",
                                  defaults=(None, None, None))):
    """A certified enclosure lo <= min <= hi, its `SimplexWitness`, and the
    method ("exact-lp" | "exact-qp" | "bracket"); an exact path also sets
    `exact` (l1, sup) or `exact_sq` (l2) and a `DualCertificate`."""

    __slots__ = ()


class SimplexMemo(dict):
    """A simplex-minimum memo that also keeps, in `holder`, the upper end of
    the Holder factor of every (p, support size) its bracket lower ends meet."""

    __slots__ = ("holder",)

    def __init__(self):
        super().__init__()
        self.holder: dict[tuple[Fraction, int], Fraction] = {}


def simplex_min_norm(space: SpaceModel, vectors: list[Vector] | tuple[Vector, ...],
                     memo: SimplexMemo | None = None) -> SimplexMinResult:
    """Certified minimum of ||sum a_n x_n|| over the probability simplex.

    `memo` is a `SimplexMemo` that the caller owns and passes to every call
    it wants to share results; a `WcTree` keeps one for its lifetime.  The
    minimum depends on the set of distinct vectors alone, so one entry
    serves every order and every repetition of them: it solves the distinct
    vectors in the order first seen, and each call gets the witness weights
    in its own order (`reordered`).  A bracket minimum whose upper end
    `is_eps_dominating` has not needed yet sits in the memo as its lower end
    alone; the first call here fills in the upper end.  Without a memo the
    call uses one of its own, so it is a plain solve.
    """
    vs = tuple(vectors)
    if not vs:
        raise ValueError("simplex minimum needs at least one vector")
    memo = SimplexMemo() if memo is None else memo
    return _served(space, vs, memo, *_memo_entry(space, vs, memo, _simplex_min_solve))


def _memo_entry(space: SpaceModel, vs: tuple[Vector, ...], memo: SimplexMemo,
                start) -> tuple:
    """The memo key of vs, its set of distinct vectors, and the entry there:
    those vectors in first-seen order and what `start` solved for them."""
    key = (space.kind, space.p, frozenset(vs))
    if key not in memo:
        distinct = tuple(dict.fromkeys(vs))
        memo[key] = (distinct, start(space, distinct, memo))
    return key, *memo[key]


def _served(space: SpaceModel, vs: tuple[Vector, ...], memo: SimplexMemo, key: tuple,
            solved: tuple[Vector, ...], known) -> SimplexMinResult:
    """The minimum for vs from its memo entry, filling in a lone lower end first."""
    if isinstance(known, Fraction):
        known = _simplex_min_bracket_upper(space, solved, known)
        memo[key] = (solved, known)
    if solved == vs:
        return known
    return known._replace(witness=reordered(known.witness, solved, vs))


def _simplex_min_solve(space: SpaceModel, vs: tuple[Vector, ...],
                       memo: SimplexMemo) -> SimplexMinResult:
    if space.exactness == "rational":
        return _simplex_min_polyhedral(space, vs)
    if space.exactness == "square":
        return _simplex_min_qp(space, vs)
    return _simplex_min_bracket_upper(space, vs, _simplex_min_bracket_lower(space, vs, memo))


def reordered(witness: SimplexWitness, solved: tuple[Vector, ...],
              vs: tuple[Vector, ...]) -> SimplexWitness:
    """`witness`, found for the distinct vectors `solved`, with its weights
    moved to the order of vs: each on its first occurrence there, 0 on every
    copy.  The combination and its norm stay as they are."""
    pop = dict(zip(solved, witness.weights))
    return witness._replace(weights=tuple(pop.pop(v, _ZERO) for v in vs))


def _coordinate_rows(vectors: tuple[Vector, ...]) -> list[int]:
    rows: set[int] = set()
    for v in vectors:
        rows.update(v.support)
    return sorted(rows)


def _matrix(vectors: tuple[Vector, ...], rows: list[int]) -> tuple[list[list[int]], int]:
    """(D A, D): the columns of A are the vectors on the coordinates `rows`,
    and D, the lcm of their denominators, makes D A an int matrix."""
    d = math.lcm(*(v.den for v in vectors))
    at = {r: j for j, r in enumerate(rows)}
    mat = [[0] * len(vectors) for _ in rows]
    for n, v in enumerate(vectors):
        f = d // v.den
        for p, x in zip(v.support, v.nums):
            mat[at[p]][n] = x * f
    return mat, d


def _simplex_min_polyhedral(space: SpaceModel, vs: tuple[Vector, ...]) -> SimplexMinResult:
    """Exact l1 / sup minimum from `_vertex_minimum`, else `_lp_minimum`.

    Either way, exact checks prove the value is the minimum: the witness has
    norm value, g lies in the dual unit ball, and <g, x_n> >= value for
    every n (strong duality is checked, not assumed).
    """
    weights, value, g = _vertex_minimum(space, vs) or _lp_minimum(space, vs)
    combo = spaces.combine(weights, vs)
    nv = spaces.norm(space, combo)
    if nv.exact != value:
        raise ContractViolation(
            f"simplex minimum {value} disagrees with the witness norm {nv.exact}"
        )
    try:
        functional = Functional(space, g, _ONE)
    except ConfigurationError as exc:
        raise ContractViolation("the certificate leaves the dual unit ball", g) from exc
    vn, vd = value.numerator, value.denominator
    for x in vs:
        if g.int_dot(x) * vd < vn * g.den * x.den:  # <g, x> < value
            raise ContractViolation(
                f"duality gap in exact arithmetic: <g, x> < primal {value}", x
            )
    cert = DualCertificate(functional, value, _ZERO)
    witness = SimplexWitness(weights, combo, nv)
    return SimplexMinResult(value, value, witness, "exact-lp", exact=value, certificate=cert)


def _vertex_minimum(space: SpaceModel, vs: tuple[Vector, ...]) -> tuple | None:
    """(weights, value, g) at the least-norm vertex x_i, lowest index first,
    if a sign functional g has <g, x_n> >= ||x_i|| for all n; else None.

    In l1, g is sign(x_i) on the support of x_i and, off it, the common sign
    of each coordinate's nonzeros where they agree, 0 elsewhere; in sup, g is
    sign(x_ij) e_j at a j with |x_ij| = ||x_i||, or 0 when x_i = 0.

    Norms and pairings are compared as int numerators over each vector's
    denominator: ||x_n|| = sizes[n] / x_n.den.
    """
    sup = space.kind == "c0"
    sizes = [max(map(abs, v.nums), default=0) if sup else sum(map(abs, v.nums)) for v in vs]
    i = 0
    for n in range(1, len(vs)):
        if sizes[n] * vs[i].den < sizes[i] * vs[n].den:
            i = n
    x, size = vs[i], sizes[i]
    if sup:
        tries = [{p: 1 if c > 0 else -1}
                 for p, c in zip(x.support, x.nums) if abs(c) == size] or [{}]
    else:
        signs: dict[int, int] = {}
        for v in vs:
            for p, c in zip(v.support, v.nums):
                s = 1 if c > 0 else -1
                signs[p] = s if signs.get(p, s) == s else 0
        signs.update((p, 1 if c > 0 else -1) for p, c in zip(x.support, x.nums))
        tries = [signs]
    for g in tries:
        if all(sum(c if g[p] > 0 else -c for p, c in zip(v.support, v.nums) if g.get(p)) * x.den
               >= size * v.den for v in vs):
            weights = tuple(_ONE if n == i else _ZERO for n in range(len(vs)))
            support = sorted(p for p, s in g.items() if s)
            g_vec = Vector.from_ints(support, [g[p] for p in support])
            return weights, Fraction(size, x.den), g_vec
    return None


def _lp_minimum(space: SpaceModel, vs: tuple[Vector, ...]) -> tuple:
    """(weights, value, g) from one rational LP: the optimal duals y+-_j of the
    two rows +-(A a)_j - t <= 0 of coordinate j give g_j = y-_j - y+_j."""
    m = len(vs)
    rows = _coordinate_rows(vs)
    r = len(rows)
    sup = space.kind == "c0"

    # primal: variables a_1..a_m, then t (one per row for l1, single for sup).
    # The rows +-(A a)_j - t <= 0 of coordinate j are scaled by the lcm d_j of
    # the denominators of (A a)_j, so the LP gets integers.  Positive scalings
    # of rows leave Bland's pivots, x and the value alone; they divide the
    # rows' duals by d_j, which the functional multiplies back.
    nt = 1 if sup else r
    mat, big_d = _matrix(vs, rows)
    a_ub: list[list[int]] = []
    scales: list[int] = []
    for j, row in enumerate(mat):
        k = math.gcd(big_d, *row)  # row j of A is nums / d in lowest terms
        nums, d = [x // k for x in row], big_d // k
        t = [0] * nt
        t[0 if sup else j] = -d
        a_ub.extend([nums + t, [-v for v in nums] + t])
        scales.append(d)
    b_ub = [0] * (2 * r)
    a_eq = [[1] * m + [0] * nt]
    b_eq = [1]
    cost = [0] * m + [1] * nt
    primal = lp.solve_lp(cost, a_ub, b_ub, a_eq, b_eq)
    if primal.status != "optimal":
        raise ContractViolation(f"simplex LP should be solvable, got {primal.status}")
    y = primal.duals
    g = Vector.from_pairs((rows[j], scales[j] * (y[2 * j + 1] - y[2 * j]))
                          for j in range(r))
    return tuple(primal.x[:m]), primal.value, g


def _int_gram(vs: tuple[Vector, ...]) -> tuple[list[list[int]], int]:
    """The Gram matrix G of the vectors as (Q, D): Q = D^2 G is an int matrix.

    D is the lcm of the denominators of every coefficient, so D x_n is an
    integer vector and Q holds the int inner products over common supports.
    """
    d = math.lcm(*(v.den for v in vs))
    ints = [{p: n * (d // v.den) for p, n in zip(v.support, v.nums)} for v in vs]
    m = len(vs)
    q = [[0] * m for _ in range(m)]
    for i, u in enumerate(ints):
        for j in range(i, m):
            v = ints[j]
            q[i][j] = q[j][i] = sum(c * v[p] for p, c in u.items() if p in v)
    return q, d


def _exact_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _simplex_min_qp(space: SpaceModel, vs: tuple[Vector, ...]) -> SimplexMinResult:
    """Exact l2 minimum on the integer Gram matrix Q = D^2 G of `_int_gram`:
    weights 1/Q_nn scaled to sum 1, of squared norm 1 / sum(D^2 / Q_nn), when
    Q is diagonal and positive (orthogonal nonzero vectors), else `_wolfe`.
    The witness norm and `_dual_certificate_l2` check either answer."""
    q, d = _int_gram(vs)
    m = len(vs)
    if all(q[i][i] > 0 and not any(q[i][:i]) for i in range(m)):
        # 1/Q_nn = shares[n] / big, so the weights are shares[n] / sum(shares)
        big = math.lcm(*(q[i][i] for i in range(m)))
        shares = [big // q[i][i] for i in range(m)]
        total = sum(shares)
        weights, best_sq = tuple(Fraction(s, total) for s in shares), Fraction(big, d * d * total)
    else:
        weights, best_sq = _wolfe(q, d)
    combo = spaces.combine(weights, vs)
    nv = spaces.norm(space, combo)
    if nv.exact_sq != best_sq:
        raise ContractViolation(
            f"Gram value {best_sq} disagrees with the witness norm {nv.exact_sq}"
        )
    cert = _dual_certificate_l2(space, vs, combo, best_sq)
    witness = SimplexWitness(weights, combo, nv)
    root = _exact_sqrt(best_sq)
    return SimplexMinResult(
        nv.lo, nv.hi, witness, "exact-qp",
        exact=root, exact_sq=best_sq, certificate=cert,
    )


def _wolfe(q: list[list[int]], d: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Weights and squared value of the l2 minimum by Wolfe's min-norm-point method.

    P. Wolfe, "Finding the nearest point in a polytope", Math. Programming 11
    (1976), in rationals.  The corral S is an affinely independent set of
    vectors whose affine hull holds the current point z = sum w_i x_i.  A
    major cycle adds the vector j least paired with z, and stops once
    <x_j, z> >= ||z||^2 for every j, which is the optimality condition that
    _dual_certificate_l2 checks again.  A minor cycle moves z to the affine
    minimum of the corral, from the system [Q_S 1; 1^T 0], stepping back to
    the hull and dropping points whose weight reaches 0 when that minimum
    leaves it.  ||z||^2 strictly falls with every major cycle, so no corral
    recurs and the method ends; ties go to the lowest index throughout.

    The method runs on the integer Gram matrix Q = D^2 G of `_int_gram`,
    with the weights held as int numerators W over one positive denominator
    delta.  A major cycle's pairings QW and its D^2 delta^2 ||z||^2 are int
    dot products, and every test compares both sides at the same positive
    scale, so every decision and tie is the one made on G.  The minor
    cycle's system goes to `linalg.solve` as int rows of Q and has the same
    solution for the weights, an int row whose one denominator also covers
    the multiplier, so the weights and delta may share a factor that no
    comparison sees.  Fractions are built only for the step-back ratios, the
    minimum and the returned weights.
    """
    m = len(q)
    start = min(range(m), key=lambda i: q[i][i])
    corral = [start]
    w = {start: 1}
    delta = 1
    best: tuple[int, int] | None = None  # (D^2 delta^2 ||z||^2, delta) of the last cycle
    while True:
        qw = [sum(q[i][k] * w[k] for k in corral) for i in range(m)]
        sq = sum(w[k] * qw[k] for k in corral)
        if best is not None and sq * best[1] ** 2 >= best[0] * delta ** 2:
            raise ContractViolation("a major cycle of Wolfe's method did not lower the norm")
        best = sq, delta
        j = min(range(m), key=qw.__getitem__)
        if qw[j] * delta >= sq:
            break
        if j in corral:
            raise ContractViolation(f"Wolfe's method chose vector {j} already in the corral")
        corral.append(j)
        w[j] = 0
        while True:
            s = len(corral)
            system = [[q[a][b] for b in corral] + [1] for a in corral]
            system.append([1] * s + [0])
            sol = linalg.solve(system, [0] * s + [1])
            if sol is None:
                raise ContractViolation("Wolfe's corral is affinely dependent")
            *v, _, e = sol  # the affine minimum is V / e, then the multiplier
            if all(x > 0 for x in v):
                w, delta = dict(zip(corral, v)), e
                break
            # step back to the hull: theta = min w_k / (w_k - v_k) over v_k <= 0
            theta = min(Fraction(w[k] * e, w[k] * e - delta * x)
                        for k, x in zip(corral, v) if x <= 0)
            a, b = theta.numerator, theta.denominator
            w = {k: (b - a) * e * w[k] + a * delta * x for k, x in zip(corral, v)}
            delta *= b * e
            g = math.gcd(delta, *w.values())
            w, delta = {k: x // g for k, x in w.items()}, delta // g
            corral = [k for k in corral if w[k] > 0]
    return tuple(Fraction(w.get(i, 0), delta) for i in range(m)), Fraction(sq, (delta * d) ** 2)


def _dual_certificate_l2(
    space: SpaceModel,
    vs: tuple[Vector, ...],
    z: Vector,
    value_sq: Fraction,
) -> DualCertificate | None:
    """Scale the optimal combination z into a norm-<=1 functional.

    At the constrained minimum z, every <z, x_n> is at least ||z||^2, so
    g = z/||z|| certifies the minimum; the irrational scale is replaced by a
    dyadic lower approximation, costing a quantified gap (zero whenever
    1/||z||^2 is a perfect rational square).
    """
    if value_sq == 0:
        return None
    vn, vd = value_sq.numerator, value_sq.denominator
    for x in vs:
        if z.int_dot(x) * vd < vn * z.den * x.den:  # <z, x> < value_sq
            raise ContractViolation("stationary point violates its own optimality system")
    inverse = Fraction(vd, vn)
    scale = _exact_sqrt(inverse)
    if scale is None:
        scale = linalg.sqrt_lower(inverse, spaces.BRACKET_BITS)
    g = z.scale(scale)
    if scale.numerator ** 2 * vn > scale.denominator ** 2 * vd:  # scale^2 value_sq > 1
        raise ContractViolation("certificate scale exceeds the unit dual ball")
    functional = Functional(space, g, _ONE)
    lower = scale * value_sq
    hi = linalg.sqrt_upper(value_sq, spaces.BRACKET_BITS)
    return DualCertificate(functional, lower, hi - lower)


def _project_simplex(a: list[float]) -> list[float]:
    srt = sorted(a, reverse=True)
    acc = 0.0
    rho, theta = 0, 0.0
    for i, v in enumerate(srt, 1):
        acc += v
        t = (acc - 1.0) / i
        if v - t > 0:
            rho, theta = i, t
    return [max(0.0, v - theta) for v in a]


def _simplex_min_bracket_lower(space: SpaceModel, vs: tuple[Vector, ...],
                               memo: SimplexMemo) -> Fraction:
    """Certified lower end of a bracket minimum.

    The largest exact minimum of a comparison norm that the p-norm
    dominates: l1 scaled by the support-size Holder factor, sup, and l2
    when p < 2.  A minimum is at most its norm at any feasible point, so
    the sup LP and the l2 QP are solved only when their norm at the uniform
    combination exceeds the best candidate so far; a skipped one could not
    have raised it.  Every vertex is a feasible point, so no vertex norm may
    fall below the lower end; that is checked here.  Since the p-norm is at
    least the sup norm, a vertex whose exact sup norm reaches the lower end
    passes by an int comparison, and only the others cost a norm bracket.
    The Holder factor depends on p and d alone; a `SimplexMemo` keeps its
    upper end for every lower end it serves.
    """
    p = space.p
    if p is None:
        raise ContractViolation("a bracket minimum needs a finite exponent")
    lo = _ZERO  # no candidate is negative, so 0 moves no maximum
    d = len(_coordinate_rows(vs))
    if d:
        l1_min = simplex_min_norm(spaces.L1, vs)
        if l1_min.exact is None:
            raise ContractViolation("the l1 simplex minimum came back inexact")
        holder_hi = memo.holder.get((p, d))
        if holder_hi is None:
            a, b = p.numerator, p.denominator
            holder_hi = memo.holder[p, d] = linalg.nthroot_brackets(d ** (a - b), a, 64)[1]
        lo = l1_min.exact / holder_hi
    u = spaces.combine([Fraction(1, len(vs))] * len(vs), vs)
    if spaces.norm_cmp(spaces.C0, u, lo) == 1:
        sup_min = simplex_min_norm(spaces.C0, vs)
        if sup_min.exact is None:
            raise ContractViolation("the sup-norm simplex minimum came back inexact")
        lo = max(lo, sup_min.exact)
    if p < 2 and spaces.norm_cmp(spaces.L2, u, lo) == 1:
        lo = max(lo, simplex_min_norm(spaces.L2, vs).lo)
    ln, ld = lo.numerator, lo.denominator
    for v in vs:  # ||v||_p >= ||v||_sup = max|nums| / den, which settles most
        if max(map(abs, v.nums), default=0) * ld < ln * v.den and spaces.norm(space, v).hi < lo:
            raise ContractViolation("bracket bounds crossed; comparison-norm reasoning is wrong")
    return lo


def _simplex_min_bracket_upper(space: SpaceModel, vs: tuple[Vector, ...],
                               lo: Fraction) -> SimplexMinResult:
    """The enclosure of a bracket minimum whose lower end is `lo`.

    Upper end: the exact norm bracket at the best rational candidate that
    projected subgradient descent finds, snapped to the 2^-12 grid, or at a
    vertex when one is tighter.  The descent runs m + 1 starts of 120 steps,
    but ends at the first point whose Frank-Wolfe gap, a bound on its excess
    over the minimum, is at most `FW_GAP_STOP` times its norm (Jaggi, ICML
    2013).  This float work is what the lazy path of `is_eps_dominating`
    skips whenever `lo` alone decides.
    """
    m = len(vs)
    at = {r: j for j, r in enumerate(_coordinate_rows(vs))}
    # the nonzero coefficients, (row, c) per vector and (vector, c) per row, in
    # the order of the dense sums: a skipped product is an exact +-0.0, and a
    # sum that starts at 0 and adds one changes by nothing, not even its sign
    # (n / den is correctly rounded, so it is the float of the coefficient)
    cols = [[(at[r], c / v.den) for r, c in zip(v.support, v.nums)] for v in vs]
    by_row: list[list[tuple[int, float]]] = [[] for _ in at]
    for n, col in enumerate(cols):
        for j, c in col:
            by_row[j].append((n, c))
    pf = float(space.p)

    def fval_grad(a: list[float]) -> tuple[float, list[float]]:
        z = [sum(a[n] * c for n, c in row) for row in by_row]
        s = sum(abs(t) ** pf for t in z)
        f = s ** (1 / pf) if s > 0 else 0.0
        if f <= 0:
            return 0.0, [0.0] * m
        gz = [math.copysign(abs(t) ** (pf - 1), t) / f ** (pf - 1) for t in z]
        return f, [sum(gz[j] * c for j, c in col) for col in cols]

    def iterates():  # each point of every start, with its value and gradient
        for k in range(-1, m):  # the uniform point, then each vertex
            cur = [1.0 / m] * m if k < 0 else [float(j == k) for j in range(m)]
            for t in range(1, 121):
                f, grad = fval_grad(cur)
                yield cur, f, grad
                gn = math.sqrt(sum(g * g for g in grad)) or 1.0
                step = 0.3 / (gn * math.sqrt(t))
                cur = _project_simplex([cur[i] - step * grad[i] for i in range(m)])
            yield cur, *fval_grad(cur)

    best_pt: list[float] | None = None
    best_f = math.inf
    for cur, f, grad in iterates():
        if f < best_f:
            best_f, best_pt = f, cur
        # the Frank-Wolfe gap bounds f(cur) - min f, since f is convex
        if sum(g * w for g, w in zip(grad, cur)) - min(grad) <= f * FW_GAP_STOP:
            break
    if best_pt is None:
        raise ContractViolation("the descent found no point with a finite norm")
    grid = 1 << MARGIN_GRID_BITS
    units = [max(0, round(w * grid)) for w in best_pt]  # weights units / grid, rescaled
    total = sum(units)
    weights = tuple(Fraction(u, total) for u in units) if total else (_ONE,) + (_ZERO,) * (m - 1)
    combo = spaces.combine(weights, vs)
    nv = spaces.norm(space, combo)
    hi = nv.hi
    # vertices are feasible too; keep whichever bound is tighter
    for i in range(m):
        vn = spaces.norm(space, vs[i])
        if vn.hi < hi:
            hi = vn.hi
            weights = tuple(_ONE if j == i else _ZERO for j in range(m))
            combo, nv = vs[i], vn
    if hi < lo:
        raise ContractViolation("bracket bounds crossed; comparison-norm reasoning is wrong")
    witness = SimplexWitness(weights, combo, nv)
    return SimplexMinResult(lo, hi, witness, "bracket")


def mazur_combination(
    space: SpaceModel, vectors: list[Vector] | tuple[Vector, ...]
) -> SimplexWitness:
    """The flattest convex combination the solver can certify.

    Constructive counterpart of the simplex minimum: returns the weights,
    the combined vector, and its norm enclosure.
    """
    return simplex_min_norm(space, tuple(vectors)).witness


# ---------------------------------------------------------------------------
# summing-basis domination


def is_eps_dominating(
    space: SpaceModel,
    vectors: list[Vector] | tuple[Vector, ...],
    eps: Fraction,
    tol: Fraction = _ZERO,
    memo: SimplexMemo | None = None,
) -> Verdict3:
    """Does every simplex combination of the vectors have norm >= eps?

    Exact paths decide non-strictly with zero tolerance; on the bracket path
    `tol` widens the band that certifies success, and enclosures straddling
    eps come back inconclusive.  A negative `tol` would certify minima below
    eps, so it is refused.  `memo` is handed to `simplex_min_norm`.  On the
    bracket path the upper end of the enclosure is computed lazily, only when
    the exact lower end does not clear eps plus tol.
    """
    eps = spaces.as_fraction(eps)
    tol = spaces.as_fraction(tol)
    if tol < 0:
        raise ConfigurationError("tol must be nonnegative", "/tol")
    vs = tuple(vectors)
    if not vs:
        return Verdict3(HOLDS, margin=None, detail="empty sequence dominates vacuously")
    if space.exactness == "bracket":
        return _bracket_domination(space, vs, eps, tol, memo)
    res = simplex_min_norm(space, vs, memo)
    if res.exact_sq is not None:
        held = res.exact_sq >= eps * eps
    elif res.exact is not None:
        held = res.exact >= eps
    else:
        raise ContractViolation(f"{res.method} simplex minimum came back inexact")
    if res.exact is not None:
        emargin: Fraction | None = res.exact - eps
        fmargin = float(emargin)
    else:
        emargin = None
        fmargin = (float(res.lo) + float(res.hi)) / 2 - float(eps)
    if held:
        return Verdict3(HOLDS, abs(fmargin) if emargin is None else fmargin,
                        emargin, res.certificate,
                        detail=f"certified minimum via {res.method}")
    return Verdict3(FAILS, fmargin, emargin, res.witness,
                    detail=f"minimizing combination via {res.method}")


def _bracket_domination(space: SpaceModel, vs: tuple[Vector, ...], eps: Fraction,
                        tol: Fraction, memo: SimplexMemo | None) -> Verdict3:
    """Domination on the bracket path, with the upper end computed lazily.

    The exact lower end decides `holds` by itself whenever it clears eps
    plus tol; only otherwise is the upper end computed, into the memo entry
    that the lower end started, for the distinct vectors that entry holds.
    """
    memo = SimplexMemo() if memo is None else memo  # the upper end reuses the lower
    key, solved, known = _memo_entry(space, vs, memo, _simplex_min_bracket_lower)
    lo = known if isinstance(known, Fraction) else known.lo
    if lo >= eps + tol:
        return Verdict3(HOLDS, float(lo - eps), None, None,
                        detail="comparison-norm lower bound clears eps plus tol")
    res = _served(space, vs, memo, key, solved, known)
    if res.hi < eps:
        return Verdict3(FAILS, float(res.hi - eps), None, res.witness,
                        detail="witness combination certified below eps")
    return Verdict3(
        INCONCLUSIVE, None, None, None,
        detail=f"enclosure [{float(res.lo):.6g}, {float(res.hi):.6g}] straddles eps",
    )


# ---------------------------------------------------------------------------
# Schauder prefix bounds


class PrefixWitness(namedtuple("PrefixWitness",
                               "prefix coefficients prefix_norm full_norm")):
    """Coefficients whose prefix combination beats M times the full one.

    A structural failure ships a kernel vector, whose full sum is exactly 0,
    and no norms: both are None."""

    __slots__ = ()


class SchauderReport(namedtuple("SchauderReport",
                                "verdict method constant_lo constant_hi unbounded",
                                defaults=(None, None, False))):
    """A prefix-bound verdict, its method ("exact-structural" |
    "exact-polyhedral" | "exact-gram" | "sampled") and the basis constant's
    bracket."""

    __slots__ = ()


def is_M_schauder(
    space: SpaceModel,
    vectors: list[Vector] | tuple[Vector, ...],
    big_m: Fraction,
    rng_seed: int = 0,
) -> SchauderReport:
    """Is every prefix combination bounded by M times the full combination?"""
    big_m = spaces.as_fraction(big_m)
    if big_m.numerator <= 0:
        raise ValueError("the prefix bound must be positive")
    return _schauder_analyze(space, tuple(vectors), big_m, rng_seed)


def _schauder_analyze(
    space: SpaceModel,
    vs: tuple[Vector, ...],
    big_m: Fraction,
    rng_seed: int,
) -> SchauderReport:
    if not all([v.nums for v in vs]):
        raise ValueError("prefix bounds are undefined for zero vectors")
    m = len(vs)
    if m == 0:
        return SchauderReport(Verdict3(HOLDS, None, None, None, "empty sequence"),
                              "exact-structural", _ONE, _ONE)
    if m == 1:
        return _unit_constant_report(big_m, "single vector, prefix equals whole")
    first: dict[Vector, int] = {}
    for j, v in enumerate(vs):
        i = first.setdefault(v, j)
        if i < j:  # x_j = x_i: the kernel vector e_j - e_i needs no elimination
            z = [_ZERO] * m
            z[i], z[j] = _MINUS_ONE, _ONE
            return _dependent_report(z, i + 1)

    rows = _coordinate_rows(vs)
    # the supports are pairwise disjoint exactly when their sizes add up to the
    # size of their union, and such nonzero vectors need no elimination
    if len(rows) == sum([len(v.support) for v in vs]):
        return _unit_constant_report(big_m, "disjoint supports: prefixes only drop terms")
    mat, d = _matrix(vs, rows)
    kernel = linalg.nullspace(mat)  # non-empty exactly when the rank is below m
    if kernel:
        *z, e = kernel[0]
        k = 1 + next(i for i, x in enumerate(z) if x)
        return _dependent_report([Fraction(x, e) for x in z], k)

    if space.exactness == "square":
        return _schauder_gram(vs, big_m)
    if space.exactness == "rational":
        report = _schauder_polyhedral(space, vs, mat, d, big_m)
        if report is not None:
            return report
    return _schauder_sampled(space, vs, big_m, rng_seed)


def _dependent_report(z: list[Fraction], k: int) -> SchauderReport:
    """Failure on a kernel vector z with first nonzero z[k-1]: its full sum is
    exactly 0, so it carries no norm brackets, and its k-prefix is nonzero."""
    verdict = Verdict3(FAILS, math.inf, None, PrefixWitness(k, tuple(z), None, None),
                       "linearly dependent: a cancelling combination has a nonzero prefix")
    return SchauderReport(verdict, "exact-structural", None, None, True)


def _unit_constant_report(big_m: Fraction, detail: str) -> SchauderReport:
    """`_constant_report` for a basis constant of exactly 1, from ints."""
    n, d = big_m.numerator, big_m.denominator
    margin = Fraction(n - d, d)
    verdict = Verdict3(HOLDS if n >= d else FAILS, (n - d) / d, margin, None, detail)
    return SchauderReport(verdict, "exact-structural", _ONE, _ONE)


def _prefix_ratio(
    space: SpaceModel, vs: tuple[Vector, ...], patterns: list[list[Fraction]]
) -> tuple[Fraction, PrefixWitness | None]:
    """Largest certified ratio ||prefix||.lo / ||full||.hi over the patterns.

    The ratio is at least 1, the bound every full-length prefix meets; the
    witness is the first pattern and prefix reaching it, None when no
    proper prefix beats 1.  Patterns whose full sum vanishes are skipped.
    """
    best = _ONE
    witness = None
    for a in patterns:
        nf = spaces.norm(space, spaces.combine(a, vs))
        if nf.hi == 0:
            continue
        hn, hd = nf.hi.numerator, nf.hi.denominator
        partial = Vector.zero()
        for k in range(1, len(vs)):
            partial = partial + vs[k - 1].scale(a[k - 1])
            nk = spaces.norm(space, partial)
            lo = nk.lo
            # nk.lo > best * nf.hi, over positive denominators
            if lo.numerator * hd * best.denominator > best.numerator * hn * lo.denominator:
                best = lo / nf.hi
                witness = PrefixWitness(k, tuple(a), nk, nf)
    return best, witness


def _constant_report(
    c_lo: Fraction,
    c_hi: Fraction,
    big_m: Fraction,
    method: str,
    detail: str = "",
    witness: PrefixWitness | None = None,
) -> SchauderReport:
    if c_hi <= big_m:
        margin = big_m - c_hi
        verdict = Verdict3(HOLDS, float(margin), margin, witness, detail)
        return SchauderReport(verdict, method, c_lo, c_hi)
    if c_lo > big_m:
        margin = big_m - c_lo  # negative slack: how far past the bound
        verdict = Verdict3(FAILS, float(margin), margin, witness, detail)
        return SchauderReport(verdict, method, c_lo, c_hi)
    verdict = Verdict3(INCONCLUSIVE, None, None, witness,
                       detail or "constant bracket straddles the bound")
    return SchauderReport(verdict, method, c_lo, c_hi)


def _schauder_gram(vs: tuple[Vector, ...], big_m: Fraction) -> SchauderReport:
    """Exact l2 decision: prefix bounds are PSD conditions on the Gram matrix.

    Since G is PSD, t^2 G - G_k only gains the PSD matrix (t'^2 - t^2) G as
    t grows to t', so the set of t where every condition holds is a ray: a
    failure at M is a failure at every grid point up to M.  With t = a/b and
    the integer Gram matrix Q = D^2 G, each t^2 G - G_k goes to `psd_check`
    as the integer rows a^2 Q - b^2 Q_k over b^2 D^2, the same rationals.
    """
    m = len(vs)
    q, d = _int_gram(vs)
    grid = 1 << MARGIN_GRID_BITS

    def psd_all(t: Fraction) -> tuple[bool, int | None, list[Fraction] | None]:
        a, b = t.numerator ** 2, t.denominator ** 2
        den = b * d * d
        tq = [[a * x for x in row] for row in q]
        for k in range(1, m):
            rows = [[x - b * y for x, y in zip(tq[i][:k], q[i])] + tq[i][k:] + [den]
                    if i < k else tq[i] + [den] for i in range(m)]
            ok, w = linalg.psd_check(rows)
            if not ok:
                return False, k, w
        return True, None, None

    ok, bad_k, w = psd_all(big_m)
    if not ok:
        witness = PrefixWitness(
            bad_k, tuple(w), spaces.norm(spaces.L2, spaces.combine(w[:bad_k], vs[:bad_k])),
            spaces.norm(spaces.L2, spaces.combine(w, vs)))
        # w^T (M^2 G - G_k) w < 0: the witness's exact prefix ratio exceeds M,
        # and so does a lower root of it taken fine enough; no constant is below 1
        ratio_sq = witness.prefix_norm.exact_sq / witness.full_norm.exact_sq
        if ratio_sq <= big_m * big_m:
            raise ContractViolation("the PSD witness does not escape the bound")
        bits = MARGIN_GRID_BITS
        while (c_lo := linalg.sqrt_lower(ratio_sq, bits)) <= big_m:
            bits *= 2
        c_lo = max(c_lo, _ONE)
        margin = big_m - c_lo
        verdict = Verdict3(FAILS, float(margin), margin, witness,
                           detail=f"prefix {bad_k} escapes the bound (PSD witness)")
        return SchauderReport(verdict, "exact-gram", constant_lo=c_lo)

    # doubling phase: find a grid point where every prefix condition holds
    hi_units = grid  # t = 1
    while not psd_all(Fraction(hi_units, grid))[0]:
        hi_units *= 2
        if hi_units > grid << 40:
            raise ContractViolation("basis constant failed to bracket despite full rank")
    lo_units = max(hi_units // 2, grid)  # constants are >= 1
    while hi_units - lo_units > 1:
        mid = (hi_units + lo_units) // 2
        if psd_all(Fraction(mid, grid))[0]:
            hi_units = mid
        else:
            lo_units = mid
    c_lo, c_hi = Fraction(lo_units, grid), Fraction(hi_units, grid)
    return _constant_report(c_lo, c_hi, big_m, "exact-gram",
                            detail="constant bracketed on the dyadic grid")


def _schauder_polyhedral(
    space: SpaceModel,
    vs: tuple[Vector, ...],
    mat: list[list[int]],
    d: int,
    big_m: Fraction,
) -> SchauderReport | None:
    """Exact l1 / sup basis constant via extreme points of the unit ball.

    The constant is the maximum of prefix norms over {a : ||sum a_n x_n|| = 1},
    a convex maximum attained at an extreme point.  Every candidate's full
    combination has norm exactly 1, so the largest prefix ratio over them is
    the constant itself.  Returns None when the candidate count exceeds the
    enumeration budget.  `mat` is the int matrix D A of `_matrix` and `d`
    is D; images A a are tested as int numerators over a common scale.
    """
    m = len(vs)
    r = len(mat)
    sup = space.kind == "c0"
    if sup:
        count = math.comb(r, m) * (1 << (m - 1))
    else:
        count = math.comb(r, m - 1)
    if count > POLYHEDRAL_BUDGET:
        return None

    candidates: list[list[Fraction]] = []
    if sup:
        # one elimination per row subset solves it against every sign pattern
        # the right-hand sides D b solve D A a = D b, that is A a = b
        rhs = [[d, *(d * s for s in signs)] for signs in itertools.product((1, -1), repeat=m - 1)]
        for rows_idx in itertools.combinations(range(r), m):
            aug = [mat[j] + [b[k] for b in rhs] for k, j in enumerate(rows_idx)]
            red, pivots = linalg.row_reduce(aug)
            if pivots != list(range(m)):  # the subset is singular
                continue
            e = math.lcm(*(row[-1] for row in red))
            for col in range(m, m + len(rhs)):
                a = [row[col] * (e // row[-1]) for row in red]  # e times the solution
                if all(abs(sum(x * y for x, y in zip(row, a))) <= d * e for row in mat):
                    candidates.append([Fraction(x, e) for x in a])
    else:
        for rows_idx in itertools.combinations(range(r), m - 1):
            sub = [mat[j] for j in rows_idx]
            ker = linalg.nullspace(sub)
            if len(ker) != 1:
                continue
            *z, e = ker[0]  # the kernel vector is z / e
            f = sum(abs(sum(x * y for x, y in zip(row, z))) for row in mat)  # D e ||A z / e||
            if f == 0:
                continue
            candidates.append([Fraction(x * d, f) for x in z])

    c, witness = _prefix_ratio(space, vs, candidates)
    return _constant_report(c, c, big_m, "exact-polyhedral", witness=witness)


def _schauder_sampled(
    space: SpaceModel,
    vs: tuple[Vector, ...],
    big_m: Fraction,
    rng_seed: int,
) -> SchauderReport:
    """Probe coefficient patterns; can refute a prefix bound, never confirm it."""
    m = len(vs)
    rng = random.Random(rng_seed)
    patterns: list[list[Fraction]] = []
    if m <= 6:
        for signs in itertools.product((1, -1), repeat=m):
            patterns.append([Fraction(s) for s in signs])
    grid = 1 << 8
    for _ in range(64):
        patterns.append([Fraction(round(rng.gauss(0, 1) * grid), grid) for _ in range(m)])
    c_lo, witness = _prefix_ratio(space, vs, patterns)
    if c_lo > big_m:
        verdict = Verdict3(FAILS, float(big_m - c_lo), big_m - c_lo, witness,
                           detail="sampled coefficients certify a violating prefix")
        return SchauderReport(verdict, "sampled", constant_lo=c_lo)
    verdict = Verdict3(INCONCLUSIVE, None, None, witness,
                       detail="sampling cannot certify prefix bounds, only refute")
    return SchauderReport(verdict, "sampled", constant_lo=c_lo)

