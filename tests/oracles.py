"""Independent oracles the test suite checks the library against.

Everything in this file is deliberately dumb: dense numpy grids, exhaustive
scans, closed forms derived by hand, and reference copies of earlier code.
None of it imports the library's decision logic (at most its PSD test, its
root brackets, its norms and its result records; kernels, solves and ranks
run on `dense_rref` here), so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import isqrt

import numpy as np

from wctree import linalg, spaces
from wctree.errors import ContractViolation
from wctree.predicates import DualCertificate, SimplexMinResult, SimplexWitness
from wctree.spaces import Functional, SpaceModel, Vector

Matrix = list[list[Fraction]]  # the dense Fraction matrices of the reference copies


def coordinate(v: Vector, pos: int) -> Fraction:
    """The coefficient of v at a position, 0 where v has none."""
    return dict(v.entries).get(pos, Fraction(0))


def densify(vectors) -> np.ndarray:
    """Stack sparse rational vectors into a dense float matrix (m x dim)."""
    dim = 1 + max((pos for v in vectors for pos, _ in v.entries), default=0)
    arr = np.zeros((len(vectors), dim))
    for i, v in enumerate(vectors):
        for pos, coeff in v.entries:
            arr[i, pos] = float(coeff)
    return arr


def float_norm(kind: str, p, arr: np.ndarray) -> np.ndarray:
    """Rowwise norms of a 2-D array under the named sequence norm."""
    a = np.abs(arr)
    if kind == "c0":
        return a.max(axis=1) if a.size else np.zeros(len(arr))
    pf = float(p)
    if pf == 1.0:
        return a.sum(axis=1)
    if pf == 2.0:
        return np.sqrt((a * a).sum(axis=1))
    return (a ** pf).sum(axis=1) ** (1.0 / pf)


@lru_cache(maxsize=32)
def simplex_grid(m: int, steps: int) -> np.ndarray:
    """All weight vectors with denominator `steps`, as rows summing to 1."""
    rows = []
    for bars in combinations(range(steps + m - 1), m - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(steps + m - 2 - prev)
        rows.append(parts)
    return np.asarray(rows, dtype=float) / steps


def grid_simplex_min(space, vectors, steps: int = 64) -> float:
    """Minimum norm over the discretized simplex — an upper bound on the
    true simplex minimum that converges as the grid refines."""
    if not vectors:
        return math.inf
    grid = simplex_grid(len(vectors), steps)
    combos = grid @ densify(vectors)
    return float(float_norm(space.kind, space.p, combos).min())


def dense_rref(rows):
    """Reduced row-echelon form and pivot columns by textbook Gauss-Jordan.

    Every entry of a row that is eliminated is updated, zeros included.
    """
    m = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r][c]
        m[r] = [x / top for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def ref_rank(rows) -> int:
    return len(dense_rref(rows)[1])


def ref_nullspace(rows) -> Matrix:
    """A kernel basis as Fraction vectors, one per free unknown, which holds 1."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = dense_rref([[Fraction(x) for x in row] for row in rows])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, row in zip(pivots, red):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def ref_solve(rows, rhs) -> list[Fraction] | None:
    """The solution of A x = b as Fractions, None when it is not unique or missing."""
    if not rows:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    red, pivots = dense_rref([[Fraction(x) for x in row] + [Fraction(b)]
                              for row, b in zip(rows, rhs)])
    if pivots != list(range(ncols)):
        return None
    return [row[ncols] for row in red[:ncols]]


def ref_mat_vec(rows, x) -> list[Fraction]:
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


def ref_psd_check(sym):
    """The congruence PSD test that `linalg.psd_check` replaced.

    Returns (ok, witness, how): (ok, witness) is what the library must
    return, and `how` names the exit taken, "psd", "negative pivot" or "zero
    diagonal".  Every step updates all n^2 entries by the three-term
    congruence, and a separate basis matrix tracks the coordinates.
    """
    n = len(sym)
    m = [[Fraction(x) for x in row] for row in sym]
    # basis[i] expresses the current i-th coordinate in original coordinates
    basis = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    done = [False] * n
    for _ in range(n):
        idx = next((i for i in range(n) if not done[i] and m[i][i] != 0), None)
        if idx is None:
            # all remaining diagonal entries are zero
            for i in range(n):
                if done[i]:
                    continue
                for j in range(n):
                    if not done[j] and j != i and m[i][j] != 0:
                        # [[0, c], [c, d]] block is indefinite for c != 0
                        c, d = m[i][j], m[j][j]
                        t = -(d + 1) / (2 * c)
                        w = [t * a + b for a, b in zip(basis[i], basis[j])]
                        return False, w, "zero diagonal"
            return True, None, "psd"
        if m[idx][idx] < 0:
            return False, basis[idx][:], "negative pivot"
        pivv = m[idx][idx]
        done[idx] = True
        others = [j for j in range(n) if not done[j]]
        coeffs = {j: m[j][idx] / pivv for j in others if m[j][idx] != 0}
        for j, f in coeffs.items():
            basis[j] = [a - f * b for a, b in zip(basis[j], basis[idx])]
        # congruence update from a snapshot of the pivot row (matrix is symmetric)
        pivrow = m[idx][:]
        zero = Fraction(0)
        for a in range(n):
            fa = coeffs.get(a, zero)
            rowa = m[a]
            pa = pivrow[a]
            for b in range(n):
                fb = coeffs.get(b, zero)
                if fa or fb:
                    rowa[b] += -fa * pivrow[b] - fb * pa + fa * fb * pivv
    return True, None, "psd"


def brute_l2_simplex_min(vectors):
    """Least squared l2 norm over the convex hull of sparse rational vectors.

    Tries every support S.  Where the system G_S a = lam 1, sum(a) = 1 (G the
    Gram matrix) is nonsingular and its solution is nonnegative, a . G_S a =
    lam is a candidate.  Some minimizer has an affinely independent support
    (Caratheodory), where the system is nonsingular and lam is the minimum.
    Returns the least lam and the entries of its combination.
    """
    dicts = [dict(v.entries) for v in vectors]
    m = len(dicts)
    gram = [[sum((c * dicts[j].get(p, Fraction(0)) for p, c in dicts[i].items()),
                 Fraction(0)) for j in range(m)] for i in range(m)]
    best = None
    for size in range(1, m + 1):
        for support in combinations(range(m), size):
            rows = [[gram[i][j] for j in support] + [Fraction(-1), Fraction(0)]
                    for i in support]
            rows.append([Fraction(1)] * size + [Fraction(0), Fraction(1)])
            red, pivots = dense_rref(rows)
            if pivots != list(range(size + 1)):  # singular
                continue
            sol = [row[-1] for row in red]
            if any(a < 0 for a in sol[:size]):
                continue
            if best is None or sol[size] < best[0]:
                best = (sol[size], dict(zip(support, sol[:size])))
    value, weights = best
    combo: dict[int, Fraction] = {}
    for i, a in weights.items():
        for p, c in dicts[i].items():
            combo[p] = combo.get(p, Fraction(0)) + a * c
    return value, tuple((p, c) for p, c in sorted(combo.items()) if c != 0)


def sampled_basis_constant(space, vectors, rng: np.random.Generator,
                           trials: int = 400) -> float:
    """Lower bound on the basis constant by random and sign-pattern probing."""
    dense = densify(vectors)
    m = len(vectors)
    best = 1.0
    coeff_sets = [rng.standard_normal(m) for _ in range(trials)]
    if m <= 8:
        coeff_sets.extend(np.array(s, dtype=float) for s in product((-1.0, 1.0), repeat=m))
    for coeffs in coeff_sets:
        full = float_norm(space.kind, space.p, (coeffs @ dense)[None, :])[0]
        if full < 1e-12:
            continue
        for k in range(1, m):
            prefix = float_norm(space.kind, space.p, (coeffs[:k] @ dense[:k])[None, :])[0]
            best = max(best, prefix / full)
    return best


def km_shift_residual(n: int) -> float:
    """Closed-form residual of the half-averaged coordinate shift from e_0.

    Derivation: with T the right shift and x_{k+1} = (x_k + T x_k)/2, the
    coordinates of x_n are binomial: x_n[j] = C(n, j) / 2^n.  The residual
    x_n - T x_n then has coordinates (C(n, j) - C(n, j-1)) / 2^n, and the
    square of its l2 norm telescopes to 2 C(2n, n) / (n + 1) / 4^n (a
    Catalan-number identity: sum of squared differences of a binomial row).
    Evaluated in log space to survive n = 10^4.
    """
    if n == 0:
        return math.sqrt(2.0)
    log_c = math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1)
    return math.exp(0.5 * (math.log(2.0) + log_c - math.log(n + 1.0)) - n * math.log(2.0))


# Frozen regression values from the closed form above; an independent dense
# float iteration agreed to ~1e-13 relative before these were frozen.
KM_SHIFT_R1000 = 5.97012394442512e-03
KM_SHIFT_R10000 = 1.062192184704362e-03


def brute_maximal_elements(poset) -> set:
    """All maximal elements by direct double scan over the order relation."""
    out = set()
    for a in poset.elements:
        if not any(b != a and poset.leq(a, b) for b in poset.elements):
            out.add(a)
    return out


def brute_ascend(f, start, limit: int):
    """Follow x, f(x), ... until it stops moving; None if it never does."""
    x = start
    for _ in range(limit + 1):
        nxt = f(x)
        if nxt == x:
            return x
        x = nxt
    return None


# ---------------------------------------------------------------------------
# Reference tree traversals: five separate loops, each charging the budget and
# tallying verdicts by hand.  They take any tree with `member(node)` returning
# an object with `.verdict`, and a budget with `charge()`.


class RefBudget:
    def __init__(self, max_nodes: int):
        self.max_nodes = max_nodes
        self.spent = 0

    def charge(self) -> bool:
        self.spent += 1
        return self.spent <= self.max_nodes


def ref_wf_search(tree, depth, index_bound, budget):
    """(kind, branch, (evaluated, holds, fails, inconclusive, exhausted), detail)."""
    counts = {"holds": 0, "fails": 0, "inconclusive": 0}
    state = {"unknown_at_depth": None, "exhausted": False}

    def dfs(node, tainted):
        if len(node) == depth:
            if not tainted:
                return node
            if state["unknown_at_depth"] is None:
                state["unknown_at_depth"] = node
            return None
        for i in range(index_bound):
            if not budget.charge():
                state["exhausted"] = True
                return None
            child = node + (i,)
            ev = tree.member(child)
            counts[ev.verdict.kind] += 1
            if ev.verdict.fails:
                continue
            found = dfs(child, tainted or ev.verdict.inconclusive)
            if found is not None:
                return found
            if state["exhausted"]:
                return None
        return None

    branch = dfs((), False)
    stats = (sum(counts.values()), counts["holds"], counts["fails"],
             counts["inconclusive"], state["exhausted"])
    if branch is not None:
        return "branch-found", branch, stats, "lexicographically least certified branch"
    if state["exhausted"]:
        return ("inconclusive", None, stats,
                "node budget exhausted before the scan completed")
    if state["unknown_at_depth"] is not None:
        return ("inconclusive", None, stats,
                f"an undecided path reaches depth {depth}: "
                f"{list(state['unknown_at_depth'])}")
    return ("well-founded-within", None, stats,
            "every candidate path dies before the target depth")


def ref_branch_search(tree, depth, index_bound, beam_width, budget):
    """(branch, ((node, kind, margin), ...), min_margin), or None."""
    beam = [((), math.inf)]
    for _ in range(depth):
        extensions = []
        for node, node_margin in beam:
            for i in range(index_bound):
                if not budget.charge():
                    return None
                child = node + (i,)
                ev = tree.member(child)
                if not ev.verdict.holds:
                    continue
                margin = ev.verdict.margin
                child_margin = min(node_margin,
                                   margin if margin is not None else math.inf)
                extensions.append((-child_margin, child, child_margin))
        if not extensions:
            return None
        extensions.sort(key=lambda t: (t[0], t[1]))
        beam = [(node, margin) for _, node, margin in extensions[:beam_width]]
    branch = min(node for node, _ in beam)
    records = []
    worst = None
    for k in range(1, depth + 1):
        ev = tree.member(branch[:k])
        m = ev.verdict.margin
        records.append((branch[:k], ev.verdict.kind, m))
        if m is not None:
            worst = m if worst is None else min(worst, m)
    return branch, tuple(records), worst


def ref_rank_within(tree, depth, index_bound, budget):
    """(rank, complete) of the certified-holds region under the bounds."""
    complete = True

    def rec(node, remaining):
        nonlocal complete
        if remaining == 0:
            return 0
        best = 0
        for i in range(index_bound):
            if not budget.charge():
                complete = False
                return best
            ev = tree.member(node + (i,))
            if ev.verdict.holds:
                best = max(best, 1 + rec(node + (i,), remaining - 1))
            elif ev.verdict.inconclusive:
                complete = False
        return best

    rank = rec((), depth)
    if rank >= depth:
        complete = False
    return rank, complete


def ref_certified_rank(tree, nodes):
    """Length of the longest of `nodes` whose every prefix holds, in any order."""
    return max((len(node) for node in nodes
                if all(tree.member(node[:k]).verdict.holds
                       for k in range(1, len(node) + 1))), default=0)


def ref_levels(tree, depth, index_bound, budget):
    """(per-depth verdict counts, exhausted), breadth-first."""
    levels = []
    frontier = [()]
    exhausted = False
    for d in range(1, depth + 1):
        counts = {"holds": 0, "fails": 0, "inconclusive": 0}
        nxt = []
        for node in frontier:
            for i in range(index_bound):
                if not budget.charge():
                    exhausted = True
                    break
                ev = tree.member(node + (i,))
                counts[ev.verdict.kind] += 1
                if not ev.verdict.fails:
                    nxt.append(node + (i,))
            if exhausted:
                break
        levels.append({"depth": d, **counts})
        frontier = nxt
        if exhausted or not frontier:
            break
    return levels, exhausted


def ref_dot_walk(tree, depth, index_bound, budget):
    """([(node, kind), ...] in visiting order, exhausted), depth-first."""
    visited = []
    exhausted = False

    def walk(node, depth_left):
        nonlocal exhausted
        if depth_left == 0 or exhausted:
            return
        for i in range(index_bound):
            if not budget.charge():
                exhausted = True
                return
            child = node + (i,)
            ev = tree.member(child)
            visited.append((child, ev.verdict.kind))
            if not ev.verdict.fails:
                walk(child, depth_left - 1)

    walk((), depth)
    return visited, exhausted


# ---------------------------------------------------------------------------
# Reference prefix-bound (Schauder) engine: the structural, exact-gram,
# exact-polyhedral and sampled methods with their own witness and ratio loops,
# including the lower end that an exact-gram failure takes from its witness's
# prefix ratio.  It uses the library's exact linear algebra and norms, none of
# its predicates, and returns a plain tuple
#   (kind, margin, exact_margin, detail, witness, method,
#    constant_lo, constant_hi, unbounded)
# whose witness is None or (prefix, coefficients, prefix_norm, full_norm).

REF_POLYHEDRAL_BUDGET = 250_000
REF_GRID = 1 << 12


def ref_schauder_analyze(space, vectors, big_m, rng_seed):
    vs = tuple(vectors)
    m = len(vs)
    if m == 0:
        return ("holds", None, None, "empty sequence", None, "exact-structural",
                Fraction(1), Fraction(1), False)
    if m == 1:
        return _ref_constant_report(Fraction(1), Fraction(1), big_m, "exact-structural",
                                    "single vector, prefix equals whole")
    rows = sorted({pos for v in vs for pos in v.support})
    mat = [[coordinate(v, r) for v in vs] for r in rows]
    kernel = ref_nullspace(mat)
    if kernel:
        return ("fails", math.inf, None,
                "linearly dependent: a cancelling combination has a nonzero prefix",
                _ref_first_live_prefix(space, vs, kernel[0]), "exact-structural",
                None, None, True)
    supports = [set(v.support) for v in vs]
    if all(not (supports[i] & supports[j]) for i in range(m) for j in range(i + 1, m)):
        return _ref_constant_report(Fraction(1), Fraction(1), big_m, "exact-structural",
                                    "disjoint supports: prefixes only drop terms")
    if space.exactness == "square":
        return _ref_schauder_gram(vs, big_m)
    if space.exactness == "rational":
        report = _ref_schauder_polyhedral(space, vs, mat, big_m)
        if report is not None:
            return report
    return _ref_schauder_sampled(space, vs, big_m, rng_seed)


def _ref_first_live_prefix(space, vs, kernel):
    combo = Vector.zero()
    chosen = 0
    for k in range(len(vs)):
        combo = combo + vs[k].scale(kernel[k])
        if not combo.is_zero:
            chosen = k + 1
            break
    full = spaces.combine(kernel, vs)
    return (chosen, tuple(kernel), spaces.norm(space, combo), spaces.norm(space, full))


def _ref_constant_report(c_lo, c_hi, big_m, method, detail="", witness=None):
    if c_hi <= big_m:
        margin = big_m - c_hi
        return ("holds", float(margin), margin, detail, witness, method, c_lo, c_hi, False)
    if c_lo > big_m:
        margin = big_m - c_lo
        return ("fails", float(margin), margin, detail, witness, method, c_lo, c_hi, False)
    return ("inconclusive", None, None, detail or "constant bracket straddles the bound",
            witness, method, c_lo, c_hi, False)


def _ref_schauder_gram(vs, big_m):
    m = len(vs)
    dicts = [dict(v.entries) for v in vs]
    gram = [[sum((c * dicts[j].get(p, Fraction(0)) for p, c in dicts[i].items()),
                 Fraction(0)) for j in range(m)] for i in range(m)]

    def psd_all(t):
        for k in range(1, m):
            deficit = [[t * t * gram[i][j] - (gram[i][j] if i < k and j < k else 0)
                        for j in range(m)] for i in range(m)]
            ok, w = linalg.psd_check([linalg.int_row(row) for row in deficit])
            if not ok:
                return False, k, w
        return True, None, None

    ok, bad_k, w = psd_all(big_m)
    if not ok:
        prefix = spaces.combine(w[:bad_k] + [Fraction(0)] * (m - bad_k), vs)
        witness = (bad_k, tuple(w), spaces.norm(spaces.L2, prefix),
                   spaces.norm(spaces.L2, spaces.combine(w, vs)))
        # the floor of the witness's prefix ratio on the 2^-bits grid, for
        # the first of 12, 24, 48, ... bits where that floor exceeds M
        ratio_sq = witness[2].exact_sq / witness[3].exact_sq
        if ratio_sq <= big_m * big_m:
            raise AssertionError("the PSD witness does not escape the bound")
        bits = 12
        while (c_lo := Fraction(isqrt(math.floor(ratio_sq * 4 ** bits)), 2 ** bits)) <= big_m:
            bits *= 2
        c_lo = max(c_lo, Fraction(1))
        return ("fails", float(big_m - c_lo), big_m - c_lo,
                f"prefix {bad_k} escapes the bound (PSD witness)", witness,
                "exact-gram", c_lo, None, False)
    hi_units = REF_GRID
    while not psd_all(Fraction(hi_units, REF_GRID))[0]:
        hi_units *= 2
    lo_units = hi_units // 2 if hi_units > REF_GRID else REF_GRID
    if hi_units == REF_GRID:
        c_lo = c_hi = Fraction(1)
    else:
        while hi_units - lo_units > 1:
            mid = (hi_units + lo_units) // 2
            if psd_all(Fraction(mid, REF_GRID))[0]:
                hi_units = mid
            else:
                lo_units = mid
        c_lo, c_hi = Fraction(lo_units, REF_GRID), Fraction(hi_units, REF_GRID)
    return _ref_constant_report(c_lo, c_hi, big_m, "exact-gram",
                                "constant bracketed on the dyadic grid")


def _ref_schauder_polyhedral(space, vs, mat, big_m):
    m = len(vs)
    r = len(mat)
    sup = space.kind == "c0"
    count = math.comb(r, m) * (1 << (m - 1)) if sup else math.comb(r, m - 1)
    if count > REF_POLYHEDRAL_BUDGET:
        return None
    candidates = []
    if sup:
        for rows_idx in combinations(range(r), m):
            sub = [mat[j] for j in rows_idx]
            if ref_rank(sub) < m:
                continue
            for signs in product((1, -1), repeat=m - 1):
                a = ref_solve(sub, [Fraction(1)] + [Fraction(s) for s in signs])
                if a is not None and all(abs(t) <= 1 for t in ref_mat_vec(mat, a)):
                    candidates.append(a)
    else:
        for rows_idx in combinations(range(r), m - 1):
            ker = ref_nullspace([mat[j] for j in rows_idx])
            if len(ker) != 1:
                continue
            f = sum((abs(t) for t in ref_mat_vec(mat, ker[0])), Fraction(0))
            if f != 0:
                candidates.append([zi / f for zi in ker[0]])
    best = Fraction(1)
    best_a = None
    best_k = m
    for a in candidates:
        partial = Vector.zero()
        for k in range(1, m):
            partial = partial + vs[k - 1].scale(a[k - 1])
            nk = spaces.norm(space, partial).exact
            if nk > best:
                best, best_a, best_k = nk, a, k
    witness = None
    if best_a is not None:
        prefix = spaces.combine(best_a[:best_k] + [Fraction(0)] * (m - best_k), vs)
        witness = (best_k, tuple(best_a), spaces.norm(space, prefix),
                   spaces.norm(space, spaces.combine(best_a, vs)))
    return _ref_constant_report(best, best, big_m, "exact-polyhedral", witness=witness)


def _ref_schauder_sampled(space, vs, big_m, rng_seed):
    m = len(vs)
    rng = random.Random(rng_seed)
    patterns = []
    if m <= 6:
        patterns.extend([Fraction(s) for s in signs] for signs in product((1, -1), repeat=m))
    for _ in range(64):
        patterns.append([Fraction(round(rng.gauss(0, 1) * 256), 256) for _ in range(m)])
    c_lo = Fraction(1)
    witness = None
    for a in patterns:
        nf = spaces.norm(space, spaces.combine(a, vs))
        if nf.hi == 0:
            continue
        partial = Vector.zero()
        for k in range(1, m):
            partial = partial + vs[k - 1].scale(a[k - 1])
            nk = spaces.norm(space, partial)
            if nk.lo > c_lo * nf.hi:
                c_lo = nk.lo / nf.hi
                witness = (k, tuple(a), nk, nf)
    if c_lo > big_m:
        return ("fails", float(big_m - c_lo), big_m - c_lo,
                "sampled coefficients certify a violating prefix", witness, "sampled",
                c_lo, None, False)
    return ("inconclusive", None, None, "sampling cannot certify prefix bounds, only refute",
            witness, "sampled", c_lo, None, False)


# The Fraction simplex that `lp.solve_lp` replaced, with its elimination step
# and result record: the code as it stood before the tableau moved onto
# integer rows, with only the names changed (ref_ and _ref_ prefixes).  The
# LP tests record the pivot calls of both solvers and compare them.

def _ref_as_fraction(x) -> Fraction:
    """x as a Fraction; one that already is a Fraction is shared, not copied."""
    return x if type(x) is Fraction else Fraction(x)


def ref_pivot(m: Matrix, r: int, c: int, rows) -> None:
    """One exact elimination step: a unit pivot at m[r][c], column c cleared in `rows`.

    Row r is divided by its entry in column c, unless that entry is already
    1; then each listed row other than r loses its multiple of row r, and
    rows not listed are left alone.  Only the columns where the pivot row is
    nonzero can change, so skipping the rest leaves every entry exactly as a
    dense update would.
    """
    prow = m[r]
    inv = prow[c]
    if inv != 1:
        prow = [x / inv for x in prow]
        m[r] = prow
    targets = [m[i] for i in rows if i != r and m[i][c]]
    if not targets:
        return
    nonzero = [j for j, x in enumerate(prow) if x]
    for row in targets:
        f = row[c]
        for j in nonzero:
            row[j] -= f * prow[j]


@dataclass
class RefLpResult:
    """Outcome of one solve.

    x and value are the optimal point and objective value.  duals holds one
    optimal dual value per a_ub row, in order: the rate of change of the
    optimal value in that row's bound.  So value == b_ub . duals when there
    are no equality rows, and duals <= 0.  x and duals are empty and value
    is None unless optimal.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction]
    value: Fraction | None
    duals: list[Fraction]


def _ref_run_simplex(tableau, basis, ncols) -> str:
    """Minimize the last tableau row; Bland's rule on both choices."""
    while True:
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best_ratio = None
        best_row = None
        for i in range(len(tableau) - 1):
            a = tableau[i][col]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_ratio, best_row = ratio, i
        if best_row is None:
            return "unbounded"
        ref_pivot(tableau, best_row, col, range(len(tableau)))
        basis[best_row] = col


def ref_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()) -> RefLpResult:
    """min c.x subject to a_ub.x <= b_ub, a_eq.x == b_eq, x >= 0."""
    n = len(c)
    cost = [_ref_as_fraction(v) for v in c]

    rows: list[tuple[list[Fraction], bool, Fraction]] = []
    for row, b in zip(a_ub, b_ub):
        rows.append(([_ref_as_fraction(v) for v in row], True, _ref_as_fraction(b)))
    for row, b in zip(a_eq, b_eq):
        rows.append(([_ref_as_fraction(v) for v in row], False, _ref_as_fraction(b)))
    m = len(rows)
    nslack = sum(1 for _, has_slack, _ in rows if has_slack)
    total = n + nslack

    body: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_basic: list[int | None] = []
    slack_at = 0
    for coeffs, has_slack, b in rows:
        row = coeffs + [Fraction(0)] * nslack
        col = None
        if has_slack:
            col = n + slack_at
            row[col] = Fraction(1)
            slack_at += 1
        if b < 0:
            row = [-v for v in row]
            b = -b
            col = None  # slack coefficient is now -1: not a ready basis column
        body.append(row)
        rhs.append(b)
        slack_basic.append(col)

    art_rows = [i for i in range(m) if slack_basic[i] is None]
    art_col = {i: total + k for k, i in enumerate(art_rows)}
    width = total + len(art_rows) + 1

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i in range(m):
        row = body[i] + [Fraction(0)] * len(art_rows) + [rhs[i]]
        if i in art_col:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        else:
            basis.append(slack_basic[i])
        tableau.append(row)

    # phase 1: minimize the sum of artificials, priced out against their
    # rows, where each artificial's entry is already 1
    if art_rows:
        obj = [Fraction(0)] * width
        for i in art_rows:
            obj[art_col[i]] = Fraction(1)
        tableau.append(obj)
        for i in art_rows:
            ref_pivot(tableau, i, art_col[i], [m])
        status = _ref_run_simplex(tableau, basis, width - 1)
        if status != "optimal" or tableau[-1][-1] != 0:
            return RefLpResult("infeasible", [], None, [])
        tableau.pop()
        # pivot remaining artificials out of the basis; drop redundant rows
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= total:
                col = next((j for j in range(total) if tableau[i][j] != 0), None)
                if col is None:
                    drop.append(i)
                else:
                    ref_pivot(tableau, i, col, range(len(tableau)))
                    basis[i] = col
        for i in reversed(drop):
            tableau.pop(i)
            basis.pop(i)

    # phase 2 on structural + slack columns; the cost row is priced out
    # against the basic columns, whose entries are already 1
    tableau = [row[:total] + [row[-1]] for row in tableau]
    tableau.append(cost + [Fraction(0)] * (total - n + 1))
    for i, bcol in enumerate(basis):
        ref_pivot(tableau, i, bcol, [len(tableau) - 1])
    status = _ref_run_simplex(tableau, basis, total)
    if status == "unbounded":
        return RefLpResult("unbounded", [], None, [])

    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = tableau[i][-1]
    value = sum((a * b for a, b in zip(cost, x)), Fraction(0))
    # The objective row is cost minus pi times the stored rows, so the reduced
    # cost of the slack of a_ub row i is -y_i, whether or not the row was
    # negated for b < 0 (the sign flip hits both the slack and pi_i).
    duals = [-d for d in tableau[-1][n:total]]
    return RefLpResult("optimal", x, value, duals)


# The Fraction form of Wolfe's min-norm-point method that
# `predicates._simplex_min_qp` replaced, with its Gram matrix and its dual
# certificate: the code as it stood before the l2 layer moved onto one
# integer Gram matrix, with only the names changed (ref_ and _ref_
# prefixes).  It builds the library's result records, so a differential test
# can compare whole results.

def _ref_gram(vs: tuple[Vector, ...]) -> list[list[Fraction]]:
    m = len(vs)
    g = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            g[i][j] = g[j][i] = vs[i].dot(vs[j])
    return g


def _ref_exact_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def ref_simplex_min_qp(space: SpaceModel, vs: tuple[Vector, ...]) -> SimplexMinResult:
    """Exact l2 minimum by Wolfe's min-norm-point method on the Gram matrix.

    P. Wolfe, "Finding the nearest point in a polytope", Math. Programming 11
    (1976), in rationals.  The corral S is an affinely independent set of
    vectors whose affine hull holds the current point z = sum w_i x_i.  A
    major cycle adds the vector j least paired with z, and stops once
    <x_j, z> >= ||z||^2 for every j, which is the optimality condition that
    _ref_dual_certificate_l2 checks again.  A minor cycle moves z to the affine
    minimum of the corral, from the system [Q_S 1; 1^T 0], stepping back to
    the hull and dropping points whose weight reaches 0 when that minimum
    leaves it.  ||z||^2 strictly falls with every major cycle, so no corral
    recurs and the method ends; ties go to the lowest index throughout.
    """
    m = len(vs)
    q = _ref_gram(vs)
    start = min(range(m), key=lambda i: q[i][i])
    corral = [start]
    w = {start: Fraction(1)}
    best_sq: Fraction | None = None
    while True:
        qw = [sum(q[i][k] * w[k] for k in corral) for i in range(m)]
        sq = sum(w[k] * qw[k] for k in corral)
        if best_sq is not None and sq >= best_sq:
            raise ContractViolation("a major cycle of Wolfe's method did not lower the norm")
        best_sq = sq
        j = min(range(m), key=qw.__getitem__)
        if qw[j] >= sq:
            break
        if j in corral:
            raise ContractViolation(f"Wolfe's method chose vector {j} already in the corral")
        corral.append(j)
        w[j] = Fraction(0)
        while True:
            s = len(corral)
            system = [[q[a][b] for b in corral] + [Fraction(1)] for a in corral]
            system.append([Fraction(1)] * s + [Fraction(0)])
            sol = ref_solve(system, [Fraction(0)] * s + [Fraction(1)])
            if sol is None:
                raise ContractViolation("Wolfe's corral is affinely dependent")
            v = dict(zip(corral, sol))
            if all(v[k] > 0 for k in corral):
                w = v
                break
            theta = min(w[k] / (w[k] - v[k]) for k in corral if v[k] <= 0)
            w = {k: (1 - theta) * w[k] + theta * v[k] for k in corral}
            corral = [k for k in corral if w[k] > 0]
    weights = tuple(w.get(i, Fraction(0)) for i in range(m))
    combo = spaces.combine(weights, vs)
    nv = spaces.norm(space, combo)
    if nv.exact_sq != best_sq:
        raise ContractViolation(
            f"Gram value {best_sq} disagrees with the witness norm {nv.exact_sq}"
        )
    cert = _ref_dual_certificate_l2(space, vs, combo, best_sq)
    witness = SimplexWitness(weights, combo, nv)
    root = _ref_exact_sqrt(best_sq)
    return SimplexMinResult(
        nv.lo, nv.hi, witness, "exact-qp",
        exact=root, exact_sq=best_sq, certificate=cert,
    )


def _ref_dual_certificate_l2(
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
    for x in vs:
        if z.dot(x) < value_sq:
            raise ContractViolation("stationary point violates its own optimality system")
    scale = _ref_exact_sqrt(1 / value_sq)
    if scale is None:
        scale = linalg.sqrt_lower(1 / value_sq, spaces.BRACKET_BITS)
    g = z.scale(scale)
    if scale * scale * value_sq > 1:
        raise ContractViolation("certificate scale exceeds the unit dual ball")
    functional = Functional(space, g, Fraction(1))
    lower = scale * value_sq
    hi = linalg.sqrt_upper(value_sq, spaces.BRACKET_BITS)
    return DualCertificate(functional, lower, hi - lower)


# The bracket-minimum ends of `predicates` as they stood before the lower end
# skipped comparison minima that cannot raise it and the descent skipped
# zero coefficients, with only the names changed and the comparison-minimum
# solver passed in (the library's `simplex_min_norm`, for l1, sup and l2).

def _ref_coordinate_rows(vectors: tuple[Vector, ...]) -> list[int]:
    rows: set[int] = set()
    for v in vectors:
        rows.update(v.support)
    return sorted(rows)


def ref_simplex_min_bracket_lower(space: SpaceModel, vs: tuple[Vector, ...],
                                  simplex_min) -> Fraction:
    """Certified lower end of a bracket minimum.

    The largest exact minimum of a comparison norm that the p-norm
    dominates: l2 when p < 2, sup always, and l1 scaled by the support-size
    Holder factor.  Every vertex is a feasible point, so no vertex norm may
    fall below it; that is checked here, where it costs m norm brackets.
    """
    p = space.p
    if p is None:
        raise ContractViolation("a bracket minimum needs a finite exponent")
    sup_min = simplex_min(spaces.C0, vs)
    if sup_min.exact is None:
        raise ContractViolation("the sup-norm simplex minimum came back inexact")
    candidates = [sup_min.exact]
    if p < 2:
        candidates.append(simplex_min(spaces.L2, vs).lo)
    d = len(_ref_coordinate_rows(vs))
    if d:
        l1_min = simplex_min(spaces.L1, vs)
        if l1_min.exact is None:
            raise ContractViolation("the l1 simplex minimum came back inexact")
        a, b = p.numerator, p.denominator
        _, holder_hi = linalg.nthroot_brackets(Fraction(d ** (a - b)), a, 64)
        candidates.append(l1_min.exact / holder_hi)
    lo = max(candidates)
    if any(spaces.norm(space, v).hi < lo for v in vs):
        raise ContractViolation("bracket bounds crossed; comparison-norm reasoning is wrong")
    return lo


def _ref_project_simplex(a: list[float]) -> list[float]:
    srt = sorted(a, reverse=True)
    acc = 0.0
    rho, theta = 0, 0.0
    for i, v in enumerate(srt, 1):
        acc += v
        t = (acc - 1.0) / i
        if v - t > 0:
            rho, theta = i, t
    return [max(0.0, v - theta) for v in a]


def ref_simplex_min_bracket_upper(space: SpaceModel, vs: tuple[Vector, ...],
                                  lo: Fraction, visits: list | None = None) -> SimplexMinResult:
    """The enclosure of a bracket minimum whose lower end is `lo`.

    Upper end: the exact norm bracket at the best rational candidate that
    projected subgradient descent finds (m + 1 starts of 120 steps, the full
    schedule, snapped to the 2^-12 grid), or at a vertex when one is
    tighter.  The descent multiplies out every coefficient of the dense
    coordinate matrix, zeros included.  `visits`, when given, receives the
    (point, value, gradient) of every evaluation in order.
    """
    m = len(vs)
    rows = _ref_coordinate_rows(vs)
    cols = [[float(coordinate(v, r)) for r in rows] for v in vs]
    pf = float(space.p)

    def fval_grad(a: list[float]) -> tuple[float, list[float]]:
        z = [sum(a[n] * cols[n][j] for n in range(m)) for j in range(len(rows))]
        s = sum(abs(t) ** pf for t in z)
        f = s ** (1 / pf) if s > 0 else 0.0
        if f <= 0:
            return 0.0, [0.0] * m
        gz = [math.copysign(abs(t) ** (pf - 1), t) / f ** (pf - 1) for t in z]
        return f, [sum(gz[j] * cols[n][j] for j in range(len(rows))) for n in range(m)]

    starts = [[1.0 / m] * m]
    for i in range(m):
        e = [0.0] * m
        e[i] = 1.0
        starts.append(e)
    best_pt: list[float] | None = None
    best_f = math.inf
    for a in starts:
        cur = a[:]
        for t in range(1, 121):
            f, grad = fval_grad(cur)
            if visits is not None:
                visits.append((cur, f, grad))
            if f < best_f:
                best_f, best_pt = f, cur[:]
            gn = math.sqrt(sum(g * g for g in grad)) or 1.0
            step = 0.3 / (gn * math.sqrt(t))
            cur = _ref_project_simplex([cur[i] - step * grad[i] for i in range(m)])
        f, grad = fval_grad(cur)
        if visits is not None:
            visits.append((cur, f, grad))
        if f < best_f:
            best_f, best_pt = f, cur[:]
    if best_pt is None:
        raise ContractViolation("the descent found no point with a finite norm")
    grid = 1 << 12  # predicates.MARGIN_GRID_BITS
    snapped = [Fraction(max(0, round(w * grid)), grid) for w in best_pt]
    total = sum(snapped, Fraction(0))
    weights = tuple(w / total for w in snapped) if total else tuple(
        [Fraction(1)] + [Fraction(0)] * (m - 1)
    )
    combo = spaces.combine(weights, vs)
    nv = spaces.norm(space, combo)
    hi = nv.hi
    # vertices are feasible too; keep whichever bound is tighter
    for i in range(m):
        vn = spaces.norm(space, vs[i])
        if vn.hi < hi:
            hi = vn.hi
            weights = tuple(Fraction(1) if j == i else Fraction(0) for j in range(m))
            combo, nv = vs[i], vn
    if hi < lo:
        raise ContractViolation("bracket bounds crossed; comparison-norm reasoning is wrong")
    witness = SimplexWitness(weights, combo, nv)
    return SimplexMinResult(lo, hi, witness, "bracket")


# The Fraction form of `spaces.Vector` and of its norms, before a vector held
# int numerators over one denominator: sorted (position, Fraction) pairs and
# sums of Fractions, with only the names changed.  A differential test
# checks the int form against it, value for value.

class RefVector:
    def __init__(self, entries: tuple[tuple[int, Fraction], ...] = ()):
        self.entries = entries

    @staticmethod
    def from_pairs(pairs) -> "RefVector":
        acc: dict[int, Fraction] = {}
        for pos, coeff in pairs:
            coeff = Fraction(coeff)
            acc[pos] = acc[pos] + coeff if pos in acc else coeff
        return RefVector(tuple((p, c) for p, c in sorted(acc.items()) if c != 0))

    def scale(self, factor) -> "RefVector":
        factor = Fraction(factor)
        if factor == 0:
            return RefVector()
        return RefVector(tuple((p, factor * c) for p, c in self.entries))

    def dot(self, other: "RefVector") -> Fraction:
        mine = dict(self.entries)
        return sum((mine[p] * c for p, c in other.entries if p in mine), Fraction(0))

    def shift(self, offset: int = 1) -> "RefVector":
        return RefVector(tuple((p + offset, c) for p, c in self.entries))


def ref_combine(coeffs, vectors) -> RefVector:
    pairs = []
    for a, v in zip(coeffs, vectors):
        a = Fraction(a)
        if a != 0:
            pairs.extend((p, a * c) for p, c in v.entries)
    return RefVector.from_pairs(pairs)


def _ref_enclose(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    if lo == hi:
        value = float(lo)
        return value, abs(value) * 1e-15 + 1e-300
    value = float((lo + hi) / 2)
    slack = abs(value) * 1e-15 + 1e-300
    return value, float(hi - lo) / 2 + slack


def ref_norm(space: SpaceModel, v: RefVector) -> spaces.NormValue:
    """The norm of v as `spaces.norm` computed it on Fraction entries."""
    bits = spaces.BRACKET_BITS
    if space.kind == "c0":
        m = max((abs(c) for _, c in v.entries), default=Fraction(0))
        return spaces.NormValue(*_ref_enclose(m, m), m, m, exact=m)
    p = space.p
    if p == 1:
        s = sum((abs(c) for _, c in v.entries), Fraction(0))
        return spaces.NormValue(*_ref_enclose(s, s), s, s, exact=s)
    if p == 2:
        sq = sum((c * c for _, c in v.entries), Fraction(0))
        lo, hi = linalg.sqrt_lower(sq, bits), linalg.sqrt_upper(sq, bits)
        return spaces.NormValue(*_ref_enclose(lo, hi), lo, hi, exact_sq=sq)
    a, b = p.numerator, p.denominator
    slo = shi = Fraction(0)
    for _, c in v.entries:
        t = abs(c) ** a
        if b == 1:
            slo += t
            shi += t
        else:
            tlo, thi = linalg.nthroot_brackets(t, b, bits)
            slo += tlo
            shi += thi
    if shi == 0:
        return spaces.NormValue(0.0, 0.0, Fraction(0), Fraction(0))
    lo, _ = linalg.nthroot_brackets(slo**b, a, bits)
    _, hi = linalg.nthroot_brackets(shi**b, a, bits)
    return spaces.NormValue(*_ref_enclose(lo, hi), lo, hi)
