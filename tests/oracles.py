"""Independent oracles the test suite checks the library against.

Everything in this file is deliberately dumb: dense numpy grids, exhaustive
scans, closed forms derived by hand.  None of it imports the library's
decision logic, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np


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


def brute_tree_rank(nodes: set, node=()) -> int:
    """Ordinal-style rank of a finite prefix-closed tree, recursively."""
    kids = [node + (i,) for i in {n[len(node)] for n in nodes
                                  if len(n) > len(node) and n[:len(node)] == node}]
    if not kids:
        return 0
    return 1 + max(brute_tree_rank(nodes, k) for k in kids)


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
