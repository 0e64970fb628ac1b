"""Node-indexed trees over a set model, and bounded traversals of them.

A node is a finite tuple of selector indices.  The weak-compactness tree for
a family F at parameters (eps, M) contains a node exactly when the selected
vectors, in order, pass both node predicates: the M-Schauder prefix bound and
eps-domination of the summing basis.  Because the predicates can come back
inconclusive on bracket-mode spaces, membership is three-valued, and the
searches are careful about which claims an unknown node can block:

* a well-foundedness claim needs *every* not-certainly-failing path to die
  before the target depth;
* a branch certificate needs every node on the path to hold outright.

Every bounded traversal rests on `expand`, which evaluates a node's children
below the index bound at one `SearchBudget` unit each and stops at the first
refused charge (`budget.exhausted` then says the traversal was cut).  The
depth-first `walk` serves `bounded_wf_search` and the DOT export;
`branch_search` and `levels` expand breadth-first instead, since under a
budget cut the two orders evaluate different nodes.  A beam level stops once
no unevaluated child can enter the beam, since a child's margin is at most
its parent's; only evaluated children are charged.  `levels` counts verdicts
per depth and finds the certified rank in one pass, of which `rank_within`
is a view, so `analyze-tree` evaluates each node once.

Membership depends on the selected vectors alone, so a tree gives each
distinct vector one id, memoizes its evaluations by the node's tuple of ids,
and keeps a record per set of ids: its domination verdict, failures
included, and the evaluations that do not depend on the node's order.  It
also owns the simplex-minimum memo of its domination tests, one entry for
every order and repetition of the same vectors, so all a command has
computed lives as long as its tree; no state outlives it.

The stacked tree interleaves every parameter scale: its section at first
index n is the (1/(n+1), n+1)-tree of the same family, so one tree carries
the whole parameter sweep, and its sections share one simplex memo.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import namedtuple
from fractions import Fraction

from . import enumeration, predicates
from .errors import ConfigurationError, ContractViolation
from .predicates import FAILS, HOLDS, INCONCLUSIVE, SchauderReport, Verdict3
from .sets import SetModel
from .spaces import Vector


class NodeEvaluation(namedtuple("NodeEvaluation", "verdict domination schauder",
                                defaults=(None, None))):
    """Joint verdict of the two node predicates, with per-predicate detail."""

    __slots__ = ()


def _combine(domination: Verdict3, schauder: SchauderReport | None) -> Verdict3:
    if domination.kind == FAILS:
        return Verdict3(FAILS, domination.margin, domination.exact_margin,
                        domination.witness, "domination: " + domination.detail)
    if schauder is None:
        raise ContractViolation("a node that passes domination needs a prefix-bound report")
    sv = schauder.verdict
    if sv.kind == FAILS:
        return Verdict3(FAILS, sv.margin, sv.exact_margin, sv.witness,
                        "prefix bound: " + sv.detail)
    if domination.kind == INCONCLUSIVE or sv.kind == INCONCLUSIVE:
        which = "domination" if domination.kind == INCONCLUSIVE else "prefix bound"
        return Verdict3(INCONCLUSIVE, None, None, None, f"{which} undecided")
    dm, sm = domination.margin, sv.margin
    de, se = domination.exact_margin, sv.exact_margin
    return Verdict3(HOLDS, sm if dm is None else dm if sm is None else min(dm, sm),
                    None if de is None or se is None else min(de, se),
                    None, "both predicates hold")


class WcTree:
    """Tree of finite selector-index tuples passing both node predicates.

    Each selector index is read once, and equal vectors share one id, so
    evaluations memoized by the node's tuple of ids serve every node that
    selects the same vectors, at other indices too.  The first node of each
    set of ids makes its record: the distinct vectors in first-seen order,
    their domination verdict, which serves every order and repetition of
    them (a failing one with its witness weights moved to the node's order,
    `predicates.reordered`), and the one evaluation that every order of them
    shares when their supports are disjoint and the verdict does not fail.
    A node whose first repeat is x_j = x_i fails on sight: its prefix-bound
    report and verdict are kept by (length, i, j), with its evaluation for
    each set of ids.
    `simplex_memo`, the simplex-minimum memo of every domination test, has
    one entry for every order and every repetition of the same vectors (and
    every section of a `StackedTree`, whose verdicts differ in eps).  All of
    them live as long as the tree.
    """

    def __init__(self, family: SetModel, eps: Fraction, big_m: Fraction,
                 tol: Fraction = Fraction(0),
                 simplex_memo: dict | None = None):
        eps, big_m = Fraction(eps), Fraction(big_m)
        if not 0 < eps <= 1:
            raise ConfigurationError("eps must satisfy 0 < eps <= 1", "/eps")
        if big_m < 1:
            raise ConfigurationError("M must satisfy M >= 1", "/M")
        self.family = family
        self.eps = eps
        self.big_m = big_m
        self.tol = Fraction(tol)
        self._ids: dict[int, int] = {}  # selector index -> id of its vector
        self._interned: dict[Vector, int] = {}  # vector -> its id
        self._by_id: list[Vector] = []
        self._cache: dict[tuple[int, ...], NodeEvaluation] = {}
        self._sets: dict[frozenset[int], tuple] = {}  # ids -> the set's record
        self._repeats: dict[tuple[int, int, int], tuple[Verdict3, SchauderReport, dict]] = {}
        self.simplex_memo = {} if simplex_memo is None else simplex_memo

    def _key(self, node: tuple[int, ...]) -> tuple[int, ...]:
        ids = self._ids
        for i in node:
            if i not in ids:  # first sight: intern its vector
                v = self.family.selector(i)
                k = ids[i] = self._interned.setdefault(v, len(self._by_id))
                if k == len(self._by_id):
                    self._by_id.append(v)
        return tuple([ids[i] for i in node])

    def member(self, node: tuple[int, ...]) -> NodeEvaluation:
        key = self._key(node)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if not key:
            ev = NodeEvaluation(Verdict3(HOLDS, None, None, None, "root"))
        else:
            space, by_id, ids = self.family.space, self._by_id, frozenset(key)
            kept = self._sets.get(ids)
            if kept is None:
                distinct = tuple([by_id[k] for k in dict.fromkeys(key)])
                dom = predicates.is_eps_dominating(space, distinct, self.eps, self.tol,
                                                   self.simplex_memo)
                shared = None
                if dom.kind != FAILS and predicates.disjoint_supports(distinct):
                    sch = predicates.is_M_schauder(space, distinct, self.big_m)
                    shared = NodeEvaluation(_combine(dom, sch), dom, sch)
                kept = self._sets[ids] = (distinct, dom, shared)
            solved, dom, shared = kept
            if dom.kind == FAILS:
                vs = tuple([by_id[k] for k in key])
                if solved != vs:  # its witness weights follow the node's order
                    dom = dom._replace(witness=predicates.reordered(dom.witness, solved, vs))
                ev = NodeEvaluation(_combine(dom, None), dom, None)
            elif len(key) > len(solved):  # a repeated vector fails on sight
                at = (len(key), *predicates.first_repeat(key))
                failed = self._repeats.get(at)
                if failed is None:
                    sch = predicates.repeat_report(*at)
                    failed = self._repeats[at] = (_combine(dom, sch), sch, {})
                ev = failed[2].get(ids)
                if ev is None:
                    ev = failed[2][ids] = NodeEvaluation(failed[0], dom, failed[1])
            elif shared is not None:
                ev = shared
            else:
                sch = predicates.is_M_schauder(space, [by_id[k] for k in key], self.big_m)
                ev = NodeEvaluation(_combine(dom, sch), dom, sch)
        self._cache[key] = ev
        return ev

    def params(self) -> dict:
        return {"eps": str(self.eps), "M": str(self.big_m)}

    def __repr__(self):
        return f"WcTree({self.family.ident!r}, eps={self.eps}, M={self.big_m})"


class StackedTree:
    """All parameter scales of a family in one tree.

    A node (n, u_1, ..., u_k) belongs exactly when (u_1, ..., u_k) belongs to
    the section tree with eps = 1/(n+1) and M = n+1; the empty node always
    belongs.  Well-foundedness of every section is therefore equivalent to
    well-foundedness of this single tree.  Every section shares one
    simplex memo, since the simplex minimum does not depend on eps or M.
    """

    def __init__(self, family: SetModel, tol: Fraction = Fraction(0)):
        self.family = family
        self.tol = Fraction(tol)
        self._sections: dict[int, WcTree] = {}
        self.simplex_memo: dict = {}

    def section(self, n: int) -> WcTree:
        if n < 0:
            raise ValueError("section indices are naturals")
        tree = self._sections.get(n)
        if tree is None:
            tree = WcTree(self.family, Fraction(1, n + 1), Fraction(n + 1), self.tol,
                          self.simplex_memo)
            self._sections[n] = tree
        return tree

    def member(self, node: tuple[int, ...]) -> NodeEvaluation:
        node = tuple(node)
        if not node:
            return NodeEvaluation(Verdict3(HOLDS, None, None, None, "root"))
        return self.section(node[0]).member(node[1:])

    def params(self) -> dict:
        return {"stacked": True}


# ---------------------------------------------------------------------------
# the traversal core


class SearchBudget:
    """A count of the nodes a search has charged against its `max_nodes`."""

    __slots__ = ("max_nodes", "spent")

    def __init__(self, max_nodes: int = 100_000):
        if max_nodes < 0:
            raise ConfigurationError("node budget must be nonnegative", "/node-budget")
        self.max_nodes = max_nodes
        self.spent = 0

    def charge(self) -> bool:
        self.spent += 1
        return self.spent <= self.max_nodes

    @property
    def exhausted(self) -> bool:
        """True once a charge has been refused."""
        return self.spent > self.max_nodes


def _check_bounds(depth: int, index_bound: int) -> None:
    if depth < 1:
        raise ConfigurationError("depth must be at least 1", "/depth")
    if index_bound < 1:
        raise ConfigurationError("index bound must be at least 1", "/index-bound")


def expand(tree, node: tuple[int, ...], index_bound: int, budget: SearchBudget):
    """Yield (child, evaluation) for node + (i,), i < index_bound, in order.

    Each child costs one budget unit, charged just before it is evaluated;
    the first refused charge ends the expansion.
    """
    for i in range(index_bound):
        if not budget.charge():
            return
        child = node + (i,)
        yield child, tree.member(child)


def walk(tree, depth: int, index_bound: int, budget: SearchBudget):
    """Depth-first pre-order over `expand`, down to `depth`.

    Every evaluated (node, evaluation) is yielded before its children; a
    node is expanded unless it fails.  A stack holds the open expansions.
    """
    _check_bounds(depth, index_bound)

    def visit():
        stack = [expand(tree, (), index_bound, budget)]
        while stack:
            for child, ev in stack[-1]:
                yield child, ev
                if len(child) < depth and ev.verdict.kind != FAILS:
                    stack.append(expand(tree, child, index_bound, budget))
                    break
            else:
                stack.pop()

    return visit()


def levels(tree, depth: int, index_bound: int,
           budget: SearchBudget) -> tuple[list[dict[str, int]], int, bool]:
    """(counts, rank, complete): verdict counts per depth, breadth-first
    through not-failing nodes, and the rank of the certified-holds region.

    Stops after a level that the budget cuts or that leaves nothing to expand.
    The rank is the depth of the deepest evaluated node whose every prefix
    holds.  It is incomplete when an undecided child of such a node, a budget
    cut or a rank at `depth` itself may hide taller certified structure.
    """
    _check_bounds(depth, index_bound)
    counts_by_depth = []
    rank, complete = 0, True
    frontier = [((), True)]  # (node, whether every node on its path holds)
    for d in range(1, depth + 1):
        counts = {HOLDS: 0, FAILS: 0, INCONCLUSIVE: 0}
        nxt = []
        for node, certified in frontier:
            for child, ev in expand(tree, node, index_bound, budget):
                kind = ev.verdict.kind
                counts[kind] += 1
                if kind == FAILS:
                    continue
                on_path = certified and kind == HOLDS
                if on_path:
                    rank = d
                elif certified:  # undecided below an all-holds path
                    complete = False
                nxt.append((child, on_path))
        counts_by_depth.append(counts)
        if budget.exhausted or not nxt:
            break
        frontier = nxt
    if budget.exhausted or rank >= depth:
        complete = False
    return counts_by_depth, rank, complete


# ---------------------------------------------------------------------------
# bounded searches


class SearchStats(namedtuple("SearchStats", "evaluated holds fails inconclusive exhausted",
                             defaults=(False,))):
    """Nodes evaluated, by verdict, and whether the budget cut the search."""

    __slots__ = ()


WELL_FOUNDED = "well-founded-within"
BRANCH_FOUND = "branch-found"


class WfVerdict(namedtuple("WfVerdict", "kind depth index_bound branch stats detail",
                           defaults=("",))):
    """Outcome of an exhaustive bounded search.

    well-founded-within: no path that could lie in the tree reaches the
    target depth under the index bound.  branch-found: a certified all-holds
    path does.  Anything weaker (unknown nodes at depth, exhausted budget)
    is inconclusive — an unknown node never supports a claim.
    """

    __slots__ = ()


def bounded_wf_search(
    tree,
    depth: int,
    index_bound: int,
    budget: SearchBudget | None = None,
) -> WfVerdict:
    """Exhaustive depth-first scan of the tree under the given bounds.

    Children are tried in ascending index order, so the branch returned on
    success is the lexicographically least certified branch.  A node below
    an inconclusive node is tainted: reaching the target depth through it
    certifies nothing.
    """
    budget = budget or SearchBudget()
    counts = {HOLDS: 0, FAILS: 0, INCONCLUSIVE: 0}
    tainted: set[tuple[int, ...]] = set()
    branch = unknown_at_depth = None
    for node, ev in walk(tree, depth, index_bound, budget):
        kind = ev.verdict.kind
        counts[kind] += 1
        if kind == FAILS:
            continue
        if kind == INCONCLUSIVE or node[:-1] in tainted:
            tainted.add(node)
        if len(node) == depth:
            if node not in tainted:
                branch = node
                break
            if unknown_at_depth is None:
                unknown_at_depth = node
    stats = SearchStats(sum(counts.values()), counts[HOLDS], counts[FAILS],
                        counts[INCONCLUSIVE], budget.exhausted)
    if branch is not None:
        return WfVerdict(BRANCH_FOUND, depth, index_bound, branch, stats,
                         "lexicographically least certified branch")
    if budget.exhausted:
        return WfVerdict(INCONCLUSIVE, depth, index_bound, None, stats,
                         "node budget exhausted before the scan completed")
    if unknown_at_depth is not None:
        return WfVerdict(
            INCONCLUSIVE, depth, index_bound, None, stats,
            f"an undecided path reaches depth {depth}: {list(unknown_at_depth)}")
    return WfVerdict(WELL_FOUNDED, depth, index_bound, None, stats,
                     "every candidate path dies before the target depth")


class PrefixRecord(namedtuple("PrefixRecord", "node kind margin")):
    """One prefix of a branch, its verdict kind and its margin (or None)."""

    __slots__ = ()


class BranchCertificate(namedtuple(
        "BranchCertificate", "branch depth index_bound prefixes generator min_margin")):
    """A depth-long all-holds path with per-prefix margins.

    `generator` describes the index pattern when one is recognized, e.g.
    ("affine", step, offset) for u_n = step*n + offset (0-based positions).
    """

    __slots__ = ()


def _detect_generator(branch: tuple[int, ...]) -> tuple | None:
    if len(branch) < 2:
        return None
    step = branch[1] - branch[0]
    offset = branch[0]
    if all(branch[n] == step * n + offset for n in range(len(branch))):
        return ("affine", step, offset)
    return None


def branch_search(
    tree,
    depth: int,
    index_bound: int,
    beam_width: int = 4,
    budget: SearchBudget | None = None,
) -> BranchCertificate | None:
    """Beam search for a certified branch, preferring well-separated nodes.

    Partial branches are ranked by (-margin, indices): the widest certified
    slack survives pruning, and exact ties resolve lexicographically, so the
    returned branch is reproducible.  Returns None when the beam dies or the
    budget runs out before the target depth.

    Beam nodes are expanded in key order, and a child's margin is at most
    its parent's, so a level stops once the beam is full and its worst key
    is below (-parent margin, next sibling of the last evaluated child): no
    unevaluated child could enter it.  The next beam is the one that
    evaluating every child would give; the budget is charged for evaluated
    children only.
    """
    _check_bounds(depth, index_bound)
    if beam_width < 1:
        raise ConfigurationError("beam width must be at least 1", "/beam-width")
    budget = budget or SearchBudget()
    beam: list[tuple[tuple[int, ...], float]] = [((), math.inf)]
    for _ in range(depth):
        kept: list[tuple[float, tuple[int, ...]]] = []  # the least keys, sorted
        for node, node_margin in beam:
            for child, ev in expand(tree, node, index_bound, budget):
                if ev.verdict.holds:
                    margin = ev.verdict.margin
                    insort(kept, (-min(node_margin, math.inf if margin is None else margin),
                                  child))
                    del kept[beam_width:]
                # every unevaluated child, of this node or of a later one, has
                # a key at least (-node_margin, next sibling): the beam is
                # sorted by key, and a child's margin is at most its parent's
                if (len(kept) == beam_width
                        and kept[-1] < (-node_margin, node + (child[-1] + 1,))):
                    break
            else:
                if budget.exhausted:
                    return None
                continue
            break
        if not kept:
            return None
        beam = [(node, -key) for key, node in kept]
    branch = min(node for node, _ in beam)
    records = []
    worst: float | None = None
    for k in range(1, depth + 1):
        ev = tree.member(branch[:k])
        m = ev.verdict.margin
        records.append(PrefixRecord(branch[:k], ev.verdict.kind, m))
        if m is not None:
            worst = m if worst is None else min(worst, m)
    return BranchCertificate(branch, depth, index_bound, tuple(records),
                             _detect_generator(branch), worst)


def validate_certificate(tree, cert: BranchCertificate) -> bool:
    """Re-evaluate every prefix of a claimed branch; True iff all hold.

    The check is independent only on a tree that did not produce the claim:
    the tree that found the branch answers every prefix from its cache.
    """
    if len(cert.branch) != cert.depth:
        return False
    return all(
        tree.member(cert.branch[:k]).verdict.holds
        for k in range(1, cert.depth + 1)
    )


def rank_within(tree, depth: int, index_bound: int,
                budget: SearchBudget | None = None) -> tuple[int, bool]:
    """(rank, complete) of the certified-holds region under the bounds, as
    `levels` finds them: the rank is the length of the longest evaluated
    all-holds path from the root."""
    _, rank, complete = levels(tree, depth, index_bound, budget or SearchBudget())
    return rank, complete


def encode_characteristic(tree, count: int,
                          budget: SearchBudget | None = None) -> tuple[str, list[int]]:
    """Characteristic bits of the first `count` nodes in canonical order.

    Node c is the tuple decoded from c by the universal sequence code; the
    bit is 1 for certified members, 0 for certified non-members, and the
    returned side list carries the indices whose membership stayed open,
    undecided or never evaluated because the budget refused its charge.
    """
    if count < 0:
        raise ConfigurationError("characteristic count must be nonnegative", "/char-count")
    bits = []
    open_indices: list[int] = []
    for c in range(count):
        node = tuple(enumeration.seq_decode(c))
        ev = tree.member(node) if budget is None or budget.charge() else None
        if ev is None or ev.verdict.inconclusive:
            bits.append("0")
            open_indices.append(c)
        else:
            bits.append("1" if ev.verdict.holds else "0")
    return "".join(bits), open_indices
