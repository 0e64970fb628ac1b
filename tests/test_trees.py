"""Tree membership, bounded searches, certificates, rank, characteristic."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (RefBudget, ref_branch_search, ref_certified_rank,
                     ref_dot_walk, ref_levels, ref_rank_within, ref_wf_search)
from wctree import cli, predicates, spaces
from wctree.enumeration import seq_decode, unpair
from wctree.errors import ConfigurationError, ContractViolation
from wctree.predicates import (FAILS, HOLDS, INCONCLUSIVE, SimplexWitness,
                               Verdict3, is_M_schauder, is_eps_dominating,
                               simplex_min_norm)
from wctree.sets import (SetModel, dense_space, explicit_list, hilbert_cube,
                         summing_hull, unit_vector_family, unit_vector_hull)
from wctree.spaces import L1, L2, Vector, combine, lp_space
from wctree.trees import (BRANCH_FOUND, WELL_FOUNDED, NodeEvaluation,
                          SearchBudget, StackedTree, WcTree, _combine,
                          bounded_wf_search, branch_search,
                          encode_characteristic, expand, levels, rank_within,
                          validate_certificate, walk)

F = Fraction


def family_tree(eps="3/5", big_m="2"):
    return WcTree(unit_vector_family(L2), F(eps), F(big_m))


def test_parameter_validation():
    fam = unit_vector_family(L2)
    with pytest.raises(ConfigurationError):
        WcTree(fam, F(0), F(2))
    with pytest.raises(ConfigurationError):
        WcTree(fam, F(3, 2), F(2))
    with pytest.raises(ConfigurationError):
        WcTree(fam, F(1, 2), F(1, 2))


def test_root_always_belongs():
    assert family_tree().member(()).verdict.holds


def test_node_evaluation_combines_predicates():
    tree = family_tree()
    # two orthonormal vectors: min norm 1/sqrt(2) > 3/5, constant 1 <= 2
    ev = tree.member((0, 1))
    assert ev.verdict.holds
    assert ev.domination is not None and ev.schauder is not None
    # three orthonormal: min norm 1/sqrt(3) < 3/5 -> domination fails
    ev = tree.member((0, 1, 2))
    assert ev.verdict.fails
    assert ev.domination.fails


def test_repeated_index_fails_prefix_boundedness():
    tree = family_tree()
    ev = tree.member((0, 0))
    assert ev.verdict.fails
    assert ev.schauder is not None and ev.schauder.unbounded


def test_membership_is_monotone_in_parameters():
    fam = unit_vector_family(L2)
    rng = random.Random(3)
    for _ in range(40):
        node = tuple(rng.sample(range(6), rng.randint(1, 3)))
        eps = F(rng.randint(1, 10), 10)
        big_m = F(rng.randint(1, 3))
        stricter = WcTree(fam, eps, big_m).member(node).verdict
        weaker = WcTree(fam, eps / 2, big_m * 2).member(node).verdict
        if stricter.holds:
            assert weaker.holds


def test_stacked_tree_sections_delegate():
    fam = unit_vector_family(L2)
    stacked = StackedTree(fam)
    assert stacked.member(()).verdict.holds
    for n in range(4):
        section = WcTree(fam, F(1, n + 1), F(n + 1))
        for node in [(0,), (0, 1), (0, 1, 2), (2, 4)]:
            assert stacked.member((n,) + node).verdict.kind == \
                section.member(node).verdict.kind
    assert StackedTree(fam).section(3).eps == F(1, 4)


def test_wf_search_verdict_and_counts():
    verdict = bounded_wf_search(family_tree(), 4, 16)
    assert verdict.kind == WELL_FOUNDED
    assert verdict.branch is None
    assert verdict.stats.fails > 0 and verdict.stats.inconclusive == 0


def test_wf_search_finds_lex_least_branch():
    tree = WcTree(unit_vector_hull(L1), F(1), F(1))
    verdict = bounded_wf_search(tree, 3, 16)
    assert verdict.kind == BRANCH_FOUND
    assert verdict.branch == (0, 4, 8)  # unit vectors sit at multiples of 4


def test_wf_search_budget_exhaustion_is_inconclusive():
    tree = WcTree(unit_vector_hull(L1), F(1), F(1))
    verdict = bounded_wf_search(tree, 5, 24, SearchBudget(10))
    assert verdict.kind not in (WELL_FOUNDED,)
    assert verdict.stats.exhausted


def test_branch_search_certificate_roundtrip():
    tree = WcTree(unit_vector_hull(L1), F(1), F(1))
    cert = branch_search(tree, 5, 24, beam_width=3)
    assert cert is not None
    assert cert.depth == 5
    assert cert.generator == ("affine", 4, 0)
    assert [p.kind for p in cert.prefixes] == ["holds"] * 5
    assert cert.min_margin == 0.0
    assert validate_certificate(tree, cert)
    # certificates do not survive being replayed against a stricter tree
    colder = WcTree(unit_vector_family(L2), F(3, 5), F(2))
    assert not validate_certificate(colder, cert)


def test_branch_search_returns_none_when_tree_dies():
    tree = WcTree(hilbert_cube(L2), F(7, 10), F(2))
    assert branch_search(tree, 1, 32) is None


def test_expand_evaluates_extensions():
    tree = family_tree()
    kids = list(expand(tree, (0,), 4, SearchBudget()))
    assert [c for c, ev in kids if ev.verdict.holds] == [(0, 1), (0, 2), (0, 3)]  # (0,0) repeats


def test_expand_stops_at_first_refused_charge():
    tree = family_tree()
    budget = SearchBudget(2)
    assert [c for c, _ in expand(tree, (0,), 4, budget)] == [(0, 0), (0, 1)]
    assert budget.spent == 3 and budget.exhausted
    budget = SearchBudget(4)
    assert len(list(expand(tree, (0,), 4, budget))) == 4
    assert budget.spent == 4 and not budget.exhausted
    with pytest.raises(AttributeError):
        budget.exhausted = True  # derived from spent, never set by hand


def test_combine_needs_a_schauder_report_under_python_O():
    holding = Verdict3(HOLDS, 0.5, F(1, 2), None, "certified")
    with pytest.raises(ContractViolation):
        _combine(holding, None)


def test_rank_within_on_live_tree():
    rank, complete = rank_within(family_tree(), 4, 16)
    assert rank == 2  # pairs hold, triples all fail
    assert complete

    # only e0 and e1 are selected below index 8, so the region is shallow
    rank, complete = rank_within(WcTree(unit_vector_hull(L1), F(1), F(1)), 3, 8)
    assert (rank, complete) == (2, True)
    # raising the bound to reach e2 saturates the probe depth instead
    rank, complete = rank_within(WcTree(unit_vector_hull(L1), F(1), F(1)), 3, 10)
    assert (rank, complete) == (3, False)


def test_characteristic_bits_follow_canonical_coding():
    tree = family_tree()
    bits, open_idx = encode_characteristic(tree, 24)
    assert len(bits) == 24 and not open_idx
    for i, ch in enumerate(bits):
        node = seq_decode(i)
        want = "1" if tree.member(node).verdict.holds else "0"
        assert ch == want


def test_characteristic_charges_the_budget_and_leaves_refused_nodes_open():
    tree = family_tree()
    budget = SearchBudget(5)
    bits, open_idx = encode_characteristic(tree, 8, budget)
    assert budget.exhausted
    assert open_idx == [5, 6, 7] and bits[5:] == "000"
    assert bits[:5] == encode_characteristic(family_tree(), 5)[0]


def test_evaluations_are_memoized_by_selected_vectors():
    # indices 0 and 2 select the same vector, so their nodes share one evaluation
    tree = WcTree(explicit_list(L2, [Vector.unit(0), Vector.unit(1), Vector.unit(0)]),
                  F(1, 2), F(2))
    assert tree.member((0, 1)) is tree.member((2, 1))
    assert tree.member((1, 0)) is not tree.member((0, 1))
    assert len(tree.simplex_memo) == 1  # (e0, e1) and (e1, e0) share one minimum


def test_stacked_sections_share_one_simplex_memo():
    stacked = StackedTree(unit_vector_family(L2))
    for n in range(3):
        stacked.member((n, 0, 1))
        assert stacked.section(n).simplex_memo is stacked.simplex_memo
    assert len(stacked.simplex_memo) == 1


def test_stacked_sections_fill_a_shared_bracket_entry_once(monkeypatch):
    """Section 1 (eps 1/2) decides five unit vectors of lp:3/2 from the lower
    end of their minimum 5^(-1/3) ~ 0.585; section 0 (eps 1) needs the upper
    end, and computes it once into the entry that section 1 started."""
    upper_ends = []
    real = predicates._simplex_min_bracket_upper
    monkeypatch.setattr(predicates, "_simplex_min_bracket_upper",
                        lambda space, vs, lo: upper_ends.append(vs) or real(space, vs, lo))
    stacked = StackedTree(unit_vector_family(lp_space(F(3, 2))))
    assert stacked.member((1, 0, 1, 2, 3, 4)).verdict.holds
    assert upper_ends == []
    (solved, lo), = stacked.simplex_memo.values()
    assert isinstance(lo, Fraction)
    for node in ((0, 0, 1, 2, 3, 4), (0, 4, 3, 2, 1, 0), (1, 4, 3, 2, 1, 0)):
        assert stacked.member(node).verdict.kind == (FAILS if node[0] == 0 else HOLDS)
    assert upper_ends == [solved]
    (entry,) = stacked.simplex_memo.values()
    assert entry[0] == solved and entry[1].lo == lo and entry[1].hi < 1


def test_exhaustive_scan_solves_each_set_of_distinct_vectors_once(monkeypatch):
    """The lp:3/2 scan evaluates 260 nodes over four unit vectors, repeats
    included; their minima take one lower end per nonempty subset, each
    solved on distinct vectors."""
    lower_ends = []
    real = predicates._simplex_min_bracket_lower
    monkeypatch.setattr(predicates, "_simplex_min_bracket_lower",
                        lambda space, vs, memo: lower_ends.append(vs) or real(space, vs, memo))
    tree = WcTree(unit_vector_family(lp_space(F(3, 2))), F(3, 5), F(2))
    verdict = bounded_wf_search(tree, 5, 4)
    assert verdict.kind == WELL_FOUNDED and verdict.stats.evaluated == 260
    assert all(len(set(vs)) == len(vs) for vs in lower_ends)
    subsets = {frozenset(map(Vector.unit, c))
               for k in range(1, 5) for c in itertools.combinations(range(4), k)}
    assert len(lower_ends) == 15 and set(map(frozenset, lower_ends)) == subsets


def test_exhaustive_scan_fails_repeat_nodes_without_elimination_or_norms(monkeypatch):
    """Every dependent node of the unit-vector scan repeats a vector, so the
    Schauder test fails it on sight: no `linalg.nullspace` and no norm."""
    eliminations, schauder_norms, inside = [], [], []
    real_nullspace, real_norm = predicates.linalg.nullspace, predicates.spaces.norm
    real_analyze = predicates._schauder_analyze
    monkeypatch.setattr(predicates.linalg, "nullspace",
                        lambda rows: eliminations.append(rows) or real_nullspace(rows))
    monkeypatch.setattr(predicates.spaces, "norm", lambda space, v: (
        inside and schauder_norms.append(v)) or real_norm(space, v))

    def analyze(*args):
        inside.append(True)
        try:
            return real_analyze(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(predicates, "_schauder_analyze", analyze)
    tree = WcTree(unit_vector_family(lp_space(F(3, 2))), F(3, 5), F(2))
    verdict = bounded_wf_search(tree, 5, 4)
    assert verdict.kind == WELL_FOUNDED and verdict.stats.evaluated == 260
    assert len(inside) == 0 and eliminations == [] and schauder_norms == []


def _count_calls(monkeypatch, hooks) -> Counter:
    """Count the calls of each (owner, name) hook by name."""
    calls = Counter()
    for owner, name in hooks:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **k: (
            calls.update([_name]) or _real(*a, **k)))
    return calls


def test_seed5_lp32_scan_decides_each_set_once_and_solves_no_qp(monkeypatch):
    """The work of `wf-scan --space lp:3/2 --set unit-vector-family --eps 3/5
    --bigm 2 --depth 5 --index-bound 5`: one domination test per set of
    distinct vectors, 31 in all, failing ones included.  Every comparison
    minimum a lower end solves, l1 and sup alike, is certified at a vertex of
    the unit vectors without an LP, and no l2 QP is solved.  The one upper
    end, of the failing e0..e4, stops its descent at its first gradient
    evaluation, the uniform point, so it projects nothing.  The tree's memo
    keeps one Holder factor per support size, so five are computed."""
    calls = _count_calls(monkeypatch, (
        (predicates, "is_eps_dominating"), (predicates.lp, "solve_lp"),
        (predicates, "_simplex_min_qp"), (predicates, "_simplex_min_polyhedral"),
        (predicates, "_simplex_min_bracket_upper"), (predicates, "_project_simplex"),
        (predicates.linalg, "nthroot_brackets")))
    tree = WcTree(unit_vector_family(lp_space(F(3, 2))), F(3, 5), F(2))
    verdict = bounded_wf_search(tree, 5, 5)
    assert verdict.kind == WELL_FOUNDED and verdict.stats.evaluated == 1030
    assert calls == {"is_eps_dominating": 31, "_simplex_min_polyhedral": 36,
                     "_simplex_min_bracket_upper": 1, "nthroot_brackets": 5}


def test_seed5_lp32_scan_selects_each_index_once_and_brackets_few_norms(monkeypatch):
    """The same scan reads each of its five selector indices once, since the
    tree interns their vectors.  The vertex check of every lower end passes
    each unit vector on its sup norm, 1, so the only norm brackets are the
    11 of the one upper end, and `Vector.__hash__` runs 9,325 times."""
    calls = _count_calls(monkeypatch, ((SetModel, "selector"), (spaces, "_bracket_norm"),
                                       (Vector, "__hash__")))
    tree = WcTree(unit_vector_family(lp_space(F(3, 2))), F(3, 5), F(2))
    verdict = bounded_wf_search(tree, 5, 5)
    assert verdict.kind == WELL_FOUNDED and verdict.stats.evaluated == 1030
    assert calls == {"selector": 5, "_bracket_norm": 11, "__hash__": 9325}


@pytest.mark.parametrize("space, set_name, eps, index_bound, solver, solves, members", [
    ("l1", "unit-vector-hull", "3/8", "32", "_simplex_min_polyhedral", 64, 363),
    ("l2", "unit-vector-family", "6/25", "8", "_simplex_min_qp", 39, 109),
], ids=["l1-hull-branch", "l2-family-branch"])
def test_seed5_branch_hunts_certify_every_minimum_without_a_solver(
        monkeypatch, capsys, space, set_name, eps, index_bound, solver, solves, members):
    """The seed-5 `branch-hunt` commands of the benchmark find and revalidate
    their branch with every simplex minimum certified in closed form: the
    l1 minima at a vertex, with no LP, and the l2 minima of orthogonal unit
    vectors, with no `linalg.solve` of a Wolfe corral.  Every beam level
    stops once no unevaluated child can enter the beam, so `member` runs
    363 and 109 times, prefix reads and the fresh tree's revalidation
    included."""
    calls = _count_calls(monkeypatch, ((predicates.lp, "solve_lp"),
                                       (predicates.linalg, "solve"),
                                       (predicates, solver), (WcTree, "member")))
    assert cli.main(["branch-hunt", "--space", space, "--set", set_name, "--eps", eps,
                     "--bigm", "1", "--depth", "8", "--index-bound", index_bound,
                     "--beam-width", "4", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["found"] and payload["revalidated"]
    assert calls == {solver: solves, "member": members}


def test_criterion_01_hunt_stops_each_beam_level_early(monkeypatch, capsys):
    """Criterion 01's hunt calls `member` 377 times: below the first level,
    each level stops after the few children that fill the beam at their
    parent's margin.  Every minimum is certified at a vertex, with no LP."""
    calls = _count_calls(monkeypatch, ((predicates.lp, "solve_lp"),
                                       (predicates.linalg, "solve"),
                                       (predicates, "_simplex_min_polyhedral"),
                                       (WcTree, "member")))
    assert cli.main(["branch-hunt", "--space", "l1", "--set", "unit-vector-hull",
                     "--eps", "1", "--bigm", "1", "--depth", "10", "--index-bound", "64",
                     "--beam-width", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["found"] and payload["revalidated"]
    assert payload["generator"] == ["affine", 4, 0]
    assert calls == {"_simplex_min_polyhedral": 94, "member": 377}


class _NoVerdicts(dict):
    """A verdict dict that keeps nothing, so every node runs the predicate."""

    def __setitem__(self, key, value):
        pass


class _LoggedTree(WcTree):
    def __init__(self, *args, keep_verdicts: bool):
        super().__init__(*args)
        self.log: list = []
        if not keep_verdicts:
            self._dominations = _NoVerdicts()

    def member(self, node):
        ev = super().member(node)
        self.log.append((node, ev))
        return ev


@pytest.mark.parametrize("family, eps, big_m, depth, index_bound", [
    (unit_vector_hull(L1), F(3, 8), F(1), 8, 32),
    (unit_vector_family(L2), F(6, 25), F(1), 8, 8),
], ids=["l1-hull-branch", "l2-family-branch"])
def test_set_verdicts_leave_every_evaluation_unchanged(monkeypatch, family, eps, big_m,
                                                       depth, index_bound):
    """The seed-5 branch workloads, with the certificate revalidated on a
    fresh tree as `branch-hunt` does: every node evaluates to the same
    NodeEvaluation as when no domination verdict is kept, with fewer tests."""
    calls = []
    real = predicates.is_eps_dominating
    monkeypatch.setattr(predicates, "is_eps_dominating", lambda space, vs, *a: (
        calls.append(vs) or real(space, vs, *a)))
    runs = {}
    for keep in (True, False):
        tree, fresh = (_LoggedTree(family, eps, big_m, keep_verdicts=keep) for _ in "ab")
        cert = branch_search(tree, depth, index_bound, 4)
        assert cert is not None and validate_certificate(fresh, cert)
        runs[keep] = cert, tree.log + fresh.log, len(calls)
        calls.clear()
    assert runs[True][:2] == runs[False][:2]
    assert runs[True][2] < runs[False][2]


def test_failing_domination_witness_follows_each_nodes_order():
    """Every verdict is kept, one per set, failures included; a failing one
    serves each order and repetition of its vectors with its witness weights
    moved to that node's order, so they combine the node's own vectors."""
    cases = [
        # e0 and -e0 cancel, so every order fails at any eps
        (WcTree(dense_space(L1), F(1, 2), F(2)), [(1, 4), (4, 1), (4, 1, 4), (2, 4, 1)]),
        # five unit vectors of lp:3/2 have minimum 5^(-1/3) < 3/5
        (WcTree(unit_vector_family(lp_space(F(3, 2))), F(3, 5), F(2)),
         [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 2, 4, 1, 3)]),
    ]
    for tree, nodes in cases:
        weights = set()
        for node in nodes:
            dom = tree.member(node).domination
            vs = tuple(tree.family.selector(i) for i in node)
            assert dom.fails and combine(dom.witness.weights, vs) == dom.witness.combo
            assert dom.witness == simplex_min_norm(tree.family.space, vs,
                                                   tree.simplex_memo).witness
            weights.add(dom.witness.weights)
        assert len(weights) > 1  # the orders differ in their weights
        sets_asked = {frozenset(map(tree.family.selector, node)) for node in nodes}
        assert set(tree._dominations) == sets_asked
        for key in sets_asked:
            solved, kept = tree._dominations[key]
            assert kept.fails and set(solved) == key and len(solved) == len(key)
        single = (tree.family.selector(nodes[0][0]),)
        assert tree.member(nodes[0][:1]).domination is \
            tree._dominations[frozenset(single)][1]


def test_indices_that_select_equal_vectors_share_one_evaluation():
    """Index 3 of the unit-vector hull is the interleaved point
    q sel(n) + (1 - q) sel(m) with q = 0, which is e0, as index 0 is; nodes
    that differ only there get the very same NodeEvaluation."""
    tree = WcTree(unit_vector_hull(L1), F(1, 2), F(2))
    hull = tree.family
    assert unpair(1)[1] == 0 and hull.selector(3) == hull.selector(0) == Vector.unit(0)
    for a, b in [((0,), (3,)), ((0, 4), (3, 4)), ((4, 0), (4, 3)), ((4, 0, 0), (4, 3, 0))]:
        assert tree.member(a) is tree.member(b)


def _scan(tree, depth, index_bound):
    return list(walk(tree, depth, index_bound, SearchBudget(),
                     lambda ev: not ev.verdict.fails))


def _section(tree, node):
    """The WcTree that decides `node` of `tree`, and the node within it."""
    if isinstance(tree, StackedTree):
        return tree.section(node[0]), node[1:]
    return tree, node


def _same(cached: Verdict3, fresh: Verdict3) -> bool:
    return (cached.kind, cached.margin, cached.exact_margin) == \
        (fresh.kind, fresh.margin, fresh.exact_margin)


@pytest.mark.parametrize("tree, depth, index_bound", [
    (WcTree(unit_vector_hull(L1), F(1, 2), F(2)), 3, 8),
    (WcTree(summing_hull(L2), F(1, 2), F(3)), 3, 6),
    (WcTree(unit_vector_family(lp_space(F(3, 2))), F(3, 5), F(2)), 4, 4),
    (StackedTree(summing_hull(L2)), 4, 5),
], ids=["l1-hull", "l2-summing-hull", "lp3/2-family", "stacked-l2-summing-hull"])
def test_cached_evaluations_match_fresh_predicates(tree, depth, index_bound):
    """Every node a scan evaluates through the tree's caches gets what a
    fresh, memo-less evaluation of its vectors gets."""
    permuted = 0
    for node, ev in _scan(tree, depth, index_bound):
        section, sub = _section(tree, node)
        if not sub:
            continue
        space, vs = section.family.space, tuple(map(section.family.selector, sub))
        dom = is_eps_dominating(space, vs, section.eps, section.tol)
        assert _same(ev.domination, dom), node
        memo = section.simplex_memo
        size = len(memo)
        witness = simplex_min_norm(space, vs, memo=memo).witness
        assert len(memo) == size  # the scan has solved this minimum already
        assert combine(witness.weights, vs) == witness.combo, node
        if isinstance(ev.domination.witness, SimplexWitness):
            assert ev.domination.witness == witness
        permuted += all(first != vs for first, _ in memo.values()
                        if sorted(v.entries for v in first)
                        == sorted(v.entries for v in vs))
        if dom.fails:
            assert ev.schauder is None
        else:
            sch = is_M_schauder(space, vs, section.big_m)
            assert _same(ev.schauder.verdict, sch.verdict), node
            assert ev.schauder.method == sch.method
    assert permuted > 0  # the scan reuses minima solved in another order


TRAVERSALS = {
    "bounded_wf_search": lambda tree, d, ib: bounded_wf_search(tree, d, ib),
    "branch_search": lambda tree, d, ib: branch_search(tree, d, ib),
    "rank_within": lambda tree, d, ib: rank_within(tree, d, ib),
    "levels": lambda tree, d, ib: levels(tree, d, ib, SearchBudget()),
    "walk": lambda tree, d, ib: walk(tree, d, ib, SearchBudget(), bool),
}


@pytest.mark.parametrize("traversal", sorted(TRAVERSALS))
@pytest.mark.parametrize("depth, index_bound, pointer", [
    (0, 4, "/depth"), (-1, 0, "/depth"), (3, 0, "/index-bound"), (1, -2, "/index-bound"),
])
def test_traversals_reject_bounds_below_one(traversal, depth, index_bound, pointer):
    with pytest.raises(ConfigurationError) as info:
        TRAVERSALS[traversal](family_tree(), depth, index_bound)
    assert info.value.pointer == pointer


def test_node_budget_must_be_nonnegative():
    """A negative budget is refused; a zero one evaluates nothing and says so."""
    with pytest.raises(ConfigurationError) as info:
        SearchBudget(-1)
    assert info.value.pointer == "/node-budget"
    tree, budget = family_tree(), SearchBudget(0)
    assert levels(tree, 2, 4, budget) == ([{HOLDS: 0, FAILS: 0, INCONCLUSIVE: 0}], 0, False)
    assert budget.exhausted and not tree._cache


class TableTree:
    """A three-valued tree whose verdicts come from a seeded hash of each node.

    Holding and failing nodes carry a margin from a small set, so the beam
    meets ties; every `member` call is logged in order.
    """

    def __init__(self, seed: int, weights: tuple[float, float, float]):
        self.seed = seed
        self.weights = weights
        self.calls: list[tuple[int, ...]] = []

    def member(self, node):
        node = tuple(node)
        self.calls.append(node)
        rng = random.Random(f"{self.seed}:{node}")
        kind = rng.choices((HOLDS, FAILS, INCONCLUSIVE), self.weights)[0]
        margin = None if kind == INCONCLUSIVE else rng.choice((None, 0.0, 0.25, 1.0))
        return NodeEvaluation(Verdict3(kind, margin))


def _beam_levels(calls, depth, found):
    """The nodes a beam search evaluated, by level, without its prefix reads."""
    by_level: dict[int, list] = {}
    for node in calls[:len(calls) - depth] if found else calls:
        by_level.setdefault(len(node), []).append(node)
    return by_level


def test_traversal_core_matches_reference_loops():
    """On seeded random table trees, every traversal evaluates the same nodes
    in the same order as its reference loop and reaches the same result; the
    beam search evaluates, at each level, a prefix of its reference's nodes."""
    seen = set()
    for case in range(200):
        rng = random.Random(case)
        weights = (rng.uniform(0.3, 0.9), rng.uniform(0.1, 0.5),
                   rng.choice((0.0, 0.1, 0.3)))
        depth, index_bound = rng.randint(1, 4), rng.randint(1, 5)
        max_nodes = rng.choice((rng.randint(1, 60), 10**6))
        beam_width = rng.randint(1, 4)

        def run(traversal, reference):
            new_tree, ref_tree = TableTree(case, weights), TableTree(case, weights)
            budget, ref_budget = SearchBudget(max_nodes), RefBudget(max_nodes)
            got = traversal(new_tree, budget)
            want = reference(ref_tree, ref_budget)
            assert new_tree.calls == ref_tree.calls, (case, traversal)
            assert budget.exhausted == (ref_budget.spent > ref_budget.max_nodes)
            seen.add(("exhausted", budget.exhausted))
            return got, want

        verdict, want = run(
            lambda t, b: bounded_wf_search(t, depth, index_bound, b),
            lambda t, b: ref_wf_search(t, depth, index_bound, b))
        st = verdict.stats
        assert (verdict.kind, verdict.branch,
                (st.evaluated, st.holds, st.fails, st.inconclusive, st.exhausted),
                verdict.detail) == want, case
        seen.add(("wf", verdict.kind))
        seen.add(("inconclusive", st.inconclusive > 0))

        # the beam stops a level once no unevaluated child can enter it, so
        # each level evaluates a prefix of the reference's nodes at that level
        tree, budget = TableTree(case, weights), SearchBudget(max_nodes)
        cert = branch_search(tree, depth, index_bound, beam_width, budget)
        full = TableTree(case, weights)
        want = ref_branch_search(full, depth, index_bound, beam_width, RefBudget(10**9))
        got_levels = _beam_levels(tree.calls, depth, cert is not None)
        want_levels = _beam_levels(full.calls, depth, want is not None)
        for d in range(1, depth + 1):
            got, ref = got_levels.get(d, []), want_levels.get(d, [])
            assert got == ref[:len(got)], (case, d)
            if not budget.exhausted and got:
                seen.add(("beam level", "stopped early" if len(got) < len(ref)
                          else "expanded fully"))
        seen.add(("exhausted", budget.exhausted))
        if budget.exhausted:  # pruned children are never charged
            ref_budget = RefBudget(max_nodes)
            ref_branch_search(TableTree(case, weights), depth, index_bound, beam_width,
                              ref_budget)
            assert cert is None and ref_budget.spent > ref_budget.max_nodes, case
        else:
            assert budget.spent == sum(map(len, got_levels.values())), case
            if want is None:
                assert cert is None, case
            else:
                prefixes = tuple((p.node, p.kind, p.margin) for p in cert.prefixes)
                assert (cert.branch, prefixes, cert.min_margin) == want, case
        seen.add(("beam", cert is not None))

        # the rank is a view of the breadth-first levels: their nodes, in their order
        got, ((_, cut), evaluated) = run(
            lambda t, b: rank_within(t, depth, index_bound, b),
            lambda t, b: (ref_levels(t, depth, index_bound, b), t.calls))
        if cut:  # the deepest evaluated all-holds path, and incomplete
            assert got == (ref_certified_rank(TableTree(case, weights), evaluated),
                           False), case
        else:
            assert got == ref_rank_within(TableTree(case, weights), depth, index_bound,
                                          RefBudget(max_nodes)), case
        seen.add(("rank complete", got[1]))
        seen.add(("rank above 0, cut", cut, got[0] > 0))

        def levels_and_flag(t, b):
            counts, _, _ = levels(t, depth, index_bound, b)
            return [{"depth": d, **c} for d, c in enumerate(counts, 1)], b.exhausted

        got, want = run(levels_and_flag,
                        lambda t, b: ref_levels(t, depth, index_bound, b))
        assert got == want, case

        def walk_and_flag(t, b):
            order = [(node, ev.verdict.kind) for node, ev in
                     walk(t, depth, index_bound, b, lambda ev: not ev.verdict.fails)]
            return order, b.exhausted

        got, want = run(walk_and_flag,
                        lambda t, b: ref_dot_walk(t, depth, index_bound, b))
        assert got == want, case
    # the cases reach every outcome the comparison is meant to cover
    assert seen >= {("exhausted", True), ("exhausted", False),
                    ("wf", BRANCH_FOUND), ("wf", WELL_FOUNDED), ("wf", INCONCLUSIVE),
                    ("inconclusive", True), ("beam", True), ("beam", False),
                    ("beam level", "stopped early"), ("beam level", "expanded fully"),
                    ("rank complete", True), ("rank complete", False),
                    ("rank above 0, cut", True, True), ("rank above 0, cut", False, True)}
