"""The benchmark's workloads: one CLI command each, and checks of its output.

The seed draws `--eps` (and the CLI's own `--seed`) from a range on which
the verdict of every node, and so the work done, is the same; runs with
different seeds therefore differ by machine noise only.  Every check derives
its expected values from the drawn parameters and from facts about the set
models (closed forms, or a float oracle for the summing hull), never from a
recorded output of the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# The tolerance within which the float oracle counts a prefix constant as a
# tie with M: such a node may hold or fail in exact arithmetic.
ORACLE_TIE = 1e-9
FLOAT_EQ = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    fixed: dict
    draw_eps: Callable[[random.Random], Fraction]
    check: Callable[["Params", dict, "Probe"], list[str]]


@dataclass(frozen=True)
class Params:
    seed: int
    eps: Fraction
    values: dict  # space, set, bigm, depth, index_bound and, for a beam, beam_width

    def __getitem__(self, key):
        return self.values[key]


class Probe:
    """Inputs a check needs from outside the measured command.

    `vectors` asks the CLI's `predicate` command for the selected vectors of a
    node; `selectors` reads a set model's selector sequence in-process.  Both
    are cached per run, since every round of a run has the same inputs.
    """

    def __init__(self, run_cli: Callable[[list[str]], dict], import_wctree):
        self._run_cli = run_cli
        self._import_wctree = import_wctree
        self._cache: dict = {}

    def vectors(self, params: Params, node: list[int]) -> list[dict[int, Fraction]]:
        key = ("vectors", tuple(node))
        if key not in self._cache:
            envelope = self._run_cli([
                "predicate", "--space", params["space"], "--set", params["set"],
                "--eps", str(params.eps), "--bigm", str(params["bigm"]),
                "--node", ",".join(str(i) for i in node)])
            self._cache[key] = [_vector(v) for v in envelope["payload"]["vectors"]]
        return self._cache[key]

    def selectors(self, params: Params, count: int) -> list[dict[int, Fraction]]:
        key = ("selectors", params["space"], params["set"], count)
        if key not in self._cache:
            wctree = self._import_wctree()
            model = wctree.build_set(params["set"], wctree.BUILTIN_SPACES[params["space"]])
            self._cache[key] = [dict(model.selector(i).entries) for i in range(count)]
        return self._cache[key]

    def memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def _vector(pairs) -> dict[int, Fraction]:
    return {int(p): Fraction(c) for p, c in pairs}


def draw_params(workload: Workload, seed: int) -> Params:
    rng = random.Random(f"{workload.name}:{seed}")
    return Params(seed, workload.draw_eps(rng), dict(workload.fixed))


def cli_args(workload: Workload, params: Params) -> list[str]:
    args = [workload.command, "--space", params["space"], "--set", params["set"],
            "--eps", str(params.eps), "--bigm", str(params["bigm"]),
            "--depth", str(params["depth"]),
            "--index-bound", str(params["index_bound"])]
    if "beam_width" in params.values:
        args += ["--beam-width", str(params["beam_width"])]
    return args + ["--seed", str(params.seed)]


# ---------------------------------------------------------------------------
# branch hunts over distinct unit vectors


def _check_unit_branch(params: Params, payload: dict, probe: Probe,
                       unit_index: Callable[[int], int],
                       min_norm: Callable[[int], float],
                       holds: Callable[[int], bool]) -> list[str]:
    """A branch of distinct unit vectors e_0, e_1, ... in index order.

    Distinct unit vectors have disjoint supports, so their prefix constant
    is exactly 1, and their simplex minimum is min_norm(k) for k of them;
    repeated vectors are linearly dependent and fail the prefix bound.
    With M = 1 every holding node has margin min(min_norm - eps, M - 1) = 0,
    so the beam breaks every tie lexicographically and returns the least
    indices selecting e_0, ..., e_{depth-1}.
    """
    depth, big_m = params["depth"], params["bigm"]
    if big_m != 1 or not all(holds(k) for k in range(1, depth + 1)):
        return [f"parameters outside the workload's range: eps={params.eps}, M={big_m}"]
    problems = []
    branch = [unit_index(k) for k in range(depth)]
    if payload.get("found") is not True or payload.get("branch") != branch:
        return [f"expected branch {branch}, got {payload.get('branch')}"]
    expected_vectors = [{k: Fraction(1)} for k in range(depth)]
    if probe.vectors(params, branch) != expected_vectors:
        problems.append("branch vectors are not e_0, ..., e_{depth-1}")
    step, offset = unit_index(1) - unit_index(0), unit_index(0)
    if payload.get("generator") != ["affine", step, offset]:
        problems.append(f"generator {payload.get('generator')} != affine {step} {offset}")
    margins = [min(min_norm(k) - float(params.eps), float(big_m - 1))
               for k in range(1, depth + 1)]
    prefixes = payload.get("prefixes", [])
    if len(prefixes) != depth:
        problems.append(f"{len(prefixes)} prefixes for depth {depth}")
    for k, (rec, margin) in enumerate(zip(prefixes, margins), 1):
        if rec["node"] != branch[:k] or rec["kind"] != "holds":
            problems.append(f"prefix {k}: {rec['node']} {rec['kind']}")
        elif rec["margin"] is None or abs(rec["margin"] - margin) > FLOAT_EQ:
            problems.append(f"prefix {k}: margin {rec['margin']} != {margin}")
    if payload.get("min_margin") is None or abs(payload["min_margin"] - min(margins)) > FLOAT_EQ:
        problems.append(f"min_margin {payload.get('min_margin')} != {min(margins)}")
    if payload.get("revalidated") is not True:
        problems.append("branch not revalidated")
    return problems


def check_l1_hull_branch(params: Params, payload: dict, probe: Probe) -> list[str]:
    # e_k sits at selector index 4k of the unit-vector hull (sets.unit_vector_hull);
    # every simplex combination of distinct unit vectors has l1 norm exactly 1
    return _check_unit_branch(params, payload, probe,
                              unit_index=lambda k: 4 * k,
                              min_norm=lambda k: 1.0,
                              holds=lambda k: params.eps <= 1)


def check_l2_family_branch(params: Params, payload: dict, probe: Probe) -> list[str]:
    # selector i is e_i; the least l2 norm over the simplex of k distinct unit
    # vectors is at equal weights, 1/sqrt(k), so a prefix holds iff k eps^2 <= 1
    return _check_unit_branch(params, payload, probe,
                              unit_index=lambda k: k,
                              min_norm=lambda k: 1 / math.sqrt(k),
                              holds=lambda k: k * params.eps ** 2 <= 1)


# ---------------------------------------------------------------------------
# exhaustive scan in lp:3/2


def _lp32_max_distinct(eps: Fraction) -> int:
    """Largest K with ||avg of K distinct unit vectors||_{3/2} = K^(-1/3) >= eps.

    That is K eps^3 <= 1, decided exactly.
    """
    k = 0
    while (k + 1) * eps ** 3 <= 1:
        k += 1
    return k


def check_lp32_family_scan(params: Params, payload: dict, probe: Probe) -> list[str]:
    """Exhaustive scan: nodes of K or fewer distinct indices hold, others fail.

    A node with a repeated index is linearly dependent and fails the prefix
    bound; distinct ones have prefix constant 1 <= M.  Every holding node is
    shallower than the target depth, so each gets all index_bound children
    evaluated: evaluated = ib + ib * holds, and the tree is well founded.
    """
    depth, ib = params["depth"], params["index_bound"]
    k_max = _lp32_max_distinct(params.eps)
    if not 1 <= k_max < depth or params["bigm"] < 1:
        return [f"parameters outside the workload's range: eps={params.eps}"]
    holds = sum(math.perm(ib, k) for k in range(1, k_max + 1))
    evaluated = ib + ib * holds
    expected = {"kind": "well-founded-within", "branch": None,
                "stats": {"evaluated": evaluated, "holds": holds,
                          "fails": evaluated - holds, "inconclusive": 0,
                          "exhausted": False}}
    return [f"{key}: expected {value}, got {payload.get(key)}"
            for key, value in expected.items() if payload.get(key) != value]


# ---------------------------------------------------------------------------
# level analysis of the summing hull in l2, against a float oracle


def _exact_rank(vectors: list[dict[int, Fraction]]) -> int:
    rows = [dict(v) for v in vectors]
    rank = 0
    cols = sorted({p for v in rows for p in v})
    for col in cols:
        pivot = next((r for r in rows if r.get(col, 0) != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rank += 1
        for r in rows:
            f = r.get(col, 0) / pivot[col]
            if f:
                for p, c in pivot.items():
                    r[p] = r.get(p, 0) - f * c
    return rank


def _prefix_constant(vectors: list[dict[int, Fraction]]) -> float:
    """max over prefixes k and coefficients a of ||sum_{n<k} a_n x_n|| / ||sum a_n x_n||.

    With the Gram matrix G and G_k its leading k x k block padded with zeros,
    the squared ratio for prefix k is the largest generalized eigenvalue of
    (G_k, G), computed through a Cholesky factor of G.  Dependent vectors
    have an unbounded constant.
    """
    import numpy as np  # only this oracle needs it; other runs skip the import

    m = len(vectors)
    if _exact_rank(vectors) < m:
        return math.inf
    gram = np.array([[float(sum(c * w.get(p, 0) for p, c in v.items()))
                      for w in vectors] for v in vectors])
    chol_inv = np.linalg.inv(np.linalg.cholesky(gram))
    best = 1.0
    for k in range(1, m):
        g_k = np.zeros_like(gram)
        g_k[:k, :k] = gram[:k, :k]
        best = max(best, float(np.linalg.eigvalsh(chol_inv @ g_k @ chol_inv.T)[-1]))
    return math.sqrt(best)


def _oracle_levels(selectors, depth: int, ib: int, big_m: float) -> list[tuple[int, int]]:
    """(strict, tie-inclusive) count of holding nodes at each level."""
    counts = []
    strict_frontier = inclusive_frontier = [()]
    for _ in range(depth):
        strict_next, inclusive_next = [], []
        constants: dict[tuple[int, ...], float] = {}
        for node in inclusive_frontier:
            for i in range(ib):
                child = node + (i,)
                constants[child] = _prefix_constant([selectors[j] for j in child])
                if constants[child] <= big_m + ORACLE_TIE:
                    inclusive_next.append(child)
        strict_set = set(strict_frontier)
        strict_next = [c for c in inclusive_next
                       if c[:-1] in strict_set and constants[c] < big_m - ORACLE_TIE]
        counts.append((len(strict_next), len(inclusive_next)))
        strict_frontier, inclusive_frontier = strict_next, inclusive_next
    return counts


def check_l2_summing_analyze(params: Params, payload: dict, probe: Probe) -> list[str]:
    """Level counts of the summing hull's tree in l2 against a float oracle.

    Every point of the summing hull has x_0 = 1, so every simplex combination
    has l2 norm at least 1 >= eps and domination always holds; a node fails
    exactly when its prefix constant exceeds M.  The program's holding count
    at each level must lie between the oracle's strict and tie-inclusive
    counts, each level evaluates index_bound children of every holding node
    of the level above, and the rank within bounds is the deepest level that
    has holding nodes.
    """
    depth, ib = params["depth"], params["index_bound"]
    selectors = probe.selectors(params, ib)
    if params.eps > 1 or any(v.get(0) != 1 for v in selectors):
        return ["domination is not certain: eps > 1 or a selector has x_0 != 1"]
    oracle = probe.memo(("oracle", depth, ib, params["bigm"]), lambda: _oracle_levels(
        selectors, depth, ib, float(params["bigm"])))
    problems = []
    levels = payload.get("levels", [])
    if len(levels) != depth:
        problems.append(f"{len(levels)} levels for depth {depth}")
    above = 1
    for level, (strict, inclusive) in zip(levels, oracle):
        d = level["depth"]
        if not strict <= level["holds"] <= inclusive:
            problems.append(f"level {d}: holds {level['holds']} outside oracle "
                            f"[{strict}, {inclusive}]")
        if level["inconclusive"] != 0 or level["holds"] + level["fails"] != ib * above:
            problems.append(f"level {d}: {level} does not cover {ib} x {above} children")
        above = level["holds"]
    deepest = max((lv["depth"] for lv in levels if lv["holds"] > 0), default=0)
    if payload.get("rank_within_bounds", {}).get("value") != deepest:
        problems.append(f"rank {payload.get('rank_within_bounds')} != deepest level "
                        f"with holds {deepest}")
    if payload.get("budget_exhausted") is not False:
        problems.append("node budget exhausted")
    return problems


# ---------------------------------------------------------------------------


def _draw_lp32_eps(rng: random.Random) -> Fraction:
    # eps on the 1/100 grid strictly between 5^(-1/3) and 4^(-1/3): the
    # largest holding node then has exactly four distinct indices
    grid = [Fraction(n, 100) for n in range(1, 100)]
    return rng.choice([e for e in grid if _lp32_max_distinct(e) == 4])


WORKLOADS = {w.name: w for w in [
    Workload(
        "l1-hull-branch",
        "exact l1 LP (primal plus dual re-solve) does most of the work",
        "branch-hunt",
        {"space": "l1", "set": "unit-vector-hull", "bigm": Fraction(1),
         "depth": 8, "index_bound": 32, "beam_width": 4},
        lambda rng: Fraction(rng.randint(1, 8), 8),
        check_l1_hull_branch,
    ),
    Workload(
        "l2-family-branch",
        "l2 support enumeration (2^m rational solves per node) does most of the work",
        "branch-hunt",
        {"space": "l2", "set": "unit-vector-family", "bigm": Fraction(1),
         "depth": 8, "index_bound": 8, "beam_width": 4},
        # eps^2 <= 1/8 keeps every prefix of eight distinct unit vectors holding
        lambda rng: Fraction(rng.randint(20, 35), 100),
        check_l2_family_branch,
    ),
    Workload(
        "l2-summing-analyze",
        "Gram/PSD bisection dominates; level loop plus cache rereads in the traversal",
        "analyze-tree",
        {"space": "l2", "set": "summing-hull", "bigm": Fraction(3),
         "depth": 3, "index_bound": 12},
        lambda rng: Fraction(rng.randint(1, 16), 16),
        check_l2_summing_analyze,
    ),
    Workload(
        "lp32-family-scan",
        "only bracket-norm path; exhaustive DFS with memo hits across permuted nodes",
        "wf-scan",
        {"space": "lp:3/2", "set": "unit-vector-family", "bigm": Fraction(2),
         "depth": 5, "index_bound": 5},
        _draw_lp32_eps,
        check_lp32_family_scan,
    ),
]}
