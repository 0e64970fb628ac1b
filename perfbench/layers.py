"""Per-layer metrics derived from the span tree of one traced run.

Definitions, for the spans written by spans.py:

* ``<name>.calls`` - number of spans with that name;
* ``<name>.s`` - summed duration of the spans with that name that are not
  nested in a span of the same name (inclusive time, recursion counted once);
* ``<layer>.self_s`` - summed duration of the layer's spans minus the part
  covered by their direct child spans (of any layer);
* ``trees.search_s`` - inclusive time of the five tree searches;
* ``trees.member.evals`` - member calls that reached a predicate (a direct
  ``predicates.domination`` child); ``hit_ratio`` is the share of member
  calls that did not;
* ``predicates.simplex_min.hit_ratio`` - share of simplex-minimum calls that
  returned a result object already returned before; ``min_solves.<method>``
  counts the others by the method that produced them.
"""

from __future__ import annotations

LAYERS = ("cli", "trees", "predicates", "lp", "linalg", "spaces", "sets")
SEARCHES = ("trees.bounded_wf_search", "trees.branch_search",
            "trees.validate_certificate", "trees.rank_within",
            "trees.encode_characteristic")
TIMED = ("predicates.domination", "predicates.schauder", "predicates.simplex_min",
         "lp.solve", "linalg.solve", "linalg.nullspace", "linalg.rank",
         "linalg.psd", "spaces.norm", "sets.selector")
MIN_METHODS = ("exact-lp", "exact-qp", "bracket")
SCHAUDER_METHODS = ("exact-structural", "exact-polyhedral", "exact-gram", "sampled")


def layer_metrics(names: list[str], spans: list[list]) -> dict[str, float]:
    name_of = [names[s[0]] for s in spans]
    parent = [s[1] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    covered = [0.0] * len(spans)
    evals: set[int] = set()
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
            if name_of[i] == "predicates.domination" and name_of[p] == "trees.member":
                evals.add(p)

    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    tags: dict[tuple[str, str], int] = {}
    for i, name in enumerate(name_of):
        calls[name] = calls.get(name, 0) + 1
        self_s[name.split(".", 1)[0]] += dur[i] - covered[i]
        p = parent[i]
        while p >= 0 and name_of[p] != name:
            p = parent[p]
        if p < 0:
            inclusive[name] = inclusive.get(name, 0.0) + dur[i]
        tag = spans[i][4]
        if tag is not None and (name != "trees.member" or i in evals):
            tags[name, tag] = tags.get((name, tag), 0) + 1

    out: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out["trees.search_s"] = sum(inclusive.get(n, 0.0) for n in SEARCHES)
    member_calls = calls.get("trees.member", 0)
    out["trees.member.calls"] = member_calls
    out["trees.member.evals"] = len(evals)
    out["trees.member.hit_ratio"] = (
        (member_calls - len(evals)) / member_calls if member_calls else 0.0)
    out["trees.verdict.inconclusive"] = tags.get(("trees.member", "inconclusive"), 0)
    for name in TIMED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = inclusive.get(name, 0.0)
    min_calls = calls.get("predicates.simplex_min", 0)
    hits = tags.get(("predicates.simplex_min", "hit"), 0)
    out["predicates.simplex_min.hit_ratio"] = hits / min_calls if min_calls else 0.0
    for method in MIN_METHODS:
        out[f"predicates.min_solves.{method}"] = tags.get(
            ("predicates.simplex_min", method), 0)
    for method in SCHAUDER_METHODS:
        out[f"predicates.schauder_method.{method}"] = tags.get(
            ("predicates.schauder", method), 0)
    return out
