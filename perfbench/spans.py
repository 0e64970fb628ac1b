"""Spans around the public boundary of each wctree layer, for the traced run.

`install()` replaces module attributes and class methods of the imported
library with wrappers that record one span per call: a name, the index of
the enclosing span, start and end on `time.perf_counter`, and a tag read
from the result where a layer metric needs one.  Spans stay in memory and
are written out once, after the command has finished.  Nothing in the
library itself is changed on disk; the wrappers exist only in the traced
child process.
"""

from __future__ import annotations

import functools
import json
import time

from wctree import linalg, lp, predicates, sets, spaces, trees

_LINALG = ("row_reduce", "rank", "nullspace", "solve", "mat_vec", "dot",
           "sqrt_lower", "sqrt_upper", "int_nthroot_floor", "nthroot_brackets")

# (owner, attribute, span name); a span's layer is its name up to the first dot
_PLAIN = [
    (trees, "bounded_wf_search", "trees.bounded_wf_search"),
    (trees, "branch_search", "trees.branch_search"),
    (trees, "validate_certificate", "trees.validate_certificate"),
    (trees, "rank_within", "trees.rank_within"),
    (trees, "encode_characteristic", "trees.encode_characteristic"),
    (predicates, "is_eps_dominating", "predicates.domination"),
    (lp, "solve_lp", "lp.solve"),
    (linalg, "psd_check", "linalg.psd"),
    *[(linalg, attr, f"linalg.{attr}") for attr in _LINALG],
    (spaces, "norm", "spaces.norm"),
    (sets.SetModel, "selector", "sets.selector"),
]


class Recorder:
    """In-memory span list; each span is [name id, parent index, start, end, tag]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, fn, name: str, tag=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if tag is not None:
                span[4] = tag(result)
            return result

        return wrapper

    def run(self, main, argv):
        """Call the CLI's main under a root span named cli.main."""
        return self.wrap(main, "cli.main")(argv)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def install() -> Recorder:
    rec = Recorder()
    for owner, attr, name in _PLAIN:
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name))
    trees.WcTree.member = rec.wrap(trees.WcTree.member, "trees.member",
                                   tag=lambda ev: ev.verdict.kind)
    predicates.is_M_schauder = rec.wrap(predicates.is_M_schauder,
                                        "predicates.schauder",
                                        tag=lambda rep: rep.method)

    # A memo hit returns a result object handed out before.  Holding every
    # result keeps ids from being reused while the run lasts.
    seen: dict[int, object] = {}

    def simplex_tag(res) -> str:
        if id(res) in seen:
            return "hit"
        seen[id(res)] = res
        return res.method

    predicates.simplex_min_norm = rec.wrap(predicates.simplex_min_norm,
                                           "predicates.simplex_min",
                                           tag=simplex_tag)
    return rec
