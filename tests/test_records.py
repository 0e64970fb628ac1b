"""Value semantics of the records that memo keys, node caches and sets hold.

The records are `collections.namedtuple` subclasses, except `spaces.Vector`,
a `__slots__` class that is not a tuple, is rebuilt from its one public field
`entries` and hashes as the tuple of its int fields `(support, nums, den)`
(`trees.SearchBudget`, the one mutable record, is not checked here: no
memo, cache or set holds it).  Every other record hashes as the tuple of its
field values, the value a frozen dataclass had.  All must compare equal by
value, hash alike when equal, and refuse assignment.  The checks run in a fresh
interpreter, plainly and under `python -O`, and use no `assert`, which `-O`
would strip.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wctree

RECORD_CHECK = r"""
import copy, pickle
from fractions import Fraction as F
from wctree import predicates, trees
from wctree.sets import unit_vector_family
from wctree.spaces import L1, L2, C0, Functional, Vector, lp_space

failures = []

def check(ok, what):
    if not ok:
        failures.append(what)

def fields(x):
    # the field names of a record, None for anything else
    if isinstance(x, Vector):
        return ("entries",)
    return x._fields if isinstance(x, tuple) and hasattr(x, "_fields") else None

def gather(x, into):
    # every record reachable from x through record fields and plain tuples
    if fields(x):
        into.setdefault(type(x).__name__, []).append(x)
        values = [getattr(x, f) for f in fields(x)]
    elif isinstance(x, (tuple, list, frozenset)):
        values = list(x)
    else:
        return
    for v in values:
        gather(v, into)

e0, e1, e2 = Vector.unit(0), Vector.unit(1), Vector.unit(2)
half = Vector.from_pairs([(0, F(1, 2)), (1, F(1, 2))])
lp32 = lp_space(F(3, 2))
found = {}
for space in (L1, C0, L2, lp32):
    memo = {}
    for vs in ((e0, e1), (e1, e0, e1), (e0, half), (e0, e1, e2)):
        gather(predicates.simplex_min_norm(space, vs, memo), found)
        gather(predicates.is_eps_dominating(space, vs, F(1, 2)), found)
        gather(predicates.is_M_schauder(space, vs, F(2)), found)
    gather(list(memo.items()), found)
gather(predicates.is_M_schauder(L2, (e0, e0 + e1), F(7, 5)), found)
gather(Functional(L1, half, F(1)), found)
tree = trees.WcTree(unit_vector_family(L2), F(3, 5), F(2))
for node in ((0,), (0, 1), (0, 0), (2, 0, 1)):
    gather(tree.member(node), found)
gather(trees.bounded_wf_search(tree, 3, 4), found)
gather(trees.branch_search(tree, 2, 4, 2), found)

for name, records in sorted(found.items()):
    for r in records:
        values = tuple(getattr(r, f) for f in fields(r))
        hashed = (r.support, r.nums, r.den) if isinstance(r, Vector) else values
        twin = type(r)(*values)
        check(twin == r and not (twin != r) and twin is not r, f"{name}: value equality")
        check(hash(r) == hash(hashed) == hash(twin), f"{name}: hash of the field tuple")
        check(len({r, twin}) == 1, f"{name}: one slot in a set")
        check(copy.copy(r) == r == pickle.loads(pickle.dumps(r)), f"{name}: copy and pickle")
        for f in fields(r):
            try:
                setattr(r, f, getattr(r, f))
                failures.append(f"{name}.{f}: assignment")
            except AttributeError:
                pass
            try:
                delattr(r, f)
                failures.append(f"{name}.{f}: deletion")
            except AttributeError:
                pass
check(hash(half) == hash((half.support, half.nums, half.den)),
      "Vector: hash((support, nums, den))")
check(Vector(half.entries) != half.entries and Vector() != (), "Vector: not a tuple")
check(L2 == lp_space(2) and L2 != L1 and hash(L2) == hash(("l2", "lp", F(2))),
      "SpaceModel: value equality and hash")
for bad in ([(0, F(0))], [(1, F(1)), (1, F(2))], [(2, F(1)), (1, F(1))]):
    try:
        Vector(tuple(bad))
        failures.append(f"Vector accepted {bad}")
    except ValueError:
        pass
print(failures or sorted(found))
"""

COVERED = ["BranchCertificate", "DualCertificate", "Functional", "NodeEvaluation",
           "NormValue", "PrefixRecord", "PrefixWitness", "SchauderReport", "SearchStats",
           "SimplexMinResult", "SimplexWitness", "SpaceModel", "Vector", "Verdict3",
           "WfVerdict"]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_records_compare_hash_and_freeze_like_frozen_dataclasses(flags):
    """Every record found in the memo, the node cache, the searches' results
    and the certificates equals a rebuild, a copy and an unpickled copy of
    itself, hashes as the tuple of its fields and refuses assignment; `Vector`
    still validates its entries."""
    src = str(Path(wctree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", RECORD_CHECK],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == repr(sorted(COVERED))
