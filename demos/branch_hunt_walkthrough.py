"""Certify a deep branch in the summable-space unit-vector hull.

At the sharpest parameters (eps = 1, M = 1) the unit vectors themselves are
the only way to keep going: every convex combination of distinct unit
vectors has summable norm exactly 1, and prefix sums never overshoot.  The
beam search should therefore lock onto the unit-vector generator and ride it
as deep as we ask.
"""

import time
from fractions import Fraction

from wctree import (WcTree, branch_search, unit_vector_hull,
                    validate_certificate)
from wctree.spaces import L1

DEPTH = 8
INDEX_BOUND = 48


def main():
    hull = unit_vector_hull(L1)
    tree = WcTree(hull, eps=Fraction(1), big_m=Fraction(1))

    started = time.perf_counter()
    cert = branch_search(tree, DEPTH, INDEX_BOUND, beam_width=4)
    elapsed = time.perf_counter() - started

    if cert is None:
        print("no certified branch found -- not expected here")
        return

    print(f"branch of depth {cert.depth} found in {elapsed:.2f}s")
    print(f"indices:   {list(cert.branch)}")
    print(f"generator: {cert.generator}")
    for rec in cert.prefixes:
        print(f"  prefix {list(rec.node)!s:<34} {rec.kind}  margin {rec.margin:+.4f}")

    fresh = WcTree(unit_vector_hull(L1), eps=Fraction(1), big_m=Fraction(1))
    print("revalidating every prefix from scratch:",
          validate_certificate(fresh, cert))

    # the selected points really are the unit vectors
    for depth, idx in enumerate(cert.branch):
        print(f"  selector({idx}) = {hull.selector(idx)}")

    # the same hunt dies immediately if we demand domination above 1
    colder = WcTree(hull, eps=Fraction(1), big_m=Fraction(1))
    ev = colder.member((1,))  # a non-unit hull point: a simplex combination
    print("\na combination node at eps = 1:", ev.verdict.kind,
          "(combinations still have norm 1 in this space)")


if __name__ == "__main__":
    main()
