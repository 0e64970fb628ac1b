"""Decoders from naturals onto nonzero rationals and sparse rational vectors.

Every countable model (the dense families of the set models, hence tree node
indices and report reproducibility) rests on one fixed enumeration of all
finitely supported rational coefficient sequences.  The scheme composes three
bijections, each given here by its decoder:

* the inverse of the Cantor pairing ``pair(a, b) = (a+b)(a+b+1)/2 + b``;
* the Calkin-Wilf walk over positive rationals, extended to all nonzero
  rationals: code 0 is +1, even codes are positive, odd codes the negative
  mirror;
* a list code for finite sequences of naturals: 0 is the empty list, and
  ``1 + pair(head, code(tail))`` otherwise.

A vector with support ``i_1 < ... < i_k`` and coefficients ``c_1 .. c_k`` has
the list ``[pair(gap_j, rational_code(c_j))]`` as its code, where
``gap_1 = i_1`` and ``gap_j = i_j - i_{j-1} - 1`` for ``j >= 2``.
Consequently index 0 is the zero vector and index 1 is the first unit vector
``e_0``, and every vector has exactly one index.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def unpair(z: int) -> tuple[int, int]:
    """The naturals (a, b) whose Cantor pairing (a+b)(a+b+1)/2 + b is z."""
    w = (isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


def calkin_wilf(n: int) -> Fraction:
    """The n-th positive rational (n >= 1) along the Calkin-Wilf tree.

    Node 1 is 1/1; the binary digits of n below the leading bit walk the tree
    (0 = left child q/(q+1), 1 = right child q+1).
    """
    if n < 1:
        raise ValueError("Calkin-Wilf indices start at 1")
    q = Fraction(1)
    for ch in bin(n)[3:]:
        q = q / (q + 1) if ch == "0" else q + 1
    return q


def rational_decode(k: int) -> Fraction:
    """Nonzero rational with code k (0 -> +1, 1 -> -1, 2 -> +1/2, ...)."""
    mag = calkin_wilf(k // 2 + 1)
    return mag if k % 2 == 0 else -mag


def seq_decode(code: int) -> tuple[int, ...]:
    """Finite sequence of naturals with the given code (0 is the empty one)."""
    out: list[int] = []
    while code:
        head, code = unpair(code - 1)
        out.append(head)
    return tuple(out)


def support_decode(index: int) -> tuple[tuple[int, Fraction], ...]:
    """Sparse (position, coefficient) pairs for the vector at this index.

    Positions come out strictly increasing and no coefficient is zero.
    """
    entries: list[tuple[int, Fraction]] = []
    pos = -1
    for item in seq_decode(index):
        gap, rat = unpair(item)
        pos = gap if pos < 0 else pos + 1 + gap
        entries.append((pos, rational_decode(rat)))
    return tuple(entries)
