"""The pairing, rational, sequence and support decoders are injective, and the
support decoder yields well-formed sparse vectors."""

from fractions import Fraction

from hypothesis import given, strategies as st

from wctree.enumeration import (calkin_wilf, rational_decode, seq_decode,
                                support_decode, unpair)

naturals = st.integers(min_value=0, max_value=10**9)


def _pair(a: int, b: int) -> int:
    """Cantor pairing, the map that `unpair` inverts."""
    return (a + b) * (a + b + 1) // 2 + b


@given(naturals, naturals)
def test_pair_unpair_roundtrip(a, b):
    assert unpair(_pair(a, b)) == (a, b)


@given(naturals)
def test_unpair_pair_roundtrip(n):
    a, b = unpair(n)
    assert _pair(a, b) == n


def test_pair_is_monotone_enough():
    # first few diagonal values, fixed so the coding never drifts
    assert [unpair(n) for n in range(5)] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]


def test_calkin_wilf_hits_small_rationals():
    seen = {calkin_wilf(n) for n in range(1, 200)}
    for q in [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)]:
        assert q in seen


def test_zero_has_no_rational_code():
    """No code decodes to zero; even codes are positive, odd ones their
    negative mirror, and distinct codes decode to distinct rationals."""
    decoded = [rational_decode(k) for k in range(4000)]
    assert all(q > 0 if k % 2 == 0 else q == -decoded[k - 1] for k, q in enumerate(decoded))
    assert len(set(decoded)) == len(decoded)


def test_seq_code_small_values():
    assert seq_decode(0) == ()
    assert len({seq_decode(n) for n in range(3000)}) == 3000


def test_support_decode_total():
    """The first 20,000 indices decode to distinct vectors, each with strictly
    increasing positions and nonzero coefficients."""
    seen = set()
    for n in range(20_000):
        entries = support_decode(n)
        positions = [p for p, _ in entries]
        assert positions == sorted(set(positions)) and all(p >= 0 for p in positions)
        assert all(c != 0 for _, c in entries)
        seen.add(entries)
    assert len(seen) == 20_000
    assert support_decode(0) == () and support_decode(1) == ((0, Fraction(1)),)
