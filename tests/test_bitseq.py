import itertools

import pytest
from hypothesis import given, strategies as st

from treeflow.bitseq import (
    EMPTY,
    BitString,
    index_of,
    pair,
    restricted_triple,
    string_of,
    unpair_1,
    unpair_2,
    untriple,
)


def breadth_first_strings(max_len):
    """Independent oracle: literally enumerate strings in breadth-first order."""
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(bits) for bits in itertools.product("01", repeat=n))
    return [BitString.from_str(s) for s in out]


def diagonal_pairs(count):
    """Independent oracle: walk the diagonals d = i+j constant, i ascending."""
    out = []
    for d in itertools.count(2):
        for i in range(1, d):
            out.append((i, d - i))
            if len(out) == count:
                return out


def test_string_code_bijection_against_enumeration():
    oracle = breadth_first_strings(12)
    for n, x in enumerate(oracle):
        assert index_of(x) == n
        assert string_of(n) == x


def test_first_seven_codes():
    want = ["", "0", "1", "00", "01", "10", "11"]
    got = [str(string_of(n)) for n in range(7)]
    assert got == want


@given(st.integers(min_value=0, max_value=10**9))
def test_code_round_trip(n):
    assert index_of(string_of(n)) == n


def test_pair_against_diagonal_oracle():
    oracle = diagonal_pairs(500)
    for n, (i, j) in enumerate(oracle, start=1):
        assert pair(i, j) == n
        assert (unpair_1(n), unpair_2(n)) == (i, j)


def test_pair_anchor_values():
    assert pair(1, 1) == 1
    assert pair(1, 2) == 2
    assert pair(2, 1) == 3


@pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (-3, 2)])
def test_pair_rejects_nonpositive(i, j):
    with pytest.raises(ValueError):
        pair(i, j)
    with pytest.raises(ValueError):
        unpair_1(0)


@pytest.mark.parametrize("bits", [7, None, ["0"], b"01", "012", "0 1"])
def test_from_str_rejects_what_is_not_a_bit_string(bits):
    with pytest.raises(ValueError):
        BitString.from_str(bits)


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_pair_round_trip(i, j):
    n = pair(i, j)
    assert unpair_1(n) == i
    assert unpair_2(n) == j


def test_triple_round_trip():
    for i, j, k in itertools.product(range(1, 6), repeat=3):
        assert untriple(pair(pair(i, j), k)) == (i, j, k)


def test_restricted_triples_against_scan():
    # Oracle: scan triple codes in order, keep those with first != second.
    want = []
    for t in itertools.count(1):
        cand = untriple(t)
        if cand[0] != cand[1]:
            want.append(cand)
        if len(want) == 40:
            break
    got = [restricted_triple(n) for n in range(1, 41)]
    assert got == want
    assert got[0] == (1, 2, 1)
    assert got[1] == (1, 2, 2)
    assert got[2] == (2, 1, 1)


def test_bitstring_basics():
    x = BitString.from_str("0110")
    assert len(x) == 4
    assert str(x) == "0110"
    assert (x.length, x.value) == (4, 0b0110)
    assert x.truncate(2) == BitString.from_str("01")
    assert x.child(1) == BitString.from_str("01101")
    assert EMPTY.is_prefix_of(x)
    assert BitString.from_str("01").is_strict_prefix_of(x)
    assert not BitString.from_str("10").is_prefix_of(x)
    assert x.suffix_from(3) == BitString.from_str("10")
    assert x.suffix_from(1) == x


@pytest.mark.parametrize("name", ["length", "value", "_hash"])
def test_bitstrings_cannot_lose_an_attribute(name):
    x = BitString.from_str("0110")
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert (x.length, x.value, hash(x)) == (4, 0b0110, hash((4, 0b0110)))


def test_bitstring_ordering_matches_code_order():
    xs = breadth_first_strings(6)
    assert xs == sorted(xs)


def test_extensions_in_numeric_order():
    x = BitString.from_str("1")
    exts = list(x.extensions(3))
    assert [str(e) for e in exts] == ["100", "101", "110", "111"]
    assert all(index_of(a) < index_of(b) for a, b in zip(exts, exts[1:]))


bits_st = st.integers(0, 8).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda v: BitString(n, v))
)


@given(bits_st, bits_st)
def test_prefix_agrees_with_string_startswith(x, y):
    assert x.is_prefix_of(y) == str(y).startswith(str(x))
