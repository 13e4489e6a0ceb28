"""Finite binary strings and the integer codes that schedule work on them.

Strings are numbered breadth-first (empty string gets 0, then "0", "1", "00",
"01", ...), pairs of positive integers are numbered along diagonals starting
at 1, and bit positions are 1-based counting from the most significant bit.
Everything is plain integer arithmetic on (length, value) pairs, so strings a
few thousand bits long stay cheap.
"""

from __future__ import annotations

import itertools
from math import isqrt
from typing import Iterator


class BitString:
    """Immutable binary string stored as (length, value).

    value holds the bits most-significant-first, so "011" is (3, 3).
    Ordering follows the breadth-first numbering: shorter strings first,
    same-length strings by numeric value.
    """

    __slots__ = ("length", "value", "_hash")

    def __init__(self, length: int, value: int):
        if length < 0:
            raise ValueError("negative length")
        if not 0 <= value < (1 << length):
            raise ValueError(f"value {value} out of range for length {length}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((length, value)))

    def __setattr__(self, name, val):
        raise AttributeError("BitString is immutable")

    def __delattr__(self, name):
        raise AttributeError("BitString is immutable")

    @classmethod
    def from_str(cls, bits: str) -> "BitString":
        if not isinstance(bits, str):
            raise ValueError(f"bit string {bits!r} is not a string")
        bits = bits.strip()
        if bits and set(bits) - {"0", "1"}:
            raise ValueError(f"not a binary string: {bits!r}")
        return cls(len(bits), int(bits, 2) if bits else 0)

    def __len__(self) -> int:
        return self.length

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.length == other.length
            and self.value == other.value
        )

    def __lt__(self, other: "BitString") -> bool:
        return (self.length, self.value) < (other.length, other.value)

    def __le__(self, other: "BitString") -> bool:
        return (self.length, self.value) <= (other.length, other.value)

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"

    def child(self, b: int) -> "BitString":
        return BitString(self.length + 1, (self.value << 1) | (b & 1))

    def concat(self, other: "BitString") -> "BitString":
        return BitString(
            self.length + other.length, (self.value << other.length) | other.value
        )

    def truncate(self, k: int) -> "BitString":
        """First k bits (k may not exceed the length)."""
        if k > self.length or k < 0:
            raise ValueError(f"cannot truncate length {self.length} to {k}")
        return BitString(k, self.value >> (self.length - k))

    def suffix_from(self, pos: int) -> "BitString":
        """Bits at positions pos..length as a new string (pos is 1-based)."""
        if not 1 <= pos <= self.length + 1:
            raise IndexError(f"position {pos} out of range")
        n = self.length - pos + 1
        return BitString(n, self.value & ((1 << n) - 1))

    def is_prefix_of(self, other: "BitString") -> bool:
        return (
            self.length <= other.length
            and (other.value >> (other.length - self.length)) == self.value
        )

    def is_strict_prefix_of(self, other: "BitString") -> bool:
        return self.length < other.length and self.is_prefix_of(other)

    def extensions(self, n: int) -> Iterator["BitString"]:
        """All length-n extensions of self in numeric (breadth-first) order."""
        if n < self.length:
            return
        gap = n - self.length
        base = self.value << gap
        for t in range(1 << gap):
            yield BitString(n, base | t)


EMPTY = BitString(0, 0)

# The breadth-first numbering used everywhere: empty string is 0, "0" is 1,
# "1" is 2, "00" is 3 and so on; index = 2^length - 1 + value.


def index_of(x: BitString) -> int:
    return (1 << x.length) - 1 + x.value


def string_of(n: int) -> BitString:
    if n < 0:
        raise ValueError("negative code")
    length = (n + 1).bit_length() - 1
    return BitString(length, n - ((1 << length) - 1))


# Diagonal pairing of positive integers: pair(1,1)=1, pair(1,2)=2, pair(2,1)=3.


def pair(i: int, j: int) -> int:
    if i < 1 or j < 1:
        raise ValueError("pair arguments must be >= 1")
    d = i + j - 2
    return d * (d + 1) // 2 + i


def _unpair(n: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError("unpair argument must be >= 1")
    # Largest d with d(d+1)/2 < n.
    d = (isqrt(8 * n - 7) - 1) // 2
    while d * (d + 1) // 2 >= n:
        d -= 1
    while (d + 1) * (d + 2) // 2 < n:
        d += 1
    i = n - d * (d + 1) // 2
    return i, d + 2 - i


def unpair_1(n: int) -> int:
    return _unpair(n)[0]


def unpair_2(n: int) -> int:
    return _unpair(n)[1]


def untriple(n: int) -> tuple[int, int, int]:
    a, k = _unpair(n)
    i, j = _unpair(a)
    return i, j, k


_restricted_triples: list[tuple[int, int, int]] = []
_restricted_scan = itertools.count(1)


def restricted_triple(n: int) -> tuple[int, int, int]:
    """n-th triple (i, j, k) with i != j, scanning triple codes in order."""
    if n < 1:
        raise ValueError("restricted triple index must be >= 1")
    while len(_restricted_triples) < n:
        t = untriple(next(_restricted_scan))
        if t[0] != t[1]:
            _restricted_triples.append(t)
    return _restricted_triples[n - 1]
