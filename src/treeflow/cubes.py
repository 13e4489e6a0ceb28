"""Subcubes of one tree level: sets of equal-length strings with some
positions pinned to fixed bits and the rest free.

A cube is three integers (length, care, value) in the positional cube
notation of Espresso (Brayton et al., Logic Minimization Algorithms for
VLSI Synthesis, 1984). Bit length - pos of `care` is set when the 1-based
position pos is pinned, and `value` holds the pinned bits in the same
places, so a member x (a BitString of the same length) satisfies
x.value & care == value. Intersection, difference (as a disjoint cube
list), membership and counting are then a few integer operations, which
is everything the sparse frame representation needs. A level with 2^n
vertices costs nothing to describe as long as the number of distinct
regions stays small.

On disk a cube is its pattern: one character per position, "0" or "1"
when pinned and "*" when free.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from treeflow.bitseq import BitString

_PATTERN = re.compile(r"[01*]*")
# The `str.translate` table of `Cube.pattern`: a position's octal digit
# "3", "2" or "0" (by code point) -> its character "1", "0" or "*".
_PATTERN_DIGITS = {0x33: "1", 0x32: "0", 0x30: "*"}


class Cube:
    __slots__ = ("length", "care", "value")

    def __init__(self, length: int, care: int = 0, value: int = 0):
        if care < 0 or care >> length:
            raise ValueError(f"care mask {care:b} outside level {length}")
        if value & ~care:
            raise ValueError(f"value {value:b} sets a free position")
        # The slot descriptors write past the read-only __setattr__.
        _set_length(self, length)
        _set_care(self, care)
        _set_value(self, value)

    def __setattr__(self, name, val):
        raise AttributeError("Cube is immutable")

    def __delattr__(self, name):
        raise AttributeError("Cube is immutable")

    def __hash__(self):
        # On demand: the engine keys few dicts by cube.
        return hash((self.length, self.care, self.value))

    def __eq__(self, other):
        return (
            isinstance(other, Cube)
            and self.length == other.length
            and self.care == other.care
            and self.value == other.value
        )

    def pattern(self) -> str:
        # Each mask's bits are spread one per octal digit, care doubled, so
        # a position's digit is 3 pinned to 1, 2 pinned to 0, 0 free. The
        # leading 1 of each mask keeps format() from dropping leading
        # zeros, and its digit 3 is dropped.
        top = 1 << self.length
        care = int(format(self.care | top, "b"), 8)
        value = int(format(self.value | top, "b"), 8)
        return format(care << 1 | value, "o")[1:].translate(_PATTERN_DIGITS)

    def __repr__(self):
        return f"Cube({self.pattern()!r})"

    @classmethod
    def from_pattern(cls, pattern: str) -> "Cube":
        if not _PATTERN.fullmatch(pattern):
            raise ValueError(f"bad cube pattern {pattern!r}")
        care = int("0" + pattern.replace("0", "1").replace("*", "0"), 2)
        value = int("0" + pattern.replace("*", "0"), 2)
        return cls(len(pattern), care, value)

    @classmethod
    def vertex(cls, x: BitString) -> "Cube":
        return cls(len(x), (1 << len(x)) - 1, x.value)

    @classmethod
    def subtree(cls, root: BitString, length: int) -> "Cube":
        """Level-`length` strings extending root."""
        if length < len(root):
            raise ValueError("subtree level above the root")
        shift = length - len(root)
        return cls(length, ((1 << len(root)) - 1) << shift, root.value << shift)

    @classmethod
    def whole_level(cls, length: int) -> "Cube":
        return cls(length)

    @classmethod
    def suffix_pattern(cls, length: int, start: int, bits: BitString) -> "Cube":
        """Pins positions start .. start+len(bits)-1 to the given bits."""
        shift = length - start - len(bits) + 1
        return cls(length, ((1 << len(bits)) - 1) << shift, bits.value << shift)

    def count(self) -> int:
        return 1 << (self.length - self.care.bit_count())

    def contains(self, x: BitString) -> bool:
        return len(x) == self.length and x.value & self.care == self.value

    def intersect(self, other: "Cube") -> Optional["Cube"]:
        if self.length != other.length:
            raise ValueError("cube lengths differ")
        if (self.value ^ other.value) & self.care & other.care:
            return None
        return Cube(self.length, self.care | other.care, self.value | other.value)

    def overlap(self, other: "Cube") -> int:
        """Number of members the two cubes share (intersect, then count,
        without building the intersection)."""
        if self.length != other.length:
            raise ValueError("cube lengths differ")
        if (self.value ^ other.value) & self.care & other.care:
            return 0
        return 1 << (self.length - (self.care | other.care).bit_count())

    def subtract(self, other: "Cube") -> list["Cube"]:
        """self minus other, as disjoint cubes (standard peel, one cube per
        position pinned by the other cube but free here, position 1 first)."""
        if self.intersect(other) is None:
            return [self]
        pieces = []
        care, value = self.care, self.value
        todo = other.care & ~care
        while todo:
            bit = 1 << (todo.bit_length() - 1)
            pieces.append(Cube(self.length, care | bit, value | (bit & ~other.value)))
            care |= bit
            value |= bit & other.value
            todo ^= bit
        return pieces

    def representative(self) -> BitString:
        return BitString(self.length, self.value)

    def members(self, cap: int = 1 << 20) -> Iterator[BitString]:
        """All members; bit k of the counter sets the k-th free position,
        counting from position 1."""
        if self.count() > cap:
            raise ValueError(f"cube too large to enumerate ({self.count()} members)")
        free = [
            1 << s for s in range(self.length - 1, -1, -1) if not (self.care >> s) & 1
        ]
        for mask in range(1 << len(free)):
            v = self.value
            for k, bit in enumerate(free):
                if (mask >> k) & 1:
                    v |= bit
            yield BitString(self.length, v)

    def extend(self, extra: int) -> "Cube":
        """Same pins, `extra` more free low positions (the level below)."""
        return Cube(self.length + extra, self.care << extra, self.value << extra)


_set_length = Cube.length.__set__
_set_care = Cube.care.__set__
_set_value = Cube.value.__set__


def subtract_many(base: Cube, holes: list[Cube]) -> list[Cube]:
    """base minus the union of holes, as disjoint cubes."""
    parts = [base]
    for hole in holes:
        parts = [piece for cube in parts for piece in cube.subtract(hole)]
    return parts
