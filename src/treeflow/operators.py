"""Monotone operator providers and their budgeted evaluation.

A provider describes a computably enumerable graph of (input, output, cost)
entries on binary strings, subject to three axioms: every input maps to the
empty string at cost 0, outputs are closed downward under prefix, and any two
outputs reachable from nested inputs within one budget are prefix-comparable.
`apply_modified` evaluates the induced total map at budget len(x): the longest
output of length <= len(x) reachable from a prefix of x within that budget.

Two provider families cover everything the constructions need: finite tables
of explicit entries, and deterministic transducers that emit bits while
scanning the input. Partial integer functions follow the same budget idiom
(`phi_bounded`), with tables and total linear maps as providers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from treeflow.bitseq import EMPTY, BitString, unpair_1


class OperatorError(Exception):
    """Bad provider description (a configuration problem)."""


class InconsistentGraph(OperatorError):
    """A table gives prefix-incomparable outputs for nested inputs."""


class TableOperator:
    """Finite explicit graph: a list of (input, output, cost) entries.

    The constructor refuses a table that breaks the consistency axiom
    (`refuse_conflicts`), so the entries that apply at one input, whose
    inputs are all prefixes of it, have pairwise comparable outputs."""

    def __init__(self, entries: Iterable[tuple[BitString, BitString, int]]):
        self.entries = []
        for x, y, cost in entries:
            if cost < 1:
                raise OperatorError("table entry cost must be >= 1")
            self.entries.append((x, y, cost))
        refuse_conflicts(self.entries)

    def image(self, x: BitString) -> BitString:
        budget = len(x)
        best = EMPTY
        for src, dst, cost in self.entries:
            if cost > budget or not src.is_prefix_of(x):
                continue
            y = dst.truncate(min(len(dst), budget))
            if best.is_prefix_of(y):  # else y is a prefix of best
                best = y
        return best

    def max_image_len(self, budget: int) -> int:
        lens = [min(len(d), budget) for _, d, c in self.entries if c <= budget]
        return max(lens, default=0)

    def prefix_image_only(self) -> bool:
        return all(d.is_prefix_of(s) for s, d, _ in self.entries)

    def length_determined(self) -> bool:
        # A table with entries distinguishes inputs; only the empty table
        # (image always empty) is safely length-determined.
        return not self.entries


class TransducerOperator:
    """Deterministic transducer: scan input bits, emit output bits.

    rules maps (state, bit) to (next_state, emitted bits). A missing rule
    halts the machine with no further output. The graph entry for input x is
    (x, emitted(x), len(x)), plus the mandatory (empty, empty, 0). `advance`
    is the one interpreter: `image` runs it over the whole input with the
    image capped at the input's length, and the edge-target search runs it
    a node at a time with the image capped at the level.
    """

    def __init__(self, rules: dict[tuple[str, int], tuple[str, tuple[int, ...]]],
                 start: str):
        self.rules = dict(rules)
        self.start = start
        self._gain: list[dict[str, int]] = [{}]
        for (state, b), (nxt, emit) in self.rules.items():
            if b not in (0, 1) or any(e not in (0, 1) for e in emit):
                raise OperatorError(f"bad rule ({state}, {b}) -> ({nxt}, {emit})")

    def advance(self, machine, value: int, count: int, limit: int):
        """The machine (state, image length, image value) after reading
        the `count` bits of `value`, most significant first; the state is
        None once a missing rule halted it. The image keeps the first
        `limit` bits emitted and drops the rest."""
        state, length, img = machine
        for p in range(count - 1, -1, -1):
            rule = None if state is None else self.rules.get((state, (value >> p) & 1))
            if rule is None:
                return None, length, img
            state, emit = rule
            for bit in emit:
                if length < limit:
                    img = (img << 1) | bit
                    length += 1
        return state, length, img

    def image(self, x: BitString) -> BitString:
        _state, length, img = self.advance((self.start, 0, 0), x.value, len(x), len(x))
        return BitString(length, img)

    def max_image_len(self, budget: int) -> int:
        return min(self.max_emission(self.start, budget), budget)

    def max_emission(self, state: Optional[str], steps: int) -> int:
        """Most bits the machine can emit from `state` within `steps` more
        input bits; 0 for a halted machine (state None). Emissions never
        shrink, so the table of step r holds, per state, the best rule's
        emission plus the best of step r-1 from its target."""
        while len(self._gain) <= steps:
            last = self._gain[-1]
            step: dict[str, int] = {}
            for (s, _b), (tgt, emit) in self.rules.items():
                step[s] = max(step.get(s, 0), len(emit) + last.get(tgt, 0))
            self._gain.append(step)
        return self._gain[steps].get(state, 0)

    def prefix_image_only(self) -> bool:
        # Sound, incomplete test that every image is a prefix of its input:
        # label states echo/silent, demand echo rules emit exactly the read
        # bit, silent rules emit nothing and never hand back to an echo state.
        silent = {s for (s, _), (_, emit) in self.rules.items() if emit == ()}
        for (s, b), (tgt, emit) in self.rules.items():
            if s in silent:
                # Once silent, must stay silent, or the image stops being a prefix.
                if emit != () or tgt not in silent:
                    return False
            elif emit != (b,):
                return False
        return True

    def length_determined(self) -> bool:
        """True when the output depends only on the input's length (both
        rules of every state take the same transition and emission)."""
        states = {s for (s, _b) in self.rules}
        return all(
            self.rules.get((s, 0)) == self.rules.get((s, 1)) for s in states
        )


Operator = TableOperator | TransducerOperator


def apply_modified(op: Operator, x: BitString) -> BitString:
    """Longest output of length <= len(x) reachable from a prefix of x."""
    return op.image(x)


def echo_operator() -> TransducerOperator:
    return TransducerOperator({("a", 0): ("a", (0,)), ("a", 1): ("a", (1,))}, "a")


def silent_operator() -> TransducerOperator:
    return TransducerOperator({("a", 0): ("a", ()), ("a", 1): ("a", ())}, "a")


def flip_operator() -> TransducerOperator:
    return TransducerOperator({("a", 0): ("a", (1,)), ("a", 1): ("a", (0,))}, "a")


def doubler_operator() -> TransducerOperator:
    return TransducerOperator({("a", 0): ("a", (0, 0)), ("a", 1): ("a", (1, 1))}, "a")


def const_operator(bits: str) -> TransducerOperator:
    """Emits a fixed string on the first input bit, then nothing."""
    emit = tuple(int(c) for c in bits)
    return TransducerOperator(
        {("a", 0): ("b", emit), ("a", 1): ("b", emit),
         ("b", 0): ("b", ()), ("b", 1): ("b", ())},
        "a",
    )


@dataclass
class OperatorRoster:
    """Finitely many base providers repeated over all task indices.

    Task i gets base ((unpair_1(i) - 1) mod count), so every base serves
    infinitely many indices.
    """

    bases: tuple[Operator, ...]

    def __post_init__(self):
        if not self.bases:
            raise OperatorError("empty operator roster")

    def operator_for(self, i: int) -> Operator:
        return self.bases[(unpair_1(i) - 1) % len(self.bases)]

    def base_for(self, number: int) -> Operator:
        """Direct lookup by operator number (no index decode), wrapped."""
        return self.bases[(number - 1) % len(self.bases)]


class TableFunction:
    """Partial integer function given by explicit (arg, value, cost) rows."""

    def __init__(self, rows: Iterable[tuple[int, int, int]]):
        self.rows = {}
        for arg, value, cost in rows:
            if cost < 0:
                raise OperatorError("function cost must be >= 0")
            self.rows[arg] = (value, cost)

    def bounded(self, arg: int, steps: int) -> Optional[int]:
        hit = self.rows.get(arg)
        if hit is None or hit[1] > steps:
            return None
        return hit[0]


class LinearFunction:
    """Total function a*x + b, charged cost equal to its value."""

    def __init__(self, a: int, b: int):
        if a < 0 or b < 0:
            raise OperatorError("linear coefficients must be >= 0")
        self.a = a
        self.b = b

    def bounded(self, arg: int, steps: int) -> Optional[int]:
        value = self.a * arg + self.b
        return value if value <= steps else None


PartialFunction = TableFunction | LinearFunction


@dataclass
class FunctionRoster:
    bases: tuple[PartialFunction, ...]

    def __post_init__(self):
        if not self.bases:
            raise OperatorError("empty function roster")

    def function_for(self, j: int) -> PartialFunction:
        return self.bases[(unpair_1(j) - 1) % len(self.bases)]

def phi_bounded(roster: FunctionRoster, j: int, arg: int, steps: int) -> Optional[int]:
    return roster.function_for(j).bounded(arg, steps)


def _comparable(a: BitString, b: BitString) -> bool:
    return a.is_prefix_of(b) or b.is_prefix_of(a)


def refuse_conflicts(entries: list[tuple[BitString, BitString, int]]) -> None:
    """Raise InconsistentGraph when two entries have comparable inputs and
    incomparable outputs. Any input long enough to extend both inputs and
    to afford both costs and outputs meets the pair, so such a table breaks
    the axioms however deep the conflict lies; without such a pair every
    image is well defined."""
    for k, (s1, d1, _c1) in enumerate(entries):
        for s2, d2, _c2 in entries[k + 1 :]:
            if _comparable(s1, s2) and not _comparable(d1, d2):
                raise InconsistentGraph(
                    f"table entries {str(s1)!r} -> {str(d1)!r} and "
                    f"{str(s2)!r} -> {str(d2)!r} have "
                    "comparable inputs and incomparable outputs"
                )


def load_operator(desc: dict) -> Operator:
    kind = desc.get("kind")
    if kind == "echo":
        return echo_operator()
    if kind == "silent":
        return silent_operator()
    if kind == "flip":
        return flip_operator()
    if kind == "doubler":
        return doubler_operator()
    if kind == "const":
        return const_operator(desc["bits"])
    if kind == "table":
        entries = [
            (BitString.from_str(s), BitString.from_str(d), int(c))
            for s, d, c in desc["entries"]
        ]
        return TableOperator(entries)
    if kind == "transducer":
        rules = {
            (state, int(b)): (tgt, tuple(int(e) for e in emit))
            for state, b, tgt, emit in desc["rules"]
        }
        return TransducerOperator(rules, desc["start"])
    raise OperatorError(f"unknown operator kind {kind!r}")


def load_function(desc: dict) -> PartialFunction:
    kind = desc.get("kind")
    if kind == "linear":
        return LinearFunction(int(desc["a"]), int(desc["b"]))
    if kind == "table":
        return TableFunction(
            [(int(a), int(v), int(c)) for a, v, c in desc["rows"]]
        )
    raise OperatorError(f"unknown function kind {kind!r}")


def load_rosters(desc: dict) -> tuple[OperatorRoster, FunctionRoster]:
    op_descs = desc.get("operators", [])
    fn_descs = desc.get("functions", [])
    if not op_descs or not fn_descs:
        raise OperatorError("roster description needs operators and functions")
    return (
        OperatorRoster(tuple(load_operator(d) for d in op_descs)),
        FunctionRoster(tuple(load_function(d) for d in fn_descs)),
    )
