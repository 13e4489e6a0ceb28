"""Elementary networks on the binary tree: delay tables, frames, flows,
and exact per-level aggregates.

A network is built level by level. The delay table at level n fixes s(x)
for every length-n vertex; pushing level n down gives each child the share
(1 - s(x))/2 of R(x), and extra edges inject q * R(source) at their target
vertex. Frames are held as disjoint (cube, value) lists per level, with
zero-valued regions omitted, so levels with 2^n vertices cost only as many
items as there are distinct regions. Everything is a Fraction; there is no
floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from treeflow.bitseq import BitString
from treeflow.cubes import Cube, subtract_many

Rational = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


class ConstructionError(Exception):
    """The construction tried to violate one of its own invariants."""


def rat_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def rat_parse(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _check_delay_value(v: Fraction) -> Fraction:
    v = Fraction(v)
    if v == 0:
        return v
    if v.numerator != 1 or not 0 < v <= 1:
        raise ConstructionError(f"delay value {v} is not 0 or 1/M")
    return v


class DelayTable:
    """Delays for one level: a default plus exceptions in three tiers.

    Lookup precedence is vertex > suffix-cube > subtree > default. Within
    a tier, exceptions never overlap (insertion enforces it), so lookup
    order inside a tier does not matter.
    """

    def __init__(self, level: int, default: Fraction = ZERO):
        self.level = level
        self.default = _check_delay_value(default)
        self.vertex: dict[BitString, Fraction] = {}
        self.suffix: list[tuple[Cube, Fraction]] = []
        self.subtree: dict[BitString, Fraction] = {}
        self._partition: Optional[list[tuple[Cube, Fraction]]] = None

    def set_vertex(self, x: BitString, v: Fraction) -> None:
        v = _check_delay_value(v)
        if len(x) != self.level:
            raise ConstructionError(f"vertex {x} not at level {self.level}")
        old = self.vertex.get(x)
        if old is not None and old != v:
            raise ConstructionError(f"conflicting vertex delays at {x}: {old} vs {v}")
        self.vertex[x] = v
        self._partition = None

    def add_suffix(self, cube: Cube, v: Fraction) -> None:
        v = _check_delay_value(v)
        if cube.length != self.level:
            raise ConstructionError("suffix cube at wrong level")
        parts = [cube]
        for have, v0 in self.suffix:
            nxt = []
            for p in parts:
                if p.intersect(have) is None:
                    nxt.append(p)
                    continue
                if v0 != v:
                    raise ConstructionError(
                        f"conflicting suffix delays on {p} ∩ {have}: {v0} vs {v}"
                    )
                nxt.extend(p.subtract(have))
            parts = nxt
        self.suffix.extend((p, v) for p in parts)
        self._partition = None

    def add_subtree(self, root: BitString, v: Fraction) -> None:
        v = _check_delay_value(v)
        if len(root) > self.level:
            raise ConstructionError("subtree root below the level")
        for have, v0 in self.subtree.items():
            if have == root:
                if v0 != v:
                    raise ConstructionError(
                        f"conflicting subtree delays at {root}: {v0} vs {v}"
                    )
                return
            if have.is_prefix_of(root) or root.is_prefix_of(have):
                raise ConstructionError(
                    f"nested subtree delay roots {have} and {root}"
                )
        self.subtree[root] = v
        self._partition = None

    def delay(self, x: BitString) -> Fraction:
        if len(x) != self.level:
            raise ConstructionError(f"vertex {x} not at level {self.level}")
        hit = self.vertex.get(x)
        if hit is not None:
            return hit
        for cube, v in self.suffix:
            if cube.contains(x):
                return v
        for root, v in self.subtree.items():
            if root.is_prefix_of(x):
                return v
        return self.default

    def s_partition(self) -> list[tuple[Cube, Fraction]]:
        """Disjoint (cube, s) cover of the whole level."""
        if self._partition is not None:
            return self._partition
        parts: list[tuple[Cube, Fraction]] = [
            (Cube.whole_level(self.level), self.default)
        ]
        overrides: list[tuple[Cube, Fraction]] = []
        for root, v in sorted(self.subtree.items()):
            overrides.append((Cube.subtree(root, self.level), v))
        overrides.extend(self.suffix)
        for x, v in sorted(self.vertex.items()):
            overrides.append((Cube.vertex(x), v))
        for cube, v in overrides:
            nxt: list[tuple[Cube, Fraction]] = []
            for c, v0 in parts:
                inter = c.intersect(cube)
                if inter is None:
                    nxt.append((c, v0))
                    continue
                nxt.extend((p, v0) for p in c.subtract(cube))
                nxt.append((inter, v))
            parts = nxt
        self._partition = parts
        return parts

    def to_record(self) -> dict:
        return {
            "level": self.level,
            "default": rat_str(self.default),
            "vertex": [[str(x), rat_str(v)] for x, v in sorted(self.vertex.items())],
            "suffix": [[c.pattern(), rat_str(v)] for c, v in self.suffix],
            "subtree": [
                [str(r), rat_str(v)] for r, v in sorted(self.subtree.items())
            ],
        }


@dataclass(frozen=True)
class ExtraEdge:
    source: BitString
    target: BitString
    q: Fraction
    task: int
    subtask: Optional[int]
    network_id: int
    step_drawn: int

    def __post_init__(self):
        if not self.source.is_strict_prefix_of(self.target):
            raise ConstructionError(
                f"edge source {self.source} is not a strict prefix of {self.target}"
            )
        if len(self.target) - len(self.source) <= 1:
            raise ConstructionError("extra edges must skip at least one level")

    def to_record(self) -> dict:
        return {
            "from": str(self.source),
            "to": str(self.target),
            "q": rat_str(self.q),
            "task": self.task,
            "subtask": self.subtask,
            "network": self.network_id,
            "step": self.step_drawn,
        }


@dataclass(frozen=True)
class EdgeClass:
    """A batch of parallel edges: every source in the cube, one shared tail.

    Injection works on the cube as a whole, so a class of 2^k edges costs
    the same as one edge plus the bookkeeping of its member records.
    """

    source_cube: Cube
    tail: BitString
    q: Fraction
    edges: tuple[ExtraEdge, ...]

    def __post_init__(self):
        if len(self.tail) <= 1:
            raise ConstructionError("edge class tail must skip at least one level")
        for e in self.edges:
            if not self.source_cube.contains(e.source):
                raise ConstructionError(f"edge source {e.source} outside its class cube")
            if e.source.concat(self.tail) != e.target:
                raise ConstructionError(f"edge target {e.target} does not match class tail")
            if e.q != self.q:
                raise ConstructionError("edge weight differs from class weight")


@dataclass
class LevelAggregates:
    total_R: Fraction
    extra_inflow: Fraction

    @property
    def s_n(self) -> Fraction:
        return self.total_R - self.extra_inflow

    def to_record(self) -> dict:
        return {
            "total_R": rat_str(self.total_R),
            "extra_inflow": rat_str(self.extra_inflow),
            "s_n": rat_str(self.s_n),
        }


Items = list[tuple[Cube, Fraction]]


def _items_total(items: Items) -> Fraction:
    return sum((v * c.count() for c, v in items), ZERO)


def _add_uniform(items: Items, cube: Cube, delta: Fraction) -> Items:
    """items + delta on every vertex of cube, keeping the list disjoint."""
    out: Items = []
    holes: list[Cube] = []
    for c, v in items:
        inter = c.intersect(cube)
        if inter is None:
            out.append((c, v))
            continue
        holes.append(c)
        out.extend((p, v) for p in c.subtract(cube))
        if v + delta != 0:
            out.append((inter, v + delta))
    if delta != 0:
        for rest in subtract_many(cube, holes):
            out.append((rest, delta))
    return out


class ElementaryNetwork:
    """One network, built level by level by a construction driver."""

    def __init__(self, network_id: int = 1):
        self.network_id = network_id
        self.depth = 0
        self.tables: list[DelayTable] = [DelayTable(0)]
        self.frames: list[Items] = [[(Cube.whole_level(0), ONE)]]
        self.aggregates: list[LevelAggregates] = [LevelAggregates(ONE, ZERO)]
        self.edges: list[ExtraEdge] = []
        # Outgoing edges keyed by source length, then by source value: a
        # flow query probes one dict per edge source level.
        self._out_edges: dict[int, dict[int, ExtraEdge]] = {}
        self._pre: Optional[tuple[int, Items, Fraction]] = None

    # -- queries ---------------------------------------------------------

    def delay(self, x: BitString) -> Fraction:
        if len(x) > self.depth:
            raise ConstructionError(f"level {len(x)} not constructed yet")
        return self.tables[len(x)].delay(x)

    def frame_eval(self, x: BitString) -> Fraction:
        if len(x) > self.depth:
            raise ConstructionError(f"level {len(x)} not constructed yet")
        value = x.value
        for cube, v in self.frames[len(x)]:
            if value & cube.care == cube.value:
                return v
        return ZERO

    def flow_eval(self, x: BitString) -> Fraction:
        """P(x): the frame value R(x) plus the mass in transit over x, that
        is q * R(source) for every extra edge whose source is a proper
        prefix of x and whose target lies strictly below x."""
        total = self.frame_eval(x)
        n, value = x.length, x.value
        for k, by_value in self._out_edges.items():
            if k >= n:
                continue
            e = by_value.get(value >> (n - k))
            if e is None:
                continue
            t = e.target
            if t.length > n and t.value >> (t.length - n) == value:
                total += e.q * self.frame_eval(e.source)
        return total

    def level_stats(self, n: int) -> LevelAggregates:
        if n > self.depth:
            raise ConstructionError(f"level {n} not constructed yet")
        return self.aggregates[n]

    def pattern_mass(self, n: int, cube: Cube, pre: bool = False) -> Fraction:
        """Sum of R over the cube's vertices, against the committed frame at
        level n, or against the pending pre-commit frame (pre=True, n must be
        depth+1: the frame pushed from below with no level-n edges yet)."""
        items = self.pre_frame(n) if pre else None
        if items is None:
            if n > self.depth:
                raise ConstructionError(f"level {n} not constructed yet")
            items = self.frames[n]
        total = ZERO
        for c, v in items:
            inter = c.intersect(cube)
            if inter is not None:
                total += v * inter.count()
        return total

    # -- construction ----------------------------------------------------

    def pre_frame(self, n: int) -> Items:
        if n != self.depth + 1:
            raise ConstructionError(
                f"pre-commit frame only exists at level {self.depth + 1}"
            )
        if self._pre is not None and self._pre[0] == n:
            return self._pre[1]
        items: Items = []
        pushed = ZERO
        parts = self.tables[self.depth].s_partition()
        for c, v in self.frames[self.depth]:
            if v == 0:
                continue
            for pc, s in parts:
                inter = c.intersect(pc)
                if inter is None:
                    continue
                share = v * (1 - s) / 2
                pushed += v * (1 - s) * inter.count()
                if share != 0:
                    items.append((inter.extend(1), share))
        self._pre = (n, items, pushed)
        return items

    def commit_level(
        self, table: DelayTable, classes: Iterable[EdgeClass] = ()
    ) -> None:
        n = self.depth + 1
        if table.level != n:
            raise ConstructionError(f"expected a level-{n} table, got {table.level}")
        items = list(self.pre_frame(n))
        pushed = self._pre[2]
        inflow = ZERO
        for ec in classes:
            src_level = ec.source_cube.length
            if src_level + len(ec.tail) != n:
                raise ConstructionError("edge class does not land on the new level")
            for e in ec.edges:
                if e.q != self.delay(e.source):
                    raise ConstructionError(
                        f"edge weight {e.q} differs from source delay at {e.source}"
                    )
                by_value = self._out_edges.setdefault(len(e.source), {})
                if e.source.value in by_value:
                    raise ConstructionError(f"second outgoing edge at {e.source}")
                by_value[e.source.value] = e
                self.edges.append(e)
            for c, v in self.frames[src_level]:
                inter = c.intersect(ec.source_cube)
                if inter is None:
                    continue
                items = _add_uniform(items, inter.append_bits(ec.tail), ec.q * v)
                inflow += ec.q * v * inter.count()
        total = _items_total(items)
        if total != pushed + inflow:
            raise ConstructionError(
                f"conservation ledger broken at level {n}: "
                f"{total} != {pushed} + {inflow}"
            )
        self.tables.append(table)
        self.frames.append(items)
        self.aggregates.append(LevelAggregates(total, inflow))
        self.depth = n
        self._pre = None

    def outgoing_edge(self, x: BitString) -> Optional[ExtraEdge]:
        by_value = self._out_edges.get(x.length)
        return None if by_value is None else by_value.get(x.value)
