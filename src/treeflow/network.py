"""Elementary networks on the binary tree: delay tables, frames, flows,
and exact per-level aggregates.

A network is built level by level. The delay table at level n fixes s(x)
for every length-n vertex; pushing level n down gives each child the share
(1 - s(x))/2 of R(x), and extra edges inject q * R(source) at their target
vertex. Everything is a Fraction; there is no floating point anywhere.

A frame, the values R(x) of one level, is a cube map (`Items`): a list of
(cube, value) pairs whose cubes are pairwise disjoint, where a vertex in
no cube holds 0. The engine builds and combines these maps only through
the operations below: `items_total`, `mass_in`, `restrict`, `overlay`,
`assign`, `push_down` and `coalesce`. Committed frames hold no zero
values and are coalesced, so no two items of equal value differ in
exactly one pinned bit, and a level with 2^n vertices costs only as many
items as it has distinct regions. Item order carries no meaning: every
reader sums, takes a minimum, or takes the first of the disjoint cubes
that matches.

Every sum of value times vertex count goes through value groups. The
integer counts of the items that share a value are added up first, and
each distinct value then costs one Fraction product. A frame holds few
distinct values in many pieces (`nonstochastic` at depth 128: 563 values
in 11,484 items), and a Fraction operation on denominators of a few
hundred bits costs a gcd, so grouping is where the exact arithmetic
saves its time. Groups are keyed by the integers (numerator, denominator)
and not by the Fraction: hashing a Fraction computes a modular inverse on
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

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


Items = list[tuple[Cube, Fraction]]


def _grouped_sum(terms: Iterable[tuple[Fraction, int]]) -> Fraction:
    """Sum of v * k over (v, k) terms with integer k, in one Fraction
    product per distinct v."""
    counts: dict[tuple[int, int], int] = {}
    for v, k in terms:
        key = (v.numerator, v.denominator)
        counts[key] = counts.get(key, 0) + k
    return sum(
        (Fraction(num * k, den) for (num, den), k in counts.items() if k), ZERO
    )


def items_total(items: Items) -> Fraction:
    """Sum of the values over every vertex of the map."""
    return _grouped_sum((v, c.count()) for c, v in items)


def mass_in(items: Items, cube: Cube) -> Fraction:
    """Sum of the values over the vertices of cube."""
    return _grouped_sum((v, c.overlap(cube)) for c, v in items)


def restrict(items: Items, cube: Cube) -> Iterator[tuple[Cube, Fraction]]:
    """The map's pieces inside cube."""
    for c, v in items:
        inter = c.intersect(cube)
        if inter is not None:
            yield inter, v


def overlay(items: Items, cube: Cube, delta: Fraction) -> Items:
    """items + delta on every vertex of cube; vertices that reach 0 drop out."""
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


def assign(items: Items, cube: Cube, value: Fraction) -> Items:
    """items set to value on every vertex of cube, for items that cover
    cube (a delay partition covers its whole level). The cube keeps the
    pieces the items cut it into."""
    out: Items = []
    for c, v in items:
        inter = c.intersect(cube)
        if inter is None:
            out.append((c, v))
            continue
        out.extend((p, v) for p in c.subtract(cube))
        out.append((inter, value))
    return out


def push_down(items: Items, parts: Items) -> tuple[Items, Fraction]:
    """The map one level down, and the mass it carries: under the delay
    partition `parts`, a vertex x with delay s gives each child the share
    (1 - s)/2 of its value.

    The share is computed once per distinct (v, s) pair. The carried mass
    is summed on the input side, v * (1 - s) times the parent vertices of
    each pair, never from the shares written out, so the ledger in
    commit_level still catches a wrong share."""
    out: Items = []
    # (v, s) as integers -> [child share, parent vertices]
    groups: dict[tuple[int, int, int, int], list] = {}
    for part, s in parts:
        if s == 1:
            continue
        n, pc, pv = part.length, part.care, part.value
        for c, v in items:
            if (c.value ^ pv) & c.care & pc:
                continue
            care = c.care | pc
            key = (v.numerator, v.denominator, s.numerator, s.denominator)
            group = groups.get(key)
            if group is None:
                group = groups[key] = [v * (1 - s) / 2, 0]
            out.append((Cube(n + 1, care << 1, (c.value | pv) << 1), group[0]))
            group[1] += 1 << (n - care.bit_count())
    pushed = sum(
        (
            Fraction(vn * (sd - sn) * k, vd * sd)  # v * (1 - s) * k
            for (vn, vd, sn, sd), (_, k) in groups.items()
        ),
        ZERO,
    )
    return out, pushed


def coalesce(items: Items) -> Items:
    """The same map in fewer items: two items of equal value whose cubes
    differ in exactly one pinned bit merge into one, until no such pair is
    left (the distance-1 merge of Quine-McCluskey).

    Items are grouped by (care, value). A merge over a bit moves the pair
    to the group with that bit free, so groups are settled in order of
    falling pin count, each by dict lookups of cube.value ^ bit for the
    bits that vary within it. The output order depends only on the input.
    """
    groups: dict[tuple[int, int, int], dict[int, tuple[Cube, Fraction]]] = {}
    by_pins: dict[int, list[tuple[int, int, int]]] = {}
    for item in items:
        c, v = item
        key = (c.care, v.numerator, v.denominator)
        group = groups.get(key)
        if group is None:
            group = groups[key] = {}
            by_pins.setdefault(c.care.bit_count(), []).append(key)
        group[c.value] = item
    if len(groups) == len(items):
        return list(items)  # no two items share a group, so none can merge
    for pins in range(max(by_pins), 0, -1):
        for key in by_pins.get(pins, ()):
            group = groups[key]
            if len(group) < 2:
                continue
            order = sorted(group)
            varying = 0
            for u in order:
                varying |= u ^ order[0]
            while varying:
                bit = 1 << (varying.bit_length() - 1)
                varying ^= bit
                for u in order:
                    if u & bit or u not in group or u | bit not in group:
                        continue
                    c, v = group.pop(u)
                    del group[u | bit]
                    up = (key[0] & ~bit, key[1], key[2])
                    merged = groups.get(up)
                    if merged is None:
                        merged = groups[up] = {}
                        by_pins.setdefault(pins - 1, []).append(up)
                    merged[u] = (Cube(c.length, up[0], u), v)
    return [item for group in groups.values() for item in group.values()]


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
        self.suffix: Items = []
        self.subtree: dict[BitString, Fraction] = {}
        self._partition: Optional[Items] = None

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
        self.add_suffix_pieces(cube, [cube], v)

    def add_suffix_pieces(self, region: Cube, pieces: list[Cube], v: Fraction) -> None:
        """Add pairwise disjoint cubes inside `region`, each with delay v.

        A piece keeps only what no stored entry covers yet. Only the
        entries that meet `region` can meet a piece, and the pieces cannot
        meet each other, so each is checked against those entries alone.
        """
        v = _check_delay_value(v)
        if region.length != self.level:
            raise ConstructionError("suffix cube at wrong level")
        near = [
            (have, v0)
            for have, v0 in self.suffix
            if not (have.value ^ region.value) & have.care & region.care
        ]
        for cube in pieces:
            parts = [cube]
            for have, v0 in near:
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

    def s_partition(self) -> Items:
        """Disjoint (cube, s) cover of the whole level."""
        if self._partition is not None:
            return self._partition
        parts: Items = [(Cube.whole_level(self.level), self.default)]
        overrides: list[tuple[Cube, Fraction]] = []
        for root, v in sorted(self.subtree.items()):
            overrides.append((Cube.subtree(root, self.level), v))
        overrides.extend(self.suffix)
        for x, v in sorted(self.vertex.items()):
            overrides.append((Cube.vertex(x), v))
        for cube, v in overrides:
            parts = assign(parts, cube, v)
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

    def pattern_mass(self, n: int, cube: Cube) -> Fraction:
        """Sum of R over the cube's vertices in the pending pre-commit frame
        (n must be depth+1: the frame pushed from below with no level-n
        edges yet)."""
        return mass_in(self.pre_frame(n), cube)

    # -- construction ----------------------------------------------------

    def pre_frame(self, n: int) -> Items:
        if n != self.depth + 1:
            raise ConstructionError(
                f"pre-commit frame only exists at level {self.depth + 1}"
            )
        if self._pre is not None and self._pre[0] == n:
            return self._pre[1]
        items, pushed = push_down(
            self.frames[self.depth], self.tables[self.depth].s_partition()
        )
        self._pre = (n, items, pushed)
        return items

    def commit_level(
        self, table: DelayTable, classes: Iterable[EdgeClass] = ()
    ) -> None:
        n = self.depth + 1
        if table.level != n:
            raise ConstructionError(f"expected a level-{n} table, got {table.level}")
        items = self.pre_frame(n)
        pushed = self._pre[2]
        inflow = ZERO
        # A level is clean when its parent has one delay part and no class
        # lands on it. The parent frame is coalesced; one part scales every
        # value by the same injective factor (1 - s)/2 and every cube gains
        # the same free bit, so the child has no mergeable pair either.
        clean = len(self.tables[self.depth].s_partition()) == 1
        for ec in classes:
            clean = False
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
            for inter, v in restrict(self.frames[src_level], ec.source_cube):
                items = overlay(items, inter.append_bits(ec.tail), ec.q * v)
                inflow += ec.q * v * inter.count()
        total = items_total(items)
        if total != pushed + inflow:
            raise ConstructionError(
                f"conservation ledger broken at level {n}: "
                f"{total} != {pushed} + {inflow}"
            )
        self.tables.append(table)
        self.frames.append(items if clean else coalesce(items))
        self.aggregates.append(LevelAggregates(total, inflow))
        self.depth = n
        self._pre = None

    def outgoing_edge(self, x: BitString) -> Optional[ExtraEdge]:
        by_value = self._out_edges.get(x.length)
        return None if by_value is None else by_value.get(x.value)
