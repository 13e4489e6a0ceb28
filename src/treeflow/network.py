"""Elementary networks on the binary tree: delay tables, frames, flows,
and exact per-level aggregates.

A network is built level by level. The delay table at level n fixes s(x)
for every length-n vertex; pushing level n down gives each child the share
(1 - s(x))/2 of R(x), and extra edges inject q * R(source) at their target
vertex. Everything is a Fraction; there is no floating point anywhere.

A frame, the values R(x) of one level, is a cube map (`Items`): a list of
(cube, value) pairs whose cubes are pairwise disjoint, where a vertex in
no cube holds 0. The engine builds and combines these maps only through
the operations below: `value_at`, `items_total`, `mass_in`, `floor_in`,
`overlay`, `push_down` and `coalesce`; which cubes of two lists meet is
answered by one join, `meets`, for push-downs, delay partitions and suffix
writes. Committed frames hold no zero values and are coalesced, so no
two items of equal value differ in exactly one pinned bit, and a level
with 2^n vertices costs only as many items as it has distinct regions.
Item order carries no meaning: every reader sums, takes a minimum, or
takes the first of the disjoint cubes that matches.

Frames are made on demand. A level is recorded first, with every check
that reads no frame, and pushed later: a build pushes each level as it
commits it, while a reloaded bundle pushes its levels, in order, only
when a frame is first read. Both go through one push path, so a frame
and its conservation ledger come out the same either way. A push that
needs no frame makes none: a clean level, one whose parent has a single
delay part s and on which no edge lands, is pushed by its parent's total
alone. Most levels of a build are clean, and most clean levels have
s = 0: such a level takes its parent's total object as its own, so it
costs no Fraction work, and a run of them shares one total. Only s != 0
multiplies the total by (1 - s). Most steps read no frame.

The frame of a clean level is a made frame above it, scaled: its values
times num/den and its cubes given free low bits. Its push keeps one
record, (m, num, den, total), one step from its parent's (`_scale`): the
parent's m, num and den, or (n - 1, 1, 1) for a made parent, times
(1 - s)/2. When something reads the frame, `_make` builds it from frame
m and checks it against the total, which the push worked out apart from
the scale. The same step answers a step's questions about the pending
level, the one being built: the mass in a cube (`pattern_mass`) and the
least value over a region (`pattern_floor`) are read off frame m when
the last level has a single delay part, and off `pre_frame`, which
pushes the level down, when it has several.

Every sum of value times vertex count is grouped by value. The
integer counts of the items that share a value are added up first, and
the distinct values are then added in one sum over a common denominator:
one lcm and one final Fraction, where pairwise Fraction sums take a gcd
per term. A frame holds few distinct values in many pieces
(`nonstochastic` at depth 128: 563 values in 11,484 items), and most
items share their value object with others: push_down gives every item
of a group the same share. So groups are keyed by id(v) first, which
costs no Fraction work, and only then by the integers (numerator,
denominator), once per value object; never by the Fraction itself, whose
hash computes a modular inverse on every call.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
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
    """The Fraction of a "numerator/denominator" string. Anything else, a
    zero denominator included, is a ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"rational {s!r} is not a string")
    num, den = s.split("/")
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {s!r}") from None


def _check_delay_value(v: Fraction) -> Fraction:
    """v as a Fraction, if it is 0 or 1/M for a whole M >= 1. A Fraction's
    denominator is positive, so that is a numerator of 0 or 1: a test on
    its integers, with no Fraction made or compared."""
    if not isinstance(v, Fraction):
        v = Fraction(v)
    if v.numerator not in (0, 1):
        raise ConstructionError(f"delay value {v} is not 0 or 1/M")
    return v


Items = list[tuple[Cube, Fraction]]


def _fraction_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Sum of num/den over (num, den) integer terms, added over one common
    denominator: one lcm and one reduction for the whole sum."""
    terms = list(terms)
    if not terms:
        return ZERO
    common = math.lcm(*{den for _, den in terms})
    return Fraction(sum(num * (common // den) for num, den in terms), common)


def _grouped_sum(terms: Iterable[tuple[Fraction, int]]) -> Fraction:
    """Sum of v * k over (v, k) terms with integer k. The counts are added
    per value object, then per (numerator, denominator), and the distinct
    values in one `_fraction_sum`. A group holds its v, so no id is reused
    meanwhile."""
    by_id: dict[int, list] = {}
    for v, k in terms:
        group = by_id.get(id(v))
        if group is None:
            by_id[id(v)] = [v, k]
        else:
            group[1] += k
    counts: dict[tuple[int, int], int] = {}
    for v, k in by_id.values():
        key = (v.numerator, v.denominator)
        counts[key] = counts.get(key, 0) + k
    return _fraction_sum((num * k, den) for (num, den), k in counts.items() if k)


def items_total(items: Items) -> Fraction:
    """Sum of the values over every vertex of the map."""
    return _grouped_sum((v, c.count()) for c, v in items)


def mass_in(items: Items, cube: Cube) -> Fraction:
    """Sum of the values over the vertices of cube."""
    return _grouped_sum((v, c.overlap(cube)) for c, v in items)


def value_at(items: Items, x: BitString) -> Fraction:
    """The map's value at vertex x."""
    value = x.value
    for cube, v in items:
        if value & cube.care == cube.value:
            return v
    return ZERO


def floor_in(items: Items, cube: Cube) -> Optional[Fraction]:
    """Least value of the map on the vertices of cube, or None when some
    vertex of cube holds 0."""
    best = None
    covered = 0
    for c, v in items:
        k = c.overlap(cube)
        if k:
            if not v:
                return None
            covered += k
            if best is None or v < best:
                best = v
    return best if covered == cube.count() else None


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


def _pins(cubes: list[Cube], idx) -> tuple[int, int, int, int]:
    """The bits that some cube of idx pins to 1 and that some pins to 0,
    and the value and care of their supercube: the bits all pin alike."""
    ones = zeros = 0
    all1 = all0 = -1
    for i in idx:
        v, z = cubes[i].value, cubes[i].care ^ cubes[i].value
        ones, zeros, all1, all0 = ones | v, zeros | z, all1 & v, all0 & z
    return ones, zeros, all1, all1 | all0


def prefix_spans(cubes: list[Cube]) -> Optional[list[tuple[int, int, int]]]:
    """The cubes, all of one level, as intervals of vertex values sorted by
    lower end: (lo, hi, index) per cube, when every cube is a prefix cube
    (positions 1..k pinned, the rest free) and no two share a vertex;
    else None. A prefix cube is the dyadic interval [value, value + count),
    and two such intervals are nested or apart, so once sorted by lower end
    the cubes are disjoint exactly when each starts at or after the end of
    the one before."""
    spans = []
    for i, c in enumerate(cubes):
        free = c.care ^ ((1 << c.length) - 1)
        if free & (free + 1):
            return None
        spans.append((c.value, c.value + free + 1, i))
    spans.sort()
    end = 0
    for lo, hi, _ in spans:
        if lo < end:
            return None
        end = hi
    return spans


def _dyadic_join(
    cubes: list[Cube], spans: list[tuple[int, int, int]]
) -> list[list[int]]:
    """For each cube, the indices of the cubes of spans, disjoint prefix
    cubes as `prefix_spans` gives them, that it meets, in span order.

    Each cube walks down the dyadic tree from the whole level, holding
    the run [s, e) of the sorted intervals that meet the current node.
    A lone interval is tested against the cube directly, and a node below
    which the cube pins nothing meets its whole run. Else no interval
    holds the node, so each lies inside it: a pinned run of the cube goes
    down to one node, whose run is cut out by a bisection of the upper
    ends and one of the lower ends, and a free bit parts the node's run
    between its two halves."""
    lows = [lo for lo, _, _ in spans]
    highs = [hi for _, hi, _ in spans]
    order = [k for _, _, k in spans]
    found = []
    for cube in cubes:
        care, value = cube.care, cube.value
        hit: list[int] = []
        todo = [(cube.length, 0, 0, len(lows))]  # (free bits k, node low end, s, e)
        while todo:
            k, lo, s, e = todo.pop()
            while s < e:
                if e - s == 1:
                    # The interval's pins are the bits of lo - hi = -size.
                    if not (value ^ lows[s]) & care & (lows[s] - highs[s]):
                        hit.append(order[s])
                    break
                below = (1 << k) - 1
                if not care & below:
                    hit += order[s:e]
                    break
                half = 1 << (k - 1)
                if care & half:
                    k = (below & ~care).bit_length()
                    lo |= value & (below ^ ((1 << k) - 1))
                    s = bisect_right(highs, lo, s, e)
                    e = bisect_left(lows, lo + (1 << k), s, e)
                else:
                    k -= 1
                    mid = bisect_left(lows, lo + half, s, e)
                    todo.append((k, lo + half, mid, e))
                    e = mid
        found.append(hit)
    return found


def _unate_join(a: list[Cube], b: list[Cube]) -> list[tuple[int, int]]:
    """`meets` for any two lists of cubes, by unate recursion as in
    Espresso. A cube that misses the other side's supercube drops out.
    Then both sides split on a bit that a cube of one pins to 0 and a
    cube of the other to 1; a cube free on it goes to both halves, and a
    pair free on it counts in the 0 half only. Sides with no such bit
    meet pairwise. A scan tests each pair once and a split makes a few
    passes over both sides, so sides with few pairs per cube are
    scanned."""
    out: list[tuple[int, int]] = []
    todo = [(range(len(a)), range(len(b)))]
    split = False  # a lone scan leaves the pairs in order
    while todo:
        ia, ib = todo.pop()
        if len(ia) * len(ib) <= 64 * (len(ia) + len(ib)):
            for i in ia:
                ci, vi = a[i].care, a[i].value
                out += [(i, j) for j in ib if not (b[j].value ^ vi) & b[j].care & ci]
            continue
        split = True
        ones_a, zeros_a, value, care = _pins(a, ia)
        ib = [j for j in ib if not (b[j].value ^ value) & b[j].care & care]
        ones_b, zeros_b, value, care = _pins(b, ib)
        ia = [i for i in ia if not (a[i].value ^ value) & a[i].care & care]
        sep = (ones_a & zeros_b) | (zeros_a & ones_b)
        if not sep:
            out += [(i, j) for i in ia for j in ib]
            continue
        bit = 1 << (sep.bit_length() - 1)
        a0 = [i for i in ia if (a[i].care ^ a[i].value) & bit]
        a1 = [i for i in ia if a[i].value & bit]
        af = [i for i in ia if not a[i].care & bit]
        b0 = [j for j in ib if (b[j].care ^ b[j].value) & bit]
        b1 = [j for j in ib if b[j].value & bit]
        bf = [j for j in ib if not b[j].care & bit]
        todo += [(a0 + af, b0 + bf), (a1, b1 + bf), (af, b1)]
    if split:
        out.sort()
    return out


def meets(a: list[Cube], b: list[Cube]) -> list[tuple[int, int]]:
    """Every index pair (i, j) whose cubes a[i] and b[j] share a vertex, in
    nested-loop order: by i, then by j.

    Sides with at most 8 pairs of cubes per cube are scanned pair by pair
    by `_unate_join`, which costs less than sorting either side; an empty
    side, which meets nothing, is one of them. Larger sides take one of
    two paths. When b, or else a, is a set of disjoint prefix cubes
    (`prefix_spans`), each cube of the other side walks its sorted
    intervals down the dyadic tree (`_dyadic_join`). A delay partition,
    and a tier of delay writes, is such a set on every preset but
    `hyperimmune`. Any other pair of sides, such as `hyperimmune`'s class
    cubes against frame items, or the loader's self-join of a tier whose
    entries overlap, goes through the unate recursion of `_unate_join`."""
    if len(a) * len(b) <= 8 * (len(a) + len(b)):
        return _unate_join(a, b)
    spans = prefix_spans(b)
    if spans is not None:
        hits = _dyadic_join(a, spans)
        return [(i, j) for i, js in enumerate(hits) for j in sorted(js)]
    spans = prefix_spans(a)
    if spans is None:
        return _unate_join(a, b)
    found: list[list[int]] = [[] for _ in a]
    for j, iis in enumerate(_dyadic_join(b, spans)):
        for i in iis:
            found[i].append(j)
    return [(i, j) for i, js in enumerate(found) for j in js]


def _carve(items: Items, cuts: Items, pairs) -> Items:
    """items rewritten by the pairwise disjoint cuts, given the pairs of
    `meets` between them: as if each cut in turn replaced every piece it
    meets by the piece's peel around it (`Cube.subtract`), followed by
    their intersection with the cut's value.

    A cut meets only peel pieces of an earlier cut, so an item is carved
    by its first cut, the least index among its cuts, then each peel piece
    by the later cuts it meets. When the items and the cuts are disjoint
    prefix cubes (`prefix_spans`), as on every preset but `hyperimmune`,
    each piece is a dyadic interval that holds every cut it meets: an
    item's cuts are sorted by lower end once, and a piece's cuts are the
    run whose lower ends fall in its interval, cut out by two bisections.
    Else each peel piece filters its item's cuts. Both give the same
    pieces in the same order."""
    tier = [c for c, _ in cuts]
    dyadic = (
        prefix_spans(tier) is not None
        and prefix_spans([c for c, _ in items]) is not None
    )
    low = [c.value for c in tier].__getitem__  # a prefix cube's lower end
    hits: dict[int, list[int]] = {}
    for i, j in pairs:
        hits.setdefault(i, []).append(j)
    out: Items = []
    for i, item in enumerate(items):
        left = hits.get(i)
        if left is None:
            out.append(item)
            continue
        if dyadic:
            left.sort(key=low)
        todo = [(item, left)]
        while todo:
            (p, v), left = todo.pop()
            if not left:
                out.append((p, v))
                continue
            o, s = cuts[min(left)]
            pieces = p.subtract(o)
            if len(left) == 1:  # no cut is left for the peel pieces
                out += [(q, v) for q in pieces]
                out.append((p.intersect(o), s))
                continue
            todo.append(((p.intersect(o), s), ()))
            for q in reversed(pieces):
                qc, qv = q.care, q.value
                if dyadic:
                    lo = bisect_left(left, qv, key=low)
                    meet = left[lo : bisect_left(left, qv + q.count(), lo, key=low)]
                else:
                    meet = [
                        j for j in left if not (tier[j].value ^ qv) & tier[j].care & qc
                    ]
                todo.append(((q, v), meet))
    return out


def push_down(items: Items, parts: Items) -> tuple[Items, Fraction]:
    """The map one level down, and the mass it carries: under the delay
    partition `parts`, a vertex x with delay s gives each child the share
    (1 - s)/2 of its value.

    Each live part walks its items: all of them, testing each for a meet,
    when it is the only live part, else the ones `meets` pairs it with.
    Parts of s = 1 carry nothing and are dropped first; when every part
    has s = 1, the join has an empty side and pairs nothing. A delay
    partition is disjoint prefix cubes on every preset but `hyperimmune`,
    so `meets` answers a large push by its dyadic descent, and class-cube
    parts by its unate path. Output is in nested-loop order, by part, then
    by item. A per-part memo maps id(v) to the group of the integers
    (v, s), so the Fraction reads happen once per value object and the
    share once per distinct (v, s), as one Fraction. id keys are sound:
    every v lives in items throughout.
    The carried mass is summed on the input side, v * (1 - s) times the
    parent vertices of each group over one common denominator, never from
    the shares written out, so the ledger of the push still catches a
    wrong share."""
    out: Items = []
    # (v, s) as integers -> [child share, parent vertices]
    groups: dict[tuple[int, int, int, int], list] = {}
    live = [(part, s) for part, s in parts if s != 1]
    if len(live) == 1:
        walks = [(live[0], items)]
    else:
        found: dict[int, Items] = {}
        for i, j in meets([part for part, _ in live], [c for c, _ in items]):
            found.setdefault(i, []).append(items[j])
        walks = [(live[i], pieces) for i, pieces in found.items()]
    for (part, s), pieces in walks:
        n, pcare, pvalue = part.length, part.care, part.value
        sn, sd = s.numerator, s.denominator
        memo: dict[int, list] = {}
        for c, v in pieces:
            if (c.value ^ pvalue) & c.care & pcare:
                continue
            group = memo.get(id(v))
            if group is None:
                vn, vd = v.numerator, v.denominator
                group = groups.get((vn, vd, sn, sd))
                if group is None:
                    share = Fraction(vn * (sd - sn), 2 * vd * sd)
                    group = groups[vn, vd, sn, sd] = [share, 0]
                memo[id(v)] = group
            care = c.care | pcare
            out.append((Cube(n + 1, care << 1, (c.value | pvalue) << 1), group[0]))
            group[1] += 1 << (n - care.bit_count())
    pushed = _fraction_sum(
        (vn * (sd - sn) * k, vd * sd)  # v * (1 - s) * k
        for (vn, vd, sn, sd), (_, k) in groups.items()
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

    Precedence is vertex > suffix-cube > subtree > default, and
    `s_partition` is its one definition; `delay` reads the partition.
    Within a tier, exceptions never overlap (insertion enforces it), so
    the order inside a tier decides only the order of the parts.
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

    def add_suffix(self, entries: Items) -> None:
        """Add pairwise disjoint (cube, delay) entries. Each keeps only what
        no stored entry covers yet; a stored entry of another delay that
        meets it is a conflict."""
        for v in {v for _, v in entries}:
            _check_delay_value(v)
        if any(cube.length != self.level for cube, _ in entries):
            raise ConstructionError("suffix cube at wrong level")
        holes: dict[int, list[Cube]] = {}
        for i, j in meets([c for c, _ in entries], [c for c, _ in self.suffix]):
            (cube, v), (have, v0) = entries[i], self.suffix[j]
            if v0 != v:
                raise ConstructionError(
                    f"conflicting suffix delays on {cube} ∩ {have}: {v0} vs {v}"
                )
            holes.setdefault(i, []).append(have)
        for i, (cube, v) in enumerate(entries):
            self.suffix += [(p, v) for p in subtract_many(cube, holes.get(i, []))]
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
        return value_at(self.s_partition(), x)

    def s_partition(self) -> Items:
        """Disjoint (cube, s) cover of the whole level. Each tier, in
        rising precedence, rewrites the parts it meets: a part keeps its
        peel around each entry in turn, and the entry's piece takes the
        entry's delay. A tier with no entries is passed over before its
        list is built, so a table with no exceptions is the one part
        (Cube(n), default), with no sort and no join."""
        if self._partition is not None:
            return self._partition
        n, subtree, vertex = self.level, self.subtree, self.vertex
        parts: Items = [(Cube(n), self.default)]
        for tier in (
            subtree and [(Cube.subtree(r, n), v) for r, v in sorted(subtree.items())],
            self.suffix,
            vertex and [(Cube.vertex(x), v) for x, v in sorted(vertex.items())],
        ):
            if tier:
                pairs = meets([c for c, _ in parts], [c for c, _ in tier])
                parts = _carve(parts, tier, pairs)
        self._partition = parts
        return parts


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


@dataclass
class LevelAggregates:
    """A level's total mass R, the part of it that extra edges injected,
    and its kept share s_n = total_R - extra_inflow. The share is worked
    out once, when the record is made: readers take it as a field."""

    total_R: Fraction
    extra_inflow: Fraction
    s_n: Fraction = field(init=False)

    def __post_init__(self):
        # Most levels take no inflow, and then the share is the total.
        inflow = self.extra_inflow
        self.s_n = self.total_R - inflow if inflow else self.total_R


class ElementaryNetwork:
    """One network, built level by level by a construction driver.

    A level goes in through `record_level`, which checks and indexes what
    no frame is needed for, and is pushed by `_push`, the one path that
    runs the conservation ledger. A clean level is pushed by its parent's
    total and its scale, and `_make` makes its frame when something reads
    it: `frames`, `frame_eval`, `pre_frame` or an edge's source in
    `_push`. Any other level is made as it is pushed: the push-down, the
    landing edges, the ledger and `coalesce`. `commit_level` records and
    pushes at once; a reloaded bundle only records, and `frames` pushes
    and makes its levels, in order, when a frame is first read."""

    def __init__(self, network_id: int = 1):
        self.network_id = network_id
        self.depth = 0
        self.tables: list[DelayTable] = [DelayTable(0)]
        # The frame of each pushed level, None for a clean level not made.
        self._frames: list[Optional[Items]] = [[(Cube.whole_level(0), ONE)]]
        # (m, num, den, total) of each pushed level not made yet: its
        # frame is frame m scaled by num/den, and total is its ledger.
        self._unmade: dict[int, tuple[int, int, int, Fraction]] = {}
        # The total of the last pushed level, as the push worked it out.
        self._total = ONE
        self.aggregates: list[LevelAggregates] = [LevelAggregates(ONE, ZERO)]
        self.edges: list[ExtraEdge] = []
        # Outgoing edges keyed by source length, then by source value: a
        # flow query probes one dict per edge source level.
        self._out_edges: dict[int, dict[int, ExtraEdge]] = {}
        # The edges landing on each recorded level not yet pushed.
        self._landing: dict[int, list[ExtraEdge]] = {}
        self._pre: Optional[tuple[int, Items, Fraction]] = None

    @property
    def frames(self) -> list[Items]:
        """The frame of every level up to depth. A level not pushed or not
        made yet is pushed and made first, lower levels before higher; with
        none pending, a read costs O(1)."""
        if self._unmade or len(self._frames) <= self.depth:
            for n in range(self.depth + 1):
                self._frame(n)
        return self._frames

    def _frame(self, n: int) -> Items:
        """The frame of level n. Levels up to n not pushed yet are pushed
        first, in order, and a level pushed without a frame is made by
        `_make`, so a read makes a frame the one way a build does."""
        while len(self._frames) <= n:
            self._push(len(self._frames))
        frame = self._frames[n]
        return self._make(n) if frame is None else frame

    # -- queries ---------------------------------------------------------

    def delay(self, x: BitString) -> Fraction:
        if len(x) > self.depth:
            raise ConstructionError(f"level {len(x)} not constructed yet")
        return self.tables[len(x)].delay(x)

    def frame_eval(self, x: BitString) -> Fraction:
        if len(x) > self.depth:
            raise ConstructionError(f"level {len(x)} not constructed yet")
        return value_at(self._frame(len(x)), x)

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
        items, top, num, den, free = self._pending(n, cube)
        mass = mass_in(items, top)
        return Fraction(mass.numerator * (num << free), mass.denominator * den)

    def pattern_floor(self, n: int, region: Cube) -> Optional[Fraction]:
        """Least value of the pending pre-commit frame (n = depth+1, as for
        `pattern_mass`) on the region's vertices, or None when some vertex
        of the region holds 0."""
        items, top, num, den, _free = self._pending(n, region)
        floor = floor_in(items, top) if num else None
        if floor is None:
            return None
        return Fraction(floor.numerator * num, floor.denominator * den)

    def _pending(self, n: int, cube: Cube) -> tuple[Items, Cube, int, int, int]:
        """The pending level n as (items, top, num, den, free): its values
        on `cube` are those of items on top, times num/den, each counted
        2^free times. When level n - 1 has a single delay part, items is
        frame m of `_scale`, top the cube's top m positions, and free the
        number of the n - m low positions the cube leaves free: what
        `_make` would make. Otherwise, or when level n - 1 is not pushed
        yet, it is (`pre_frame(n)`, cube, 1, 1, 0)."""
        if n == self.depth + 1 and len(self._frames) >= n:
            parts = self.tables[n - 1].s_partition()
            if len(parts) == 1:
                m, num, den = self._scale(n, parts[0][1])
                k = n - m
                top = Cube(m, cube.care >> k, cube.value >> k)
                free = k - (cube.care & ((1 << k) - 1)).bit_count()
                return self._frames[m], top, num, den, free
        return self.pre_frame(n), cube, 1, 1, 0

    # -- construction ----------------------------------------------------

    def pre_frame(self, n: int) -> Items:
        if n != self.depth + 1:
            raise ConstructionError(
                f"pre-commit frame only exists at level {self.depth + 1}"
            )
        return self._pushed(n)[0]

    def _pushed(self, n: int) -> tuple[Items, Fraction]:
        """Level n pushed down from its parent frame, before any edge
        lands on it, and the mass carried: computed once per level."""
        if self._pre is None or self._pre[0] != n:
            parent = self._frame(n - 1)
            self._pre = (n, *push_down(parent, self.tables[n - 1].s_partition()))
        return self._pre[1], self._pre[2]

    def record_level(
        self, table: DelayTable, edges: Iterable[ExtraEdge] = ()
    ) -> None:
        """Take level depth + 1 with the edges that land on it, checking
        all that reads no frame: the levels, each edge's weight against its
        source's delay, and one outgoing edge per source. The level's push
        is left to `_push`."""
        n = self.depth + 1
        if table.level != n:
            raise ConstructionError(f"expected a level-{n} table, got {table.level}")
        edges = list(edges)
        for e in edges:
            if len(e.target) != n:
                raise ConstructionError(
                    f"edge to {e.target} does not land on level {n}"
                )
            if e.q != self.delay(e.source):
                raise ConstructionError(
                    f"edge weight {e.q} differs from source delay at {e.source}"
                )
            by_value = self._out_edges.setdefault(len(e.source), {})
            if e.source.value in by_value:
                raise ConstructionError(f"second outgoing edge at {e.source}")
            by_value[e.source.value] = e
            self.edges.append(e)
        if edges:
            self._landing[n] = edges
        self.tables.append(table)
        self.depth = n

    def _push(self, n: int) -> LevelAggregates:
        """Push recorded level n from level n - 1, which must be the last
        one pushed, and return the level's aggregates. The ledger checks
        the level's total against the mass pushed down plus the mass the
        landing edges inject; a level it rejects keeps its edges, so a
        second read fails the same way.

        A clean level, one whose parent has a single delay part s and on
        which no edge lands, is pushed by the parent's total alone: at
        s = 0 its total is the parent's total object itself, and otherwise
        the parent's times (1 - s). Its record in `_unmade` holds that
        total and the scale `_scale` steps from the parent's, and its
        frame is left to `_make`, even when a step has read the level's
        pre-frame: `_make` gives the same items. Any other level is made
        here and coalesced. The edges' q * R(source) are summed per target
        vertex, and that vertex map is coalesced, so a draw replicated
        over equal source values lands as one cube of its targets, one
        overlay each."""
        parts = self.tables[n - 1].s_partition()
        edges = self._landing.get(n)
        inflow = ZERO
        if not edges and len(parts) == 1:
            items = None
            s = parts[0][1]
            total = self._total * (1 - s) if s else self._total
            self._unmade[n] = (*self._scale(n, s), total)
        else:
            items, pushed = self._pushed(n)
            if edges:
                amounts: dict[BitString, Fraction] = {}
                for e in edges:
                    r = value_at(self._frame(len(e.source)), e.source)
                    if r:
                        amounts[e.target] = amounts.get(e.target, ZERO) + e.q * r
                landing = [(Cube.vertex(t), a) for t, a in amounts.items()]
                for cube, a in coalesce(landing):
                    items = overlay(items, cube, a)
                inflow = items_total(landing)
            total = items_total(items)
            if total != pushed + inflow:
                raise ConstructionError(
                    f"conservation ledger broken at level {n}: "
                    f"{total} != {pushed} + {inflow}"
                )
            items = coalesce(items)
        self._frames.append(items)
        self._total = total
        self._landing.pop(n, None)
        self._pre = None
        return LevelAggregates(total, inflow)

    def _make(self, n: int) -> Items:
        """Make the frame of pushed level n from its record (m, num, den,
        total): frame m is made and levels m + 1 .. n are clean, so each
        cube gains the n - m free low bits in between and each value object
        is scaled once by num/den, the frame n - m push-downs would make,
        item for item. The ledger is summed in the same loop, as vertex
        counts per scaled value object, and compared with the total `_push`
        worked out in integers, over one common denominator; a Fraction is
        made only for the error's text. The record is dropped only once the
        ledger passes, so a second read fails the same way."""
        m, num, den, total = self._unmade[n]
        items: Items = []
        # id of a value of frame m -> [its scaled value, vertices of frame m]
        scaled: dict[int, list] = {}
        shift = n - m
        if num:
            for c, v in self._frames[m]:
                group = scaled.get(id(v))
                if group is None:
                    w = Fraction(v.numerator * num, v.denominator * den)
                    group = scaled[id(v)] = [w, 0]
                group[1] += c.count()
                items.append((c.extend(shift), group[0]))
        common = math.lcm(*(w.denominator for w, _ in scaled.values()))
        # each vertex of frame m has 2^shift descendants at level n
        made = sum(
            w.numerator * (common // w.denominator) * count
            for w, count in scaled.values()
        ) << shift
        if made * total.denominator != total.numerator * common:
            raise ConstructionError(
                f"conservation ledger broken at level {n}: "
                f"made frame {Fraction(made, common)} != {total}"
            )
        self._frames[n] = items
        del self._unmade[n]
        return items

    def _scale(self, n: int, s: Fraction) -> tuple[int, int, int]:
        """(m, num, den) for a level n, pushed or pending, whose parent
        n - 1 is pushed and has the single delay part s: the parent's
        record, or (n - 1, 1, 1) when the parent is made, times (1 - s)/2.
        Frame m is made, and levels m + 1 .. n - 1 were clean when pushed,
        so level n is frame m with every value times num/den."""
        m, num, den, _ = self._unmade.get(n - 1, (n - 1, 1, 1, None))
        return m, num * (s.denominator - s.numerator), den * 2 * s.denominator

    def commit_level(
        self, table: DelayTable, edges: Iterable[ExtraEdge] = ()
    ) -> None:
        """Record level depth + 1 and push it at once. A clean level's
        frame waits for its first read."""
        self.record_level(table, edges)
        self.aggregates.append(self._push(self.depth))

    def outgoing_edge(self, x: BitString) -> Optional[ExtraEdge]:
        by_value = self._out_edges.get(x.length)
        return None if by_value is None else by_value.get(x.value)
