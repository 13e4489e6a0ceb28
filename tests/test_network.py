import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeflow import network
from treeflow.bitseq import BitString
from treeflow.cli import (
    _aggregates_row,
    _level_row,
    main,
    read_bundle,
    write_bundle,
)
from treeflow.constructions import PRESETS, RunConfig, build
from treeflow.cubes import Cube
from treeflow.network import (
    ConstructionError,
    DelayTable,
    ElementaryNetwork,
    ExtraEdge,
    LevelAggregates,
    coalesce,
    items_total,
    mass_in,
    push_down,
    rat_parse,
    rat_str,
)

B = BitString.from_str
F = Fraction


def build_e1():
    """Depth-3 fixture: s("0") = 1/3, one extra edge ("0", "000") with q = 1/3."""
    net = ElementaryNetwork()
    t1 = DelayTable(1)
    t1.set_vertex(B("0"), F(1, 3))
    net.commit_level(t1)
    net.commit_level(DelayTable(2))
    edge = ExtraEdge(B("0"), B("000"), F(1, 3), task=1, subtask=None,
                     network_id=1, step_drawn=3)
    net.commit_level(DelayTable(3), [edge])
    return net


class DenseEval:
    """Brute-force oracle: materialize every vertex and apply the recurrences
    literally. Independent of the sparse engine's cubes and ledgers."""

    def __init__(self, tables, edges, depth):
        self.depth = depth
        self.s = {}
        for n in range(depth + 1):
            for v in range(1 << n):
                x = BitString(n, v)
                self.s[x] = tables[n].delay(x)
        self.R = {BitString(0, 0): F(1)}
        by_target = {}
        for e in edges:
            by_target.setdefault(e.target, []).append(e)
        for n in range(1, depth + 1):
            for v in range(1 << n):
                x = BitString(n, v)
                parent = x.truncate(n - 1)
                r = self.R[parent] * (1 - self.s[parent]) / 2
                for e in by_target.get(x, []):
                    r += e.q * self.R[e.source]
                self.R[x] = r
        self.edges = edges

    def P(self, x):
        total = self.R[x]
        for e in self.edges:
            if e.source.is_strict_prefix_of(x) and x.is_strict_prefix_of(e.target):
                total += e.q * self.R[e.source]
        return total

    def total_R(self, n):
        return sum(self.R[BitString(n, v)] for v in range(1 << n))

    def inflow(self, n):
        return sum(e.q * self.R[e.source] for e in self.edges if len(e.target) == n)


def test_e1_golden_values():
    net = build_e1()
    assert net.delay(B("0")) == F(1, 3)
    assert net.delay(B("1")) == 0
    assert net.frame_eval(B("")) == 1
    assert net.frame_eval(B("00")) == F(1, 6)
    assert net.frame_eval(B("000")) == F(1, 4)
    assert net.frame_eval(B("001")) == F(1, 12)
    assert net.flow_eval(B("00")) == F(1, 3)
    assert net.flow_eval(B("000")) == F(1, 4)
    assert net.flow_eval(B("001")) == F(1, 12)
    assert net.flow_eval(B("000")) + net.flow_eval(B("001")) == net.flow_eval(B("00"))
    stats = net.aggregates[3]
    assert stats.total_R == 1
    assert stats.extra_inflow == F(1, 6)
    assert stats.s_n == F(5, 6)
    assert net.aggregates[0].s_n == 1
    assert mass_in(net.frames[3], Cube.from_pattern("000")) == F(1, 4)
    assert mass_in(net.frames[3], Cube.whole_level(3)) == 1


def test_e1_flow_dominates_frame_everywhere():
    net = build_e1()
    for n in range(4):
        for v in range(1 << n):
            x = BitString(n, v)
            assert net.flow_eval(x) >= net.frame_eval(x)


def test_e1_matches_brute_force():
    net = build_e1()
    oracle = DenseEval(net.tables, net.edges, 3)
    for n in range(4):
        for v in range(1 << n):
            x = BitString(n, v)
            assert net.frame_eval(x) == oracle.R[x], x
            assert net.flow_eval(x) == oracle.P(x), x
        assert net.aggregates[n].total_R == oracle.total_R(n)
        assert net.aggregates[n].extra_inflow == oracle.inflow(n)


def test_uniform_network_is_halving():
    net = ElementaryNetwork()
    for n in range(1, 7):
        net.commit_level(DelayTable(n))
    for n in range(7):
        assert net.frame_eval(BitString(n, 0)) == F(1, 1 << n)
        assert net.aggregates[n].s_n == 1
    assert mass_in(net.frames[5], Cube.from_pattern("0****")) == F(1, 2)


def test_delay_table_precedence():
    t = DelayTable(4, default=F(1, 5))
    t.add_subtree(B("01"), F(1, 7))
    t.add_suffix([(Cube.from_pattern("*11*"), F(1, 9))])
    t.set_vertex(B("0110"), F(1, 2))

    def longhand(x):  # vertex > suffix > subtree > default
        s = str(x)
        if s == "0110":
            return F(1, 2)
        if s[1:3] == "11":
            return F(1, 9)
        if s.startswith("01"):
            return F(1, 7)
        return F(1, 5)

    assert t.delay(B("0111")) == F(1, 9)  # suffix beats subtree
    assert t.delay(B("0110")) == F(1, 2)  # vertex beats suffix
    # The partition covers the level exactly once, and it and every
    # lookup give the longhand value.
    seen = {}
    for cube, v in t.s_partition():
        for x in cube.members():
            assert x not in seen
            seen[x] = v
    assert len(seen) == 16
    for x, v in seen.items():
        assert v == longhand(x)
        assert t.delay(x) == longhand(x)


def test_delay_table_rejects_bad_values_and_conflicts():
    t = DelayTable(3)
    with pytest.raises(ConstructionError):
        t.set_vertex(B("000"), F(2, 5))
    with pytest.raises(ConstructionError):
        t.set_vertex(B("000"), F(3, 2))
    t.set_vertex(B("000"), F(1, 4))
    t.set_vertex(B("000"), F(1, 4))  # idempotent
    with pytest.raises(ConstructionError):
        t.set_vertex(B("000"), F(1, 5))
    t.add_subtree(B("01"), F(1, 2))
    with pytest.raises(ConstructionError):
        t.add_subtree(B("0"), F(1, 3))
    t.add_suffix([(Cube.from_pattern("**1"), F(1, 6))])
    with pytest.raises(ConstructionError):
        t.add_suffix([(Cube.from_pattern("*11"), F(1, 7))])
    # Equal-value overlap is fine: the overlap is carved away.
    t.add_suffix([(Cube.from_pattern("1**"), F(1, 6))])
    assert t.delay(B("101")) == F(1, 6)
    assert t.delay(B("100")) == F(1, 6)


def test_table_record_follows_every_write():
    # The table's levels.jsonl row is formatted from its fields, so each
    # write shows in the next row.
    t = DelayTable(3, default=F(1, 4))
    for write in (
        lambda: t.set_vertex(B("011"), F(1, 2)),
        lambda: t.add_suffix([(Cube.from_pattern("1*1"), F(1, 3))]),
        lambda: t.add_subtree(B("00"), F(1, 5)),
    ):
        before = _level_row(1, t, rat_str)
        write()
        assert _level_row(1, t, rat_str) != before
    assert json.loads(_level_row(1, t, rat_str)) == {
        "network": 1,
        "level": 3,
        "default": "1/4",
        "vertex": [["011", "1/2"]],
        "suffix": [["1*1", "1/3"]],
        "subtree": [["00", "1/5"]],
    }


def test_edge_validation():
    with pytest.raises(ConstructionError):
        ExtraEdge(B("0"), B("00"), F(1, 3), 1, None, 1, 2)  # gap 1
    with pytest.raises(ConstructionError):
        ExtraEdge(B("1"), B("000"), F(1, 3), 1, None, 1, 3)  # not a prefix
    net = ElementaryNetwork()
    t1 = DelayTable(1)
    t1.set_vertex(B("0"), F(1, 3))
    net.commit_level(t1)
    net.commit_level(DelayTable(2))
    bad_q = ExtraEdge(B("0"), B("000"), F(1, 4), 1, None, 1, 3)
    with pytest.raises(ConstructionError):
        net.commit_level(DelayTable(3), [bad_q])


def test_second_outgoing_edge_rejected():
    net = ElementaryNetwork()
    t1 = DelayTable(1)
    t1.set_vertex(B("0"), F(1, 3))
    net.commit_level(t1)
    net.commit_level(DelayTable(2))
    e1 = ExtraEdge(B("0"), B("000"), F(1, 3), 1, None, 1, 3)
    net.commit_level(DelayTable(3), [e1])
    e2 = ExtraEdge(B("0"), B("0000"), F(1, 3), 1, None, 1, 4)
    with pytest.raises(ConstructionError):
        net.commit_level(DelayTable(4), [e2])


def random_network(seed, depth=7):
    """Random valid network: random 1/M delays, extra edges with
    q = s(source). Each level from 3 on may take single edges, one draw
    replicated over the sources of one frame item, which carry one value,
    and a second edge onto a target that already has one."""
    rng = random.Random(seed)
    net = ElementaryNetwork()
    step = 0
    for n in range(1, depth + 1):
        step += 1
        t = DelayTable(n, default=F(1, rng.choice([1000, 50, 9])) if rng.random() < 0.5 else F(0))
        for _ in range(rng.randrange(3)):
            x = BitString(n, rng.randrange(1 << n))
            if x not in t.vertex:
                t.set_vertex(x, F(1, rng.randrange(2, 9)))
        if rng.random() < 0.4 and n >= 2:
            root = BitString(rng.randrange(1, n), 0)
            root = BitString(len(root), rng.randrange(1 << len(root)))
            try:
                t.add_subtree(root, F(1, rng.randrange(2, 7)))
            except ConstructionError:
                pass
        edges = []

        def draw(x, y):
            """Edge x -> y if x has positive delay and no outgoing edge."""
            s = net.delay(x)
            if s == 0 or net.outgoing_edge(x) is not None:
                return
            if any(e.source == x for e in edges):
                return
            edges.append(ExtraEdge(x, y, s, task=1, subtask=None,
                                   network_id=1, step_drawn=step))

        if n >= 3:
            for _ in range(rng.randrange(3)):
                m = rng.randrange(1, n - 1)
                x = BitString(m, rng.randrange(1 << m))
                draw(x, x.concat(BitString(n - m, rng.randrange(1 << (n - m)))))
            m = rng.randrange(1, n - 1)
            cube, _ = max(net.frames[m], key=lambda item: item[0].count())
            tail = BitString(n - m, rng.randrange(1 << (n - m)))
            for x in list(cube.members())[:4]:
                draw(x, x.concat(tail))
            if edges:
                y = rng.choice(edges).target
                had = len(edges)
                for k in rng.sample(range(1, n - 1), n - 2):
                    if len(edges) == had:
                        draw(y.truncate(k), y)
        net.commit_level(t, edges)
    return net


@pytest.mark.parametrize("seed", range(8))
def test_random_networks_match_brute_force(seed):
    net = random_network(seed)
    oracle = DenseEval(net.tables, net.edges, net.depth)
    for n in range(net.depth + 1):
        stats = net.aggregates[n]
        assert stats.total_R == oracle.total_R(n)
        assert stats.extra_inflow == oracle.inflow(n)
        for v in range(1 << n):
            x = BitString(n, v)
            assert net.frame_eval(x) == oracle.R[x]
            assert net.flow_eval(x) == oracle.P(x)


@pytest.mark.parametrize("seed", range(4))
def test_random_networks_satisfy_flow_laws(seed):
    net = random_network(seed)
    for n in range(net.depth):
        for v in range(1 << n):
            x = BitString(n, v)
            px = net.flow_eval(x)
            p0 = net.flow_eval(x.child(0))
            p1 = net.flow_eval(x.child(1))
            assert p0 + p1 <= px
            # Equality exactly where nothing is terminally delayed at x:
            # either s(x) = 0, or the delayed share leaves along an extra
            # edge, or no mass reaches x at all.
            s = net.delay(x)
            e = net.outgoing_edge(x)
            out_extra = e.q if e is not None else F(0)
            if net.frame_eval(x) * (s - out_extra) == 0:
                assert p0 + p1 == px


@pytest.mark.parametrize("seed", range(4))
def test_random_network_outflow_bound(seed):
    net = random_network(seed)
    for n in range(net.depth + 1):
        for v in range(1 << n):
            x = BitString(n, v)
            s = net.delay(x)
            e = net.outgoing_edge(x)
            out = (1 - s) if n < net.depth else F(0)
            if e is not None:
                out += e.q
            assert out <= 1


def _longhand_flow(net, x):
    """R(x) read off the stored frame, plus q * R(source) for every edge
    whose source is a proper prefix of x and whose target lies below x."""

    def frame(y):
        return next((v for c, v in net.frames[len(y)] if c.contains(y)), F(0))

    return frame(x) + sum(
        (
            e.q * frame(e.source)
            for e in net.edges
            if e.source.is_strict_prefix_of(x) and x.is_strict_prefix_of(e.target)
        ),
        F(0),
    )


@pytest.mark.parametrize("depth", [12, 24])
@pytest.mark.parametrize("preset", PRESETS)
def test_edge_index_matches_longhand_edge_sums(preset, depth):
    bundle = build(RunConfig(preset=preset, depth=depth))
    rng = random.Random(f"{preset}:{depth}")
    for net in bundle.networks:
        if depth <= 12:
            vertices = [
                BitString(n, v) for n in range(depth + 1) for v in range(1 << n)
            ]
        else:
            # Random vertices on every level, plus every vertex an edge
            # passes over or lands on and its sibling, where transit mass
            # starts and stops.
            vertices = [
                BitString(n, rng.randrange(1 << n))
                for n in range(depth + 1)
                for _ in range(64)
            ]
            for e in net.edges:
                for n in range(len(e.source) + 1, len(e.target) + 1):
                    on_path = e.target.truncate(n)
                    vertices += [on_path, BitString(n, on_path.value ^ 1)]
        for x in vertices:
            assert net.flow_eval(x) == _longhand_flow(net, x), (net.network_id, x)
            want = next((e for e in net.edges if e.source == x), None)
            assert net.outgoing_edge(x) == want, (net.network_id, x)


def test_pre_frame_excludes_step_edges():
    net = ElementaryNetwork()
    t1 = DelayTable(1)
    t1.set_vertex(B("0"), F(1, 3))
    net.commit_level(t1)
    net.commit_level(DelayTable(2))
    # Pre-commit view of level 3: pure push, no inflow.
    assert net.pattern_mass(3, Cube.from_pattern("000")) == F(1, 12)
    e = ExtraEdge(B("0"), B("000"), F(1, 3), 1, None, 1, 3)
    net.commit_level(DelayTable(3), [e])
    assert mass_in(net.frames[3], Cube.from_pattern("000")) == F(1, 4)


def test_rat_round_trip():
    assert rat_str(F(5, 6)) == "5/6"
    assert rat_parse("5/6") == F(5, 6)
    assert rat_parse(rat_str(F(0))) == 0
    assert rat_parse("2/4") == F(1, 2)
    for bad in ("1/0", "0/0", "-3/0"):
        with pytest.raises(ValueError, match=f"zero denominator in rational '{bad}'"):
            rat_parse(bad)
    for bad in (None, 5, ["1", "2"]):
        with pytest.raises(ValueError, match="is not a string"):
            rat_parse(bad)


def _delay_by_definition(v):
    """A delay value as first defined: 0, or numerator 1 with 0 < v <= 1."""
    v = Fraction(v)
    if v == 0:
        return v
    if v.numerator != 1 or not 0 < v <= 1:
        raise ConstructionError(f"delay value {v} is not 0 or 1/M")
    return v


def test_delay_check_matches_its_definition():
    values = [F(n, d) for n in range(-3, 4) for d in range(1, 7)] + [-1, 0, 1, 2]
    for v in values:
        try:
            want = _delay_by_definition(v)
        except ConstructionError:
            with pytest.raises(ConstructionError, match="is not 0 or 1/M"):
                network._check_delay_value(v)
            continue
        got = network._check_delay_value(v)
        assert got == want and type(got) is Fraction, v


def test_kept_share_is_fixed_when_the_record_is_made():
    agg = LevelAggregates(F(7, 8), F(1, 8))
    assert agg.s_n == F(3, 4)
    assert LevelAggregates(F(7, 8), F(0)).s_n == F(7, 8)
    assert _aggregates_row(2, 5, agg, rat_str) == (
        '{"extra_inflow":"1/8","level":5,"network":2,"s_n":"3/4","total_R":"7/8"}'
    )


def _split(rng, items, rounds):
    """items with `rounds` random cubes cut in two along a free position."""
    items = list(items)
    for _ in range(rounds):
        splittable = [k for k, (c, _) in enumerate(items) if c.count() > 1]
        if not splittable:
            break
        c, v = items.pop(rng.choice(splittable))
        free = [1 << s for s in range(c.length) if not (c.care >> s) & 1]
        bit = rng.choice(free)
        items.append((Cube(c.length, c.care | bit, c.value), v))
        items.append((Cube(c.length, c.care | bit, c.value | bit), v))
    rng.shuffle(items)
    return items


def _value_at(items, x):
    hits = [v for c, v in items if c.contains(x)]
    assert len(hits) <= 1
    return hits[0] if hits else F(0)


@given(st.integers(0, 10), st.randoms(use_true_random=False))
def test_coalesce_keeps_the_map(length, rng):
    # A random disjoint map with few distinct values, some cubes dropped
    # (value 0 there), then fragmented further by random splits.
    base = [
        (c, rng.choice([F(1), F(1, 2), F(1, 3)]))
        for c, _ in _split(rng, [(Cube.whole_level(length), None)], rng.randrange(12))
        if rng.random() < 0.8
    ]
    for raw in (base, _split(rng, base, rng.randrange(40))):
        out = coalesce(raw)
        assert len(out) <= len(raw)
        for k, (a, _) in enumerate(out):
            for b, _ in out[k + 1:]:
                assert a.intersect(b) is None
        assert sum(v * c.count() for c, v in out) == sum(
            v * c.count() for c, v in raw
        )
        for value in range(1 << length):
            x = BitString(length, value)
            assert _value_at(out, x) == _value_at(raw, x)
        # No pair of equal value differing in exactly one pinned bit is left.
        cubes = {(c.care, c.value, v) for c, v in out}
        for c, v in out:
            for s in range(length):
                bit = 1 << s
                if c.care & bit:
                    assert (c.care, c.value ^ bit, v) not in cubes
        assert coalesce(list(raw)) == out


@given(st.integers(0, 10), st.randoms(use_true_random=False))
def test_grouped_sums_match_brute_force(length, rng):
    # A disjoint map that reuses a few values (some cubes dropped, value 0
    # there) and a delay partition of the same level with s in {0, 1/M, 1},
    # each cut into random pieces.
    def pieces(rounds):
        return [c for c, _ in _split(rng, [(Cube.whole_level(length), None)], rounds)]

    items = [
        (c, rng.choice([F(1), F(1, 2), F(1, 3), F(5, 12)]))
        for c in pieces(rng.randrange(24))
        if rng.random() < 0.8
    ]
    parts = [
        (c, rng.choice([F(0), F(1, rng.randrange(2, 6)), F(1)]))
        for c in pieces(rng.randrange(12))
    ]
    level = [BitString(length, value) for value in range(1 << length)]
    R = {x: _value_at(items, x) for x in level}
    s = {x: _value_at(parts, x) for x in level}

    out, pushed = push_down(items, parts)
    for x in level:
        for b in (0, 1):
            assert _value_at(out, x.child(b)) == R[x] * (1 - s[x]) / 2
    assert pushed == sum((R[x] * (1 - s[x]) for x in level), F(0))
    assert items_total(items) == sum(R.values(), F(0))
    for cube in (rng.choice(pieces(rng.randrange(8))), Cube.whole_level(length)):
        assert mass_in(items, cube) == sum(
            (R[x] for x in level if cube.contains(x)), F(0)
        )


# Values whose equal copies may arrive as distinct objects, among them
# numerators and denominators of 200 bits and more.
_VALUES = [F(1), F(1, 2), F(1, 3), F(5, 12), F(3**140, 2**203), F(7, 3**130 + 2)]
_DELAYS = [F(0), F(1, 2), F(1, 5), F(1, 2**201 + 9), F(1)]


def _pick(rng, pool):
    """One value of pool: the pool's own object (shared by every pick of
    it) or an equal Fraction built afresh (a distinct object)."""
    v = rng.choice(pool)
    return v if rng.random() < 0.5 else F(v.numerator, v.denominator)


def _longhand_push(items, parts):
    out, pushed = [], F(0)
    for part, s in parts:
        if s == 1:
            continue
        for c, v in items:
            inter = part.intersect(c)
            if inter is not None:
                out.append((inter.extend(1), v * (1 - s) / 2))
                pushed += v * (1 - s) * inter.count()
    return out, pushed


@given(st.integers(0, 10), st.randoms(use_true_random=False))
def test_identity_keyed_sums_match_a_longhand_loop(length, rng):
    # A disjoint map (possibly empty) and a delay partition of one level,
    # each cut into random pieces; a value object is shared by many items,
    # and big items meet several parts of different delays.
    def pieces(rounds):
        return [c for c, _ in _split(rng, [(Cube.whole_level(length), None)], rounds)]

    keep = rng.choice([0.0, 0.5, 0.9, 1.0])
    items = [
        (c, _pick(rng, _VALUES)) for c in pieces(rng.randrange(30)) if rng.random() < keep
    ]
    parts = [(c, _pick(rng, _DELAYS)) for c in pieces(rng.randrange(10))]

    out, pushed = push_down(items, parts)
    want, want_pushed = _longhand_push(items, parts)
    assert [c for c, _ in out] == [c for c, _ in want]
    assert [v for _, v in out] == [v for _, v in want]
    assert pushed == want_pushed
    assert items_total(out) == sum((v * c.count() for c, v in want), F(0))
    assert items_total(items) == sum((v * c.count() for c, v in items), F(0))
    # Vertex cubes leave most values a zero count; an empty map sums to 0.
    for cube in (
        Cube.whole_level(length),
        Cube(length, (1 << length) - 1, rng.randrange(1 << length)),
        rng.choice(pieces(rng.randrange(8))),
    ):
        assert mass_in(items, cube) == sum((v * c.overlap(cube) for c, v in items), F(0))
    assert items_total([]) == mass_in([], Cube.whole_level(length)) == 0


@pytest.mark.parametrize(
    "preset, depth", [("nonstochastic", 128), ("family", 64), ("hyperimmune", 48)]
)
def test_coalesce_leaves_a_clean_level_unchanged(preset, depth):
    # A level is clean when its parent has one delay part and no edge
    # lands on it; commit_level keeps its pushed frame as it is.
    b = build(RunConfig(preset=preset, depth=depth))
    clean = 0
    for net in b.networks:
        landing = {len(e.target) for e in net.edges}
        for n in range(1, depth + 1):
            parts = net.tables[n - 1].s_partition()
            if len(parts) != 1 or n in landing:
                continue
            items, _ = push_down(net.frames[n - 1], parts)
            assert coalesce(items) == items, (net.network_id, n)
            assert net.frames[n] == items
            clean += 1
    assert clean > depth // 2


@pytest.mark.parametrize("preset", PRESETS)
def test_reload_matches_the_build(tmp_path, preset):
    # Build and reload hand a level the same edges, so the one push path
    # makes the same frame: item for item, order included. At depth 128
    # a build leaves long runs of clean levels unmade until this read.
    depth = 62 if preset == "hyperimmune" else 128
    built = build(RunConfig(preset=preset, depth=depth))
    write_bundle(built, tmp_path / "b")
    reloaded = read_bundle(tmp_path / "b")
    for a, b in zip(built.networks, reloaded.networks, strict=True):
        for n in range(built.depth + 1):
            assert b.frames[n] == a.frames[n], (a.network_id, n)


def _replay(net, rng=None):
    """net's levels committed again into a fresh network; with an rng,
    random frame_eval and pre_frame reads go between the commits."""
    landing: dict[int, list] = {}
    for e in net.edges:
        landing.setdefault(len(e.target), []).append(e)
    fresh = ElementaryNetwork(net.network_id)
    for n in range(1, net.depth + 1):
        fresh.commit_level(net.tables[n], landing.get(n, []))
        for _ in range(rng.randrange(4) if rng else 0):
            if n < net.depth and rng.random() < 0.3:
                fresh.pre_frame(n + 1)
            else:
                m = rng.randrange(n + 1)
                fresh.frame_eval(BitString(m, rng.randrange(1 << m)))
    return fresh


@pytest.mark.parametrize(
    "source",
    [*(("random", seed) for seed in range(6)), ("family", 64), ("hyperimmune", 48)],
    ids=lambda source: "-".join(map(str, source)),
)
def test_frame_reads_between_commits_change_nothing(source):
    # A clean level's frame is made when first read, from the nearest
    # made level above it. Reads at random levels between the commits
    # must leave every frame and aggregate as they are when every frame
    # is made in order at the end.
    kind, arg = source
    if kind == "random":
        nets = [random_network(arg, depth=14)]  # reads every frame as it goes
    else:
        nets = build(RunConfig(preset=kind, depth=arg)).networks
    rng = random.Random(repr(source))
    for net in nets:
        for fresh in (_replay(net), _replay(net, rng)):
            assert fresh.aggregates == net.aggregates, net.network_id
            assert fresh.frames == net.frames, net.network_id


def test_a_build_pushes_down_only_the_levels_that_are_not_clean(monkeypatch):
    # nonstochastic's steps read no frame, so a clean level, one whose
    # parent has a single delay part and on which no edge lands, is
    # pushed by its parent's total alone and never reaches push_down.
    pushed_levels = []
    push_down = network.push_down

    def counting(items, parts):
        pushed_levels.append(parts[0][0].length + 1)
        return push_down(items, parts)

    monkeypatch.setattr(network, "push_down", counting)
    (net,) = build(RunConfig(preset="nonstochastic", depth=128)).networks
    landing = {len(e.target) for e in net.edges}
    dirty = [
        n
        for n in range(1, 129)
        if n in landing or len(net.tables[n - 1].s_partition()) != 1
    ]
    assert pushed_levels == dirty
    assert len(dirty) == 8


def test_a_family_build_reads_its_target_floors_without_pushing(monkeypatch):
    # Most family steps draw nothing: the target network's floors and
    # masses come from a made frame above the pending level, scaled, so a
    # step that reads no more pushes nothing down. Pushing the target's
    # pending level on every step takes 77 push-downs here.
    calls = 0
    push_down = network.push_down

    def counting(items, parts):
        nonlocal calls
        calls += 1
        return push_down(items, parts)

    monkeypatch.setattr(network, "push_down", counting)
    build(RunConfig(preset="family", depth=128))
    assert calls <= 8


def _random_level(rng, net, n):
    """A level-n table and the edges that land on it: one delay part of
    0, 1/M or 1, or several, with dead (s = 1) vertices and subtrees
    among them; from level 3 on, sometimes edges from live sources."""
    kind = rng.choice(["zero", "small", "small", "one", "parts", "parts"])
    default = {"zero": F(0), "one": F(1)}.get(kind, F(1, rng.randrange(2, 9)))
    table = DelayTable(n, default)
    if kind == "parts":
        for _ in range(rng.randrange(1, 4)):
            x = BitString(n, rng.randrange(1 << n))
            if x not in table.vertex:
                table.set_vertex(x, rng.choice([F(1), F(0), F(1, 3)]))
        if n >= 2 and rng.random() < 0.6:
            k = rng.randrange(1, n)
            root = BitString(k, rng.randrange(1 << k))
            table.add_subtree(root, rng.choice([F(1), F(1, 4)]))
    edges = []
    for _ in range(rng.randrange(3) if n >= 3 and rng.random() < 0.3 else 0):
        m = rng.randrange(1, n - 1)
        x = BitString(m, rng.randrange(1 << m))
        s = net.delay(x)
        if s and net.outgoing_edge(x) is None and all(e.source != x for e in edges):
            y = x.concat(BitString(n - m, rng.randrange(1 << (n - m))))
            edges.append(ExtraEdge(x, y, s, 1, None, net.network_id, n))
    return table, edges


def _random_region(rng, n):
    """A level-n cube: random pins, a half, the whole level, a vertex, or
    pins on the top positions only."""
    kind = rng.randrange(5)
    if kind == 0:
        return Cube(n, 1 << (n - 1), rng.randrange(2) << (n - 1))
    if kind == 1:
        return Cube.whole_level(n)
    if kind == 2:
        return Cube.vertex(BitString(n, rng.randrange(1 << n)))
    care = rng.randrange(1 << n)
    if kind == 3:
        care &= ~((1 << rng.randrange(n + 1)) - 1)
    return Cube(n, care, rng.randrange(1 << n) & care)


def _longhand_floor(items, region):
    values, covered = [], 0
    for c, v in items:
        inter = c.intersect(region)
        if inter is not None:
            values.append(v)
            covered += inter.count()
    if covered != region.count() or not all(values):
        return None
    return min(values)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.randoms(use_true_random=False))
def test_pending_queries_match_the_pushed_pre_frame(depth, rng):
    # Network a answers pending-level queries from a made frame above the
    # pending level where it can, with random frame reads and pre-frame
    # reads between the commits; its twin b pushes every pending level
    # down first.
    a, b = ElementaryNetwork(), ElementaryNetwork()
    for n in range(1, depth + 1):
        table, edges = _random_level(rng, a, n)
        a.commit_level(table, edges)
        b.commit_level(table, edges)
        if rng.random() < 0.3:
            k = rng.randrange(n + 1)
            a.frame_eval(BitString(k, rng.randrange(1 << k)))
        if rng.random() < 0.3:
            continue  # no query: the next level's record steps from this one's
        if rng.random() < 0.2:
            a.pre_frame(n + 1)
        pre = b.pre_frame(n + 1)
        for _ in range(4):
            region = _random_region(rng, n + 1)
            assert a.pattern_mass(n + 1, region) == mass_in(pre, region)
            want = _longhand_floor(pre, region)
            assert a.pattern_floor(n + 1, region) == want
            assert b.pattern_floor(n + 1, region) == want
    assert a.aggregates == b.aggregates
    assert a.frames == b.frames


def test_levels_made_out_of_order_match_levels_made_in_order():
    # Level 2 is made when level 3 is pushed, and level 3 as it is pushed
    # (its parent has several parts); levels 4..10 are clean, so each
    # record points at frame 3. Network a makes level 10 first, then
    # shallower levels, so levels made after level 10 lie between it and
    # the frame its record points at. Its twin b makes every level right
    # after committing it, each from the level above.
    level_2 = DelayTable(2, F(1, 3))
    level_2.set_vertex(BitString.from_str("01"), F(1, 2))
    level_2.add_subtree(BitString.from_str("1"), F(0))
    tables = [DelayTable(1), level_2] + [
        DelayTable(n, [F(0), F(1, 4), F(1, 2), F(0), F(1, 5)][n % 5])
        for n in range(3, 11)
    ]
    a, b = ElementaryNetwork(), ElementaryNetwork()
    for table in tables:
        a.commit_level(table)
        b.commit_level(table)
        b.frames
    assert sorted(a._unmade) == [1, *range(4, 11)]
    assert {a._unmade[n][0] for n in range(4, 11)} == {3}
    for n in (10, 7, 5, 9):
        a.frame_eval(BitString(n, 0))
    assert sorted(a._unmade) == [1, 4, 6, 8]
    assert a.frames == b.frames
    assert a._unmade == b._unmade == {}
    assert a.aggregates == b.aggregates


def _assert_ledger_trips_on_first_read(tmp_path, capsys, skew):
    built = tmp_path / "bundle"
    assert main(["build", "--preset", "nonstochastic", "--depth", "8",
                 "--out", str(built)]) == 0
    skew()
    # In memory: every level is clean (one delay part, no edge), so the
    # commits read no frame, the fault waits for the first read, and a
    # second read fails the same way.
    net = ElementaryNetwork()
    for n in range(1, 7):
        net.commit_level(DelayTable(n, F(1, n + 1)))
    assert net._unmade
    for _ in range(2):
        with pytest.raises(ConstructionError, match="conservation ledger"):
            net.frames
    # Through a written bundle: verify reads every frame, so it stops on
    # the ledger with exit 3.
    assert main(["verify", str(built)]) == 3
    assert "conservation ledger" in capsys.readouterr().err


def test_a_wrong_clean_level_total_trips_the_ledger(monkeypatch, tmp_path, capsys):
    push = ElementaryNetwork._push

    def skewed(self, n):
        # The running total a clean level is pushed from is doubled.
        self._total *= 2
        return push(self, n)

    def skew():
        monkeypatch.setattr(ElementaryNetwork, "_push", skewed)

    _assert_ledger_trips_on_first_read(tmp_path, capsys, skew)


def test_a_corrupt_record_scale_trips_make_with_both_totals(tmp_path):
    out = tmp_path / "bundle"
    assert main(["build", "--preset", "nonstochastic", "--depth", "8",
                 "--out", str(out)]) == 0
    net = read_bundle(out).networks[0]
    # Reading a level-8 value pushes every level and makes level 8 alone:
    # the clean levels 6 and 7 wait as frame 5, scaled.
    net.frame_eval(BitString(8, 0))
    m, num, den, total = net._unmade[7]
    assert (m, total) == (5, F(148505, 165888))
    net._unmade[7] = (m, 3 * num, den, total)
    # The made frame holds three times the total, 445515/165888, named
    # in lowest terms; the record stays, so a second read fails the same.
    for _ in range(2):
        with pytest.raises(ConstructionError) as err:
            net.frames
        assert str(err.value) == (
            "conservation ledger broken at level 7: "
            "made frame 148505/55296 != 148505/165888"
        )
    assert 7 in net._unmade


def test_a_wrong_scale_in_make_trips_the_ledger(monkeypatch, tmp_path, capsys):
    scale = ElementaryNetwork._scale

    def skewed(self, n, s):
        # The scale is worked out as if the parent's delay were another.
        return scale(self, n, F(1, 2) if s != F(1, 2) else F(1, 3))

    def skew():
        monkeypatch.setattr(ElementaryNetwork, "_scale", skewed)

    _assert_ledger_trips_on_first_read(tmp_path, capsys, skew)
