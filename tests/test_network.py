import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treeflow.bitseq import BitString
from treeflow.cli import read_bundle, write_bundle
from treeflow.constructions import PRESETS, RunConfig, build
from treeflow.cubes import Cube
from treeflow.network import (
    ConstructionError,
    DelayTable,
    EdgeClass,
    ElementaryNetwork,
    ExtraEdge,
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
    cls = EdgeClass(Cube.vertex(B("0")), B("00"), F(1, 3), (edge,))
    net.commit_level(DelayTable(3), [cls])
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
    t.add_suffix(Cube.from_pattern("*11*"), F(1, 9))
    t.set_vertex(B("0110"), F(1, 2))
    assert t.delay(B("1010")) == F(1, 5)
    assert t.delay(B("0100")) == F(1, 7)
    assert t.delay(B("0111")) == F(1, 9)  # suffix beats subtree
    assert t.delay(B("0110")) == F(1, 2)  # vertex beats suffix
    parts = t.s_partition()
    # Partition covers the level exactly once with the resolved values.
    seen = {}
    for cube, v in parts:
        for x in cube.members():
            assert x not in seen
            seen[x] = v
    assert len(seen) == 16
    for x, v in seen.items():
        assert v == t.delay(x)


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
    t.add_suffix(Cube.from_pattern("**1"), F(1, 6))
    with pytest.raises(ConstructionError):
        t.add_suffix(Cube.from_pattern("*11"), F(1, 7))
    # Equal-value overlap is fine: the overlap is carved away.
    t.add_suffix(Cube.from_pattern("1**"), F(1, 6))
    assert t.delay(B("101")) == F(1, 6)
    assert t.delay(B("100")) == F(1, 6)


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
        net.commit_level(
            DelayTable(3),
            [EdgeClass(Cube.vertex(B("0")), B("00"), F(1, 4), (bad_q,))],
        )


def test_second_outgoing_edge_rejected():
    net = ElementaryNetwork()
    t1 = DelayTable(1)
    t1.set_vertex(B("0"), F(1, 3))
    net.commit_level(t1)
    net.commit_level(DelayTable(2))
    e1 = ExtraEdge(B("0"), B("000"), F(1, 3), 1, None, 1, 3)
    net.commit_level(DelayTable(3), [EdgeClass(Cube.vertex(B("0")), B("00"), F(1, 3), (e1,))])
    e2 = ExtraEdge(B("0"), B("0000"), F(1, 3), 1, None, 1, 4)
    with pytest.raises(ConstructionError):
        net.commit_level(
            DelayTable(4),
            [EdgeClass(Cube.vertex(B("0")), B("000"), F(1, 3), (e2,))],
        )


def random_network(seed, depth=7):
    """Random valid network: random 1/M delays, class edges with q = s(source)."""
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
        classes = []
        if n >= 3:
            # Try a few single extra edges from vertices with positive delay.
            for _ in range(rng.randrange(3)):
                m = rng.randrange(1, n - 1)
                x = BitString(m, rng.randrange(1 << m))
                s = net.delay(x)
                if s == 0 or net.outgoing_edge(x) is not None:
                    continue
                if any(e.source == x for c in classes for e in c.edges):
                    continue
                tail = BitString(n - m, rng.randrange(1 << (n - m)))
                e = ExtraEdge(x, x.concat(tail), s, task=1, subtask=None,
                              network_id=1, step_drawn=step)
                classes.append(EdgeClass(Cube.vertex(x), tail, s, (e,)))
        net.commit_level(t, classes)
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
    net.commit_level(DelayTable(3), [EdgeClass(Cube.vertex(B("0")), B("00"), F(1, 3), (e,))])
    assert mass_in(net.frames[3], Cube.from_pattern("000")) == F(1, 4)


def test_rat_round_trip():
    assert rat_str(F(5, 6)) == "5/6"
    assert rat_parse("5/6") == F(5, 6)
    assert rat_parse(rat_str(F(0))) == 0


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


def _agrees_on(frame, other):
    """Every vertex of every cube of `frame` holds the same value in `other`."""
    for c, v in frame:
        covered = 0
        for d, w in other:
            inter = c.intersect(d)
            if inter is not None:
                assert w == v, (c, d)
                covered += inter.count()
        assert covered == c.count(), c


def test_reload_matches_the_build(tmp_path):
    built = build(RunConfig(preset="hyperimmune", depth=48))
    write_bundle(built, tmp_path / "b")
    reloaded = read_bundle(tmp_path / "b")
    for a, b in zip(built.networks, reloaded.networks, strict=True):
        for n in range(built.depth + 1):
            _agrees_on(a.frames[n], b.frames[n])
            _agrees_on(b.frames[n], a.frames[n])
            assert len(b.frames[n]) <= len(a.frames[n]), (a.network_id, n)
