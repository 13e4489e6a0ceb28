"""The cube join `meets` and what is built on it: delay partitions and
suffix writes, each against a longhand oracle kept in this file."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeflow import network
from treeflow.bitseq import BitString
from treeflow.constructions import RunConfig, build
from treeflow.cubes import Cube, subtract_many
from treeflow.network import (
    ConstructionError,
    DelayTable,
    _carve,
    _dyadic_join,
    meets,
    prefix_spans,
)

B = BitString.from_str
F = Fraction
MAX_LEN = 10
DELAYS = [F(0), F(1, 2), F(1, 3), F(1)]


def pattern_st(n):
    return st.text(alphabet="01*", min_size=n, max_size=n)


def peel(base, pattern):
    """base minus pattern as `Cube.subtract` cuts it: nested-prefix cubes
    that each flip one pin of pattern, as a delay write leaves them."""
    pieces = Cube.from_pattern(base).subtract(Cube.from_pattern(pattern))
    return [c.pattern() for c in pieces]


def staircase_st(n):
    return pattern_st(n).map(lambda p: peel("*" * n, p))


def side_st(n):
    return st.one_of(
        st.lists(pattern_st(n), max_size=8),
        pattern_st(n).map(lambda p: [p]),
        st.just([]),
        staircase_st(n),
        st.tuples(staircase_st(n), st.lists(pattern_st(n), max_size=3)).map(
            lambda t: t[0] + t[1]
        ),
    )


def big_side_st(n):
    """Hundreds of cubes, so that the join splits rather than scans: random
    cubes and staircases, all or half of them inside one region."""

    def side(rng):
        region = "".join(rng.choice("01**") for _ in range(n))
        inside = rng.random() < 0.5
        out = []
        while len(out) < 240:
            base = "*" * n
            p = "".join(rng.choice("01**") for _ in range(n))
            if inside or rng.random() < 0.5:
                base = region
                p = "".join(c if r == "*" else r for r, c in zip(region, p))
            if rng.random() < 0.3:
                out.append(p)
            else:
                out += peel(base, p)
        return out

    return st.integers(0, 2**32).map(lambda seed: side(random.Random(seed)))


def cubes(patterns):
    return [Cube.from_pattern(p) for p in patterns]


def nested_loop(a, b):
    return [
        (i, j)
        for i, x in enumerate(a)
        for j, y in enumerate(b)
        if x.intersect(y) is not None
    ]


@given(
    st.integers(0, MAX_LEN).flatmap(lambda n: st.tuples(side_st(n), side_st(n)))
)
def test_meets_is_the_nested_loop(sides):
    a, b = map(cubes, sides)
    assert meets(a, b) == nested_loop(a, b)


@settings(max_examples=30)
@given(
    st.integers(0, MAX_LEN).flatmap(
        lambda n: st.tuples(big_side_st(n), big_side_st(n))
    )
)
def test_meets_splits_like_the_nested_loop(sides):
    a, b = map(cubes, sides)
    assert meets(a, b) == nested_loop(a, b)


def prefix_st(n):
    """A prefix cube: positions 1..k pinned, the rest free."""
    return st.integers(0, n).flatmap(
        lambda k: st.text(alphabet="01", min_size=k, max_size=k).map(
            lambda head: head + "*" * (n - k)
        )
    )


@st.composite
def prefix_staircase_st(draw, n):
    """A prefix cube peeled out of a shorter one it lies in, and perhaps
    the hole too: nested-prefix cubes that share no vertex, as a stored
    suffix tier holds them."""
    k, j = sorted(draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    head = draw(st.text(alphabet="01", min_size=j, max_size=j))
    hole = head + "*" * (n - j)
    return peel(head[:k] + "*" * (n - k), hole) + draw(st.sampled_from([[], [hole]]))


def suffix_tier_st(n):
    """Staircases, nested and duplicate prefix cubes, and cubes that are
    not prefix cubes, in any order."""
    part = st.one_of(
        prefix_staircase_st(n),
        st.lists(prefix_st(n), max_size=4),
        prefix_st(n).map(lambda p: [p, p]),
        st.lists(pattern_st(n), max_size=2),
    )
    return st.lists(part, max_size=4).flatmap(
        lambda parts: st.permutations([p for ps in parts for p in ps])
    )


@given(st.integers(0, 40).flatmap(suffix_tier_st))
def test_prefix_cubes_disjoint_is_the_nested_loop(patterns):
    # True exactly when every cube is a prefix cube and no two meet.
    tier = cubes(patterns)
    prefix = all("*" not in p.rstrip("*") for p in patterns)
    apart = all(i == j for i, j in nested_loop(tier, tier))
    assert (prefix_spans(tier) is not None) == (prefix and apart)


def test_prefix_spans_are_sorted_intervals():
    tier = cubes(["1*", "00", "01"])
    assert prefix_spans(tier) == [(0, 1, 1), (1, 2, 2), (2, 4, 0)]
    assert prefix_spans([]) == []


# --- the dyadic join -------------------------------------------------------


def random_prefix(rng, n):
    k = rng.randint(0, n)
    return "".join(rng.choice("01") for _ in range(k)) + "*" * (n - k)


def dyadic_partition(rng, n, size):
    """A cover of the level by up to size prefix cubes: a random cube is
    split on its first free position until there are enough, or none is
    left to split."""
    parts = ["*" * n]
    while len(parts) < size:
        splittable = [i for i, p in enumerate(parts) if "*" in p]
        if not splittable:
            break
        i = rng.choice(splittable)
        p = parts.pop(i)
        k = p.index("*")
        parts[i:i] = [p[:k] + "0" + p[k + 1 :], p[:k] + "1" + p[k + 1 :]]
    return parts


def disjoint_prefix_side(rng, n):
    """Disjoint prefix cubes as delay tables hold them: staircases peeled
    around prefix holes, or a partition with some parts dropped (the
    parts of s = 1 that a push leaves out), in any order."""
    if rng.random() < 0.5:
        out = []
        for region in dyadic_partition(rng, n, rng.randint(1, 8)):
            if rng.random() < 0.7:
                hole = random_prefix(rng, n)
                hole = "".join(h if r == "*" else r for r, h in zip(region, hole))
                out += peel(region, hole)
            else:
                out.append(region)
    else:
        out = dyadic_partition(rng, n, rng.randint(1, 400))
    if rng.random() < 0.5:
        out = [p for p in out if rng.random() < 0.7]
    rng.shuffle(out)
    return out


def frame_shaped(rng, n):
    """A free or pinned head, a free gap, a pinned run and a free tail, as
    frame items below a delay write are."""
    head_end, gap_end, run_end = sorted(rng.randint(0, n) for _ in range(3))
    head = rng.choice(["*", "01"])
    return (
        "".join(rng.choice(head) for _ in range(head_end))
        + "*" * (gap_end - head_end)
        + "".join(rng.choice("01") for _ in range(run_end - gap_end))
        + "*" * (n - run_end)
    )


def random_pattern(rng, n):
    return "".join(rng.choice("01**") for _ in range(n))


def other_side(rng, n):
    """Up to several hundred cubes of any of the shapes a join meets:
    nested and duplicate prefix cubes, frame-shaped cubes, arbitrary ones,
    or another disjoint prefix side."""
    shape = rng.randrange(5)
    if shape == 0:
        return []
    if shape == 1:
        return disjoint_prefix_side(rng, n)
    size = rng.randint(1, 300)
    make = [
        lambda: random_prefix(rng, n),
        lambda: frame_shaped(rng, n),
        lambda: random_pattern(rng, n),
    ][shape - 2]
    out = [make() for _ in range(size)]
    return out + rng.sample(out, rng.randint(0, min(3, len(out))))


def dyadic_sides(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 40)
    return disjoint_prefix_side(rng, n), other_side(rng, n)


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.booleans())
def test_meets_by_descent_is_the_nested_loop(seed, disjoint_first):
    # The disjoint prefix side given as a and as b.
    disjoint, other = map(cubes, dyadic_sides(seed))
    a, b = (disjoint, other) if disjoint_first else (other, disjoint)
    assert meets(a, b) == nested_loop(a, b)


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_dyadic_join_is_the_nested_loop(seed):
    # Below the scan's size too: each cube's hits, in span order.
    disjoint, other = map(cubes, dyadic_sides(seed))
    spans = prefix_spans(disjoint)
    want = [[k for _, _, k in spans if c.intersect(disjoint[k])] for c in other]
    assert _dyadic_join(other, spans) == want


@pytest.mark.parametrize("side", [[], ["0*"], ["0*", "10", "11"]])
def test_an_empty_side_meets_nothing(side):
    assert meets(cubes(side), []) == meets([], cubes(side)) == []
    assert _dyadic_join([], prefix_spans(cubes(side))) == []
    assert _dyadic_join(cubes(side), []) == [[] for _ in side]


# --- the carve -------------------------------------------------------------


def carve_by_filter(items, cuts, pairs):
    """`_carve` with no interval path: each peel piece filters the later
    cuts of its item for the ones that meet it."""
    hits = {}
    for i, j in pairs:
        hits.setdefault(i, []).append(cuts[j])
    out = []
    for i, item in enumerate(items):
        todo = [(item, hits.get(i, ()))]
        while todo:
            (p, v), left = todo.pop()
            if not left:
                out.append((p, v))
                continue
            (o, s), rest = left[0], left[1:]
            todo.append(((p.intersect(o), s), ()))
            for q in reversed(p.subtract(o)):
                todo.append(((q, v), [h for h in rest if h[0].intersect(q)]))
    return out


def carve_sides(seed):
    """A cover of the level and a tier of disjoint cuts over it, both with
    delays. The cover is prefix cubes, or a class-cube cover as a
    `hyperimmune` suffix tier leaves it; the cuts are disjoint prefix
    cubes, or pieces of one cube minus others."""
    rng = random.Random(seed)
    n = rng.randint(0, 24)
    if rng.random() < 0.7:
        cover = cubes(dyadic_partition(rng, n, rng.randint(1, 60)))
    else:
        hole = Cube.from_pattern(random_pattern(rng, n))
        cover = Cube(n).subtract(hole) + [hole]
    if rng.random() < 0.8:
        tier = cubes(disjoint_prefix_side(rng, n))
    else:
        base, *holes = cubes([random_pattern(rng, n) for _ in range(4)])
        tier = subtract_many(base, holes)
    items = [(c, rng.choice(DELAYS)) for c in cover]
    cuts = [(c, rng.choice(DELAYS)) for c in tier]
    return items, cuts


@settings(max_examples=80)
@given(st.integers(0, 2**32))
def test_carve_is_the_filtered_carve(seed):
    items, cuts = carve_sides(seed)
    pairs = nested_loop([c for c, _ in items], [c for c, _ in cuts])
    assert _carve(items, cuts, pairs) == carve_by_filter(items, cuts, pairs)


# --- which path answers ----------------------------------------------------


def count_paths(monkeypatch):
    """(caller of meets, whether its sides were too large to scan) for each
    join, by the path that answered it."""
    calls = {"_dyadic_join": [], "_unate_join": []}
    for name, seen in calls.items():
        join = getattr(network, name)

        def counted(x, y, join=join, seen=seen):
            large = len(x) * len(y) > 8 * (len(x) + len(y))
            seen.append((sys._getframe(2).f_code.co_name, large))  # meets' caller
            return join(x, y)

        monkeypatch.setattr(network, name, counted)
    return calls


def test_staircase_push_downs_take_the_descent(monkeypatch):
    calls = count_paths(monkeypatch)
    build(RunConfig(preset="nonstochastic", depth=128))
    # Its three push-downs of delay staircases: 98 x 62, 161 x 164 and
    # 105 x 194 cubes. Every other join is small enough to scan.
    assert calls["_dyadic_join"] == [("push_down", True)] * 3
    assert all(not large for _, large in calls["_unate_join"])


def test_class_cube_joins_take_the_unate_path(monkeypatch):
    calls = count_paths(monkeypatch)
    build(RunConfig(preset="hyperimmune", depth=62))
    # A partition with class-cube parts against its frame (29 x 40 cubes):
    # neither side is made of prefix cubes.
    assert ("push_down", True) in calls["_unate_join"]


# --- delay tables --------------------------------------------------------


def longhand_assign(items, cube, value):
    """One override written over a cover: each part it meets keeps the
    peel of `Cube.subtract` in place, followed by the intersection."""
    out = []
    for c, v in items:
        inter = c.intersect(cube)
        if inter is None:
            out.append((c, v))
            continue
        out.extend((p, v) for p in c.subtract(cube))
        out.append((inter, value))
    return out


def longhand_partition(table):
    parts = [(Cube.whole_level(table.level), table.default)]
    overrides = [
        (Cube.subtree(r, table.level), v) for r, v in sorted(table.subtree.items())
    ]
    overrides += table.suffix
    overrides += [(Cube.vertex(x), v) for x, v in sorted(table.vertex.items())]
    for cube, v in overrides:
        parts = longhand_assign(parts, cube, v)
    return parts


def longhand_delay(table, x):
    if x in table.vertex:
        return table.vertex[x]
    for cube, v in table.suffix:
        if cube.contains(x):
            return v
    for root, v in table.subtree.items():
        if root.is_prefix_of(x):
            return v
    return table.default


def longhand_add_suffix(stored, entries):
    """Each new entry minus every stored entry it meets, peeled in stored
    order; the pieces go after the stored ones."""
    out = list(stored)
    for cube, v in entries:
        pieces = [cube]
        for have, _ in stored:
            pieces = [q for p in pieces for q in p.subtract(have)]
        out.extend((p, v) for p in pieces)
    return out


@st.composite
def tables(draw):
    n = draw(st.integers(0, MAX_LEN))
    table = DelayTable(n, draw(st.sampled_from(DELAYS)))
    for root in draw(st.lists(st.text(alphabet="01", max_size=n), max_size=4)):
        try:
            table.add_subtree(B(root), draw(st.sampled_from(DELAYS)))
        except ConstructionError:
            pass  # nested roots
    stored = []
    for _ in range(draw(st.integers(0, 4))):
        # A batch: one pattern minus a few others, so pairwise disjoint.
        base, *holes = cubes(draw(st.lists(pattern_st(n), min_size=1, max_size=4)))
        v = draw(st.sampled_from(DELAYS))
        batch = [(p, v) for p in subtract_many(base, holes)]
        if any(
            v0 != v and c.intersect(p) is not None
            for c, v0 in stored
            for p, _ in batch
        ):
            with pytest.raises(ConstructionError):
                table.add_suffix(batch)
            continue
        table.add_suffix(batch)
        stored = longhand_add_suffix(stored, batch)
        assert table.suffix == stored
    vertices = st.text(alphabet="01", min_size=n, max_size=n)
    delays = draw(st.dictionaries(vertices, st.sampled_from(DELAYS), max_size=6))
    for x, v in delays.items():
        table.set_vertex(B(x), v)
    return table


@given(tables())
def test_s_partition_is_the_sequential_assign(table):
    assert table.s_partition() == longhand_partition(table)


@given(tables())
def test_delay_follows_the_precedence(table):
    for value in range(1 << table.level):
        x = BitString(table.level, value)
        assert table.delay(x) == longhand_delay(table, x)
