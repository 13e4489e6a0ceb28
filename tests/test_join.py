"""The cube join `meets` and what is built on it: delay partitions and
suffix writes, each against a longhand oracle kept in this file."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeflow.bitseq import BitString
from treeflow.cubes import Cube, subtract_many
from treeflow.network import (
    ConstructionError,
    DelayTable,
    meets,
    prefix_cubes_disjoint,
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
    assert prefix_cubes_disjoint(tier) == (prefix and apart)


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
