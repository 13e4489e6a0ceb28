"""Every cube operation against brute force over whole levels of length
at most 10. The references work on pattern strings ("0", "1", "*" per
position) and share no code with treeflow.cubes."""

import pytest
from hypothesis import given, strategies as st

from treeflow.bitseq import BitString
from treeflow.cubes import Cube, subtract_many
from treeflow.network import ConstructionError
from treeflow.templates import prefix_root

B = BitString.from_str

MAX_LEN = 10


def level(n):
    return [format(v, f"0{n}b") if n else "" for v in range(1 << n)]


def matches(pat, s):
    return len(pat) == len(s) and all(p in ("*", b) for p, b in zip(pat, s))


def ref_members(pat):
    """Today's member order: bit k of the counter sets the k-th free
    position, counting from position 1."""
    free = [i for i, c in enumerate(pat) if c == "*"]
    out = []
    for mask in range(1 << len(free)):
        s = list(pat.replace("*", "0"))
        for k, i in enumerate(free):
            if (mask >> k) & 1:
                s[i] = "1"
        out.append("".join(s))
    return out


def ref_subtract(a, b):
    """Today's peel order: one piece per position pinned in b but free in
    a, position 1 first; each piece flips that pin and keeps the earlier
    ones."""
    if any(x != y and "*" not in (x, y) for x, y in zip(a, b)):
        return [a]
    acc = list(a)
    pieces = []
    for i, c in enumerate(b):
        if c != "*" and a[i] == "*":
            pieces.append("".join(acc[:i] + ["1" if c == "0" else "0"] + acc[i + 1 :]))
            acc[i] = c
    return pieces


def pattern_st(n):
    return st.text(alphabet="01*", min_size=n, max_size=n)


def bits_st(n):
    return st.text(alphabet="01", min_size=n, max_size=n)


lengths = st.integers(0, MAX_LEN)
patterns = lengths.flatmap(pattern_st)
pattern_pairs = lengths.flatmap(lambda n: st.tuples(pattern_st(n), pattern_st(n)))


def test_constructors():
    assert Cube.vertex(B("011")).count() == 1
    assert Cube.subtree(B("01"), 5).count() == 8
    assert Cube.whole_level(4).count() == 16
    c = Cube.suffix_pattern(6, 3, B("10"))
    assert c.count() == 16
    assert c.contains(B("111001"))
    assert not c.contains(B("110101"))
    c = Cube.from_pattern("0*1*")
    assert (c.length, c.care, c.value) == (4, 0b1010, 0b0010)


def test_validation():
    with pytest.raises(ValueError):
        Cube(3, 0b1000)
    with pytest.raises(ValueError):
        Cube(3, -1)
    with pytest.raises(ValueError):
        Cube(3, 0b100, 0b010)


@pytest.mark.parametrize("name", ["length", "care", "value", "other"])
def test_cubes_are_read_only(name):
    c = Cube.from_pattern("0*1")
    with pytest.raises(AttributeError):
        setattr(c, name, 0)
    assert (c.length, c.care, c.value) == (3, 0b101, 0b001)


@pytest.mark.parametrize("name", ["length", "care", "value"])
def test_cubes_cannot_lose_an_attribute(name):
    c = Cube.from_pattern("0*1")
    with pytest.raises(AttributeError):
        delattr(c, name)
    assert (c.length, c.care, c.value) == (3, 0b101, 0b001)


@given(pattern_pairs)
def test_equal_cubes_hash_equal_and_dedupe(ab):
    a, b = ab
    first, again, other = Cube.from_pattern(a), Cube.from_pattern(a), Cube.from_pattern(b)
    assert first is not again and first == again
    assert hash(first) == hash(again)
    assert {first: 1}[again] == 1
    assert len({first, again, other}) == (1 if a == b else 2)
    assert (first == other) == (a == b)


@pytest.mark.parametrize("bad", ["01x*", "0 1", "2", "0_1", "+1", "-"])
def test_malformed_pattern_rejected(bad):
    with pytest.raises(ValueError):
        Cube.from_pattern(bad)


@given(patterns)
def test_pattern_round_trip(pat):
    c = Cube.from_pattern(pat)
    assert c.pattern() == pat
    assert c.length == len(pat)
    for pos, ch in enumerate(pat, start=1):
        shift = len(pat) - pos
        assert (c.care >> shift) & 1 == (ch != "*")
        assert (c.value >> shift) & 1 == (ch == "1")
    assert Cube(c.length, c.care, c.value) == c
    assert hash(Cube.from_pattern(pat)) == hash(c)


def ref_pattern(c):
    """The pattern written one position at a time from the two masks."""
    top = 1 << c.length
    care = format(c.care | top, "b")[1:]
    value = format(c.value | top, "b")[1:]
    return "".join(v if k == "1" else "*" for k, v in zip(care, value))


@st.composite
def long_cubes(draw):
    """Cubes of lengths up to 240, drawn as masks, as deep builds hold."""
    n = draw(st.integers(0, 240))
    care = draw(st.integers(0, (1 << n) - 1))
    return Cube(n, care, draw(st.integers(0, (1 << n) - 1)) & care)


@given(long_cubes())
def test_pattern_matches_the_positionwise_reference(c):
    pat = c.pattern()
    assert pat == ref_pattern(c)
    assert Cube.from_pattern(pat) == c


@given(patterns)
def test_count_matches_membership(pat):
    c = Cube.from_pattern(pat)
    n = len(pat)
    want = [s for s in level(n) if matches(pat, s)]
    assert [c.contains(B(s)) for s in level(n)] == [matches(pat, s) for s in level(n)]
    assert c.count() == len(want)
    assert sorted(str(x) for x in c.members()) == want
    assert not c.contains(B(pat.replace("*", "0") + "0"))


@given(patterns)
def test_members_order(pat):
    assert [str(x) for x in Cube.from_pattern(pat).members()] == ref_members(pat)


def test_members_order_literal():
    got = [str(x) for x in Cube.from_pattern("*1*0").members()]
    assert got == ["0100", "1100", "0110", "1110"]


@given(pattern_pairs)
def test_intersection_is_exact(ab):
    a, b = ab
    got = Cube.from_pattern(a).intersect(Cube.from_pattern(b))
    want = [s for s in level(len(a)) if matches(a, s) and matches(b, s)]
    assert Cube.from_pattern(a).overlap(Cube.from_pattern(b)) == len(want)
    if got is None:
        assert want == []
    else:
        assert sorted(str(x) for x in got.members()) == want
        assert got.pattern() == "".join(y if x == "*" else x for x, y in zip(a, b))


def test_lengths_must_agree():
    with pytest.raises(ValueError):
        Cube.whole_level(3).intersect(Cube.whole_level(4))
    with pytest.raises(ValueError):
        Cube.whole_level(3).subtract(Cube.whole_level(4))
    with pytest.raises(ValueError):
        Cube.whole_level(3).overlap(Cube.whole_level(4))


@given(pattern_pairs)
def test_subtract_is_exact_and_disjoint(ab):
    a, b = ab
    pieces = Cube.from_pattern(a).subtract(Cube.from_pattern(b))
    want = {s for s in level(len(a)) if matches(a, s) and not matches(b, s)}
    got = [str(x) for p in pieces for x in p.members()]
    assert len(got) == len(set(got)), "pieces overlap"
    assert set(got) == want
    assert [p.pattern() for p in pieces] == ref_subtract(a, b)


def test_subtract_piece_order_literal():
    pieces = Cube.from_pattern("*1**").subtract(Cube.from_pattern("0*10"))
    assert [p.pattern() for p in pieces] == ["11**", "010*", "0111"]
    assert Cube.from_pattern("1*").subtract(Cube.from_pattern("0*")) == [
        Cube.from_pattern("1*")
    ]


@given(
    lengths.flatmap(
        lambda n: st.tuples(pattern_st(n), st.lists(pattern_st(n), max_size=4))
    )
)
def test_subtract_many(case):
    base, holes = case
    pieces = subtract_many(Cube.from_pattern(base), [Cube.from_pattern(h) for h in holes])
    want = {
        s
        for s in level(len(base))
        if matches(base, s) and not any(matches(h, s) for h in holes)
    }
    got = [str(x) for p in pieces for x in p.members()]
    assert len(got) == len(set(got))
    assert set(got) == want
    ref = [base]
    for h in holes:
        ref = [piece for part in ref for piece in ref_subtract(part, h)]
    assert [p.pattern() for p in pieces] == ref


@given(lengths.flatmap(lambda n: st.tuples(pattern_st(n), st.integers(0, MAX_LEN - n))))
def test_extend(case):
    pat, extra = case
    c = Cube.from_pattern(pat)
    ext = c.extend(extra)
    assert ext.pattern() == pat + "*" * extra
    want = [s for s in level(len(pat) + extra) if matches(pat, s[: len(pat)])]
    assert sorted(str(x) for x in ext.members()) == want


@given(
    lengths.flatmap(
        lambda n: st.tuples(bits_st(n), st.integers(n, MAX_LEN), st.integers(1, n + 1))
    )
)
def test_vertex_subtree_and_suffix_pattern(case):
    s, length, start = case
    n = len(s)
    v = Cube.vertex(B(s))
    assert v.pattern() == s
    assert [str(x) for x in v.members()] == [s]
    sub = Cube.subtree(B(s), length)
    assert sub.pattern() == s + "*" * (length - n)
    assert sorted(str(x) for x in sub.members()) == [
        t for t in level(length) if t.startswith(s)
    ]
    if length > n:
        with pytest.raises(ValueError):
            Cube.subtree(B(s + "0"), n)
    bits = s[start - 1 :]
    suf = Cube.suffix_pattern(length, start, B(bits))
    want = "*" * (start - 1) + bits + "*" * (length - start - len(bits) + 1)
    assert suf.pattern() == want


@given(patterns)
def test_representative_is_member(pat):
    c = Cube.from_pattern(pat)
    assert c.contains(c.representative())
    assert str(c.representative()) == pat.replace("*", "0")


@given(patterns)
def test_prefix_root(pat):
    k = len(pat.rstrip("*"))
    if "*" in pat[:k]:
        with pytest.raises(ConstructionError):
            prefix_root(Cube.from_pattern(pat))
    else:
        assert str(prefix_root(Cube.from_pattern(pat))) == pat[:k]


def test_members_cap():
    with pytest.raises(ValueError):
        list(Cube.whole_level(40).members(cap=1000))
