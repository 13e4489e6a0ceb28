"""Session-start arithmetic against a literal reimplementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeflow.bitseq import BitString, pair, string_of, unpair_1, unpair_2
from treeflow.network import DelayTable, ElementaryNetwork, Rational
from treeflow.scheduler import (
    PairedTaskStream,
    ResourceLimit,
    ScheduleState,
    TaskStream,
    candidates,
)
from treeflow.templates import Caps, StepContext


def literal_w(stream, edges, i, n):
    """Scan m = 1..n for the least i-typed step past every lower-task edge."""
    for m in range(1, n + 1):
        if stream.task(m) != i:
            continue
        if all(m > lvl for (j, _t, lvl) in edges if j < i):
            return m
    return None


def literal_wk(stream, edges, i, k, n):
    for m in range(1, n + 1):
        if stream.task(m) != i or stream.subtask(m) != k:
            continue
        ok = all(
            m > lvl
            for (j, t, lvl) in edges
            if j < i or (j == i and t is not None and t < k)
        )
        if ok:
            return m
    return None


def make_state(edges, depth=200, stream=None):
    state = ScheduleState(stream or TaskStream(), depth)
    for (j, t, lvl) in edges:
        state.record_edge(j, t, lvl)
    return state


# Hand-expanded diagonal tables. pair(i, j) = (i+j-2)(i+j-1)/2 + i, so the
# steps of task i advance by i, i+1, i+2, ... starting from i(i+1)/2.
TASK_STEPS = {
    1: [1, 2, 4, 7, 11, 16, 22, 29, 37, 46],
    2: [3, 5, 8, 12, 17, 23, 30, 38, 47],
    3: [6, 9, 13, 18, 24, 31, 39, 48],
    4: [10, 14, 19, 25, 32, 40, 49],
}

SUBTASK_STEPS = {
    (1, 1): [1, 2, 7, 22, 56],
    (1, 2): [4, 11, 29],
    (2, 1): [3, 5, 12, 30],
    (2, 2): [8, 17, 38],
    (3, 1): [6, 9, 18, 39],
    (3, 2): [13, 24, 48],
    (5, 1): [15, 20, 33, 60],
    (5, 2): [26, 41],
}


def test_task_step_tables():
    stream = TaskStream()
    state = make_state([], depth=60)
    for i, expected in TASK_STEPS.items():
        got = [m for m in state.steps((i,)) if m <= 50]
        assert got == [m for m in expected if m <= 50]
        for m in expected:
            assert stream.task(m) == i


def test_subtask_step_tables():
    stream = TaskStream()
    state = make_state([], depth=60)
    for (i, k), expected in SUBTASK_STEPS.items():
        got = [m for m in state.steps((i, k)) if m <= 60]
        assert got == [m for m in expected if m <= 60]
        for m in expected:
            assert stream.task(m) == i and stream.subtask(m) == unpair_1(unpair_2(m))
            assert stream.subtask(m) == k


def test_first_step_of_each_task():
    stream = TaskStream()
    for i in range(1, 31):
        first = i * (i + 1) // 2
        assert stream.task(first) == i
        assert all(stream.task(m) != i for m in range(1, first))


def test_every_small_task_occurs_early():
    stream = TaskStream()
    seen = set()
    for n in range(1, 10**4 + 1):
        seen.add(stream.task(n))
    assert set(range(1, 21)) <= seen


def test_paired_stream_decode():
    stream = PairedTaskStream()
    # Outer step whose first component is pair(2, 3) = 8 names task 2 and
    # the vertex with code 3, i.e. "00".
    n = pair(8, 5)
    assert stream.task(n) == 2
    assert stream.designated(n) == BitString.from_str("00")
    n = pair(pair(1, 1), 1)
    assert stream.task(n) == 1
    assert stream.designated(n) == BitString.from_str("0")


def test_w_session_empty_history():
    state = make_state([])
    for i in range(1, 8):
        first = i * (i + 1) // 2
        assert state.start((i,), first) == first
        assert state.start((i,), first - 1) is None


def test_w_session_barrier_example():
    # One lower-task edge reaching level 9 pushes task 3 to its first step
    # past 9, which is 13, and task 4 to 10.
    state = make_state([(1, None, 9)])
    assert state.start((3,), 40) == 13
    assert state.start((4,), 40) == 10
    # The drawing task itself is not hindered by its own edge.
    assert state.start((1,), 40) == 1


@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(1, 60)),
        max_size=8,
    ),
    st.integers(1, 7),
    st.integers(1, 80),
)
@settings(max_examples=200)
def test_w_session_matches_literal(edges, i, n):
    stream = TaskStream()
    state = make_state(edges, depth=120)
    assert state.start((i,), n) == literal_w(stream, edges, i, n)


@given(
    st.lists(
        st.tuples(
            st.integers(1, 5),
            st.none() | st.integers(1, 3),
            st.integers(1, 50),
        ),
        max_size=8,
    ),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 90),
)
@settings(max_examples=200)
def test_w_subsession_matches_literal(edges, i, k, n):
    # Edges with no subtask sort before every subsession key of their own
    # task, yet move none of them; the literal oracle ignores them there.
    stream = TaskStream()
    state = make_state(edges, depth=150)
    got = state.start((i, k), n)
    assert got == literal_wk(stream, edges, i, k, n)
    w = state.start((i,), n)
    if got is not None:
        assert w is not None and got >= w


def test_w_subsession_ignores_own_and_later_subtasks():
    # An edge by subtask (2, 2) moves (2, 3) but not (2, 2) or (2, 1).
    state = make_state([(2, 2, 20)])
    assert state.start((2, 1), 100) == 3
    assert state.start((2, 2), 100) == 8
    assert state.start((2, 3), 100) == 23  # pair(2, 6), first past 20


def test_w_nondecreasing_as_history_grows():
    stream = TaskStream()
    state = make_state([], depth=300)
    prev = {i: state.start((i,), 300) for i in range(1, 7)}
    history = [(1, 1, 12), (2, 1, 25), (1, 2, 40), (3, 1, 61), (2, 2, 80)]
    for (j, t, lvl) in history:
        state.record_edge(j, t, lvl)
        for i in range(1, 7):
            cur = state.start((i,), 300)
            if prev[i] is not None and cur is not None:
                assert cur >= prev[i]
            prev[i] = cur


def test_candidate_levels_literal():
    state = make_state([], depth=100)
    stream = TaskStream()
    for i in (1, 2, 3):
        for w in (1, 5, 9):
            for n in (10, 30):
                got = state.candidate_levels((i,), w, n)
                want = [m for m in range(w, n) if stream.task(m) == i]
                assert got == want
    got = state.candidate_levels((2, 1), 3, 31)
    want = [
        m
        for m in range(3, 31)
        if stream.task(m) == 2 and stream.subtask(m) == 1
    ]
    assert got == want


class ScriptedOracle:
    """Shuts the levels in `shut`, enumerates cube members and answers
    beta from a fixed table."""

    def __init__(self, beta_table, limit=None, shut=()):
        self.beta_table = beta_table
        self.limit = limit
        self.shut = set(shut)
        self.enumerated = 0

    def level_open(self, level):
        return level not in self.shut

    def iter_sources(self, cube, level):
        for x in cube.members():
            self.enumerated += 1
            yield x

    def beta(self, x):
        return self.beta_table.get(x)


def build_candidate_net():
    """Delays on levels 1 and 2; task-1 typing makes both candidate levels."""
    net = ElementaryNetwork(network_id=1)
    t1 = DelayTable(1)
    t1.set_vertex(BitString.from_str("0"), Rational(1, 2))
    net.commit_level(t1, [])
    t2 = DelayTable(2)
    t2.set_vertex(BitString.from_str("00"), Rational(1, 4))
    t2.set_vertex(BitString.from_str("10"), Rational(1, 4))
    net.commit_level(t2, [])
    return net


def test_candidates_filters_and_order():
    net = build_candidate_net()
    state = make_state([], depth=20)
    b = {
        BitString.from_str("0"): BitString.from_str("0000"),
        BitString.from_str("00"): BitString.from_str("0011"),
        BitString.from_str("10"): None,
    }
    oracle = ScriptedOracle(b)
    ctx = StepContext(n=4, i=1, net=net, state=state)
    levels = state.candidate_levels((1,), 1, 4)
    got = candidates(ctx, oracle, levels)
    assert got == [
        (BitString.from_str("0"), BitString.from_str("0000")),
        (BitString.from_str("00"), BitString.from_str("0011")),
    ]
    # Restricting to the subtree of "0" drops nothing here; restricting to
    # "1" leaves only vertices below it, whose beta is undefined.
    got = candidates(ctx, oracle, levels, root=BitString.from_str("1"))
    assert got == []


def test_candidates_skips_sources_with_edges():
    from treeflow.network import ExtraEdge

    net = build_candidate_net()
    x = BitString.from_str("0")
    y = BitString.from_str("000")
    edge = ExtraEdge(source=x, target=y, q=Rational(1, 2), task=1, subtask=None,
                     network_id=1, step_drawn=3)
    t3 = DelayTable(3)
    net.commit_level(t3, [edge])
    state = make_state([], depth=20)
    oracle = ScriptedOracle({x: BitString.from_str("0000"),
                             BitString.from_str("00"): BitString.from_str("0000")})
    ctx = StepContext(n=4, i=1, net=net, state=state)
    got = candidates(ctx, oracle, state.candidate_levels((1,), 1, 4))
    assert got == [(BitString.from_str("00"), BitString.from_str("0000"))]


def test_candidates_cap_trips():
    net = build_candidate_net()
    state = make_state([], depth=20)
    oracle = ScriptedOracle({})
    ctx = StepContext(n=4, i=1, net=net, state=state, caps=Caps(candidates=1))
    with pytest.raises(ResourceLimit):
        candidates(ctx, oracle, state.candidate_levels((1,), 1, 4))
    # Shut levels are skipped whole: nothing is enumerated or counted.
    shut = ScriptedOracle({}, shut=(1, 2))
    assert candidates(ctx, shut, state.candidate_levels((1,), 1, 4)) == []
    assert shut.enumerated == 0
