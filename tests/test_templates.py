"""Step engines driven by scripted predicates on hand-checkable scenes."""

import pytest

from test_network import DenseEval

from treeflow.bitseq import BitString, index_of
from treeflow.cubes import Cube
from treeflow.network import (
    ConstructionError,
    DelayTable,
    ElementaryNetwork,
    Rational,
)
from treeflow.scheduler import ResourceLimit, ScheduleState, TaskStream
from treeflow.templates import (
    Caps,
    EdgePredicate,
    StepContext,
    class_cube,
    discard_pieces,
    prefix_root,
    t1_step,
    t2_step,
)

B = BitString.from_str
F = Rational


class AlwaysTrue(EdgePredicate):
    def holds(self, x, y):
        return True


class AlwaysFalse(EdgePredicate):
    def holds(self, x, y):
        return False


def fresh_state(depth=64):
    return ScheduleState(TaskStream(), depth)


def ctx_for(net, state, n, i, k=None):
    return StepContext(n=n, i=i, net=net, state=state, k=k)


def drive_t1(depth, predicate_cls=AlwaysTrue):
    net = ElementaryNetwork()
    state = fresh_state(depth)
    stream = TaskStream()
    outcomes = []
    for n in range(1, depth + 1):
        ctx = ctx_for(net, state, n, stream.task(n))
        table, out = t1_step(ctx, predicate_cls(ctx))
        net.commit_level(table, out.edges)
        for e in out.edges:
            state.record_edge(e.task, e.subtask, len(e.target))
        outcomes.append(out)
    return net, state, outcomes


def test_case1_installs_level_default():
    net = ElementaryNetwork()
    state = fresh_state()
    ctx = ctx_for(net, state, 1, 1)
    table, out = t1_step(ctx, AlwaysTrue(ctx))
    assert out.case_taken == 1 and out.w == 1 and not out.edges
    net.commit_level(table, out.edges)
    assert net.delay(B("0")) == F(1, 16)
    assert net.delay(B("1")) == F(1, 16)


def test_source_enumeration_over_the_class_cap_is_a_hit_cap():
    ctx = StepContext(
        n=5, i=2, net=ElementaryNetwork(), state=fresh_state(),
        caps=Caps(class_members=4),
    )
    sources = AlwaysTrue(ctx).iter_sources(Cube.from_pattern("***"), 3)
    with pytest.raises(ResourceLimit) as hit:
        next(sources)
    assert str(hit.value) == (
        "Caps.class_members = 4 exceeded at level 5, task 2, network 1: "
        "source region *** has 8 members"
    )
    small = AlwaysTrue(ctx).iter_sources(Cube.from_pattern("1*0"), 3)
    assert [str(x) for x in small] == ["100", "110"]


def test_beta_numeric_min_and_gap_guard():
    net = ElementaryNetwork()
    state = fresh_state()
    ctx = ctx_for(net, state, 4, 1)
    pred = AlwaysTrue(ctx)
    assert pred.beta(B("01")) == B("0100")
    # Distance 1 is never an edge: the level gate shuts level n - 1, and
    # n itself, so beta is never asked there.
    assert [m for m in range(5) if pred.level_open(m)] == [0, 1, 2]
    ctx2 = ctx_for(net, state, 5, 1)
    assert AlwaysFalse(ctx2).beta(B("01")) is None


def test_t1_sequence_cases_and_values():
    net, state, outcomes = drive_t1(8)
    assert [o.case_taken for o in outcomes] == [1, 3, 1, 2, 1, 1, 2, 1]

    # Step 4 processes both level-1 vertices; their whole subtrees carry
    # s/(1-s) = 1/15 except the zeroed targets.
    step4 = outcomes[3]
    assert [e.source for e in step4.edges] == [B("0"), B("1")]
    assert [e.target for e in step4.edges] == [B("0000"), B("1000")]
    assert all(e.q == F(1, 16) for e in step4.edges)
    assert net.delay(B("0000")) == 0
    assert net.delay(B("0001")) == F(1, 15)
    assert net.delay(B("1111")) == F(1, 15)

    # Step 7 processes the fourteen leftover descendants.
    step7 = outcomes[6]
    assert len(step7.edges) == 14
    assert all(e.q == F(1, 15) for e in step7.edges)
    sources = [e.source for e in step7.edges]
    assert sources == sorted(sources, key=index_of)
    assert net.delay(B("0001000")) == 0
    assert net.delay(B("0001001")) == F(1, 14)

    # The brute-force recurrences agree at every level.
    oracle = DenseEval(net.tables, net.edges, 8)
    for n in range(9):
        agg = net.aggregates[n]
        assert agg.total_R == oracle.total_R(n)
        assert agg.extra_inflow == oracle.inflow(n)
    for v in range(1 << 8):
        x = BitString(8, v)
        assert net.frame_eval(x) == oracle.R[x]
        assert net.flow_eval(x) == oracle.P(x)


def test_t1_no_overlapping_edges_drawn():
    net, _, _ = drive_t1(8)
    for a in net.edges:
        for b in net.edges:
            bad = (
                a.source.is_strict_prefix_of(b.source)
                and b.source.is_strict_prefix_of(a.target)
                and len(a.target) < len(b.target)
            )
            assert not bad


def test_t1_full_delay_source_zeroes_descendants():
    net = ElementaryNetwork()
    t1 = DelayTable(1)
    t1.set_vertex(B("0"), F(1))
    net.commit_level(t1, [])
    net.commit_level(DelayTable(2), [])
    net.commit_level(DelayTable(3), [])
    state = fresh_state()
    ctx = ctx_for(net, state, 4, 1)
    table, out = t1_step(ctx, AlwaysTrue(ctx))
    assert out.case_taken == 2
    (edge,) = out.edges
    assert edge.q == F(1)
    net.commit_level(table, out.edges)
    for v in range(1 << 4):
        assert net.delay(BitString(4, v)) == 0


def test_t1_nested_candidate_subtrees_rejected():
    # Honest runs cannot produce prefix-comparable candidates; a predicate
    # that does must blow up rather than silently merge delay regions.
    net = ElementaryNetwork()
    t1 = DelayTable(1)
    t1.set_vertex(B("0"), F(1, 4))
    net.commit_level(t1, [])
    t2 = DelayTable(2)
    t2.set_vertex(B("00"), F(1, 2))
    net.commit_level(t2, [])
    net.commit_level(DelayTable(3), [])
    state = fresh_state()
    ctx = ctx_for(net, state, 4, 1)
    with pytest.raises(ConstructionError):
        t1_step(ctx, AlwaysTrue(ctx))


def test_designated_processing():
    net = ElementaryNetwork()
    t1 = DelayTable(1)
    t1.set_vertex(B("0"), F(1, 4))
    t1.set_vertex(B("1"), F(1, 4))
    net.commit_level(t1, [])
    net.commit_level(DelayTable(2), [])
    net.commit_level(DelayTable(3), [])
    state = fresh_state()

    # A miss (level-2 vertex is not task-1 typed at its level, has s=0).
    ctx = ctx_for(net, state, 4, 1)
    table, out = t1_step(ctx, AlwaysTrue(ctx), designated=B("00"))
    assert out.case_taken == 3 and not out.edges

    # A designated vertex at or below the level being built is a miss.
    for x in (B("0000"), B("00000")):
        ctx = ctx_for(net, state, 4, 1)
        table, out = t1_step(ctx, AlwaysTrue(ctx), designated=x)
        assert out.case_taken == 3 and not out.edges

    # A hit processes only the designated vertex even though "1" is also
    # a candidate, and writes no discard: the driver does that.
    ctx = ctx_for(net, state, 4, 1)
    table, out = t1_step(ctx, AlwaysTrue(ctx), designated=B("0"))
    assert out.case_taken == 2
    (edge,) = out.edges
    assert edge.source == B("0")
    assert out.discards == ()
    net.commit_level(table, out.edges)
    assert net.delay(B("0000")) == 0
    assert net.delay(B("0001")) == F(1, 3)
    for v in range(1 << 4):
        x = BitString(4, v)
        if str(x)[0] == "1":
            assert net.delay(x) == 0
    net.commit_level(DelayTable(5), [])

    # "0" is still typed at level 1 with s > 0, but it has its edge now;
    # "1" next to it is still processed.
    ctx = ctx_for(net, state, 6, 1)
    table, out = t1_step(ctx, AlwaysTrue(ctx), designated=B("0"))
    assert out.case_taken == 3 and not out.edges
    ctx = ctx_for(net, state, 6, 1)
    table, out = t1_step(ctx, AlwaysTrue(ctx), designated=B("1"))
    assert out.case_taken == 2 and [e.source for e in out.edges] == [B("1")]


def test_discard_pieces_modes():
    # Incomparable image: the whole image subtree dies.
    assert discard_pieces(B("1"), B("0"), 3, "exclude") == [Cube.subtree(B("1"), 3)]
    # Image above the source: everything except the source's branch dies.
    pieces = discard_pieces(B("0"), B("00"), 3, "exclude")
    got = {x for p in pieces for x in p.members()}
    assert got == {x for x in Cube.subtree(B("0"), 3).members()} - {
        x for x in Cube.subtree(B("00"), 3).members()
    }
    for p in pieces:
        prefix_root(p)  # every piece is a subtree region
    # Image below the source: nothing outside the source subtree remains.
    assert discard_pieces(B("00"), B("0"), 3, "exclude") == []
    # Reject mode refuses comparable pairs outright.
    assert discard_pieces(B("00"), B("0"), 3, "reject") is None
    assert discard_pieces(B("1"), B("0"), 3, "reject") == [Cube.subtree(B("1"), 3)]


def install_level(net, level, value):
    net.commit_level(DelayTable(level, default=value), [])


def test_t2_class_replication():
    # Task 2 with a barrier at level 2: the session starts at step 3, so
    # classes free positions 1..2 and each draw replicates four times.
    net = ElementaryNetwork()
    state = fresh_state()
    state.record_edge(1, None, 2)
    install_level(net, 1, F(0))
    install_level(net, 2, F(0))
    install_level(net, 3, F(1, 36))  # what case 1 of step 3 would write
    install_level(net, 4, F(0))

    ctx = ctx_for(net, state, 5, 2, k=1)
    table, out = t2_step(ctx, AlwaysTrue(ctx))
    assert out.case_taken == 2 and out.w == 3 and out.wk == 3
    assert len(out.edges) == 4
    assert {e.source for e in out.edges} == {B("000"), B("010"), B("100"), B("110")}
    assert all(e.q == F(1, 36) for e in out.edges)
    assert all(e.target == e.source.concat(B("00")) for e in out.edges)

    net.commit_level(table, out.edges)
    # Delay writes replicated across classes: targets zero, other
    # descendants of the class 1/35, everything else zero.
    assert net.delay(B("00000")) == 0
    assert net.delay(B("11000")) == 0
    assert net.delay(B("00001")) == F(1, 35)
    assert net.delay(B("01010")) == F(1, 35)
    assert net.delay(B("00100")) == 0  # bit 3 set: outside the class region
    assert net.delay(B("10111")) == 0
    for v in range(1 << 5):
        x = BitString(5, v)
        mate = BitString(5, v ^ (1 << 4))  # flip position 1
        assert net.delay(x) == net.delay(mate)


def test_class_cube_is_the_literal_suffix_class():
    # Oracle: the level strings agreeing with x at positions w..len(x).
    for length in range(1, 6):
        level = [BitString(length, v) for v in range(1 << length)]
        for w in range(1, length + 1):
            for x in level:
                want = {
                    u
                    for u in level
                    if str(u)[w - 1 :] == str(x)[w - 1 :]
                }
                assert set(class_cube(x, w).members()) == want


def test_t2_subsession_overflow_and_misses():
    net = ElementaryNetwork()
    state = fresh_state()
    state.record_edge(1, None, 2)
    install_level(net, 1, F(0))
    install_level(net, 2, F(0))
    ctx = ctx_for(net, state, 8, 2, k=9)  # 9 > 2^w = 8
    table, out = t2_step(ctx, AlwaysTrue(ctx))
    assert out.case_taken == 3 and "beyond subtree count" in out.note
    assert all(s == 0 for _, s in table.s_partition()) and not out.edges

    ctx = ctx_for(net, state, 3, 2, k=1)
    table, out = t2_step(ctx, AlwaysTrue(ctx))
    assert out.case_taken == 1 and out.wk == 3
    assert table.delay(B("101")) == F(1, 36)


def test_t2_conflicting_class_writes_fatal():
    # Two candidates whose class regions nest (impossible in honest runs)
    # must be detected when their delay writes collide.
    net = ElementaryNetwork()
    state = fresh_state()
    t1 = DelayTable(1)
    t1.set_vertex(B("0"), F(1, 4))
    net.commit_level(t1, [])
    t2 = DelayTable(2)
    t2.set_vertex(B("00"), F(1, 2))
    net.commit_level(t2, [])
    for lvl in (3, 4, 5, 6):
        install_level(net, lvl, F(0))
    ctx = ctx_for(net, state, 7, 1, k=1)
    with pytest.raises(ConstructionError):
        t2_step(ctx, AlwaysTrue(ctx))
