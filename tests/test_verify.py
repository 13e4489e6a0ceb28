"""Checks over finished runs, and controls that corrupt a bundle in one
place and watch exactly one check trip."""

import dataclasses
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

from hypothesis import example, given, settings, strategies as st

from treeflow.bitseq import BitString, index_of
from treeflow.cubes import Cube, subtract_many
from treeflow import dense
from treeflow.constructions import PRESETS, RunConfig, build
from treeflow.network import ElementaryNetwork, ExtraEdge, LevelAggregates, rat_str
from treeflow.operators import (
    TableOperator,
    TransducerOperator,
    apply_modified,
    const_operator,
)
from treeflow.scheduler import ResourceLimit
from treeflow.verify import (
    _acting_net,
    _active_tasks,
    _frame_total,
    _inflow,
    _level_mismatch,
    _level_tasks,
    _longest_image,
    _meeting_pairs,
    _pre_mass,
    _stable_tasks,
    _unhalved,
    check_conservation,
    check_delay_form,
    check_discards,
    check_extension_shadow,
    check_ratio_identity,
    check_separators,
    check_sn_bound,
    dense_oracle,
    run_checks,
)

DEFAULT_NAMES = [
    "delay_form",
    "no_overlap",
    "conservation",
    "sn_bound",
    "duplication",
    "ratio_identity",
    "separators",
    "discards",
]


def _by_name(reports):
    return {r.name: r for r in reports}


def _assert_only_fails(reports, target):
    by = _by_name(reports)
    assert not by[target].passed, f"{target} did not trip"
    leaked = [
        (n, r.witness) for n, r in by.items() if n != target and not r.passed
    ]
    assert leaked == [], leaked
    return by[target]


@pytest.fixture(scope="module")
def hyper32():
    return build(RunConfig(preset="hyperimmune", depth=32))



@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_all_checks_clean_at_depth_12(preset):
    reports = run_checks(build(RunConfig(preset=preset, depth=12)))
    names = [r.name for r in reports]
    assert names[: len(DEFAULT_NAMES)] == DEFAULT_NAMES
    if preset in ("nonstochastic", "atom"):
        assert names[-1] == "extension_shadow"
    failed = [(r.name, r.witness) for r in reports if not r.passed]
    assert failed == []


def test_report_payload_shape():
    reports = run_checks(build(RunConfig(preset="atom", depth=8)))
    for r in reports:
        payload = r.to_payload()
        assert payload["name"] == r.name
        assert payload["passed"] is True
        assert isinstance(payload["details"], dict)
        assert payload["levels"] == [0, 8]
        assert payload["runtime"] >= 0


def test_unknown_check_name_rejected():
    b = build(RunConfig(preset="atom", depth=6))
    with pytest.raises(KeyError):
        run_checks(b, names=["delay_form", "bogus"])


def test_deep_multi_network_run_clean(hyper32):
    reports = run_checks(hyper32)
    failed = [(r.name, r.witness) for r in reports if not r.passed]
    assert failed == []
    by = _by_name(reports)
    assert sum(len(net.edges) for net in hyper32.networks) == 36
    assert len(hyper32.discards) == 4
    assert by["duplication"].details["classes"] >= 2
    assert 1 in by["ratio_identity"].details["covered"]


def test_deep_sparse_smoke():
    b = build(RunConfig(preset="family", depth=48))
    assert sum(len(net.edges) for net in b.networks) == 1
    assert len(b.discards) == 1
    names = ["delay_form", "no_overlap", "conservation", "sn_bound", "duplication"]
    failed = [(r.name, r.witness) for r in run_checks(b, names=names) if not r.passed]
    assert failed == []


def test_ratio_identity_covers_every_task_at_depth_20():
    for preset in ("atom", "family"):
        b = build(RunConfig(preset=preset, depth=20))
        rep = check_ratio_identity(b)
        assert rep.passed, rep.witness
        assert rep.details["covered"] == [1, 2, 3, 4, 5]
        assert Fraction(rep.details["task_coverage"]) >= Fraction(4, 5)


def test_ratio_identity_coverage_bar_can_trip(hyper32):
    # Deep runs reset most session starts, so only a couple of tasks have
    # settled levels to draw pairs from; the reported coverage says so,
    # and a strict bar over it has to notice.
    rep = check_ratio_identity(hyper32)
    assert Fraction(rep.details["task_coverage"]) < Fraction(4, 5)
    assert rep.details["covered"] == [1, 2]
    assert rep.details["task_coverage"] == "2/7"
    assert rep.details["coverage"]["walk"] == "exhaustive"


def _compared_levels(bundle):
    """task -> (w, the levels m >= w of the task with no unsettled task in
    (w, m]) for the settled tasks: the levels the ratio check compares."""
    stable = _stable_tasks(bundle, _level_tasks(bundle))
    task = bundle.state.stream.task
    out = {}
    for i, w in sorted(stable.items()):
        out[i] = w, [
            m
            for m in range(w, bundle.depth + 1)
            if task(m) == i and all(task(n) in stable for n in range(w + 1, m + 1))
        ]
    return out


def _ratio_pairs_brute_force(bundle):
    """((task, level) of the first failing pair or None, covered tasks),
    over every pair y, z of every level the ratio check compares.

    All pairs of a tail satisfy P(y) P(z[:w]) = P(z) P(y[:w]) exactly
    when P(y) / P(y[:w]) takes one value over the heads whose prefix
    flow is not zero, so each tail collects that set of ratios."""
    covered = set()
    for i, (w, levels) in _compared_levels(bundle).items():
        net = bundle.network(_acting_net(bundle, i))
        roots = [net.flow_eval(BitString(w, v)) for v in range(1 << w)]
        for m in levels:
            low = m - w + 1
            for tail in range(1 << low):
                ratios = set()
                for head in range(1 << (w - 1)):
                    root = roots[(head << 1) | (tail >> (low - 1))]
                    if root:
                        y = BitString(m, (head << low) | tail)
                        ratios.add(net.flow_eval(y) / root)
                if ratios:
                    covered.add(i)
                if len(ratios) > 1:
                    return (i, m), covered
    return None, covered


def _assert_genuine_ratio_witness(bundle, witness):
    net = bundle.network(witness["network"])
    y = BitString.from_str(witness["y"])
    z = BitString.from_str(witness["z"])
    w = witness["w"]
    assert y.suffix_from(w) == z.suffix_from(w)
    py, pz = net.flow_eval(y), net.flow_eval(z)
    ry, rz = net.flow_eval(y.truncate(w)), net.flow_eval(z.truncate(w))
    assert [rat_str(v) for v in (py, pz, ry, rz)] == [
        witness["P_y"], witness["P_z"], witness["P_y_root"], witness["P_z_root"]
    ]
    assert ry and rz
    assert py * rz != pz * ry


def _below_session_starts(bundle):
    """(m, acting network, w) for the compared levels below a session
    start with a head, deepest first."""
    return sorted(
        (
            (m, bundle.network(_acting_net(bundle, i)), w)
            for i, (w, levels) in _compared_levels(bundle).items()
            for m in levels
            if m > w > 1
        ),
        key=lambda hit: hit[0],
        reverse=True,
    )


def _triple_half_an_item(bundle) -> bool:
    """Cut the first frame item that leaves a head bit free, on the deepest
    compared level below a session start, and triple one half."""
    hits = _below_session_starts(bundle)
    if not hits:
        return False
    m, net, w = hits[0]
    frame = net.frames[m]
    heads = ((1 << (w - 1)) - 1) << (m - w + 1)
    k, (c, v) = next(
        (k, item) for k, item in enumerate(frame) if heads & ~item[0].care
    )
    bit = 1 << ((heads & ~c.care).bit_length() - 1)
    frame[k : k + 1] = [
        (Cube(m, c.care | bit, c.value), v),
        (Cube(m, c.care | bit, c.value | bit), 3 * v),
    ]
    return True


def _triple_an_edge_in_transit(bundle) -> bool:
    """Triple the weight of the first edge in transit over a compared level
    below a session start. flow_eval reads the network's lookup table and
    the check its edge list, so both get the new edge."""
    for m, net, w in _below_session_starts(bundle):
        for k, e in enumerate(net.edges):
            if len(e.source) < m < len(e.target):
                net.edges[k] = dataclasses.replace(e, q=3 * e.q)
                net._out_edges[len(e.source)][e.source.value] = net.edges[k]
                return True
    return False


@pytest.mark.parametrize("preset", ["atom", "family", "hyperimmune"])
def test_ratio_identity_matches_all_pairs_brute_force(preset):
    failing = 0
    for depth in range(1, 13):
        for corrupt in (None, _triple_half_an_item):
            b = build(RunConfig(preset=preset, depth=depth))
            if corrupt is not None and not corrupt(b):
                continue
            rep = check_ratio_identity(b)
            first, covered = _ratio_pairs_brute_force(b)
            if first is None:
                assert rep.passed or "y" not in (rep.witness or {}), rep.witness
                assert rep.details["covered"] == sorted(covered)
            else:
                failing += 1
                assert not rep.passed
                assert (rep.witness["task"], len(rep.witness["y"])) == first
                _assert_genuine_ratio_witness(b, rep.witness)
    assert failing > 0


def test_tripled_edge_in_transit_trips_ratio_identity():
    # Part of P is mass in transit: at depth 20, 32 edges drawn at step 18
    # pass over level 8, where task 2 (w = 3) compares flows, one under
    # each head. Tripling one of them breaks the proportionality there.
    b = build(RunConfig(preset="hyperimmune", depth=20))
    assert check_ratio_identity(b).passed
    assert _triple_an_edge_in_transit(b)
    rep = check_ratio_identity(b)
    assert not rep.passed
    _assert_genuine_ratio_witness(b, rep.witness)


def test_level_mismatch_compares_from_one_level_below_w():
    # No bundle here has a compared level m = w + 1, so pieces stand in.
    # P_w is 2 on 00 and 1 elsewhere; at m = w P_m is P_w, and the
    # identity reads P(y) P(z) = P(z) P(y): regions counted, none differs.
    w_pieces = [(0b11, 0b00, 1), (0, 0, 1)]
    walk = {"regions": 0, "zero_prefix_regions": 0}
    assert _level_mismatch(w_pieces, w_pieces, 0, walk) is None
    assert walk == {"regions": 4, "zero_prefix_regions": 0}
    # At m = w + 1, P(000) = 3 and P(001) = 1 under head 0, against 1 and
    # 1 under head 1: the tail maps of b = 0 differ at tail 0.
    m_pieces = [(0b111, 0b000, 2), (0, 0, 1)]
    walk = {"regions": 0, "zero_prefix_regions": 0}
    assert _level_mismatch(m_pieces, [(0, 0, 1)], 1, walk) == (0, 0, 1, 0)


def _halve_head_region(bundle, net_id, head, level):
    """Delay 1/2 on the level-`level` vertices under `head`, with every
    level below recommitted, so frames and aggregates stay consistent."""
    net = bundle.network(net_id)
    net.tables[level].add_suffix([(Cube.subtree(head, level), Fraction(1, 2))])
    fresh = ElementaryNetwork(net_id)
    fresh.tables[0] = net.tables[0]
    landing = {}
    for e in net.edges:
        landing.setdefault(len(e.target), []).append(e)
    for n in range(1, bundle.depth + 1):
        fresh.commit_level(net.tables[n], landing.get(n, []))
    net.frames[:] = fresh.frames
    net.aggregates = fresh.aggregates


def test_scaled_deep_head_region_trips_only_ratio_identity():
    # Task 5 of atom-24 starts its session at w = 15. Halving the flow
    # below one of its 2^14 heads from level 16 on keeps every level
    # balanced, so only the proportionality of flows to their width-w
    # prefixes is broken; a 1,000-pair sample almost never draws a pair
    # with that head (the seeded one did not).
    b = build(RunConfig(preset="atom", depth=24))
    w = 15
    head = BitString(w - 1, 0b1011 << (w - 5))
    assert check_ratio_identity(b).passed
    _halve_head_region(b, 1, head, w)
    rep = _assert_only_fails(run_checks(b), "ratio_identity")
    _assert_genuine_ratio_witness(b, rep.witness)
    y, z = rep.witness["y"], rep.witness["z"]
    assert str(head) in (y[: w - 1], z[: w - 1])


def test_poked_delay_value_trips_only_delay_form():
    b = build(RunConfig(preset="nonstochastic", depth=12))
    table = b.network(1).tables[-1]
    table.vertex[BitString(12, 0)] = Fraction(2, 5)
    table._partition = None
    rep = _assert_only_fails(run_checks(b), "delay_form")
    assert rep.witness["value"] == "2/5"
    assert rep.witness["level"] == 12


POKED_PLACES = {
    "default": None,
    "vertex": "000000000101",
    "suffix": "*1**********",
    "subtree": "110",
}


@pytest.mark.parametrize("kind", sorted(POKED_PLACES))
def test_a_poked_delay_is_reported_with_its_kind_and_place(kind):
    b = build(RunConfig(preset="nonstochastic", depth=12))
    table = b.network(1).tables[-1]
    where, bad = POKED_PLACES[kind], Fraction(2, 5)
    if kind == "default":
        table.default = bad
    elif kind == "vertex":
        table.vertex[BitString.from_str(where)] = bad
    elif kind == "suffix":
        table.suffix.append((Cube.from_pattern(where), bad))
    else:
        table.subtree[BitString.from_str(where)] = bad
    table._partition = None
    rep = check_delay_form(b)
    assert not rep.passed
    assert rep.witness == {
        "network": 1, "level": 12, "kind": kind, "where": where, "value": "2/5"
    }


def test_nested_edge_pair_trips_only_no_overlap():
    b = build(RunConfig(preset="nonstochastic", depth=12))
    net = b.network(1)
    # Weightless pair sitting below every settled session start, so the
    # crossing structure is the only thing wrong with it.
    outer = ExtraEdge(
        source=BitString(10, 0),
        target=BitString(12, 0),
        q=Fraction(0),
        task=1,
        subtask=None,
        network_id=1,
        step_drawn=4,
    )
    inner = ExtraEdge(
        source=BitString(11, 0),
        target=BitString(13, 0),
        q=Fraction(0),
        task=1,
        subtask=None,
        network_id=1,
        step_drawn=4,
    )
    net.edges.extend([outer, inner])
    rep = _assert_only_fails(run_checks(b), "no_overlap")
    assert rep.witness["outer"] == ["0" * 10, "0" * 12]
    assert rep.witness["inner"] == ["0" * 11, "0" * 13]


def test_corrupted_weight_trips_only_conservation():
    b = build(RunConfig(preset="nonstochastic", depth=12))
    net = b.network(1)
    e = net.edges[0]
    # Flat list only: flow paths keep using the clean lookup table, so
    # the mismatch shows up as stored inflow, not everywhere at once.
    net.edges[0] = dataclasses.replace(e, q=e.q * 2)
    rep = _assert_only_fails(run_checks(b), "conservation")
    assert rep.witness["identity"] == "stored inflow"
    assert rep.witness["level"] == len(e.target)


def test_raised_stored_total_trips_only_conservation():
    b = build(RunConfig(preset="nonstochastic", depth=12))
    net = b.network(1)
    agg = net.aggregates[5]
    raised = agg.total_R + Fraction(1, 1 << 40)
    # A raised total raises s_n too, so sn_bound still passes.
    net.aggregates[5] = LevelAggregates(raised, agg.extra_inflow)
    rep = _assert_only_fails(run_checks(b), "conservation")
    assert rep.witness == {
        "network": 1,
        "level": 5,
        "identity": "stored total",
        "lhs": rat_str(agg.total_R),
        "rhs": rat_str(raised),
    }


def test_lowered_last_frame_item_trips_only_conservation_balance():
    b = build(RunConfig(preset="nonstochastic", depth=12))
    net = b.network(1)
    frame = net.frames[12]
    before = net.aggregates[12]
    # Halve the smallest item of the last frame and store the total that
    # results: the stored total agrees, the push from level 11 does not.
    # A lowered child keeps every separator halving and all support.
    k = min(range(len(frame)), key=lambda i: frame[i][1] * frame[i][0].count())
    cube, v = frame[k]
    net.frames[12] = frame[:k] + [(cube, v / 2)] + frame[k + 1:]
    lowered = before.total_R - v / 2 * cube.count()
    net.aggregates[12] = LevelAggregates(lowered, before.extra_inflow)
    rep = _assert_only_fails(run_checks(b), "conservation")
    assert rep.witness == {
        "network": 1,
        "level": 12,
        "identity": "level balance",
        "lhs": rat_str(lowered),
        "rhs": rat_str(before.total_R),
    }


def test_discard_record_without_its_cubes_trips_only_conservation():
    # family-12 silences 0000000 on network 2 at step 7, its one discard.
    b = build(RunConfig(preset="family", depth=12))
    (d,) = b.discards
    assert (d.network_id, d.edge.step_drawn) == (2, 7)
    assert [c.pattern() for c in d.cubes] == ["0000000"]
    # Same edge and bound, so the allowance and the mass bound hold.
    b.discards[0] = dataclasses.replace(d, cubes=())
    rep = _assert_only_fails(run_checks(b), "conservation")
    assert rep.witness == {
        "network": 2,
        "level": 7,
        "identity": "unrecorded dead region",
        "region": "0000000",
    }


def test_record_of_a_live_region_trips_only_conservation():
    # The children 0000000* of family-12's silenced vertex get no mass and
    # pass none on, so a record of them at step 8 meets the discard bound
    # and the zero-flow test; only their delay, s < 1, betrays it.
    b = build(RunConfig(preset="family", depth=12))
    (d,) = b.discards
    below = Cube.from_pattern("0000000*")
    assert all(s != 1 for c, s in b.network(2).tables[8].s_partition() if c.overlap(below))
    b.discards.append(
        dataclasses.replace(
            d, cubes=(below,), edge=dataclasses.replace(d.edge, step_drawn=8)
        )
    )
    rep = _assert_only_fails(run_checks(b), "conservation")
    assert rep.witness == {
        "network": 2,
        "level": 8,
        "identity": "recorded region not silenced",
        "region": "0000000*",
    }


def test_moved_class_member_trips_only_duplication(hyper32):
    b = build(RunConfig(preset="hyperimmune", depth=32))
    net = b.network(1)
    batch = sorted(
        (e for e in net.edges if e.step_drawn == 18),
        key=lambda e: e.source.value,
    )
    assert len(batch) == 32
    first, second = batch[0], batch[1]
    # Same class, same weight, same tail, but two members now share one
    # free prefix. Sources at this level still carry equal mass, so the
    # level balance stays intact.
    moved = dataclasses.replace(second, source=first.source, target=first.target)
    net.edges[net.edges.index(second)] = moved
    rep = _assert_only_fails(run_checks(b), "duplication")
    assert rep.witness["network"] == 1
    assert rep.witness["size"] == 32
    assert rep.witness["expected_size"] == 32


def test_sn_bound_budget_leaves_out_discards_from_their_step():
    # hyperimmune-32 books its discards on network 2 from step 30 on. The
    # budget at a level leaves out the allowance of every discard drawn up
    # to and at that level, so a share of exactly that budget passes.
    b = build(RunConfig(preset="hyperimmune", depth=32))
    rho = b.config.rho_base
    loss = sum(Fraction(1, (n + rho) ** 2) for n in range(1, 31))
    allowance = sum(
        (d.bound for d in b.discards if d.network_id == 2 and d.edge.step_drawn <= 30),
        Fraction(0),
    )
    assert allowance > 0
    budget = 1 - loss - allowance
    aggregates = b.network(2).aggregates
    aggregates[30] = LevelAggregates(budget, Fraction(0))
    assert check_sn_bound(b).passed
    aggregates[30] = LevelAggregates(budget - Fraction(1, 1 << 80), Fraction(0))
    rep = check_sn_bound(b)
    assert not rep.passed
    assert rep.witness == {
        "network": 2,
        "level": 30,
        "s_n": rat_str(budget - Fraction(1, 1 << 80)),
        "budget": rat_str(budget),
    }


def test_sn_bound_budget_leaves_out_only_the_networks_own_discards():
    # hyperimmune-32's discards are all on network 2, so network 1's
    # budget at level 30 is the install loss alone.
    b = build(RunConfig(preset="hyperimmune", depth=32))
    assert {d.network_id for d in b.discards} == {2}
    rho = b.config.rho_base
    budget = 1 - sum(Fraction(1, (n + rho) ** 2) for n in range(1, 31))
    low = budget - Fraction(1, 1 << 80)
    aggregates = b.network(1).aggregates
    aggregates[30] = LevelAggregates(budget, Fraction(0))
    assert check_sn_bound(b).passed
    aggregates[30] = LevelAggregates(low, Fraction(0))
    rep = check_sn_bound(b)
    assert not rep.passed
    assert rep.witness == {
        "network": 1,
        "level": 30,
        "s_n": rat_str(low),
        "budget": rat_str(budget),
    }


def test_edge_across_session_start_trips_only_separators():
    b = build(RunConfig(preset="nonstochastic", depth=12))
    net = b.network(1)
    spanner = ExtraEdge(
        source=BitString(2, 0b11),
        target=BitString(5, 0b11000),
        q=Fraction(0),
        task=1,
        subtask=None,
        network_id=1,
        step_drawn=4,
    )
    net.edges.append(spanner)
    rep = _assert_only_fails(run_checks(b), "separators")
    assert rep.witness["task"] == 2
    assert rep.witness["w"] == 5
    assert rep.witness["edge"] == ["11", "11000"]


def test_raised_frame_value_trips_separators_at_that_vertex():
    b = build(RunConfig(preset="nonstochastic", depth=12))
    net = b.network(1)
    clean = check_separators(b)
    assert clean.passed
    n = max(clean.details["separators"]["1"])
    # The right child of its parent: its sibling is checked first and
    # passes. No edge is in transit over a separator level or the level
    # above it, so P is R on both.
    x = BitString(n, 5)
    parent = BitString(n - 1, 2)
    r_x = net.frame_eval(x)
    r_parent = net.frame_eval(parent)
    point = Cube.vertex(x)
    net.frames[n] = [(point, r_x + 1)] + [
        (piece, v) for c, v in net.frames[n] for piece in c.subtract(point)
    ]
    rep = check_separators(b)
    assert not rep.passed
    assert rep.witness == {
        "network": 1,
        "level": n,
        "vertex": str(x),
        "P": rat_str(r_x + 1),
        "P_parent": rat_str(r_parent),
    }


def test_separators_report_their_coverage_per_level():
    b = build(RunConfig(preset="family", depth=20))
    rep = check_separators(b)
    assert rep.passed, rep.witness
    coverage = rep.details["coverage"]
    assert sorted(coverage) == ["1", "2", "3"]
    for net_id, rows in coverage.items():
        levels = [n for n in rep.details["separators"][net_id] if n > 0]
        assert [row["level"] for row in rows] == levels
        for row in rows:
            assert row["walk"] == "exhaustive"
            assert row["vertices"] == 1 << row["level"]


def _set_frame_value(net, x, value):
    """R(x) = value; a zero leaves x under no frame item."""
    point = Cube.vertex(x)
    n = len(x)
    rest = [(p, v) for c, v in net.frames[n] for p in c.subtract(point)]
    net.frames[n] = [(point, value)] + rest if value else rest


@pytest.mark.parametrize("corruption", ["raised child", "emptied parent"])
def test_deep_frame_corruption_trips_separators(corruption):
    # 0^24 is one vertex of 2^24 on separator level 24: a per-level
    # sample of a few hundred vertices misses it, the exact walk does not.
    b = build(RunConfig(preset="nonstochastic", depth=24))
    net = b.network(1)
    assert check_separators(b).details["separators"]["1"][-2:] == [23, 24]
    x = BitString(24, 0)
    r_x = net.frame_eval(x)
    r_parent = net.frame_eval(x.truncate(23))
    if corruption == "raised child":
        r_x += 1
        _set_frame_value(net, x, r_x)
    else:
        r_parent = Fraction(0)
        _set_frame_value(net, x.truncate(23), r_parent)
    rep = check_separators(b)
    assert not rep.passed
    assert rep.witness == {
        "network": 1,
        "level": 24,
        "vertex": str(x),
        "P": rat_str(r_x),
        "P_parent": rat_str(r_parent),
    }


def _pairwise_unhalved(children, parents):
    """The separators walk before bucketing, kept as the oracle: every
    child item against every parent item."""
    below = [(p.extend(1), u) for p, u in parents]
    for c, v in children:
        under = []
        for b, u in below:
            inter = c.intersect(b)
            if inter is not None:
                under.append(b)
                if 2 * v > u:
                    yield inter, v, u
        if v > 0:
            for rest in subtract_many(c, under):
                yield rest, v, Fraction(0)


_POOL = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)]


def _random_frame(rng, length, rounds, pool=_POOL, keep=0.9):
    """A disjoint cube map of one level: the whole level cut along random
    free positions, some pieces dropped, values from a small pool."""
    cubes = [Cube.whole_level(length)]
    for _ in range(rounds):
        splittable = [k for k, c in enumerate(cubes) if c.count() > 1]
        if not splittable:
            break
        c = cubes.pop(rng.choice(splittable))
        bit = rng.choice([1 << s for s in range(length) if not c.care >> s & 1])
        cubes += [Cube(length, c.care | bit, c.value), Cube(length, c.care | bit, c.value | bit)]
    rng.shuffle(cubes)
    return [(c, rng.choice(pool)) for c in cubes if rng.random() < keep]


def _staircase(length, heads):
    """Nested-prefix cubes 0^k 1 *..., under each head pattern: the frame
    shape of the deep separator levels."""
    out = []
    for head in heads:
        for k in range(length - len(head)):
            rest = length - len(head) - k - 1
            out.append(Cube.from_pattern(head + "0" * k + "1" + "*" * rest))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.randoms(use_true_random=False))
def test_bucketed_unhalved_matches_the_pairwise_walk(length, rng):
    children = _random_frame(rng, length, rng.randrange(120))
    parents = _random_frame(rng, length - 1, rng.randrange(120))
    a, b = [c for c, _ in children], [p.extend(1) for p, _ in parents]
    assert _meeting_pairs(a, b) == [
        (i, j) for i in range(len(a)) for j in range(len(b)) if a[i].intersect(b[j])
    ]
    assert list(_unhalved(children, parents)) == list(
        _pairwise_unhalved(children, parents)
    )


def _grid(length, low, high):
    """Every cube that pins exactly positions low..high-1."""
    return [
        Cube.from_pattern("*" * low + format(v, f"0{high - low}b") + "*" * (length - high))
        for v in range(1 << (high - low))
    ]


@pytest.mark.parametrize("shape", ["staircases", "crossed grids"])
def test_bucketed_unhalved_matches_the_pairwise_walk_on_shapes(shape):
    if shape == "staircases":
        heads = ["00", "01", "1*", "*1"]
        child_cubes, parent_cubes = _staircase(40, heads), _staircase(39, heads[1:])
    else:
        # No bit is pinned on both sides, so every pair meets.
        child_cubes, parent_cubes = _grid(12, 0, 6), _grid(11, 6, 11)
    children = [(c, Fraction(1, 2 + k % 3)) for k, c in enumerate(child_cubes)]
    parents = [(c, Fraction(1, 1 + k % 4)) for k, c in enumerate(parent_cubes)]
    a, b = [c for c, _ in children], [p.extend(1) for p, _ in parents]
    assert _meeting_pairs(a, b) == [
        (i, j) for i in range(len(a)) for j in range(len(b)) if a[i].intersect(b[j])
    ]
    assert list(_unhalved(children, parents)) == list(
        _pairwise_unhalved(children, parents)
    )


@pytest.mark.parametrize("corruption", [None, "raised child", "emptied parent"])
def test_bucketed_unhalved_matches_the_pairwise_walk_on_bundles(corruption):
    b = build(RunConfig(preset="nonstochastic", depth=40))
    net = b.network(1)
    x = BitString(24, 0)
    if corruption == "raised child":
        _set_frame_value(net, x, net.frame_eval(x) + 1)
    elif corruption == "emptied parent":
        _set_frame_value(net, x.truncate(23), Fraction(0))
    assert max(len(frame) for frame in net.frames) > 100
    for n in range(1, b.depth + 1):
        assert list(_unhalved(net.frames[n], net.frames[n - 1])) == list(
            _pairwise_unhalved(net.frames[n], net.frames[n - 1])
        ), n


def _frame_total_longhand(net, n):
    """A frame's total, one Fraction product and sum per item."""
    return sum((v * c.count() for c, v in net.frames[n]), Fraction(0))


def _pre_mass_longhand(net, level, cubes):
    """The mass arriving at `cubes`, Fraction by Fraction: every part with
    s != 1 against every frame item, and each child vertex they share
    counted in each cube through the intersected and extended cubes."""
    total = Fraction(0)
    for part, s in net.tables[level - 1].s_partition():
        if s == 1:
            continue
        for c, v in net.frames[level - 1]:
            common = c.intersect(part)
            if common is None or not v:
                continue
            child = common.extend(1)
            total += v * (1 - s) / 2 * sum(child.overlap(cube) for cube in cubes)
    return total


def _counted_fraction(counts):
    """The sum of k * a / d over the entries (a, d): k, as one Fraction:
    the sums as the checks made them before they returned pairs."""
    common = lcm(*(d for _, d in counts))
    return Fraction(sum(a * k * (common // d) for (a, d), k in counts.items()), common)


def _frame_total_fraction(net, n):
    """A frame's total as one Fraction, counted per value's integers."""
    counts = {}
    for c, v in net.frames[n]:
        key = (v.numerator, v.denominator)
        counts[key] = counts.get(key, 0) + c.count()
    return _counted_fraction(counts)


def _pre_mass_fraction(net, level, cubes):
    """The mass arriving at `cubes` as one Fraction, each meeting pair's
    child vertices counted in each cube from the masks."""
    hits = {}
    parts = [(c, s) for c, s in net.tables[level - 1].s_partition() if s != 1]
    items = [(c, v) for c, v in net.frames[level - 1] if v]
    masks = [(cube.care, cube.value) for cube in cubes]
    for j, i in _meeting_pairs([c for c, _ in parts], [c for c, _ in items]):
        (c2, s), (c, v) = parts[j], items[i]
        care = (c.care | c2.care) << 1
        value = (c.value | c2.value) << 1
        k = 0
        for cube_care, cube_value in masks:
            if not (value ^ cube_value) & care & cube_care:
                k += 1 << (level - (care | cube_care).bit_count())
        if k:
            key = (
                v.numerator * (s.denominator - s.numerator),
                2 * v.denominator * s.denominator,
            )
            hits[key] = hits.get(key, 0) + k
    return _counted_fraction(hits)


def _pair_value(pair):
    """The value of a sum's (num, den) pair, whose den must be positive."""
    num, den = pair
    assert den > 0
    return Fraction(num, den)


def _bare_net(level, frame, partition=None):
    """What the sums read of a network: the frame of one level and a table
    there with a fixed s partition."""
    table = SimpleNamespace(s_partition=lambda: partition)
    return SimpleNamespace(frames={level: frame}, tables={level: table})


_VALUES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(5, 12)]
_DELAYS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 8)]
_KEEP = st.sampled_from([0.0, 0.5, 0.9, 1.0])  # 0.0 makes an empty frame


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10), _KEEP, st.randoms(use_true_random=False))
def test_frame_total_is_the_fraction_sum(length, keep, rng):
    frame = _random_frame(rng, length, rng.randrange(60), _VALUES, keep)
    net = _bare_net(length, frame)
    total = _pair_value(_frame_total(net, length))
    assert total == _frame_total_fraction(net, length)
    assert total == _frame_total_longhand(net, length)


def _random_cube(rng, length):
    care = rng.getrandbits(length) if length else 0
    return Cube(length, care, rng.getrandbits(length) & care if length else 0)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10),
    _KEEP,
    st.sampled_from(["whole level", "children", "random"]),
    st.randoms(use_true_random=False),
)
def test_pre_mass_is_the_fraction_sum(level, keep, where, rng):
    parts = _random_frame(rng, level - 1, rng.randrange(40), _DELAYS, 1.0)
    items = _random_frame(rng, level - 1, rng.randrange(60), _VALUES, keep)
    net = _bare_net(level - 1, items, parts)
    if where == "whole level":
        cubes = [Cube.whole_level(level)]
    elif where == "children":
        # several cubes, each a child region with one of its free bits
        # pinned or one of its pins freed: they cut across the children
        cubes = []
        for c, _ in rng.sample(items, min(len(items), 4)):
            below = c.extend(1)
            bit = 1 << rng.randrange(level)
            care = below.care ^ bit
            cubes.append(Cube(level, care, (below.value | bit) & care))
    else:
        cubes = [_random_cube(rng, level) for _ in range(rng.randrange(1, 5))]
    mass = _pair_value(_pre_mass(net, level, cubes))
    assert mass == _pre_mass_fraction(net, level, cubes)
    assert mass == _pre_mass_longhand(net, level, cubes)


def test_pre_mass_of_silenced_parts_and_no_cubes_is_zero():
    items = [(Cube.from_pattern("0*"), Fraction(1, 2)), (Cube.from_pattern("1*"), Fraction(1, 4))]
    dead = _bare_net(2, items, [(Cube.whole_level(2), Fraction(1))])
    assert _pair_value(_pre_mass(dead, 3, [Cube.whole_level(3)])) == 0
    live = _bare_net(2, items, [(Cube.whole_level(2), Fraction(1, 2))])
    assert _pair_value(_pre_mass(live, 3, [])) == 0
    assert _pair_value(_pre_mass(live, 3, [Cube.whole_level(3)])) == Fraction(3, 4)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_DELAYS[1:]), st.sampled_from(_VALUES)), max_size=8
    )
)
def test_inflow_is_the_fraction_sum(landing):
    # Edges of weight q from sources of value R, two on each source; the
    # stand-in network answers frame_eval from the sources' values.
    sources = [BitString(3, k) for k in range(len(landing))]
    values = {x: r for x, (_, r) in zip(sources, landing)}
    net = SimpleNamespace(frame_eval=values.__getitem__)
    edges = [
        SimpleNamespace(q=q, source=sources[k // 2])
        for k, (q, _) in enumerate(landing)
    ]
    want = sum((e.q * values[e.source] for e in edges), Fraction(0))
    assert _pair_value(_inflow(net, edges)) == want


def _sn_budgets_longhand(bundle):
    """{(network, level): budget}, by the per-network loop that sums the
    loss and each level's allowance afresh."""
    rho = bundle.config.rho_base
    out = {}
    for net in bundle.networks:
        loss = Fraction(0)
        for n in range(bundle.depth + 1):
            if n >= 1:
                loss += Fraction(1, (n + rho) ** 2)
            allowance = sum(
                (
                    d.bound
                    for d in bundle.discards
                    if d.network_id == net.network_id and d.edge.step_drawn <= n
                ),
                Fraction(0),
            )
            out[net.network_id, n] = 1 - loss - allowance
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 12),
    st.integers(1, 4),
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(-2, 14), st.integers(2, 9)),
        max_size=8,
    ),
)
@example(6, 2, [(1, 3, 2), (1, 3, 5), (2, 2, 3), (2, 3, 4)])
def test_sn_bound_budgets_are_the_per_network_loop(depth, rho, drawn):
    # Discards on any of three networks, several at one step, some drawn
    # before level 0 or past the depth; network 3 is not in the bundle.
    discards = [
        SimpleNamespace(
            network_id=k, edge=SimpleNamespace(step_drawn=step), bound=Fraction(1, 1 << e)
        )
        for k, step, e in drawn
    ]
    networks = [
        SimpleNamespace(network_id=k, aggregates=[None] * (depth + 1)) for k in (1, 2)
    ]
    bundle = SimpleNamespace(
        config=SimpleNamespace(rho_base=rho), depth=depth, networks=networks, discards=discards
    )
    budgets = _sn_budgets_longhand(bundle)

    def share(s_n):
        return SimpleNamespace(s_n=s_n)

    for net in networks:
        for n in range(depth + 1):
            net.aggregates[n] = share(max(budgets[net.network_id, n], Fraction(1, 2)))
    assert check_sn_bound(bundle).passed
    eps = Fraction(1, 1 << 80)
    for (k, n), budget in budgets.items():
        net = networks[k - 1]
        kept = net.aggregates[n]
        net.aggregates[n] = share(budget - eps)
        rep = check_sn_bound(bundle)
        assert rep.witness == {
            "network": k, "level": n, "s_n": rat_str(budget - eps), "budget": rat_str(budget)
        }
        net.aggregates[n] = kept


def _sn_fails_longhand(s_n, budget):
    return s_n < budget or s_n < Fraction(1, 2)


# How a level's share is set against its budget b, before the check runs
# (eps is 2^-90): b or 1/2, whichever is larger, or that just above or
# below it; or b itself, or just below b, even where b is under 1/2.
_SN_SHIFTS = {
    "floor": lambda b, eps: max(b, Fraction(1, 2)),
    "above": lambda b, eps: max(b, Fraction(1, 2)) + eps,
    "below": lambda b, eps: max(b, Fraction(1, 2)) - eps,
    "budget": lambda b, eps: b,
    "under budget": lambda b, eps: b - eps,
}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 240),
    st.integers(1, 6),
    st.lists(
        st.tuples(st.integers(1, 2), st.integers(-3, 245), st.integers(2, 70)),
        max_size=12,
    ),
    st.lists(
        st.tuples(
            st.integers(1, 2), st.integers(0, 240), st.sampled_from(sorted(_SN_SHIFTS))
        ),
        max_size=4,
    ),
)
@example(240, 3, [(2, 100, 3)], [(2, 240, "under budget")])
@example(240, 1, [], [(1, 240, "budget"), (2, 17, "below")])
def test_sn_bound_decides_as_the_fraction_ladder(depth, rho, drawn, shifts):
    # Deep ladders, random discard sets on two networks, and a few shares
    # set against the budget that the Fraction ladder gives: the check's
    # verdict and witness are those of the first level, network by network,
    # where the longhand comparison fails.
    discards = [
        SimpleNamespace(
            network_id=k, edge=SimpleNamespace(step_drawn=step), bound=Fraction(1, 1 << e)
        )
        for k, step, e in drawn
    ]
    networks = [
        SimpleNamespace(network_id=k, aggregates=[None] * (depth + 1)) for k in (1, 2)
    ]
    bundle = SimpleNamespace(
        config=SimpleNamespace(rho_base=rho), depth=depth, networks=networks, discards=discards
    )
    budgets = _sn_budgets_longhand(bundle)
    shares = {key: max(b, Fraction(1, 2)) for key, b in budgets.items()}
    eps = Fraction(1, 1 << 90)
    for k, n, how in shifts:
        if n <= depth:
            shares[k, n] = _SN_SHIFTS[how](budgets[k, n], eps)
    for (k, n), s_n in shares.items():
        networks[k - 1].aggregates[n] = SimpleNamespace(s_n=s_n)
    failing = sorted(
        key for key, s_n in shares.items() if _sn_fails_longhand(s_n, budgets[key])
    )
    rep = check_sn_bound(bundle)
    if not failing:
        assert rep.passed
        return
    k, n = failing[0]
    assert rep.witness == {
        "network": k,
        "level": n,
        "s_n": rat_str(shares[k, n]),
        "budget": rat_str(budgets[k, n]),
    }


def _delay_bad_longhand(v):
    return v != 0 and (v.numerator != 1 or not 0 < v <= 1)


_ANY_RATIONAL = st.fractions() | st.builds(
    Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**80)
)
_NEAR_DELAYS = st.builds(
    Fraction, st.sampled_from([-2, -1, 0, 1, 2, 3]), st.integers(1, 2**80)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_ANY_RATIONAL | _NEAR_DELAYS, min_size=4, max_size=4),
    st.permutations(["default", "vertex", "suffix", "subtree"]),
)
@example(
    [Fraction(1), Fraction(-1, 3), Fraction(3, 2), Fraction(0)],
    ["default", "vertex", "suffix", "subtree"],
)
def test_delay_form_decides_as_the_fraction_test(values, order):
    # One value at each of a table's four kinds of entry, on a stand-in
    # table the engine's own would refuse; the witness is the first bad
    # value in the order the check reads them.
    at = dict(zip(order, values))
    table = SimpleNamespace(
        level=3,
        default=at["default"],
        vertex={BitString.from_str("010"): at["vertex"]},
        suffix=[(Cube.from_pattern("1*0"), at["suffix"])],
        subtree={BitString.from_str("11"): at["subtree"]},
    )
    net = SimpleNamespace(network_id=1, tables=[table])
    rep = check_delay_form(SimpleNamespace(networks=[net], depth=3))
    where = {"default": None, "vertex": "010", "suffix": "1*0", "subtree": "11"}
    bad = [k for k in ("default", "vertex", "suffix", "subtree") if _delay_bad_longhand(at[k])]
    if not bad:
        assert rep.passed
        return
    assert rep.witness == {
        "network": 1,
        "level": 3,
        "kind": bad[0],
        "where": where[bad[0]],
        "value": rat_str(at[bad[0]]),
    }


_UNHALVED_SHAPES = {
    # 01*0 lies inside the parent 0**, extended to 0***
    "inside one parent": (["0**", "10*"], ["01*0", "00**"]),
    # *00* is 000* under 0*** and 100* under 10**; *1*1 is 01*1 under
    # 0*** and 11*1 under no parent
    "across two parents": (["0**", "10*"], ["*00*", "*1*1"]),
    # 11** and 111* meet no parent
    "under none": (["0**", "10*"], ["11**", "011*"]),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(_UNHALVED_SHAPES)),
    st.lists(st.sampled_from(_VALUES), min_size=4, max_size=4),
)
def test_unhalved_skips_the_rest_only_of_children_inside_a_parent(shape, values):
    parent_patterns, child_patterns = _UNHALVED_SHAPES[shape]
    parents = [(Cube.from_pattern(p), values[k]) for k, p in enumerate(parent_patterns)]
    children = [(Cube.from_pattern(c), values[2 + k]) for k, c in enumerate(child_patterns)]
    assert list(_unhalved(children, parents)) == list(_pairwise_unhalved(children, parents))


@pytest.mark.parametrize("via", ["frame item", "edge in transit"])
def test_flow_under_a_discarded_child_trips_discards(via):
    b = build(RunConfig(preset="hyperimmune", depth=32))
    d = b.discards[0]
    net = b.network(d.network_id)
    assert check_discards(b).passed
    (cube,) = d.cubes
    # A member other than the cube's least one: position 1 is free.
    vertex = BitString(cube.length, cube.value | 1 << cube.length - 1)
    assert cube.contains(vertex)
    child = vertex.child(1)
    if via == "frame item":
        _set_frame_value(net, child, Fraction(1, 1 << 40))
        flow = Fraction(1, 1 << 40)
    else:
        source = vertex.truncate(cube.length - 2)
        e = ExtraEdge(
            source=source,
            target=child.child(0),
            q=Fraction(1, 2),
            task=1,
            subtask=None,
            network_id=net.network_id,
            step_drawn=b.depth,
        )
        net.edges.append(e)
        net._out_edges.setdefault(len(source), {})[source.value] = e
        flow = e.q * net.frame_eval(source)
    rep = check_discards(b)
    assert not rep.passed
    assert rep.witness == {
        "network": net.network_id,
        "vertex": str(vertex),
        "child": str(child),
        "P": rat_str(flow),
    }


def test_conservation_reports_exhaustive_coverage_per_network():
    b = build(RunConfig(preset="family", depth=16))
    rep = check_conservation(b)
    assert rep.passed, rep.witness
    assert rep.details["coverage"] == {
        str(k): {"walk": "exhaustive", "levels": 17} for k in (1, 2, 3)
    }


def test_inflated_discard_bound_trips_only_discards():
    b = build(RunConfig(preset="family", depth=12))
    assert b.discards
    b.discards[0] = dataclasses.replace(b.discards[0], bound=Fraction(1, 8))
    rep = _assert_only_fails(run_checks(b), "discards")
    assert rep.witness["bound"] == "1/8"
    assert rep.witness["expected"] == "1/16"


def test_vertex_replay_agrees_and_catches_wrong_installs(monkeypatch):
    cfg = RunConfig(preset="nonstochastic", depth=8)
    assert dense_oracle(cfg).passed
    # A mirror that installs 1/(n+4)^2 where the engine installs 1/(n+3)^2.
    mirror = dense.dense_build
    monkeypatch.setattr(
        dense, "dense_build", lambda config: mirror(dataclasses.replace(config, rho_base=4))
    )
    rep = dense_oracle(cfg)
    assert not rep.passed
    assert rep.details["differences"] >= 1
    assert rep.witness["first"]


def test_vertex_replay_refuses_deep_runs():
    with pytest.raises(ResourceLimit) as hit:
        dense_oracle(RunConfig(preset="nonstochastic", depth=20))
    assert str(hit.value).startswith(
        "verify.ORACLE_DEPTH_CAP = 14 exceeded at level 20, every task, "
        "every network: "
    )


def test_shadow_walk_refuses_deep_runs():
    b = build(RunConfig(preset="nonstochastic", depth=16))
    with pytest.raises(ResourceLimit) as hit:
        check_extension_shadow(b, task=2)
    assert str(hit.value).startswith(
        "verify.ORACLE_DEPTH_CAP = 14 exceeded at level 16, task 2, "
        "every network: "
    )


def test_shadow_walk_violation_branch():
    b = build(RunConfig(preset="nonstochastic", depth=8))
    clean = check_extension_shadow(b, task=1, admits=lambda i, x: False)
    assert clean.passed
    assert clean.details["qualifying"] == 0
    # Force every prefix to admit: paths missing the drawn edges have no
    # way to satisfy the walk and must be reported.
    rep = check_extension_shadow(b, task=1, admits=lambda i, x: True)
    assert not rep.passed
    assert rep.witness["task"] == 1
    path = rep.witness["path"]
    assert not path.startswith("0000")
    assert not path.startswith("1000")


def _scan_admits(bundle):
    """The extension scan the shadow walk's default test was: x admits
    task i when some length-depth extension y of x has an image longer
    than index_of(x) + i."""
    def admits(i, x):
        op = bundle.operators.operator_for(i)
        gap = bundle.depth - len(x)
        return any(
            len(apply_modified(op, x.concat(BitString(gap, v)))) > index_of(x) + i
            for v in range(1 << gap)
        )

    return admits


@pytest.mark.parametrize("preset", ["nonstochastic", "atom"])
def test_shadow_walk_matches_the_extension_scan(preset):
    for depth in (4, 7, 10):
        b = build(RunConfig(preset=preset, depth=depth))
        fast = check_extension_shadow(b)
        scan = check_extension_shadow(b, admits=_scan_admits(b))
        assert fast.passed == scan.passed
        assert fast.witness == scan.witness
        assert fast.details == scan.details


def _vertex_walk(bundle, admits):
    """The shadow walk without pruning: it tests every vertex with
    flow_eval and visits each one with P > 0, so the pruned walk must reach
    the same verdict, witness and counters."""
    depth = bundle.depth
    tasks = _active_tasks(_level_tasks(bundle))
    counts = {"paths": 0, "qualifying": 0, "via_edge": 0, "via_discard": 0}
    for net in bundle.networks:
        ends = {}
        for e in net.edges:
            ends.setdefault(e.target, set()).add(e.task)
        stack = [(BitString(0, 0), tuple(tasks), frozenset(), False)]
        while stack:
            x, alive, via, dead = stack.pop()
            if len(x) < depth:
                for b in (0, 1):
                    child = x.child(b)
                    if net.flow_eval(child) > 0:
                        stack.append((
                            child,
                            tuple(i for i in alive if admits(i, child)),
                            via.union(ends.get(child, ())),
                            dead or net.delay(child) == 1,
                        ))
                continue
            counts["paths"] += 1
            for i in alive:
                counts["qualifying"] += 1
                if i in via:
                    counts["via_edge"] += 1
                elif dead:
                    counts["via_discard"] += 1
                else:
                    witness = {"network": net.network_id, "path": str(x), "task": i}
                    return False, witness, counts
    return True, None, counts


def _default_admits(bundle):
    """The walk's default test, restated: some extension of x has an image
    longer than index_of(x) + i."""
    def admits(i, x):
        bound = index_of(x) + i
        op = bundle.operators.operator_for(i)
        return bound < bundle.depth and _longest_image(op, x, bundle.depth) > bound

    return admits


def _edge_admits(bundle):
    """x admits task i when x is comparable with a target of one of task
    i's edges, so every qualifying path runs through an edge."""
    targets = {}
    for net in bundle.networks:
        for e in net.edges:
            targets.setdefault(e.task, []).append(e.target)

    def admits(i, x):
        return any(
            x.is_prefix_of(t) or t.is_prefix_of(x) for t in targets.get(i, ())
        )

    return admits


_ADMITS = {
    "default": _default_admits,
    "scan": _scan_admits,
    "always": lambda b: lambda i, x: True,
    "never": lambda b: lambda i, x: False,
    "edge": _edge_admits,
    # prunes the left half and fails in the right one, which the walk
    # visits first: the counters at the witness see no left-half leaf
    "right half": lambda b: lambda i, x: x.value >> (len(x) - 1) == 1,
}


@pytest.mark.parametrize("preset", ["nonstochastic", "atom"])
def test_pruned_shadow_walk_matches_the_vertex_walk(preset):
    for depth in range(1, 13):
        b = build(RunConfig(preset=preset, depth=depth))
        for name, make in _ADMITS.items():
            admits = make(b)
            pruned = check_extension_shadow(
                b, admits=None if name == "default" else admits
            )
            passed, witness, details = _vertex_walk(b, admits)
            assert (pruned.passed, pruned.witness, pruned.details) == (
                passed,
                witness,
                details,
            ), (depth, name)


def test_edge_test_passes_through_edges():
    b = build(RunConfig(preset="nonstochastic", depth=10))
    rep = check_extension_shadow(b, admits=_edge_admits(b))
    assert rep.passed
    assert rep.details["qualifying"] == rep.details["via_edge"] == 128


@pytest.mark.parametrize("preset", ["nonstochastic", "atom"])
def test_shadow_walk_visits_only_live_prefixes(preset, monkeypatch):
    b = build(RunConfig(preset=preset, depth=14))
    calls = []
    flow_eval = ElementaryNetwork.flow_eval

    def counted(self, x):
        calls.append(x)
        return flow_eval(self, x)

    monkeypatch.setattr(ElementaryNetwork, "flow_eval", counted)
    assert check_extension_shadow(b).passed
    # a per-vertex walk makes 2^15 - 2 = 32,766 calls here
    assert len(calls) < 64


_TRANSDUCERS = st.builds(
    TransducerOperator,
    st.dictionaries(
        st.tuples(st.sampled_from("abc"), st.integers(0, 1)),
        st.tuples(
            st.sampled_from("abc"),
            st.lists(st.integers(0, 1), max_size=3).map(tuple),
        ),
    ),
    st.sampled_from("abc"),
)
_BITS = st.text("01", max_size=6).map(BitString.from_str)
# Outputs are prefixes of one another, so no input sees incomparable ones.
_OUTPUTS = [BitString.from_str(s) for s in ("", "1", "11", "1110")]
_TABLES = st.lists(
    st.tuples(_BITS, st.sampled_from(_OUTPUTS), st.integers(1, 7)), max_size=4
).map(TableOperator)


@settings(max_examples=300)
@given(st.one_of(_TRANSDUCERS, _TABLES), st.integers(0, 7))
@example(TableOperator([(BitString.from_str("01"), _OUTPUTS[3], 2)]), 3)
@example(const_operator("110010011"), 5)
def test_longest_image_matches_the_extension_scan(op, depth):
    for length in range(depth + 1):
        for value in range(1 << length):
            x = BitString(length, value)
            gap = depth - length
            longest = max(
                len(apply_modified(op, x.concat(BitString(gap, v))))
                for v in range(1 << gap)
            )
            assert _longest_image(op, x, depth) == longest

