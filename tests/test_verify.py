"""Checks over finished runs, and controls that corrupt a bundle in one
place and watch exactly one check trip."""

import dataclasses
from fractions import Fraction

import pytest

from hypothesis import example, given, settings, strategies as st

from treeflow.bitseq import BitString, index_of
from treeflow.cubes import Cube
from treeflow.constructions import (
    RunConfig,
    build_atom,
    build_atom_family,
    build_divisible,
    build_hyperimmune,
    build_nonstochastic,
)
from treeflow.network import EdgeClass, ElementaryNetwork, ExtraEdge, rat_str
from treeflow.operators import (
    TableOperator,
    TransducerOperator,
    apply_modified,
    const_operator,
)
from treeflow.scheduler import ResourceLimit
from treeflow.verify import (
    _acting_net,
    _longest_image,
    _stable_tasks,
    _stream_task,
    check_conservation,
    check_discards,
    check_extension_shadow,
    check_ratio_identity,
    check_separators,
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
    return build_hyperimmune(32)


BUILDERS = {
    "nonstochastic": build_nonstochastic,
    "divisible": build_divisible,
    "atom": build_atom,
    "family": build_atom_family,
    "hyperimmune": build_hyperimmune,
}


@pytest.mark.parametrize("preset", sorted(BUILDERS))
def test_all_checks_clean_at_depth_12(preset):
    reports = run_checks(BUILDERS[preset](12))
    names = [r.name for r in reports]
    assert names[: len(DEFAULT_NAMES)] == DEFAULT_NAMES
    if preset in ("nonstochastic", "atom"):
        assert names[-1] == "extension_shadow"
    failed = [(r.name, r.witness) for r in reports if not r.passed]
    assert failed == []


def test_report_payload_shape():
    reports = run_checks(build_atom(8))
    for r in reports:
        payload = r.to_payload()
        assert payload["name"] == r.name
        assert payload["passed"] is True
        assert isinstance(payload["details"], dict)
        assert payload["levels"] == [0, 8]
        assert payload["runtime"] >= 0


def test_unknown_check_name_rejected():
    b = build_atom(6)
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
    b = build_atom_family(48)
    assert sum(len(net.edges) for net in b.networks) == 1
    assert len(b.discards) == 1
    names = ["delay_form", "no_overlap", "conservation", "sn_bound", "duplication"]
    failed = [(r.name, r.witness) for r in run_checks(b, names=names) if not r.passed]
    assert failed == []


def test_ratio_identity_covers_every_task_at_depth_20():
    for b in (build_atom(20), build_atom_family(20)):
        rep = check_ratio_identity(b, min_coverage=Fraction(4, 5))
        assert rep.passed, rep.witness
        assert rep.details["covered"] == [1, 2, 3, 4, 5]


def test_ratio_identity_coverage_bar_can_trip(hyper32):
    # Deep runs reset most session starts, so only a couple of tasks have
    # settled levels to draw pairs from; the strict bar has to notice.
    rep = check_ratio_identity(hyper32, min_coverage=Fraction(4, 5))
    assert not rep.passed
    assert "coverage" in rep.witness
    assert rep.details["covered"] == [1, 2]
    assert rep.details["task_coverage"] == "2/7"
    assert rep.details["coverage"]["walk"] == "exhaustive"


def _compared_levels(bundle):
    """task -> (w, the levels m >= w of the task with no unsettled task in
    (w, m]) for the settled tasks: the levels the ratio check compares."""
    stable = _stable_tasks(bundle)
    out = {}
    for i, w in sorted(stable.items()):
        out[i] = w, [
            m
            for m in range(w, bundle.depth + 1)
            if _stream_task(bundle, m) == i
            and all(_stream_task(bundle, n) in stable for n in range(w + 1, m + 1))
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
            b = BUILDERS[preset](depth)
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
    b = build_hyperimmune(20)
    assert check_ratio_identity(b).passed
    assert _triple_an_edge_in_transit(b)
    rep = check_ratio_identity(b)
    assert not rep.passed
    _assert_genuine_ratio_witness(b, rep.witness)


def _halve_head_region(bundle, net_id, head, level):
    """Delay 1/2 on the level-`level` vertices under `head`, with every
    level below recommitted, so frames and aggregates stay consistent."""
    net = bundle.network(net_id)
    net.tables[level].add_suffix(Cube.subtree(head, level), Fraction(1, 2))
    fresh = ElementaryNetwork(net_id)
    fresh.tables[0] = net.tables[0]
    landing = {}
    for e in net.edges:
        tail = e.target.suffix_from(len(e.source) + 1)
        landing.setdefault(len(e.target), []).append(
            EdgeClass(Cube.vertex(e.source), tail, e.q, (e,))
        )
    for n in range(1, bundle.depth + 1):
        fresh.commit_level(net.tables[n], landing.get(n, []))
    net.frames = fresh.frames
    net.aggregates = fresh.aggregates


def test_scaled_deep_head_region_trips_only_ratio_identity():
    # Task 5 of atom-24 starts its session at w = 15. Halving the flow
    # below one of its 2^14 heads from level 16 on keeps every level
    # balanced, so only the proportionality of flows to their width-w
    # prefixes is broken; a 1,000-pair sample almost never draws a pair
    # with that head (the seeded one did not).
    b = build_atom(24)
    w = 15
    head = BitString(w - 1, 0b1011 << (w - 5))
    assert check_ratio_identity(b).passed
    _halve_head_region(b, 1, head, w)
    rep = _assert_only_fails(run_checks(b), "ratio_identity")
    _assert_genuine_ratio_witness(b, rep.witness)
    y, z = rep.witness["y"], rep.witness["z"]
    assert str(head) in (y[: w - 1], z[: w - 1])


def test_poked_delay_value_trips_only_delay_form():
    b = build_nonstochastic(12)
    table = b.network(1).tables[-1]
    table.vertex[BitString(12, 0)] = Fraction(2, 5)
    table._partition = None
    rep = _assert_only_fails(run_checks(b), "delay_form")
    assert rep.witness["value"] == "2/5"
    assert rep.witness["level"] == 12


def test_nested_edge_pair_trips_only_no_overlap():
    b = build_nonstochastic(12)
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
    b = build_nonstochastic(12)
    net = b.network(1)
    e = net.edges[0]
    # Flat list only: flow paths keep using the clean lookup table, so
    # the mismatch shows up as stored inflow, not everywhere at once.
    net.edges[0] = dataclasses.replace(e, q=e.q * 2)
    rep = _assert_only_fails(run_checks(b), "conservation")
    assert rep.witness["identity"] == "stored inflow"
    assert rep.witness["level"] == len(e.target)


def test_moved_class_member_trips_only_duplication(hyper32):
    b = build_hyperimmune(32)
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


def test_edge_across_session_start_trips_only_separators():
    b = build_nonstochastic(12)
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
    b = build_nonstochastic(12)
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
    b = build_atom_family(20)
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
    b = build_nonstochastic(24)
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


@pytest.mark.parametrize("via", ["frame item", "edge in transit"])
def test_flow_under_a_discarded_child_trips_discards(via):
    b = build_hyperimmune(32)
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
    b = build_atom_family(16)
    rep = check_conservation(b)
    assert rep.passed, rep.witness
    assert rep.details["coverage"] == {
        str(k): {"walk": "exhaustive", "levels": 17} for k in (1, 2, 3)
    }


def test_inflated_discard_bound_trips_only_discards():
    b = build_atom_family(12)
    assert b.discards
    b.discards[0] = dataclasses.replace(b.discards[0], bound=Fraction(1, 8))
    rep = _assert_only_fails(run_checks(b), "discards")
    assert rep.witness["bound"] == "1/8"
    assert rep.witness["expected"] == "1/16"


def test_vertex_replay_agrees_and_catches_wrong_installs():
    cfg = RunConfig(preset="nonstochastic", depth=8)
    assert dense_oracle(cfg).passed
    rep = dense_oracle(cfg, rho_override=4)
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
    b = build_nonstochastic(16)
    with pytest.raises(ResourceLimit) as hit:
        check_extension_shadow(b, task=2)
    assert str(hit.value).startswith(
        "verify.ORACLE_DEPTH_CAP = 14 exceeded at level 16, task 2, "
        "every network: "
    )


def test_shadow_walk_violation_branch():
    b = build_nonstochastic(8)
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
        b = BUILDERS[preset](depth)
        fast = check_extension_shadow(b)
        scan = check_extension_shadow(b, admits=_scan_admits(b))
        assert fast.passed == scan.passed
        assert fast.witness == scan.witness
        assert fast.details == scan.details


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

