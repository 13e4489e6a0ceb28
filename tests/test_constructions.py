from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from treeflow.bitseq import BitString, index_of
from treeflow.constructions import (
    ConfigError,
    ImageMassPredicate,
    LengthPredicate,
    PRESETS,
    RunConfig,
    SparsityPredicate,
    TargetMassPredicate,
    TargetSearch,
    build,
    ml_test,
    prefix_free,
    reference_roster_descriptors,
    union_mass,
)
from treeflow.cubes import Cube
from treeflow.dense import compare_runs, dense_build
from treeflow.network import ONE, DelayTable, ElementaryNetwork, Rational, floor_in, mass_in
from treeflow.operators import (
    FunctionRoster,
    LinearFunction,
    TableFunction,
    TableOperator,
    TransducerOperator,
    echo_operator,
    flip_operator,
    phi_bounded,
    silent_operator,
)
from treeflow.scheduler import ResourceLimit, ScheduleState, TaskStream, candidates
from treeflow.templates import Caps, EdgePredicate, StepContext
from treeflow.verify import run_checks

B = BitString.from_str


def _all_edges(b):
    return sorted(
        (e for net in b.networks for e in net.edges),
        key=lambda e: (e.step_drawn, e.network_id, index_of(e.source)),
    )

FLIP_FIRST = {
    "operators": [
        {"kind": "flip", "name": "flip"},
        {"kind": "silent", "name": "silent"},
        {"kind": "echo", "name": "echo"},
    ],
    "functions": reference_roster_descriptors()["functions"],
}


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig(preset="nope", depth=5).validate()
    with pytest.raises(ConfigError):
        RunConfig(preset="atom", depth=-1).validate()
    with pytest.raises(ConfigError):
        RunConfig(preset="family", depth=5, networks=1).validate()
    with pytest.raises(ConfigError):
        RunConfig(preset="atom", depth=5, networks=2).validate()
    with pytest.raises(ConfigError):
        RunConfig(preset="atom", depth=5, discard_mode="drop").validate()
    with pytest.raises(ConfigError):
        RunConfig(preset="atom", depth=5, mode="fast").validate()
    cfg = RunConfig(preset="atom", depth=5)
    cfg.rosters = {"operators": [], "functions": []}
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_payload_round_trip():
    cfg = RunConfig(preset="family", depth=9, networks=3, seed=4)
    again = RunConfig.from_payload(cfg.to_payload())
    assert again == cfg
    with pytest.raises(ConfigError):
        RunConfig.from_payload({"preset": "atom", "depth": 3, "bogus": 1})


def test_caps_enter_the_payload_only_when_changed():
    assert "caps" not in RunConfig(preset="atom", depth=3).to_payload()
    cfg = RunConfig(preset="atom", depth=3, caps=Caps(beta_scan=5))
    payload = cfg.to_payload()
    assert payload["caps"] == {"candidates": 4096, "beta_scan": 5, "class_members": 4096}
    assert RunConfig.from_payload(payload) == cfg
    with pytest.raises(ConfigError):
        RunConfig.from_payload({**payload, "caps": {"beta_scan": 5, "bogus": 1}})


def test_reference_rosters_are_embedded():
    cfg = RunConfig(preset="atom", depth=3)
    assert cfg.rosters == reference_roster_descriptors()
    ops, fns = cfg.validate()
    assert len(ops.bases) == 5
    assert len(fns.bases) == 2


def test_nonstochastic_reference_run():
    b = build(RunConfig(preset="nonstochastic", depth=20))
    assert [p["case"] for p in b.provenance] == [
        1, 3, 1, 2, 1, 1, 3, 3, 3, 1, 3, 3, 3, 3, 1, 3, 3, 3, 3, 3,
    ]
    edges = _all_edges(b)
    assert [(str(e.source), str(e.target)) for e in edges] == [
        ("0", "0000"),
        ("1", "1000"),
    ]
    assert all(e.q == Rational(1, 16) for e in edges)
    assert all(e.task == 1 and e.step_drawn == 4 for e in edges)
    # The targets pause nothing, their siblings carry the continued share.
    net = b.network(1)
    assert net.delay(B("0000")) == 0
    assert net.delay(B("0101")) == Rational(1, 15)


def test_atom_reference_run():
    b = build(RunConfig(preset="atom", depth=20))
    edges = _all_edges(b)
    assert [(str(e.source), str(e.target), e.task, e.subtask, e.step_drawn) for e in edges] == [
        ("0", "0000000", 1, 1, 7)
    ]
    assert edges[0].q == Rational(1, 16)
    by_step = {p["step"]: p for p in b.provenance}
    assert by_step[7]["case"] == 2
    # The sibling subtask's session restarts past the drawn level.
    assert by_step[11]["case"] == 1
    assert by_step[12]["case"] == 1


def test_family_reference_run():
    b = build(RunConfig(preset="family", depth=20))
    edges = _all_edges(b)
    assert [(e.network_id, str(e.source), str(e.target)) for e in edges] == [
        (1, "0", "0000000")
    ]
    assert len(b.discards) == 1
    d = b.discards[0]
    assert d.network_id == 2
    assert [c.pattern() for c in d.cubes] == ["0000000"]
    assert d.bound == Rational(1, 16)
    # The discarded vertex pauses everything on the target network.
    assert b.network(2).delay(B("0000000")) == ONE
    frame = dict(
        (c.pattern(), v) for c, v in b.network(2).frames[8]
    )
    for pat in frame:
        assert not pat.startswith("0000000")


def test_family_records_discards_in_provenance():
    b = build(RunConfig(preset="family", depth=20))
    step7 = b.provenance[6]
    assert step7["case"] == 2
    assert len(step7["discards"]) == 1
    assert step7["discards"][0]["network"] == 2
    assert step7["discards"][0]["bound"] == "1/16"


@pytest.mark.parametrize("preset", PRESETS)
def test_a_provenance_row_holds_its_step_and_case_only(preset):
    # Tables and edges are stored once, in their own files; a provenance
    # row says which case of the template its step took.
    b = build(RunConfig(preset=preset, depth=12))
    keys = {"step", "task", "subtask", "network", "case", "w", "wk", "discards", "note"}
    assert [set(row) for row in b.provenance] == [keys] * 12


def test_family_wrap_collision_goes_inert():
    b = build(RunConfig(preset="family", depth=21, networks=2))
    step21 = b.provenance[20]
    assert step21["task"] == 6
    assert step21["case"] == 3
    assert step21["note"] == "base and target collide after wrapping"
    assert [(e.network_id, str(e.source)) for e in _all_edges(b)] == [(1, "0")]


def test_hyperimmune_task_one_is_inert():
    b = build(RunConfig(preset="hyperimmune", depth=8))
    notes = [p["note"] for p in b.provenance if p["task"] == 1]
    assert notes
    assert all(n == "task 1 carries no decoded index" for n in notes)
    assert not [e for e in _all_edges(b) if e.task == 1]


def test_hyperimmune_sparse_draw_shape():
    b = build(RunConfig(preset="hyperimmune", depth=32))
    sparse = [e for e in _all_edges(b) if e.task % 2 == 1]
    assert len(sparse) == 32
    assert {e.step_drawn for e in sparse} == {18}
    assert all(e.network_id == 1 and e.q == Rational(1, 81) for e in sparse)
    for e in sparse:
        src, tgt = str(e.source), str(e.target)
        assert len(src) == 6
        assert tgt == src + "1" + "0" * (len(tgt) - len(src) - 1)
    # 2^5 class members: width-6 session frees the five leading positions.
    assert len({str(e.source)[:5] for e in sparse}) == 32


def test_hyperimmune_even_task_discards_on_target():
    b = build(RunConfig(preset="hyperimmune", depth=32))
    family_edges = [e for e in _all_edges(b) if e.task == 2]
    assert len(family_edges) == 4
    assert {str(e.source) for e in family_edges} == {"000", "010", "100", "110"}
    recs = [d for d in b.discards if d.edge.task == 2]
    assert len(recs) == 4
    assert {d.network_id for d in recs} == {2}
    pats = {c.pattern() for d in recs for c in d.cubes}
    # Equal class suffixes give equal image patterns; the region is shared.
    assert len(pats) == 1
    assert sorted(str(d.bound) for d in recs) == [
        "1/1024", "1/16384", "1/4096", "1/65536",
    ]
    inside = next(iter(pats)).replace("*", "0")
    assert b.network(2).delay(B(inside)) == ONE


def test_divisible_reference_run_draws_nothing():
    b = build(RunConfig(preset="divisible", depth=20))
    assert not _all_edges(b)
    assert not b.discards
    assert {p["case"] for p in b.provenance} <= {1, 3}


def test_divisible_flip_roster_draws_with_discards():
    for mode in ("exclude", "reject"):
        b = build(
            RunConfig(preset="divisible", depth=6, discard_mode=mode, rosters=FLIP_FIRST)
        )
        edges = _all_edges(b)
        assert [(str(e.source), str(e.target), e.step_drawn) for e in edges] == [
            ("0", "0000", 4),
            ("1", "10000", 5),
        ]
        assert [
            ([c.pattern() for c in d.cubes], str(d.bound)) for d in b.discards
        ] == [
            (["1111"], "1/16"),
            (["01111"], "1/32"),
        ]
        net = b.network(1)
        assert net.delay(B("1111")) == ONE
        assert net.delay(B("01111")) == ONE
        # A dead region carries no flow to the next level.
        for dead in ("1111", "01111"):
            for bit in (0, 1):
                assert net.flow_eval(B(dead).child(bit)) == 0
        # Each region's pre-draw mass lies within its recorded allowance.
        (rep,) = run_checks(b, names=["discards"])
        assert rep.passed, rep.witness


def test_build_rejects_unknown_preset_before_running():
    cfg = RunConfig(preset="atom", depth=4)
    cfg.preset = "mystery"
    with pytest.raises(ConfigError):
        build(cfg)


def test_prefix_free_and_union_mass():
    roots = [B("01"), B("010"), B("0"), B("11"), B("110")]
    kept = prefix_free(roots)
    assert [str(r) for r in kept] == ["0", "11"]
    assert union_mass(roots) == Rational(3, 4)
    assert union_mass([]) == 0


def test_ml_test_nonstochastic_bounds():
    b = build(RunConfig(preset="nonstochastic", depth=20))
    m = ml_test(b)
    assert m.max_task == 5
    assert m.ok()
    one = m.per_index[1]
    assert one["roots"] == ["0000", "1000"]
    assert one["mass"] == Rational(1, 8)
    assert one["bound_sum"] == Rational(3, 8)
    assert one["bound_sum"] <= Rational(1, 2)
    for i in range(2, 6):
        assert m.per_index[i]["edge_count"] == 0
    assert m.tails[1]["mass"] == 0


def test_ml_test_atom_and_index_filter():
    b = build(RunConfig(preset="atom", depth=20))
    m = ml_test(b, index=1)
    assert set(m.per_index) == {1}
    assert m.per_index[1]["roots"] == ["0000000"]
    assert m.per_index[1]["mass"] == Rational(1, 128)
    assert m.ok()
    with pytest.raises(ConfigError):
        ml_test(b, index=40)


def test_ml_test_rejects_other_presets():
    b = build(RunConfig(preset="family", depth=8))
    with pytest.raises(ConfigError):
        ml_test(b)


def test_builds_are_deterministic():
    first = build(RunConfig(preset="hyperimmune", depth=24))
    second = build(RunConfig(preset="hyperimmune", depth=24))
    assert first.provenance == second.provenance
    assert _all_edges(first) == _all_edges(second)


def test_discard_allowance_accumulates():
    b = build(RunConfig(preset="hyperimmune", depth=32))
    # network 2 books every allowance, none of it by level 29
    assert b.discards
    assert all(d.network_id == 2 and d.edge.step_drawn > 29 for d in b.discards)
    total = sum((d.bound for d in b.discards), Rational(0))
    assert 0 < total < Rational(1, 8)


# A family base operator given by a table: its edge targets come from the
# scan, which the reference rosters never reach.
SWAP_TABLE = {
    "operators": [{"kind": "table", "entries": [["0", "1", 1], ["1", "0", 1]]}],
    "functions": reference_roster_descriptors()["functions"],
}


CAP_HITS = [
    (
        "hyperimmune",
        44,
        Caps(beta_scan=4),
        "Caps.beta_scan = 4 exceeded at level 30, task 2, network 1: "
        "edge-target search from 000",
        None,
    ),
    (
        "nonstochastic",
        12,
        Caps(candidates=1),
        "Caps.candidates = 1 exceeded at level 4, task 1, network 1: "
        "candidate enumeration from level 1",
        None,
    ),
    (
        "hyperimmune",
        24,
        Caps(class_members=1),
        "Caps.class_members = 1 exceeded at level 18, task 3, network 1: "
        "class *****0 has 32 members",
        None,
    ),
    (
        "family",
        8,
        Caps(beta_scan=4),
        "Caps.beta_scan = 4 exceeded at level 7, task 1, network 1: "
        "edge-target scan from 0",
        SWAP_TABLE,
    ),
]


@pytest.mark.parametrize(
    "preset, depth, caps, message, rosters",
    CAP_HITS,
    # A case's id leaves its rosters out.
    ids=[f"{p}-{d}-caps{k}-{m}" for k, (p, d, _c, m, _r) in enumerate(CAP_HITS)],
)
def test_cap_hits_name_the_cap_level_task_and_network(
    preset, depth, caps, message, rosters
):
    with pytest.raises(ResourceLimit) as hit:
        build(RunConfig(preset=preset, depth=depth, caps=caps, rosters=rosters))
    assert str(hit.value) == message


def test_hyperimmune_builds_to_depth_64_under_default_caps():
    bundle = build(RunConfig(preset="hyperimmune", depth=64))
    reports = run_checks(bundle)
    assert len(reports) == 8
    assert [(r.name, r.witness) for r in reports if not r.passed] == []


def test_family_builds_past_depth_228(deep_bundles):
    # Level 232 writes 225 suffix pieces for each of 63 target classes;
    # checking each piece against every stored entry made this hang.
    bundle, _out = deep_bundles("family", 240)
    names = ["delay_form", "no_overlap", "sn_bound", "duplication", "discards"]
    reports = run_checks(bundle, names)
    assert [r.name for r in reports] == names
    assert [(r.name, r.witness) for r in reports if not r.passed] == []


def _count_beta_paths(monkeypatch) -> Counter:
    """Count, by the path taken, the answers of TargetMassPredicate.beta:
    the transducer search, the scan, or neither. An answer that takes
    neither is the vertex-level rule-out when it is None and the
    length-determined first extension otherwise."""
    paths: Counter = Counter()
    beta, search, scan = TargetMassPredicate.beta, TargetSearch.target, EdgePredicate.beta

    def counted(name, fn):
        def wrapper(*args):
            paths[name] += 1
            return fn(*args)

        return wrapper

    def counted_beta(self, x):
        before = paths["search"] + paths["scan"]
        y = beta(self, x)
        if paths["search"] + paths["scan"] == before:
            paths["ruled out" if y is None else "first extension"] += 1
        return y

    monkeypatch.setattr(TargetSearch, "target", counted("search", search))
    monkeypatch.setattr(EdgePredicate, "beta", counted("scan", scan))
    monkeypatch.setattr(TargetMassPredicate, "beta", counted_beta)
    return paths


@pytest.mark.parametrize(
    "operator, path",
    [
        ({"kind": "const", "bits": "1111"}, "first extension"),
        ({"kind": "table", "entries": [["", "111111111111", 1]]}, "scan"),
    ],
    ids=["length-determined", "table"],
)
def test_a_family_target_path_draws_what_the_mirror_draws(monkeypatch, operator, path):
    # A const operator's image region carries little mass at level 12, so
    # its one target is the source's first extension; a table's targets
    # come from the scan. Both draw an edge here.
    paths = _count_beta_paths(monkeypatch)
    config = RunConfig(
        preset="family",
        depth=12,
        rosters={"operators": [operator], "functions": SWAP_TABLE["functions"]},
    )
    bundle = build(config)
    assert paths[path] >= 1
    assert _all_edges(bundle)
    assert compare_runs(bundle, dense_build(config)) == []


def test_a_source_can_be_ruled_out_where_its_region_is_not():
    # The region 1* at level 2 is tested at its loosest bound, that of 10
    # (2^-8), and is not ruled out: the image 1111111 pins a region of two
    # level-8 vertices holding 3/2^10 in all. Its member 11 has the bound
    # 2^-9, which that mass exceeds, so beta rules it out on its own,
    # where the scan finds no target either.
    n = 8
    ctx = StepContext(
        n=n, i=1, net=ElementaryNetwork(), state=ScheduleState(TaskStream(), n)
    )
    items = [(Cube.whole_level(n), Fraction(3, 1 << 11))]
    op = TransducerOperator({("a", 0): ("b", (1,) * 7), ("a", 1): ("b", (1,) * 7)}, "a")
    pred = TargetMassPredicate(ctx, op, PendingFrame(items), 1)
    assert op.length_determined()
    assert list(pred.iter_sources(Cube.subtree(B("1"), 2), 2)) == [B("10"), B("11")]
    assert not pred._ruled_out(Cube.vertex(B("10")), 8)
    assert pred._ruled_out(Cube.vertex(B("11")), 9)
    assert pred.beta(B("10")) == EdgePredicate.beta(pred, B("10")) == B("10000000")
    assert pred.beta(B("11")) is EdgePredicate.beta(pred, B("11")) is None


def test_a_length_determined_operator_is_decided_by_the_rule_out():
    # Under silent every image is empty, so every member's pattern region
    # is the whole pending level, which carries nearly all of the target's
    # mass, above every member bound. beta probes no target under a
    # length-determined operator: the vertex-level rule-out alone answers.
    n = 6
    target = ElementaryNetwork(2)
    for level in range(1, n):
        target.commit_level(DelayTable(level, Fraction(1, 1 << (level + 5))))
    assert Fraction(15, 16) < target.aggregates[-1].total_R < 1
    ctx = StepContext(
        n=n, i=1, net=ElementaryNetwork(), state=ScheduleState(TaskStream(), n)
    )
    for w in (1, 2):
        pred = TargetMassPredicate(ctx, silent_operator(), target, w)
        assert pred.operator.length_determined()
        for x in (B("1"), B("01"), B("110")):
            assert pred.beta(x) is None
            assert EdgePredicate.beta(pred, x) is None


class PendingFrame:
    """A target network reduced to the pending frame the predicate reads."""

    network_id = 2

    def __init__(self, items):
        self.items = items

    def pre_frame(self, n):
        return self.items

    def pattern_mass(self, n, cube):
        return mass_in(self.items, cube)

    def pattern_floor(self, n, region):
        return floor_in(self.items, region)


@st.composite
def search_scenes(draw):
    """A level n <= 12, a source x with a gap of at least 2, a session
    start w, a transducer of 1-3 states with emissions of 0-2 bits and
    missing rules, and a disjoint pending frame with dead regions and
    values on both sides of the member bounds."""
    n = draw(st.integers(3, 12))
    length = draw(st.integers(1, n - 2))
    x = BitString(length, draw(st.integers(0, (1 << length) - 1)))
    w = draw(st.integers(1, length))
    states = "abc"[: draw(st.integers(1, 3))]
    rules = {}
    for state in states:
        for b in (0, 1):
            if draw(st.integers(0, 4)) == 0:
                continue
            emit = draw(st.lists(st.integers(0, 1), max_size=2))
            rules[(state, b)] = (draw(st.sampled_from(states)), tuple(emit))
    cubes = [Cube.whole_level(n)]
    for _ in range(draw(st.integers(0, 12))):
        k = draw(st.integers(0, len(cubes) - 1))
        c = cubes[k]
        free = [p for p in range(n) if not (c.care >> p) & 1]
        if free:
            bit = 1 << draw(st.sampled_from(free))
            cubes[k : k + 1] = [
                Cube(n, c.care | bit, c.value),
                Cube(n, c.care | bit, c.value | bit),
            ]
    # Member bounds run from 2^-3 down to 2^-(2^(length+1)+1). Values above
    # a bound leave only zero-mass patterns passing, values below pass.
    items = []
    for c in cubes:
        e = draw(st.integers(-1, (1 << (length + 2)) + 8))
        if e >= 0:
            items.append((c, Fraction(draw(st.integers(1, 3)), 1 << e)))
    return n, x, w, TransducerOperator(rules, "a"), items


@settings(max_examples=300, deadline=None)
@given(search_scenes())
def test_target_search_finds_the_target_the_scan_finds(scene):
    n, x, w, op, items = scene
    ctx = StepContext(
        n=n, i=2, net=ElementaryNetwork(), state=ScheduleState(TaskStream(), n),
        caps=Caps(beta_scan=1 << 13),
    )
    pred = TargetMassPredicate(ctx, op, PendingFrame(items), w)
    assert TargetSearch(pred, x).target() == EdgePredicate.beta(pred, x)


# --- level gates ----------------------------------------------------------


@st.composite
def level_pieces(draw, max_n):
    """A step n <= max_n, a level m < n, and a piece cube at level m."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, n - 1))
    care = draw(st.integers(0, (1 << m) - 1))
    return n, m, Cube(m, care, draw(st.integers(0, (1 << m) - 1)) & care)


@st.composite
def function_rosters(draw):
    """One to three linear and table functions, with values and costs on
    both sides of the steps a test reaches."""
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, 3)), draw(st.integers(0, 12))
            bases.append(LinearFunction(a, b))
        else:
            rows = draw(st.lists(st.tuples(*[st.integers(0, 14)] * 3), max_size=6))
            bases.append(TableFunction(rows))
    return FunctionRoster(tuple(bases))


class LiveLevel:
    """Level m of a network reduced to one live piece."""

    def __init__(self, cube):
        self.cube = cube

    def s_partition(self):
        return [(self.cube, Fraction(1, 2))]


class ReadCountingTables(dict):
    """Level tables that count every level looked up."""

    reads = 0

    def __getitem__(self, level):
        self.reads += 1
        return super().__getitem__(level)


class GateNet(PendingFrame):
    """A network reduced to what candidates and the predicates read: one
    live piece on level m, no edges, a pending frame, and a count of the
    levels whose partition was read."""

    network_id = 1

    def __init__(self, items, m, cube):
        super().__init__(items)
        self.tables = ReadCountingTables({m: LiveLevel(cube)})

    def outgoing_edge(self, x):
        return None


def _gate_context(n, i, items, m, cube, caps=None):
    net = GateNet(items, m, cube)
    ctx = StepContext(
        n=n, i=i, net=net, state=ScheduleState(TaskStream(), n), caps=caps or Caps()
    )
    return ctx, net


def _scan_oracle(holds, cube, n):
    """The (x, y) pairs a full enumeration of `cube` draws when each
    source scans its length-n extensions for the least y with holds(x, y).
    The distance-1 rule is applied here, source by source."""
    pairs = []
    for x in cube.members():
        if n - len(x) < 2:
            continue
        y = next((y for y in x.extensions(n) if holds(x, y)), None)
        if y is not None:
            pairs.append((x, y))
    return sorted(pairs, key=lambda pair: index_of(pair[0]))


@settings(max_examples=300, deadline=None)
@given(level_pieces(12), function_rosters(), st.integers(1, 8))
def test_sparsity_gate_yields_what_the_full_enumeration_draws(piece, fns, j):
    n, m, cube = piece
    ctx, _net = _gate_context(n, 2 * j + 1, [], m, cube)
    pred = SparsityPredicate(ctx, fns, j)
    settled = phi_bounded(fns, j, m + 2, n)

    def holds(x, y):
        # A sparse edge: phi_j(m + 2) settled by step n, and the forced
        # shape x 1 0...0.
        if settled is None or settled > n:
            return False
        return y == x.child(1).concat(BitString(n - m - 1, 0))

    assert candidates(ctx, pred, [m]) == _scan_oracle(holds, cube, n)


@st.composite
def image_operators(draw):
    """Prefix-only operators (echo, silent, echo-then-silent transducers,
    tables of prefixes) and others (flip, random transducers, tables)."""
    kind = draw(st.sampled_from(["echo", "silent", "flip", "transducer", "table"]))
    if kind == "echo":
        return echo_operator()
    if kind == "silent":
        return silent_operator()
    if kind == "flip":
        return flip_operator()
    if kind == "transducer":
        states = "abc"[: draw(st.integers(1, 3))]
        rules = {}
        for state in states:
            for b in (0, 1):
                if draw(st.integers(0, 4)) == 0:
                    continue
                emit = draw(
                    st.sampled_from([(), (b,)])
                    | st.lists(st.integers(0, 1), max_size=2).map(tuple)
                )
                rules[(state, b)] = (draw(st.sampled_from(states)), emit)
        return TransducerOperator(rules, "a")
    length = draw(st.integers(0, 6))
    source = BitString(length, draw(st.integers(0, (1 << length) - 1)))
    if draw(st.booleans()):
        out = source.truncate(draw(st.integers(0, length)))
    else:
        k = draw(st.integers(0, 6))
        out = BitString(k, draw(st.integers(0, (1 << k) - 1)))
    return TableOperator([(source, out, draw(st.integers(1, 8)))])


@settings(max_examples=300, deadline=None)
@given(level_pieces(10), image_operators(), st.data())
def test_image_mass_gate_yields_what_the_full_enumeration_draws(piece, op, data):
    n, m, cube = piece
    # Each half of the level is dead or carries 2^-e per vertex, on both
    # sides of the allowances 2^-(index_of(x) + 3).
    halves = [Cube(n, 1 << (n - 1), 0), Cube(n, 1 << (n - 1), 1 << (n - 1))]
    items = []
    for c in halves:
        e = data.draw(st.integers(-1, 2 * n + 6))
        items.append((c, Fraction(0) if e < 0 else Fraction(1, 1 << e)))
    ctx, net = _gate_context(n, 2, items, m, cube)
    pred = ImageMassPredicate(ctx, op, data.draw(st.sampled_from(["exclude", "reject"])))
    assert candidates(ctx, pred, [m]) == _scan_oracle(pred.holds, cube, n)
    if op.prefix_image_only():
        assert net.tables.reads == 0


def _length_sources_by_scan(pred, cube, level):
    """LengthPredicate's sources found by scanning the level's values from
    0 up and stopping at the first whose index_of(x) + task reaches the
    longest image: the enumeration as written before the level gate."""
    base = (1 << level) - 1
    top = pred._reach - pred.task
    for value in range(1 << level):
        if base + value >= top:
            break
        x = BitString(level, value)
        if cube.contains(x):
            yield x


DEFAULT_OPERATORS, _ = RunConfig(preset="nonstochastic", depth=1).validate()


@settings(max_examples=300, deadline=None)
@given(
    level_pieces(12),
    st.integers(1, 12),
    st.integers(1, 5).map(DEFAULT_OPERATORS.operator_for) | image_operators(),
)
def test_a_length_gate_shuts_exactly_the_levels_whose_scan_yields_nothing(
    piece, task, op
):
    n, m, cube = piece
    ctx, net = _gate_context(n, task, [], m, cube)
    pred = LengthPredicate(ctx, op, task)
    for level in range(n - 1):
        scan = list(_length_sources_by_scan(pred, Cube.whole_level(level), level))
        assert pred.level_open(level) == bool(scan), level
    if pred.level_open(m):
        want = list(_length_sources_by_scan(pred, cube, m))
        assert list(pred.iter_sources(cube, m)) == want
    else:
        assert candidates(ctx, pred, [m]) == []
        assert net.tables.reads == 0


@st.composite
def shut_levels(draw):
    """One of the four predicates at a step n, with a level m < n it
    shuts, whose whole level is live: more sources than either cap."""
    n = draw(st.integers(1, 12))
    m = n - 1 if draw(st.booleans()) else draw(st.integers(0, n - 1))
    op = draw(image_operators())
    items = [(Cube.whole_level(n), Fraction(1, 1 << draw(st.integers(0, 2 * n))))]
    caps = Caps(candidates=1, class_members=1)
    ctx, net = _gate_context(n, 3, items, m, Cube.whole_level(m), caps)
    kind = draw(st.sampled_from(["length", "image_mass", "target_mass", "sparsity"]))
    if kind == "length":
        pred = LengthPredicate(ctx, op, 3)
    elif kind == "image_mass":
        pred = ImageMassPredicate(ctx, op, draw(st.sampled_from(["exclude", "reject"])))
    elif kind == "target_mass":
        pred = TargetMassPredicate(ctx, op, PendingFrame(items), draw(st.integers(1, n)))
    else:
        pred = SparsityPredicate(ctx, draw(function_rosters()), draw(st.integers(1, 8)))
    assume(not pred.level_open(m))
    return ctx, net, pred, m


@settings(max_examples=300, deadline=None)
@given(shut_levels())
def test_a_shut_level_is_never_read_enumerated_or_counted(scene):
    ctx, net, pred, m = scene
    assert candidates(ctx, pred, [m]) == []
    assert net.tables.reads == 0


def test_a_shut_level_yields_nothing_and_hits_no_cap():
    # phi(3 + 2) = 2 * 5 + 2 = 12 has not settled by step 5; echo and
    # silent images are prefixes; level 4 is one step above level 5.
    caps = Caps(class_members=4)
    ctx, net = _gate_context(5, 3, [], 3, Cube.from_pattern("***"), caps)
    shut = [SparsityPredicate(ctx, FunctionRoster((LinearFunction(2, 2),)), 1)]
    shut += [ImageMassPredicate(ctx, op, "exclude") for op in (echo_operator(), silent_operator())]
    for pred in shut:
        assert candidates(ctx, pred, [3]) == []
    assert net.tables.reads == 0
    ctx, net = _gate_context(5, 3, [], 4, Cube.from_pattern("****"), caps)
    sparsity = SparsityPredicate(ctx, FunctionRoster((LinearFunction(0, 0),)), 1)
    for pred in (sparsity, ImageMassPredicate(ctx, flip_operator(), "exclude")):
        assert candidates(ctx, pred, [4]) == []
    assert net.tables.reads == 0


def test_an_open_level_over_the_member_cap_still_raises():
    caps = Caps(class_members=4)
    ctx, _net = _gate_context(5, 3, [], 3, Cube.from_pattern("***"), caps)
    sparsity = SparsityPredicate(ctx, FunctionRoster((LinearFunction(0, 0),)), 1)
    message = (
        "Caps.class_members = 4 exceeded at level 5, task 3, network 1: "
        "source region *** has 8 members"
    )
    for pred in (sparsity, ImageMassPredicate(ctx, flip_operator(), "exclude")):
        with pytest.raises(ResourceLimit) as hit:
            candidates(ctx, pred, [3])
        assert str(hit.value) == message
