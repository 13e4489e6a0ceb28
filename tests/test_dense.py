from fractions import Fraction

import pytest

from treeflow.bitseq import BitString
from treeflow.constructions import PRESETS, RunConfig, build
from treeflow.dense import DenseFailure, compare_runs, dense_build, strings

FLIP_FIRST = [
    {"kind": "flip", "name": "flip"},
    {"kind": "silent", "name": "silent"},
    {"kind": "echo", "name": "echo"},
]


@pytest.mark.parametrize("preset", PRESETS)
def test_engine_matches_literal_mirror(preset, replays12):
    bundle, run = replays12[0][preset]
    assert bundle.config == RunConfig(preset=preset, depth=12)
    assert compare_runs(bundle, run) == []


@pytest.mark.parametrize("preset", PRESETS)
def test_engine_matches_literal_mirror_at_depth_14(preset):
    config = RunConfig(preset=preset, depth=14)
    assert compare_runs(build(config), dense_build(config)) == []


def _flip_config(depth=12, **kw):
    return RunConfig(
        preset="divisible",
        depth=depth,
        rosters={
            "operators": FLIP_FIRST,
            "functions": [{"kind": "linear", "name": "double-plus-two", "a": 2, "b": 2}],
        },
        **kw,
    )


def test_flip_roster_divisible_matches():
    config = _flip_config()
    bundle = build(config)
    run = dense_build(config)
    assert compare_runs(bundle, run) == []
    assert [(str(e["source"]), str(e["target"])) for e in run.all_edges()] == [
        ("0", "0000"),
        ("1", "10000"),
    ]


def test_flip_roster_reject_mode_matches():
    config = _flip_config(discard_mode="reject")
    bundle = build(config)
    run = dense_build(config)
    assert compare_runs(bundle, run) == []


@pytest.mark.parametrize("mode", ["exclude", "reject"])
def test_flip_roster_matches_at_depth_14(mode):
    config = _flip_config(depth=14, discard_mode=mode)
    assert compare_runs(build(config), dense_build(config)) == []


def test_mirror_rebuilds_known_edges():
    run = dense_build(RunConfig(preset="nonstochastic", depth=12))
    assert [
        (str(e["source"]), str(e["target"]), e["step"], e["q"])
        for e in run.all_edges()
    ] == [
        ("0", "0000", 4, Fraction(1, 16)),
        ("1", "1000", 4, Fraction(1, 16)),
    ]
    net = run.net(1)
    assert net.s[4][BitString(4, 5)] == Fraction(1, 15)
    assert sum(net.R[12].values()) + sum(
        e["q"] * net.R[len(e["source"])][e["source"]]
        for e in net.edges
        if len(e["target"]) > 12
    ) == net.total_R(12)


def test_comparator_sees_tampering():
    config = RunConfig(preset="atom", depth=8)
    bundle = build(config)
    run = dense_build(config)
    assert compare_runs(bundle, run) == []
    x = BitString(5, 7)
    run.net(1).R[5][x] += Fraction(1, 1000)
    problems = compare_runs(bundle, run)
    assert problems
    assert any("frame differs" in p or "total R" in p for p in problems)


def test_comparator_sees_missing_edge():
    config = RunConfig(preset="nonstochastic", depth=8)
    bundle = build(config)
    run = dense_build(config)
    run.net(1).edges.pop()
    problems = compare_runs(bundle, run)
    assert any("edge lists differ" in p for p in problems)


def test_flow_splits_into_frame_and_transit():
    config = RunConfig(preset="nonstochastic", depth=10)
    run = dense_build(config)
    net = run.net(1)
    inside = BitString(3, 0)
    e = net.edge_by_source[BitString(1, 0)]
    assert e["target"] == BitString(4, 0)
    assert net.P(inside) == net.R[3][inside] + e["q"] * net.R[1][BitString(1, 0)]


def test_class_delay_check_guards_unevenness():
    config = RunConfig(preset="atom", depth=12)
    run = dense_build(config)
    # Forcing one class member's delay away from its representative must
    # trip the mirror's commit-time validation on a rebuilt step.
    net = run.net(1)
    drawn = [e for e in net.edges]
    assert drawn, "reference atom run draws at depth 12"
    with pytest.raises(DenseFailure):
        net.commit(13, {}, [dict(drawn[0], q=drawn[0]["q"] + 1)])


def test_strings_enumerates_each_level_once():
    for n in range(5):
        level = strings(n)
        assert len(level) == 1 << n
        assert len(set(level)) == 1 << n
