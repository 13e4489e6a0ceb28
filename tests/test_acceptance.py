"""Acceptance run over the five shipped presets.

Eight numbered claims, one test each. Every test prints a single line,
"criterion N: PASS" or "criterion N: FAIL", then asserts the condition,
so `pytest tests/test_acceptance.py -s` reads as a checklist:

1. sparse builds and dense vertex replays agree exactly at depth 12
2. kept shares clear the install-loss budget and the 1/2 floor through
   depth 48 on every network
3. the delay-shape and nesting checks pass clean at both depths, and a
   bundle corrupted in one place trips exactly the targeted check
4. edge classes are equal-weight and every suffix pair of every compared
   level shows exactly proportional flows at depth 20, covering every task
5. per-task interval masses stay under their allowance sums and 2^-i,
   tails included
6. discard records carry the draw-time bound and silence both children,
   checked by full enumeration at depth 12
7. every odd-task edge on the deep multi-network run has the forced
   source-1-zeros shape, clears its step-counted function gate, and
   keeps the sparse-ones prefix
8. rebuilding from the same setup and re-exporting a loaded bundle are
   both byte-identical, in seconds

All comparisons are exact rational arithmetic; nothing here tolerates
rounding slack.
"""

import time
from fractions import Fraction

import pytest

from treeflow.bitseq import BitString, index_of
from treeflow.cli import read_bundle, write_bundle
from treeflow.constructions import (
    build_atom,
    build_atom_family,
    build_divisible,
    build_hyperimmune,
    build_nonstochastic,
    ml_test,
)
from treeflow.dense import compare_runs, dense_build
from treeflow.network import ExtraEdge, rat_str
from treeflow.operators import phi_bounded
from treeflow.verify import (
    check_delay_form,
    check_discards,
    check_duplication,
    check_no_overlap,
    check_ratio_identity,
    check_sn_bound,
    run_checks,
)

BUILDERS = {
    "nonstochastic": build_nonstochastic,
    "divisible": build_divisible,
    "atom": build_atom,
    "family": build_atom_family,
    "hyperimmune": build_hyperimmune,
}

BUNDLE_FILES = [
    "config.json",
    "levels.jsonl",
    "edges.jsonl",
    "aggregates.jsonl",
    "provenance.jsonl",
    "report.json",
]


def _result(num: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {tag}{suffix}")


def _leaks(reports, target):
    """Failures other than the targeted one, or the target not tripping."""
    by = {r.name: r for r in reports}
    out = []
    if by[target].passed:
        out.append((target, "did not trip"))
    out.extend(
        (r.name, r.witness) for r in reports if r.name != target and not r.passed
    )
    return out


@pytest.fixture(scope="module")
def bundles12():
    t0 = time.monotonic()
    built = {name: fn(12) for name, fn in sorted(BUILDERS.items())}
    return built, time.monotonic() - t0


@pytest.fixture(scope="module")
def bundles48():
    t0 = time.monotonic()
    built = {name: fn(48) for name, fn in sorted(BUILDERS.items())}
    return built, time.monotonic() - t0


def test_c1_dense_replay_agreement(bundles12):
    bundles, build_seconds = bundles12
    t0 = time.monotonic()
    problems = []
    for name, b in sorted(bundles.items()):
        diffs = compare_runs(b, dense_build(b.config))
        if diffs:
            problems.append((name, diffs[:3]))
    elapsed = build_seconds + (time.monotonic() - t0)
    if elapsed >= 300:
        problems.append(f"took {elapsed:.1f}s, budget 300s")
    ok = not problems
    _result(1, ok, f"5 presets, depth 12, {elapsed:.1f}s")
    assert not problems, problems


def test_c2_kept_share_floor_depth_48(bundles48):
    bundles, build_seconds = bundles48
    t0 = time.monotonic()
    problems = []
    for name, b in sorted(bundles.items()):
        rep = check_sn_bound(b)
        if not rep.passed:
            problems.append((name, rep.witness))
    elapsed = build_seconds + (time.monotonic() - t0)
    if elapsed >= 600:
        problems.append(f"took {elapsed:.1f}s, budget 600s")
    ok = not problems
    _result(2, ok, f"5 presets, every network, levels 0..48, {elapsed:.1f}s")
    assert not problems, problems


def test_c3_shape_checks_and_targeted_corruptions(bundles12, bundles48):
    problems = []
    for label, (bundles, _) in (("depth 12", bundles12), ("depth 48", bundles48)):
        for name, b in sorted(bundles.items()):
            for rep in (check_delay_form(b), check_no_overlap(b)):
                if not rep.passed:
                    problems.append((label, name, rep.name, rep.witness))

    # Fresh builds for the corruptions so the shared bundles stay clean.
    poked = build_nonstochastic(12)
    table = poked.network(1).tables[-1]
    table.vertex[BitString(12, 0)] = Fraction(2, 5)
    table._partition = None
    problems.extend(("delay poke", *leak) for leak in _leaks(run_checks(poked), "delay_form"))

    nested = build_nonstochastic(12)
    net = nested.network(1)
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
    problems.extend(("nested pair", *leak) for leak in _leaks(run_checks(nested), "no_overlap"))

    ok = not problems
    _result(3, ok, "clean on 10 bundles, both corruptions isolated")
    assert not problems, problems


def test_c4_class_weights_and_ratio_identity():
    # Every pair of every compared level is decided: the counts are the
    # levels compared, the head regions (one per first tail bit) with
    # nonzero prefix flow, the levels skipped as straddling an unsettled
    # task, and the regions with zero prefix flow.
    want = {"atom": (17, 188, 0, 0), "family": (17, 178, 0, 10)}
    problems = []
    detail = []
    for name, fn in (("atom", build_atom), ("family", build_atom_family)):
        b = fn(20)
        dup = check_duplication(b)
        if not dup.passed:
            problems.append((name, "duplication", dup.witness))
        rep = check_ratio_identity(b, min_coverage=Fraction(4, 5))
        if not rep.passed:
            problems.append((name, "ratio_identity", rep.witness))
            continue
        walk = rep.details["coverage"]
        if walk["walk"] != "exhaustive":
            problems.append((name, "walk", walk))
        counts = (
            walk["levels"],
            walk["regions"],
            walk["straddling_levels"],
            walk["zero_prefix_regions"],
        )
        if counts != want[name]:
            problems.append((name, "counts", counts))
        detail.append(
            f"{name}: levels={walk['levels']} regions={walk['regions']} "
            f"zero_prefix={walk['zero_prefix_regions']} "
            f"coverage={rep.details['task_coverage']}"
        )
    ok = not problems
    _result(4, ok, "; ".join(detail))
    assert not problems, problems


def test_c5_interval_mass_caps(bundles12):
    bundles, _ = bundles12
    problems = []
    detail = []
    for name in ("nonstochastic", "atom"):
        t = ml_test(bundles[name])
        if not t.ok():
            problems.append((name, "test set over cap"))
        drawn = 0
        for i, entry in sorted(t.per_index.items()):
            cap = Fraction(1, 2 ** i)
            if entry["edge_count"] == 0:
                continue
            drawn += 1
            if not entry["mass"] <= entry["bound_sum"] <= cap:
                problems.append(
                    (name, i, rat_str(entry["mass"]), rat_str(entry["bound_sum"]))
                )
        for i, entry in sorted(t.tails.items()):
            if entry["mass"] > Fraction(1, 2 ** i):
                problems.append((name, i, "tail", rat_str(entry["mass"])))
        detail.append(f"{name}: {drawn} of {t.max_task} indices drew edges")
    ok = not problems
    _result(5, ok, "; ".join(detail))
    assert not problems, problems


def test_c6_discard_bounds_exhaustive(bundles12):
    bundles, _ = bundles12
    problems = []
    records = 0
    for name, b in sorted(bundles.items()):
        rep = check_discards(b)
        if not rep.passed:
            problems.append((name, rep.witness))
            continue
        if rep.details["coverage"]["walk"] != "exhaustive":
            problems.append((name, "fell back to sampling"))
        records += rep.details["records"]
    if records == 0:
        problems.append("no discard records in any bundle")
    ok = not problems
    _result(6, ok, f"{records} records, children enumerated in full")
    assert not problems, problems


def test_c7_forced_shape_and_function_gate():
    b = build_hyperimmune(32)
    edges = sorted(
        (e for net in b.networks for e in net.edges),
        key=lambda e: (e.step_drawn, e.network_id, index_of(e.source)),
    )
    odd = [e for e in edges if e.task > 1 and e.task % 2 == 1]
    problems = []
    if not odd:
        problems.append("no odd-task edges drawn by depth 32")
    for e in odd:
        gap = len(e.target) - len(e.source)
        if gap < 2 or e.target != e.source.child(1).concat(BitString(gap - 1, 0)):
            problems.append(("shape", str(e.source), str(e.target)))
            continue
        j = (e.task - 1) // 2
        k = len(e.source) + 2
        value = phi_bounded(b.functions, j, k, len(e.target))
        if value is None or len(e.target) < value:
            problems.append(("gate", str(e.source), len(e.target), value))
            continue
        prefix = e.target.truncate(value)
        if bin(prefix.value).count("1") >= k:
            problems.append(("prefix ones", str(e.target), value, k))
    ok = not problems
    _result(7, ok, f"{len(odd)} odd-task edges, all forced-shape and gated")
    assert not problems, problems


def test_c8_byte_identical_export(tmp_path):
    t0 = time.monotonic()
    problems = []
    for name, depth in (("family", 10), ("nonstochastic", 10)):
        first = tmp_path / f"{name}-first"
        again = tmp_path / f"{name}-again"
        loaded = tmp_path / f"{name}-loaded"
        write_bundle(BUILDERS[name](depth), first)
        write_bundle(BUILDERS[name](depth), again)
        for fn in BUNDLE_FILES:
            if (first / fn).read_bytes() != (again / fn).read_bytes():
                problems.append((name, "rebuild", fn))
        write_bundle(read_bundle(first), loaded)
        for fn in BUNDLE_FILES:
            if (first / fn).read_bytes() != (loaded / fn).read_bytes():
                problems.append((name, "round-trip", fn))
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    ok = not problems
    _result(8, ok, f"2 presets, depth 10, {elapsed:.1f}s")
    assert not problems, problems
