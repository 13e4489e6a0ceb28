"""Command line round trips: build, reload, check, export, filter."""

import json
from pathlib import Path

import pytest

from treeflow import network
from treeflow.cli import main, read_bundle
from treeflow.constructions import reference_roster_descriptors
from treeflow.verify import run_checks

BUNDLE_FILES = [
    "config.json",
    "levels.jsonl",
    "edges.jsonl",
    "aggregates.jsonl",
    "provenance.jsonl",
    "report.json",
]


def _build(tmp_path, *extra, name="a"):
    out = tmp_path / name
    rc = main(["build", *extra, "--out", str(out)])
    assert rc == 0
    return out


def _read_report(path):
    return json.loads(Path(path).read_text())


def test_build_writes_the_bundle(tmp_path):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "8")
    for name in BUNDLE_FILES:
        assert (out / name).exists()
    config = _read_report(out / "config.json")
    assert config["preset"] == "nonstochastic"
    assert config["depth"] == 8
    report = _read_report(out / "report.json")
    assert report["edge_counts"] == {"1": 2}
    assert report["discards"] == 0
    assert report["final_kept_share"]["1"].count("/") == 1


def test_build_rejects_bad_input(tmp_path):
    assert main(["build", "--depth", "5", "--out", str(tmp_path / "x")]) == 2
    assert (
        main(
            ["build", "--preset", "atom", "--depth", "-1", "--out", str(tmp_path / "y")]
        )
        == 2
    )
    bad = tmp_path / "bad.json"
    bad.write_text('{"preset": "atom", "depth": 4, "bogus": 1}')
    assert main(["build", "--config", str(bad), "--out", str(tmp_path / "z")]) == 2


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "atom", "depth": 4}))
    out = tmp_path / "a"
    assert main(["build", "--config", str(cfg), "--depth", "6", "--out", str(out)]) == 0
    assert _read_report(out / "config.json")["depth"] == 6
    assert _read_report(out / "report.json")["depth"] == 6


@pytest.mark.parametrize("preset", ["family", "hyperimmune"])
def test_multi_network_presets_default_to_three_networks(tmp_path, preset):
    out = _build(tmp_path, "--preset", preset, "--depth", "10")
    assert _read_report(out / "config.json")["networks"] == 3
    assert _read_report(out / "report.json")["networks"] == 3


def test_two_builds_are_byte_identical(tmp_path):
    a = _build(tmp_path, "--preset", "family", "--depth", "8", "--networks", "3")
    b = _build(
        tmp_path, "--preset", "family", "--depth", "8", "--networks", "3", name="b"
    )
    for name in BUNDLE_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_export_round_trip_is_byte_identical(tmp_path):
    a = _build(tmp_path, "--preset", "family", "--depth", "10", "--networks", "3")
    b = tmp_path / "b"
    c = tmp_path / "c"
    assert main(["export", str(a), "--out", str(b)]) == 0
    assert main(["export", str(b), "--out", str(c)]) == 0
    for name in BUNDLE_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert (b / name).read_bytes() == (c / name).read_bytes(), name


@pytest.mark.parametrize(
    "preset,extra",
    [
        ("nonstochastic", ()),
        ("divisible", ()),
        ("atom", ()),
        ("family", ("--networks", "3")),
        ("hyperimmune", ("--networks", "3")),
    ],
)
def test_reloaded_bundle_passes_all_checks(tmp_path, preset, extra):
    out = _build(tmp_path, "--preset", preset, "--depth", "8", *extra)
    report_path = tmp_path / "report.json"
    rc = main(["verify", str(out), "--checks", "all", "--out", str(report_path)])
    assert rc == 0
    report = _read_report(report_path)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "conservation" in names
    assert all(c["passed"] for c in report["checks"])


def test_verify_check_selector_accepts_dashes(tmp_path):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "6")
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            str(out),
            "--checks",
            "delay-form,no-overlap",
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0
    names = [c["name"] for c in _read_report(report_path)["checks"]]
    assert names == ["delay_form", "no_overlap"]
    assert main(["verify", str(out), "--checks", "bogus"]) == 2
    assert main(["verify", str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize("checks", [",", "", " , "])
def test_verify_checks_naming_no_check_is_bad_input(tmp_path, capsys, checks):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "6")
    capsys.readouterr()
    assert main(["verify", str(out), "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert "names no check" in captured.err
    assert captured.out == ""


def test_verify_oracle_depth(tmp_path):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "8")
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            str(out),
            "--checks",
            "delay-form",
            "--oracle-depth",
            "8",
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0
    names = [c["name"] for c in _read_report(report_path)["checks"]]
    assert names == ["delay_form", "dense_oracle"]
    assert main(["verify", str(out), "--oracle-depth", "20"]) == 4


def test_oracle_depth_over_the_cap_is_a_hit_cap(tmp_path, capsys):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "16")
    capsys.readouterr()
    assert main(["verify", str(out), "--oracle-depth", "15"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(
        "resource cap hit: verify.ORACLE_DEPTH_CAP = 14 exceeded at level 15, "
    )
    assert "construction violation" not in err


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_a_lowered_cap_in_the_config_is_a_hit_cap(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "run.json",
        {"preset": "nonstochastic", "depth": 12, "caps": {"candidates": 1}},
    )
    capsys.readouterr()
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 4
    assert capsys.readouterr().err.startswith(
        "resource cap hit: Caps.candidates = 1 exceeded at level 4, task 1, network 1"
    )


def test_the_oracle_rebuilds_under_the_bundle_caps(tmp_path, capsys):
    # Level 4 is the first to enumerate a second candidate, so depth 3
    # builds under the cap and the depth-8 replay does not.
    cfg = _write_config(
        tmp_path / "run.json",
        {"preset": "nonstochastic", "depth": 3, "caps": {"candidates": 1}},
    )
    out = _build(tmp_path, "--config", str(cfg))
    capsys.readouterr()
    assert main(["verify", str(out), "--oracle-depth", "8"]) == 4
    assert "Caps.candidates = 1 exceeded at level 4" in capsys.readouterr().err


def test_export_keeps_a_non_default_cap(tmp_path):
    cfg = _write_config(
        tmp_path / "run.json",
        {"preset": "atom", "depth": 10, "caps": {"beta_scan": 10000}},
    )
    out = _build(tmp_path, "--config", str(cfg))
    assert _read_report(out / "config.json")["caps"] == {
        "candidates": 4096,
        "beta_scan": 10000,
        "class_members": 4096,
    }
    copy = tmp_path / "copy"
    assert main(["export", str(out), "--out", str(copy)]) == 0
    for name in BUNDLE_FILES:
        assert (out / name).read_bytes() == (copy / name).read_bytes(), name


BAD_CONFIGS = {
    "string depth": {"depth": "4"},
    "bool depth": {"depth": True},
    "bool seed": {"seed": True},
    "float networks": {"networks": 1.0},
    "list rosters": {"rosters": []},
    "unknown operator kind": {
        "rosters": {
            **reference_roster_descriptors(),
            "operators": [{"kind": "nope", "name": "nope"}],
        }
    },
    "operator not an object": {
        "rosters": {**reference_roster_descriptors(), "operators": ["echo"]}
    },
    "operator missing a key": {
        "rosters": {
            **reference_roster_descriptors(),
            "operators": [{"kind": "const", "name": "const"}],
        }
    },
    "table conflict past the depth": {
        "rosters": {
            **reference_roster_descriptors(),
            "operators": [
                {"kind": "table", "entries": [["0", "10", 9], ["00", "01", 9]]}
            ],
        }
    },
    "zero cap": {"caps": {"beta_scan": 0}},
    "string cap": {"caps": {"candidates": "8"}},
    "bool cap": {"caps": {"class_members": True}},
    "unknown cap": {"caps": {"bogus": 1}},
    "list caps": {"caps": []},
}


@pytest.mark.parametrize("bad", sorted(BAD_CONFIGS))
def test_a_malformed_config_is_bad_input_everywhere(tmp_path, capsys, bad):
    payload = {"preset": "atom", "depth": 4, **BAD_CONFIGS[bad]}
    cfg = _write_config(tmp_path / "run.json", payload)
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    out = _build(tmp_path, "--preset", "atom", "--depth", "4")
    _write_config(out / "config.json", payload)
    assert main(["verify", str(out)]) == 2
    assert main(["export", str(out), "--out", str(tmp_path / "copy")]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 3
    assert all(line.startswith("error: ") for line in errors), errors


@pytest.mark.parametrize("mode", ["sparse", "dense"])
def test_an_inconsistent_table_is_refused_by_both_builds(tmp_path, capsys, mode):
    # The sparse build never evaluates the entries at input 00..., so it
    # used to write a bundle that the dense build crashed on.
    payload = {
        "preset": "nonstochastic",
        "depth": 6,
        "rosters": {
            "operators": [{"kind": "table", "entries": [["0", "10", 1], ["00", "01", 1]]}],
            "functions": [{"kind": "linear", "a": 2, "b": 2}],
        },
    }
    cfg = _write_config(tmp_path / "run.json", payload)
    argv = ["build", "--config", str(cfg), "--mode", mode]
    assert main([*argv, "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: bad rosters: InconsistentGraph(\"table entries '0' -> '10' and "
        "'00' -> '01' have comparable inputs and incomparable outputs\")"
    ]


def test_extension_shadow_is_not_applicable_before_it_is_capped(tmp_path, capsys):
    family = _build(tmp_path, "--preset", "family", "--depth", "16", name="f")
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            str(family),
            "--checks",
            "extension-shadow",
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0
    [check] = _read_report(report_path)["checks"]
    assert check["details"] == {"note": "not applicable"}

    nonstochastic = _build(
        tmp_path, "--preset", "nonstochastic", "--depth", "16", name="n"
    )
    capsys.readouterr()
    assert main(["verify", str(nonstochastic), "--checks", "extension-shadow"]) == 4
    assert capsys.readouterr().err.startswith(
        "resource cap hit: verify.ORACLE_DEPTH_CAP = 14 exceeded at level 16, "
    )


def _corrupt_first_suffix(out):
    path = out / "levels.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rec = next(r for r in rows if r["suffix"])
    pat = rec["suffix"][0][0]
    assert pat.endswith("*")
    rec["suffix"][0][0] = pat[:-1] + "x"
    return path, rows


def _corrupt_first_discard(out):
    path = out / "provenance.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rec = next(d for r in rows for d in r.get("discards", []))
    rec["patterns"][0] = "x" + rec["patterns"][0][1:]
    return path, rows


@pytest.mark.parametrize(
    "build_args,corrupt",
    [
        (("--preset", "atom", "--depth", "12"), _corrupt_first_suffix),
        (
            ("--preset", "family", "--depth", "8", "--networks", "3"),
            _corrupt_first_discard,
        ),
    ],
    ids=["suffix", "discard"],
)
def test_malformed_cube_pattern_is_bad_input(tmp_path, build_args, corrupt):
    out = _build(tmp_path, *build_args)
    path, rows = corrupt(out)
    path.write_text(
        "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows
        )
    )
    assert main(["verify", str(out)]) == 2
    assert main(["export", str(out), "--out", str(tmp_path / "copy")]) == 2


@pytest.mark.parametrize("same_delay", [False, True], ids=["other-delay", "same-delay"])
def test_overlapping_suffix_entries_are_impossible(tmp_path, capsys, same_delay):
    # The engine never writes two suffix entries of one table that share a
    # vertex, so such a file describes no construction whatever the delays.
    out = _build(tmp_path, "--preset", "atom", "--depth", "12")
    path = out / "levels.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rec = next(r for r in rows if r["suffix"])
    pat, v = rec["suffix"][0]
    assert "*" in pat
    other = v if same_delay else ("1/2" if v != "1/2" else "1/3")
    rec["suffix"].append([pat.replace("*", "0", 1), other])
    path.write_text(
        "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows
        )
    )
    capsys.readouterr()
    assert main(["verify", str(out)]) == 3
    last = len(rec["suffix"]) - 1
    err = capsys.readouterr().err
    assert f"level {rec['level']}: suffix entries 0 and {last} overlap" in err
    assert main(["export", str(out), "--out", str(tmp_path / "copy")]) == 3
    assert not (tmp_path / "copy").exists()


def test_deep_atom_bundle_round_trips(tmp_path, deep_bundles):
    # Level 232 holds 14,175 suffix entries: the reload takes them in as one
    # batch, and conservation's held-mass walk builds their partition.
    bundle, out = deep_bundles("atom", 240)
    assert len(bundle.network(1).tables[232].suffix) == 14175
    assert main(["export", str(out), "--out", str(tmp_path / "b")]) == 0
    for name in BUNDLE_FILES:
        a, b = out / name, tmp_path / "b" / name
        assert a.read_bytes() == b.read_bytes(), name
    [report] = run_checks(bundle, ["conservation"])
    assert report.passed, report.witness


def test_corrupted_edge_file_fails_the_crossing_check(tmp_path):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "8")
    # A weightless edge from an uninstalled level: it reloads cleanly but
    # crosses straight through an existing edge's span.
    row = {
        "from": "00",
        "network": 1,
        "q": "0/1",
        "step": 7,
        "subtask": None,
        "task": 1,
        "to": "0000000",
    }
    with (out / "edges.jsonl").open("a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    report_path = tmp_path / "report.json"
    rc = main(
        ["verify", str(out), "--checks", "no-overlap", "--out", str(report_path)]
    )
    assert rc == 1
    report = _read_report(report_path)
    assert report["passed"] is False
    witness = report["checks"][0]["witness"]
    assert witness["outer"] == ["0", "0000"]
    assert witness["inner"] == ["00", "0000000"]


def test_tampered_aggregates(tmp_path):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "6")
    lines = (out / "aggregates.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    # Self-consistent but wrong: the reload accepts it, the check does not.
    last["total_R"] = "3/4"
    last["s_n"] = "3/4"
    assert last["extra_inflow"] == "0/1"
    lines[-1] = json.dumps(last, sort_keys=True, separators=(",", ":"))
    (out / "aggregates.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["verify", str(out), "--checks", "conservation"]) == 1
    # Internally inconsistent: rejected at load.
    last["s_n"] = "1/2"
    lines[-1] = json.dumps(last, sort_keys=True, separators=(",", ":"))
    (out / "aggregates.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["verify", str(out), "--checks", "conservation"]) == 2


def test_export_and_mltest_push_no_frame(tmp_path, monkeypatch):
    # Neither command reads a frame, so a reload records its levels and
    # never pushes one.
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "24")

    def refuse(*args):
        raise AssertionError("a frame was pushed")

    monkeypatch.setattr(network, "push_down", refuse)
    copy = tmp_path / "copy"
    assert main(["export", str(out), "--out", str(copy)]) == 0
    for name in BUNDLE_FILES:
        assert (out / name).read_bytes() == (copy / name).read_bytes(), name
    assert main(["mltest", str(out), "--out", str(tmp_path / "ml.jsonl")]) == 0


def _rewrite_edges(out, edit):
    path = out / "edges.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows = edit(rows)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: [{**rows[0], "q": "1/7"}, *rows[1:]],
        lambda rows: [rows[0], *rows],
    ],
    ids=["weight off the source delay", "second edge out of one source"],
)
def test_edge_faults_are_rejected_at_read(tmp_path, edit):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "8")
    _rewrite_edges(out, edit)
    assert main(["export", str(out), "--out", str(tmp_path / "copy")]) == 3
    assert main(["mltest", str(out)]) == 3
    assert main(["verify", str(out)]) == 3


def test_an_edge_below_the_depth_is_bad_input(tmp_path, capsys):
    # An edge whose target lies past the bundle's last level has no level
    # to land on; every command that reads the bundle refuses it.
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "8")
    deep = {"from": "0000", "to": "0000000000"}
    _rewrite_edges(out, lambda rows: [*rows, {**rows[0], **deep}])
    assert main(["export", str(out), "--out", str(tmp_path / "copy")]) == 2
    assert main(["mltest", str(out)]) == 2
    assert main(["verify", str(out)]) == 2
    for line in capsys.readouterr().err.splitlines():
        assert "0000 -> 0000000000 of network 1" in line, line
        assert "depth 8" in line, line


def test_a_wrong_share_in_a_deferred_push_trips_the_ledger(
    tmp_path, monkeypatch, capsys
):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "8")
    push_down = network.push_down

    def skewed(items, parts):
        # The carried mass is right; the first child share is doubled.
        pushed_items, pushed = push_down(items, parts)
        (c, v), *rest = pushed_items
        return [(c, 2 * v), *rest], pushed

    monkeypatch.setattr(network, "push_down", skewed)
    assert main(["verify", str(out)]) == 3
    assert "conservation ledger" in capsys.readouterr().err


def test_malformed_delay_rejected_as_violation(tmp_path):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "6")
    lines = (out / "levels.jsonl").read_text().splitlines()
    rec = json.loads(lines[-1])
    rec["default"] = "2/5"
    lines[-1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    (out / "levels.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["verify", str(out)]) == 3


def test_trace_filters(tmp_path):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "8")
    dump = tmp_path / "rows.jsonl"
    assert main(["trace", str(out), "--task", "1", "--out", str(dump)]) == 0
    rows = [json.loads(l) for l in dump.read_text().splitlines()]
    assert [r["step"] for r in rows] == [1, 2, 4, 7]
    assert {r["task"] for r in rows} == {1}
    assert main(["trace", str(out), "--level", "4", "--out", str(dump)]) == 0
    rows = [json.loads(l) for l in dump.read_text().splitlines()]
    assert len(rows) == 1 and rows[0]["step"] == 4
    assert rows[0]["edges"]
    assert main(["trace", str(out), "--task", "99", "--out", str(dump)]) == 0
    assert dump.read_text() == ""


def test_mltest_masses_and_bounds(tmp_path):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "8")
    dump = tmp_path / "ml.jsonl"
    assert main(["mltest", str(out), "--out", str(dump)]) == 0
    rows = [json.loads(l) for l in dump.read_text().splitlines()]
    assert [r["index"] for r in rows] == [1, 2, 3]
    first = rows[0]
    assert first["roots"] == ["0000", "1000"]
    assert first["mass"] == "1/8"
    assert first["ok"] and first["tail_ok"]
    assert main(["mltest", str(out), "--index", "1", "--out", str(dump)]) == 0
    rows = [json.loads(l) for l in dump.read_text().splitlines()]
    assert len(rows) == 1 and rows[0]["index"] == 1
    assert main(["mltest", str(out), "--index", "99"]) == 2


@pytest.mark.parametrize("index", ["0", "-1"])
def test_mltest_index_below_one_is_bad_input(tmp_path, capsys, index):
    out = _build(tmp_path, "--preset", "nonstochastic", "--depth", "8")
    capsys.readouterr()
    assert main(["mltest", str(out), "--index", index]) == 2
    assert f"task index {index} is below 1" in capsys.readouterr().err


def test_mltest_needs_an_image_length_preset(tmp_path):
    out = _build(tmp_path, "--preset", "family", "--depth", "6", "--networks", "3")
    assert main(["mltest", str(out)]) == 2


def test_mltest_inert_roster_gives_empty_unions(tmp_path):
    cfg = tmp_path / "run.json"
    rosters = {
        "operators": [
            {"kind": "silent", "name": f"silent-{i}"} for i in range(5)
        ],
        "functions": reference_roster_descriptors()["functions"],
    }
    cfg.write_text(
        json.dumps({"preset": "nonstochastic", "depth": 8, "rosters": rosters})
    )
    out = tmp_path / "a"
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
    assert _read_report(out / "report.json")["edge_counts"] == {"1": 0}
    dump = tmp_path / "ml.jsonl"
    assert main(["mltest", str(out), "--out", str(dump)]) == 0
    for row in (json.loads(l) for l in dump.read_text().splitlines()):
        assert row["roots"] == []
        assert row["mass"] == "0/1"
        assert row["ok"] and row["tail_ok"]


def test_depth_zero_bundle(tmp_path):
    out = _build(tmp_path, "--preset", "atom", "--depth", "0")
    rows = [json.loads(l) for l in (out / "levels.jsonl").read_text().splitlines()]
    assert len(rows) == 1 and rows[0]["level"] == 0
    aggs = [
        json.loads(l) for l in (out / "aggregates.jsonl").read_text().splitlines()
    ]
    assert aggs[0]["s_n"] == "1/1"
    assert main(["verify", str(out)]) == 0


def test_dense_mode_build(tmp_path):
    out = tmp_path / "a"
    rc = main(
        [
            "build",
            "--preset",
            "atom",
            "--depth",
            "6",
            "--mode",
            "dense",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert _read_report(out / "config.json")["mode"] == "dense"
    deep = ["build", "--preset", "atom", "--depth", "20", "--mode", "dense"]
    assert main([*deep, "--out", str(tmp_path / "b")]) == 2


def test_read_bundle_reconstructs_discards(tmp_path):
    out = _build(tmp_path, "--preset", "family", "--depth", "8", "--networks", "3")
    bundle = read_bundle(out)
    assert len(bundle.discards) == 1
    d = bundle.discards[0]
    assert d.network_id != d.edge.network_id
    assert bundle.network(d.edge.network_id).outgoing_edge(d.edge.source) is d.edge
