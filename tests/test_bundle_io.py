"""Bundles at the row level: the writer's formatted rows against the
encoder, the .jsonl loader against per-line json.loads, and faults
anywhere in a bundle's bytes as bad input."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from test_golden import FLIP_ROSTERS

from treeflow import cli
from treeflow.bitseq import BitString
from treeflow.cli import (
    BundleError,
    _aggregates_row,
    _bundle_report,
    _canon,
    _edge_row,
    _level_row,
    _load_jsonl,
    _pretty,
    _prov_row,
    _rat_memo,
    main,
    write_bundle,
)
from treeflow.constructions import PRESETS, RunConfig, build
from treeflow.cubes import Cube
from treeflow.network import (
    ConstructionError,
    DelayTable,
    ExtraEdge,
    LevelAggregates,
    rat_str,
)

# --- writing rows --------------------------------------------------------

# Delays are 0 or 1/M; other rationals are any sign and size.
big = st.integers(1, 2**300)
delays = st.just(Fraction(0)) | big.map(lambda m: Fraction(1, m))
rationals = st.builds(Fraction, st.integers(-(2**300), 2**300), big)


def _bits(n):
    return st.integers(0, 2**n - 1).map(lambda v: BitString(n, v))


@st.composite
def tables(draw):
    """A delay table with vertex, suffix and subtree entries, where an
    entry that conflicts with one drawn before is left out; or, as most
    levels are, a table of its default alone at any level up to 128."""
    if draw(st.booleans()):
        return DelayTable(draw(st.integers(0, 128)), draw(delays))
    n = draw(st.integers(0, 6))
    table = DelayTable(n, draw(delays))
    for _ in range(draw(st.integers(0, 6))):
        kind, v = draw(st.sampled_from(["vertex", "suffix", "subtree"])), draw(delays)
        try:
            if kind == "vertex":
                table.set_vertex(draw(_bits(n)), v)
            elif kind == "suffix":
                pattern = draw(st.text("01*", min_size=n, max_size=n))
                table.add_suffix([(Cube.from_pattern(pattern), v)])
            else:
                table.add_subtree(draw(_bits(draw(st.integers(0, n)))), v)
        except ConstructionError:
            pass
    return table


@st.composite
def edges(draw):
    source = draw(_bits(draw(st.integers(0, 8))))
    target = source.concat(draw(_bits(draw(st.integers(2, 8)))))
    ints = st.integers(0, 10**30)
    return ExtraEdge(
        source=source,
        target=target,
        q=draw(rationals),
        task=draw(ints),
        subtask=draw(st.none() | ints),
        network_id=draw(ints),
        step_drawn=draw(ints),
    )


def _reference_level(net_id, table):
    return {
        "network": net_id,
        "level": table.level,
        "default": rat_str(table.default),
        "vertex": [[str(x), rat_str(v)] for x, v in sorted(table.vertex.items())],
        "suffix": [[c.pattern(), rat_str(v)] for c, v in table.suffix],
        "subtree": [[str(r), rat_str(v)] for r, v in sorted(table.subtree.items())],
    }


def _reference_edge(e):
    return {
        "from": str(e.source),
        "to": str(e.target),
        "q": rat_str(e.q),
        "task": e.task,
        "subtask": e.subtask,
        "network": e.network_id,
        "step": e.step_drawn,
    }


def _reference_aggregates(net_id, n, agg):
    return {
        "network": net_id,
        "level": n,
        "total_R": rat_str(agg.total_R),
        "extra_inflow": rat_str(agg.extra_inflow),
        "s_n": rat_str(agg.s_n),
    }


@given(tables(), st.integers(1, 10**30), st.booleans())
def test_a_level_row_is_the_encoded_record(table, net_id, memo):
    # The writer's memoizing formatter, or rat_str, as trace uses.
    rat = _rat_memo() if memo else rat_str
    row = _level_row(net_id, table, rat)
    assert row == _canon(_reference_level(net_id, table))


@given(
    rationals,
    st.just(Fraction(0)) | rationals,
    st.integers(1, 10**30),
    st.integers(0, 10**30),
    st.booleans(),
)
def test_an_aggregates_row_is_the_encoded_record(total, inflow, net_id, n, memo):
    # The writer's memoizing formatter, or rat_str. The second row is a
    # quiet level below the first: it takes the first's total object as
    # its own, with no inflow, so its s_n is that same object. The third
    # has no inflow and a share equal to its total in value, but another
    # object, so it is formatted field by field.
    rat = _rat_memo() if memo else rat_str
    agg = LevelAggregates(total, inflow)
    quiet = LevelAggregates(agg.total_R, Fraction(0))
    assert quiet.s_n is quiet.total_R is agg.total_R
    twin = LevelAggregates(total, Fraction(0))
    twin.s_n = Fraction(total)
    assert twin.s_n == twin.total_R and twin.s_n is not twin.total_R
    for k, row in enumerate([agg, quiet, twin]):
        want = _canon(_reference_aggregates(net_id, n + k, row))
        assert _aggregates_row(net_id, n + k, row, rat) == want


@given(edges(), st.booleans())
def test_an_edge_row_is_the_encoded_record(e, memo):
    rat = _rat_memo() if memo else rat_str
    assert _edge_row(e, rat) == _canon(_reference_edge(e))


PROV_INTS = ("case", "network", "step", "task")
PROV_NULLABLE = ("subtask", "w", "wk")
big_ints = st.integers(-(10**30), 10**30)
# Notes that need escaping: quotes, backslashes, control and non-ASCII
# characters, astral ones and a lone surrogate (as JSON may spell one)
# included.
notes = st.text(
    st.sampled_from('"\\/\n\t\x00\x1f\x7f\xe9\u2603\U0001f600\ud800')
    | st.characters()
)
odd_values = st.booleans() | st.floats() | st.text(max_size=3) | st.none()


@st.composite
def provenance_rows(draw):
    """A row a bundle may hold: one the engine writes (ints up to 10**30,
    nulls, any note, no discards), or one `export` may read, with a key
    more or less, a value of another type, or discards."""
    row = {key: draw(big_ints) for key in PROV_INTS}
    row.update({key: draw(st.none() | big_ints) for key in PROV_NULLABLE})
    row["note"] = draw(st.none() | notes)
    row["discards"] = []
    change = draw(st.sampled_from(["none", "extra", "missing", "odd", "discards"]))
    if change == "extra":
        row[draw(st.text(max_size=8))] = draw(odd_values | big_ints)
    elif change == "missing":
        del row[draw(st.sampled_from(sorted(row)))]
    elif change == "odd":
        row[draw(st.sampled_from(sorted(row)))] = draw(odd_values)
    elif change == "discards":
        row["discards"] = [
            {
                "bound": "1/8",
                "edge_network": 1,
                "network": 2,
                "patterns": ["0*"],
                "source": "0",
                "step": 3,
                "target": "011",
            }
        ]
    # In the engine's order or in a reloaded row's, or any other.
    keys = draw(st.permutations(list(row)))
    return {key: row[key] for key in keys}


@given(provenance_rows())
def test_a_provenance_row_is_the_encoded_record(row):
    assert _prov_row(row) == _canon(row)


def test_the_engine_provenance_rows_are_formatted_not_encoded(monkeypatch):
    # Every row of a run that has no discards takes the f-string: with the
    # encoder gone, the formatter still gives its bytes.
    bundle = build(RunConfig(preset="family", depth=12, networks=3))
    rows = [r for r in bundle.provenance if not r["discards"]]
    assert 0 < len(rows) < len(bundle.provenance)
    want = [_canon(r) for r in rows]
    monkeypatch.setattr(cli, "_canon", None)
    assert [_prov_row(r) for r in rows] == want


def _reference_write(bundle, outdir):
    """The bundle's files with every row a dict through the encoder."""
    outdir.mkdir()

    def jsonl(name, rows):
        (outdir / name).write_text("".join(_canon(r) + "\n" for r in rows))

    (outdir / "config.json").write_text(_pretty(bundle.config.to_payload()))
    nets = bundle.networks
    jsonl(
        "levels.jsonl",
        [
            _reference_level(net.network_id, net.tables[n])
            for n in range(bundle.depth + 1)
            for net in nets
        ],
    )
    jsonl("edges.jsonl", [_reference_edge(e) for net in nets for e in net.edges])
    jsonl(
        "aggregates.jsonl",
        [
            _reference_aggregates(net.network_id, n, agg)
            for net in nets
            for n, agg in enumerate(net.aggregates)
        ],
    )
    jsonl("provenance.jsonl", bundle.provenance)
    (outdir / "report.json").write_text(_pretty(_bundle_report(bundle)))


WRITTEN = {
    **{preset: RunConfig(preset=preset, depth=12) for preset in PRESETS},
    **{
        f"divisible flip {mode}": RunConfig(
            preset="divisible", depth=12, discard_mode=mode, rosters=FLIP_ROSTERS
        )
        for mode in ("exclude", "reject")
    },
    # Long runs of quiet levels, whose aggregates rows share one total.
    "nonstochastic-128": RunConfig(preset="nonstochastic", depth=128),
    "family-128": RunConfig(preset="family", depth=128, networks=3),
}


@pytest.mark.parametrize("case", sorted(WRITTEN))
def test_the_writer_writes_the_bytes_of_the_encoder(tmp_path, case):
    bundle = build(WRITTEN[case])
    write_bundle(bundle, tmp_path / "written")
    _reference_write(bundle, tmp_path / "reference")
    names = sorted(p.name for p in (tmp_path / "reference").iterdir())
    assert sorted(p.name for p in (tmp_path / "written").iterdir()) == names
    for name in names:
        want = (tmp_path / "reference" / name).read_bytes()
        assert (tmp_path / "written" / name).read_bytes() == want, name


# --- reading rows --------------------------------------------------------

JSON_SPACE = ["", " ", "\t", "  \t", " \t "]


def _reference_load(path):
    """The rows of a .jsonl file as per-line json.loads reads them."""
    rows = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BundleError(f"{path}:{lineno}: {exc}")
        if not isinstance(row, dict):
            raise BundleError(f"{path}:{lineno}: row is not a JSON object")
        rows.append(row)
    return rows


def _outcome(load, path):
    """The rows a loader returns, or the path:line its error names."""
    try:
        return "rows", load(path)
    except BundleError as exc:
        return "error", str(exc).split(": ")[0]


def _assert_same_as_json_loads(path, text):
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(_load_jsonl, path) == _outcome(_reference_load, path)


HAND_WRITTEN = {
    "canonical rows": '{"a":1}\n{"b":[1,2]}\n',
    "leading and trailing spaces and tabs": ' \t{"a":1}\t \n  {"b":2}  \n',
    "carriage returns": '{"a":1}\r\n{"b":2}\r\n',
    "blank lines": '\n  \n{"a":1}\n\t\n\n{"b":2}\n \t \n',
    "a blank line of other whitespace": '{"a":1}\n\xa0　\n{"b":2}\n',
    "no final newline": '{"a":1}\n{"b":2}',
    "extra data": '{"a":1}\n{"b":2} x\n',
    "extra data after spaces": '{"a":1}\n  {"b":2}  \t 7\n',
    "a second value": '{"a":1}{"b":2}\n',
    "a trailing space that is not JSON's": '{"a":1}\xa0\n',
    "one row split over two lines": '{"a":[1\n2]}\n',
    "an array split over two lines": '{"a":1}\n[1,\n2]\n',
    "not an object": '{"a":1}\n[1,2]\n',
    "a number": '{"a":1}\n\n 5 \n',
    "a byte order mark": '﻿{"a":1}\n',
    "an empty file": "",
    "only blank lines": "\n \n\t\n",
    "a bad value after blank lines": '\n\n{"a":1}\n\n{"a":}\n',
    # Line breaks that str.splitlines takes and JSON does not: inside a
    # string value they cut the row in two, between rows they separate.
    "a raw line separator in a string value": '{"a":1}\n{"b":"x\u2028y"}\n',
    "a raw next line in a string value": '{"a":"x\x85y"}\n{"b":2}\n',
    "a vertical tab between rows": '{"a":1}\x0b{"b":2}\n',
    "a form feed between rows": '{"a":1}\x0c{"b":2}\n',
    "a file separator between rows": '{"a":1}\x1c{"b":2}\n',
}


@pytest.mark.parametrize("case", sorted(HAND_WRITTEN))
def test_jsonl_lines_load_as_json_loads_reads_them(tmp_path, case):
    _assert_same_as_json_loads(tmp_path / "rows.jsonl", HAND_WRITTEN[case])


@pytest.mark.parametrize(
    "line", ['  {"b":2}  \t 7', '{"b":2}{}', ' {"b":[1,}', '\t{"b"', "[1"]
)
def test_a_rejected_line_gets_the_error_json_loads_gives(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a":1}\n' + line + "\n")
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(line)
    with pytest.raises(BundleError) as got:
        _load_jsonl(path)
    assert str(got.value) == f"{path}:2: {want.value}"


def test_a_row_split_over_two_lines_is_rejected_at_its_first_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a":0}\n{"a":[1\n2]}\n')
    with pytest.raises(BundleError, match=r"rows\.jsonl:2: "):
        _load_jsonl(path)


json_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=6)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
rows = st.dictionaries(st.text(max_size=4), json_values, max_size=4)
lines = st.one_of(
    st.tuples(st.sampled_from(JSON_SPACE), rows.map(_canon), st.sampled_from(JSON_SPACE)),
    st.tuples(st.just(""), json_values.map(_canon), st.just("")),
    st.tuples(
        st.sampled_from(JSON_SPACE),
        rows.map(_canon),
        st.sampled_from([" x", "{}", "]", ",", " 1", "\xa0"]),
    ),
    st.tuples(st.just(""), st.sampled_from(JSON_SPACE), st.just("")),
)


@given(st.lists(lines, max_size=6), st.sampled_from(["\n", "\r\n"]))
def test_jsonl_loader_accepts_and_rejects_what_json_loads_does(
    tmp_path_factory, parts, newline
):
    text = "".join(lead + body + trail + newline for lead, body, trail in parts)
    path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
    _assert_same_as_json_loads(path, text)


# --- faults in a bundle's bytes ------------------------------------------


def _build(tmp_path, preset, depth, *extra):
    out = tmp_path / "bundle"
    args = ["build", "--preset", preset, "--depth", str(depth), *extra]
    assert main([*args, "--out", str(out)]) == 0
    return out


def _edit_rows(path, edit):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(_canon(r) + "\n" for r in rows))


def _set_in_last_row(name, key, value):
    def corrupt(out):
        def edit(rows):
            rows[-1][key] = value

        _edit_rows(out / name, edit)

    return corrupt


def _zero_bound(out):
    def edit(rows):
        next(d for r in rows for d in r["discards"])["bound"] = "1/0"

    _edit_rows(out / "provenance.jsonl", edit)


def _latin1(name, word):
    """Spell the first key `word` of a file with a Latin-1 byte."""

    def corrupt(out):
        path = out / name
        path.write_bytes(path.read_bytes().replace(word, word[:-2] + b"\xf6" + word[-1:], 1))

    return corrupt


def _array_row(out):
    path = out / "provenance.jsonl"
    path.write_text(path.read_text() + "[1,2]\n")


def _edit_file(name, edit):
    def corrupt(out):
        _edit_rows(out / name, edit)

    return corrupt


def _append_copy(name, **changes):
    """Append a copy of the file's last row with changes."""
    return _edit_file(name, lambda rows: rows.append({**rows[-1], **changes}))


def _at_first_edge_step(edit):
    """Edit the provenance row of the step that drew the first edge."""

    def corrupt(out):
        step = json.loads((out / "edges.jsonl").read_text().splitlines()[0])["step"]
        _edit_rows(out / "provenance.jsonl", lambda rows: edit(rows[step - 1]))

    return corrupt


def _in_row(step, edit):
    """Edit the provenance row of one step."""
    return _edit_file("provenance.jsonl", lambda rows: edit(rows[step - 1]))


def _first_discard(**changes):
    def edit(rows):
        next(d for r in rows for d in r["discards"]).update(changes)

    return _edit_file("provenance.jsonl", edit)


NONSTOCHASTIC = ("nonstochastic", 8)
ATOM = ("atom", 10)  # draws one edge, at step 7
FAMILY = ("family", 8, "--networks", "3")  # draws one discard at depth 8
OUTSIDE = "is outside the bundle's networks 1..1 and levels 0..8"

ZERO = "zero denominator in rational '1/0'"
# nonstochastic-8's provenance row 4 as bundles wrote it when each row
# repeated its level's tables and the edges drawn at its step.
OLD_ROW_4 = json.loads(
    '{"case":2,"discards":[],"edges":[{"from":"0","network":1,"q":"1/16",'
    '"step":4,"subtask":null,"task":1,"to":"0000"},{"from":"1","network":1,'
    '"q":"1/16","step":4,"subtask":null,"task":1,"to":"1000"}],"network":1,'
    '"note":"","step":4,"subtask":null,"tables":{"1":{"default":"0/1",'
    '"level":4,"subtree":[["0","1/15"],["1","1/15"]],"suffix":[],'
    '"vertex":[["0000","0/1"],["1000","0/1"]]}},"task":1,"w":1,"wk":null}'
)

# case -> (bundle, corruption, the words the error names)
FAULTS = {
    "zero denominator in a level default": (
        NONSTOCHASTIC, _set_in_last_row("levels.jsonl", "default", "1/0"), ZERO
    ),
    "zero denominator in an aggregate": (
        NONSTOCHASTIC, _set_in_last_row("aggregates.jsonl", "total_R", "1/0"), ZERO
    ),
    "zero denominator in a discard bound": (FAMILY, _zero_bound, ZERO),
    "a number for a rational": (
        NONSTOCHASTIC,
        _set_in_last_row("aggregates.jsonl", "extra_inflow", 0),
        "rational 0 is not a string",
    ),
    "edges that are not UTF-8": (
        NONSTOCHASTIC, _latin1("edges.jsonl", b'"to"'), "edges.jsonl is not UTF-8 text"
    ),
    "a config that is not UTF-8": (
        NONSTOCHASTIC,
        _latin1("config.json", b'"preset"'),
        "config.json is not UTF-8 text",
    ),
    "provenance that is not UTF-8": (
        NONSTOCHASTIC,
        _latin1("provenance.jsonl", b'"note"'),
        "provenance.jsonl is not UTF-8 text",
    ),
    "a provenance row that is not an object": (
        NONSTOCHASTIC, _array_row, "row is not a JSON object"
    ),
    # Rows that name no network or level of the bundle: each was dropped
    # without a word, so the export was not the input.
    "a level row for a network the bundle lacks": (
        NONSTOCHASTIC,
        _append_copy("levels.jsonl", network=2),
        f"levels.jsonl row 10: network 2, level 8 {OUTSIDE}",
    ),
    "a level row past the depth": (
        NONSTOCHASTIC,
        _append_copy("levels.jsonl", level=9),
        f"levels.jsonl row 10: network 1, level 9 {OUTSIDE}",
    ),
    "an aggregate row for a network the bundle lacks": (
        NONSTOCHASTIC,
        _append_copy("aggregates.jsonl", network=2),
        f"aggregates.jsonl row 10: network 2, level 8 {OUTSIDE}",
    ),
    "a second aggregate row for one level": (
        NONSTOCHASTIC,
        _append_copy("aggregates.jsonl"),
        "duplicate aggregate record (1, 8)",
    ),
    "a discard held by a network the bundle lacks": (
        FAMILY, _first_discard(network=0), "discard references unknown network 0"
    ),
    # Fields of the wrong type.
    "an edge source that is not a string": (
        NONSTOCHASTIC,
        _set_in_last_row("edges.jsonl", "from", 7),
        "bit string 7 is not a string",
    ),
    "an aggregate level that is not an int": (
        NONSTOCHASTIC,
        _set_in_last_row("aggregates.jsonl", "level", ""),
        "aggregates.jsonl row 9: level '' is not an int",
    ),
    "a level row's network that is a bool": (
        NONSTOCHASTIC,
        _set_in_last_row("levels.jsonl", "network", True),
        "levels.jsonl row 9: network True is not an int",
    ),
    "an edge task that is a string": (
        NONSTOCHASTIC,
        _set_in_last_row("edges.jsonl", "task", "1"),
        "edges.jsonl row 2: task '1' is not an int",
    ),
    "an edge subtask that is a string": (
        NONSTOCHASTIC,
        _set_in_last_row("edges.jsonl", "subtask", "1"),
        "edges.jsonl row 2: subtask '1' is not an int or null",
    ),
    "an edge network that is a bool": (
        NONSTOCHASTIC,
        _set_in_last_row("edges.jsonl", "network", True),
        "edges.jsonl row 2: network True is not an int",
    ),
    "an edge step that is a float": (
        NONSTOCHASTIC,
        _set_in_last_row("edges.jsonl", "step", 4.0),
        "edges.jsonl row 2: step 4.0 is not an int",
    ),
    "provenance discards that are not a list": (
        NONSTOCHASTIC,
        _set_in_last_row("provenance.jsonl", "discards", 5),
        "provenance.jsonl row 8: discards 5 is not a list",
    ),
    "provenance discards that are null": (
        NONSTOCHASTIC,
        _set_in_last_row("provenance.jsonl", "discards", None),
        "provenance.jsonl row 8: discards None is not a list",
    ),
    "a provenance step that is a bool": (
        NONSTOCHASTIC,
        _set_in_last_row("provenance.jsonl", "step", True),
        "provenance.jsonl row 8: step True is not an int",
    ),
    "a w that is a float": (
        NONSTOCHASTIC,
        _set_in_last_row("provenance.jsonl", "w", 1.5),
        "provenance.jsonl row 8: w 1.5 is not an int or null",
    ),
    # Provenance that does not cover the steps and their edges.
    "a provenance row too few": (
        ATOM,
        _edit_file("provenance.jsonl", lambda rows: rows.pop()),
        "provenance.jsonl holds 9 rows for 10 steps",
    ),
    "provenance rows out of order": (
        ATOM,
        _edit_file("provenance.jsonl", lambda rows: rows.insert(0, rows.pop(1))),
        "provenance.jsonl row 1: step 2 is not 1",
    ),
    "a provenance step that is a string": (
        ATOM,
        _set_in_last_row("provenance.jsonl", "step", "10"),
        "provenance.jsonl row 10: step '10' is not an int",
    ),
    "a provenance row without w": (
        ATOM,
        _at_first_edge_step(lambda row: row.pop("w")),
        "provenance.jsonl row 7 has no w",
    ),
    "a w that is a string": (
        ATOM,
        _set_in_last_row("provenance.jsonl", "w", "1"),
        "provenance.jsonl row 10: w '1' is not an int or null",
    ),
    "a null w on an edge's step": (
        ATOM,
        _at_first_edge_step(lambda row: row.update(w=None)),
        "edge 0 -> 0000000 of network 1 was drawn at step 7, which has no "
        "provenance row with an int w",
    ),
    "an edge drawn at step 0": (
        ATOM,
        _set_in_last_row("edges.jsonl", "step", 0),
        "was drawn at step 0, which has no provenance row",
    ),
    # An edge the engine never writes: it draws each edge at the step of
    # its target's level, for that step's task.
    "an edge stored at a step before its target's level": (
        NONSTOCHASTIC,
        _set_in_last_row("edges.jsonl", "step", 2),
        "edges.jsonl row 2: edge 1 -> 1000 of network 1 is stored as drawn at "
        "step 2 for task 1, but lands on level 4, which is task 1's step",
    ),
    "an edge stored with another step's task": (
        NONSTOCHASTIC,
        _set_in_last_row("edges.jsonl", "task", 6),
        "edges.jsonl row 2: edge 1 -> 1000 of network 1 is stored as drawn at "
        "step 4 for task 6, but lands on level 4, which is task 1's step",
    ),
    "an edge stored with a subtask its step's row lacks": (
        NONSTOCHASTIC,
        _edit_file("edges.jsonl", lambda rows: rows[0].update(subtask=7)),
        "edges.jsonl row 1: edge 0 -> 0000 of network 1 is stored with "
        "subtask 7, but provenance.jsonl row 4 gives subtask null",
    ),
    "an edge stored with no subtask on a subtask's step": (
        ATOM,
        _set_in_last_row("edges.jsonl", "subtask", None),
        "edges.jsonl row 1: edge 0 -> 0000000 of network 1 is stored with "
        "subtask null, but provenance.jsonl row 7 gives subtask 1",
    ),
    "an edge stored with another subtask": (
        ATOM,
        _set_in_last_row("edges.jsonl", "subtask", 7),
        "edges.jsonl row 1: edge 0 -> 0000000 of network 1 is stored with "
        "subtask 7, but provenance.jsonl row 7 gives subtask 1",
    ),
    "a provenance subtask that is a string": (
        ATOM,
        _set_in_last_row("provenance.jsonl", "subtask", "1"),
        "provenance.jsonl row 10: subtask '1' is not an int or null",
    ),
    # Each table and edge is stored once, so a row that still carries a
    # copy, as rows did before, is refused.
    "a provenance table copy": (
        NONSTOCHASTIC,
        _in_row(4, lambda row: row.update(tables=OLD_ROW_4["tables"])),
        "provenance.jsonl row 4 carries tables, which only levels.jsonl and "
        "edges.jsonl store",
    ),
    "a provenance edge copy": (
        NONSTOCHASTIC,
        _in_row(4, lambda row: row.update(edges=OLD_ROW_4["edges"])),
        "provenance.jsonl row 4 carries edges, which only levels.jsonl and "
        "edges.jsonl store",
    ),
}


@pytest.mark.parametrize("case", list(FAULTS))
def test_a_fault_in_a_bundle_file_is_bad_input_for_every_reader(tmp_path, capsys, case):
    (preset, depth, *extra), corrupt, named = FAULTS[case]
    out = _build(tmp_path, preset, depth, *extra)
    corrupt(out)
    commands = [
        ["export", str(out), "--out", str(tmp_path / "copy")],
        ["verify", str(out)],
        ["mltest", str(out)],
        ["trace", str(out)],
    ]
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        assert named in err[0], (argv, err)


@pytest.mark.parametrize("w", [0, -1, 3, 10**6])
def test_a_w_outside_the_source_class_range_is_bad_input(tmp_path, capsys, w):
    # atom-10's one edge, 0 -> 0000000, has a source of length 1, so w
    # must lie in 1..2.
    out = _build(tmp_path, *ATOM)
    _at_first_edge_step(lambda row: row.update(w=w))(out)
    capsys.readouterr()
    assert main(["verify", str(out), "--checks", "all"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.splitlines() == [
        f"error: edge 0 -> 0000000 of network 1: provenance.jsonl row 7 gives "
        f"w {w}, outside 1..2"
    ]


# --- the kept share ------------------------------------------------------


def test_a_kept_share_not_in_lowest_terms_loads_and_exports_reduced(tmp_path):
    out = _build(tmp_path, *NONSTOCHASTIC)

    def halve_last(rows):
        rows[-1].update(total_R="1/2", extra_inflow="0/1", s_n="2/4")

    _edit_rows(out / "aggregates.jsonl", halve_last)
    copy = tmp_path / "copy"
    assert main(["export", str(out), "--out", str(copy)]) == 0
    last = json.loads((copy / "aggregates.jsonl").read_text().splitlines()[-1])
    assert last["s_n"] == "1/2"
    assert json.loads((copy / "report.json").read_text())["final_kept_share"] == {
        "1": "1/2"
    }

    def break_share(rows):
        rows[-1]["s_n"] = "2/5"

    _edit_rows(out / "aggregates.jsonl", break_share)
    assert main(["export", str(out), "--out", str(tmp_path / "again")]) == 2


# --- plain levels --------------------------------------------------------


@pytest.mark.parametrize("drop", ["vertex", "subtree"])
def test_a_level_with_one_kind_of_exception_round_trips(tmp_path, drop):
    # No preset writes a level whose only exceptions are vertex entries or
    # subtree entries, so one is made by hand: the reader takes only a level
    # with no exceptions at all as its default alone.
    out = _build(tmp_path, *NONSTOCHASTIC)

    def edit(rows):
        [rec] = [r for r in rows if r["vertex"] and r["subtree"]]
        rec[drop] = []

    _edit_rows(out / "levels.jsonl", edit)
    copy = tmp_path / "copy"
    assert main(["export", str(out), "--out", str(copy)]) == 0
    for f in out.iterdir():
        assert (copy / f.name).read_bytes() == f.read_bytes(), f.name


# --- rationals spelled otherwise ----------------------------------------


def _unreduced(rat):
    num, den = rat.split("/")
    return f"{2 * int(num)}/{2 * int(den)}"


def test_a_level_rational_spelled_otherwise_is_read_and_exported_reduced(tmp_path):
    # A levels row may spell its rationals otherwise than the writer does;
    # export writes the rows from their tables, and what it writes reads.
    # Trace prints the table through the writer's formatter too.
    out = _build(tmp_path, *NONSTOCHASTIC)
    built = (out / "levels.jsonl").read_text()

    def edit_level(rows):
        rows[4]["default"] = _unreduced(rows[4]["default"])
        rows[4]["subtree"][0][1] = _unreduced(rows[4]["subtree"][0][1])

    _edit_rows(out / "levels.jsonl", edit_level)
    copy, again = tmp_path / "copy", tmp_path / "again"
    assert main(["export", str(out), "--out", str(copy)]) == 0
    assert (copy / "levels.jsonl").read_text() == built
    assert main(["export", str(copy), "--out", str(again)]) == 0
    for f in copy.iterdir():
        assert (again / f.name).read_bytes() == f.read_bytes(), f.name
    trace = tmp_path / "trace.jsonl"
    assert main(["trace", str(out), "--level", "4", "--out", str(trace)]) == 0
    [row] = [json.loads(line) for line in trace.read_text().splitlines()]
    exported = json.loads((copy / "levels.jsonl").read_text().splitlines()[4])
    del exported["network"]
    assert row["tables"]["1"] == exported
    assert exported["default"] == "0/1"
    assert exported["subtree"] == [["0", "1/15"], ["1", "1/15"]]
