"""Batch front door: build runs, write them to disk, reload and check
them, and export derived views.

Bundle directory layout (all plain text; .jsonl files hold one JSON
object per line; rationals are lowest-terms "numerator/denominator"
strings):

    config.json        run parameters, embedded verbatim
    levels.jsonl       per network per level: default delay + exceptions
    edges.jsonl        drawn edges, grouped by network in draw order
    aggregates.jsonl   per network per level: total mass, inflow, kept share
    provenance.jsonl   one record per step: task, case, w, discards, note
    report.json        run summary (counts and final kept shares)

Exit codes are a stable contract: 0 success, 1 check failure, 2 bad
config or unreadable input, 3 construction invariant violation, 4 a
resource cap was hit. Files that parse but describe an impossible
construction (a malformed delay, an edge whose weight is not its
source's delay) surface as code 3, as does a conservation ledger that
breaks when a command first reads a frame; grammar problems surface as
code 2. Those include bytes that are not UTF-8, a .jsonl line whose value
is not a JSON object, a rational that is not "numerator/denominator"
or has a zero denominator, a row for a network or level the bundle
lacks, an int field that is not an int, provenance that is not one
row per step with an int w in 1..l(source)+1 on every edge's step, and a
provenance row that carries tables or edges, which only levels.jsonl and
edges.jsonl store. A cap (an enumeration limit, or a depth beyond what
the dense oracle replays) says only that the work was cut off, not that
the construction is impossible, so it gets its own code.

Each levels, edges, aggregates and provenance row kind has one
formatter, which writes `_canon`'s text from the fields; the writer and
`trace` share the levels and edges ones, and a write formats rationals
through one `_rat_memo`. A quiet row, a table of its default alone or a
level whose share is its total, is one f-string. A provenance row that
does not have the engine's shape, and config and report rows, are
encoded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from treeflow.bitseq import BitString
from treeflow.constructions import (
    PRESETS,
    ConfigError,
    ConstructionBundle,
    RunConfig,
    build,
    ml_test,
)
from treeflow.cubes import Cube
from treeflow.dense import compare_runs, dense_build
from treeflow.network import (
    ConstructionError,
    DelayTable,
    ElementaryNetwork,
    ExtraEdge,
    LevelAggregates,
    meets,
    prefix_spans,
    rat_parse,
    rat_str,
)
from treeflow.scheduler import ResourceLimit, ScheduleState, task_stream
from treeflow.templates import DiscardRecord
from treeflow.verify import CHECKS, ORACLE_DEPTH_CAP, dense_oracle, run_checks


class BundleError(Exception):
    """Unreadable or structurally incomplete bundle files."""


# One encoder for every row that is not formatted directly: json.dumps
# with these arguments builds a new encoder on each call. No row contains
# itself, so the encoder need not track the containers it is inside to
# catch a cycle.
_canon = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode
# The string escape `_canon` applies (it ensures ASCII): one C call.
_escape = json.encoder.encode_basestring_ascii


def _pretty(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_lines(path: Path, lines: list[str]) -> None:
    _write_text(path, "\n".join(lines) + "\n" if lines else "")


# One decoder for every row: json.loads wraps raw_decode in two Python
# calls per line.
_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BundleError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise BundleError(f"{path} is not UTF-8 text: {exc}")


def _load_json(path: Path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise BundleError(f"{path} is not valid JSON: {exc}")


def _load_jsonl(path: Path) -> list[dict]:
    """The rows of a .jsonl file: one JSON object per line, where a line
    that is blank under str.strip() holds no row. A line is accepted
    exactly when json.loads accepts it: one value between JSON whitespace.
    A line that is not accepted, or whose value is not an object, is a
    BundleError naming path:line.

    A well-formed file, as the writer writes it, is read by one decode per
    line from its first character: every line must decode to its end as
    an object. At the first line that does not, the file is read again
    from its top by the full loop, which decodes each line in place
    between its JSON whitespace, so an error names the column json.loads
    names: every refusal and its text are those of the full loop."""
    lines = _read_text(path).splitlines()
    rows = []
    for line in lines:
        try:
            row, end = _decode(line)
        except json.JSONDecodeError:
            break
        if end != len(line) or not isinstance(row, dict):
            break
        rows.append(row)
    else:
        return rows
    rows = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        doc = line.rstrip(_JSON_SPACE)
        try:
            row, end = _decode(doc, len(doc) - len(doc.lstrip(_JSON_SPACE)))
            if end != len(doc):
                rest = doc[end:]
                end += len(rest) - len(rest.lstrip(_JSON_SPACE))
                raise json.JSONDecodeError("Extra data", doc, end)
        except json.JSONDecodeError as exc:
            raise BundleError(f"{path}:{lineno}: {exc}")
        if not isinstance(row, dict):
            raise BundleError(f"{path}:{lineno}: row is not a JSON object")
        rows.append(row)
    return rows


# --- writing -------------------------------------------------------------


def _bundle_report(bundle: ConstructionBundle) -> dict:
    return {
        "preset": bundle.config.preset,
        "depth": bundle.depth,
        "networks": len(bundle.networks),
        "edge_counts": {
            str(net.network_id): len(net.edges) for net in bundle.networks
        },
        "discards": len(bundle.discards),
        "final_kept_share": {
            str(net.network_id): rat_str(net.aggregates[-1].s_n)
            for net in bundle.networks
        },
    }


# The row formatters write keys in sorted order with "," and ":" and no
# spaces, as `_canon` does. Every value in these rows is an int, null, or a
# string of digits, "-", "/", "0", "1" and "*" (rationals, bit strings,
# cube patterns), which JSON writes unescaped, so the text is `_canon`'s;
# the one free-text value, a provenance note, is escaped as `_canon` does.


def _pairs(pairs, rat: Callable[[Fraction], str]) -> str:
    """The JSON of a list of [key, rational] pairs: each key as its text,
    each rational formatted by rat."""
    texts = [f'{a}","{rat(v)}' for a, v in pairs]
    return '[["' + '"],["'.join(texts) + '"]]' if texts else "[]"


def _level_row(net_id: int, table: DelayTable, rat: Callable[[Fraction], str]) -> str:
    """The levels.jsonl row of network net_id's table: vertex and subtree
    entries sorted by vertex, suffix entries in stored order. A table of
    its default alone, as most are, is one f-string."""
    if not (table.vertex or table.suffix or table.subtree):
        return (
            f'{{"default":"{rat(table.default)}","level":{table.level},'
            f'"network":{net_id},"subtree":[],"suffix":[],"vertex":[]}}'
        )
    suffix = [(c.pattern(), v) for c, v in table.suffix]
    return (
        f'{{"default":"{rat(table.default)}","level":{table.level},'
        f'"network":{net_id},"subtree":{_pairs(sorted(table.subtree.items()), rat)},'
        f'"suffix":{_pairs(suffix, rat)},'
        f'"vertex":{_pairs(sorted(table.vertex.items()), rat)}}}'
    )


def _aggregates_row(
    net_id: int, n: int, agg: LevelAggregates, rat: Callable[[Fraction], str]
) -> str:
    """The aggregates.jsonl row of network net_id's level n, with each
    rational formatted by rat, which must give `rat_str`'s text. A level
    with no inflow whose share is its total object, as a quiet level's
    is, formats one value."""
    if agg.s_n is agg.total_R and not agg.extra_inflow:
        total = rat(agg.total_R)
        return (
            f'{{"extra_inflow":"0/1","level":{n},"network":{net_id},'
            f'"s_n":"{total}","total_R":"{total}"}}'
        )
    return (
        f'{{"extra_inflow":"{rat(agg.extra_inflow)}","level":{n},'
        f'"network":{net_id},"s_n":"{rat(agg.s_n)}",'
        f'"total_R":"{rat(agg.total_R)}"}}'
    )


def _rat_memo() -> Callable[[Fraction], str]:
    """A `rat_str` that formats each value object once. It is keyed by
    id(v), which costs no Fraction work, so it is sound only while every
    value it has seen stays alive: the caller must hold them all for as
    long as it uses the memo, as `write_bundle` holds the bundle."""
    texts: dict[int, str] = {}

    def rat(v: Fraction) -> str:
        text = texts.get(id(v))
        if text is None:
            text = texts[id(v)] = rat_str(v)
        return text

    return rat


def _edge_row(e: ExtraEdge, rat: Callable[[Fraction], str]) -> str:
    """The edges.jsonl row of edge e."""
    subtask = "null" if e.subtask is None else e.subtask
    return (
        f'{{"from":"{e.source}","network":{e.network_id},"q":"{rat(e.q)}",'
        f'"step":{e.step_drawn},"subtask":{subtask},"task":{e.task},'
        f'"to":"{e.target}"}}'
    )


_PROV_KEYS = frozenset(
    ("case", "discards", "network", "note", "step", "subtask", "task", "w", "wk")
)
_INT_OR_NULL = (int, type(None))


def _prov_row(row: dict) -> str:
    """The provenance.jsonl row of row. A row of the engine's nine keys
    with no discards, int fields that are ints (or null where the engine
    writes null) and a note that is a string or null is one f-string; the
    note is escaped by the function `_canon` escapes strings with. Any
    other row, as `export` may read one, is encoded."""
    if row.keys() == _PROV_KEYS and row["discards"] == []:
        case, net_id, step, task = row["case"], row["network"], row["step"], row["task"]
        subtask, w, wk, note = row["subtask"], row["w"], row["wk"], row["note"]
        if (
            type(case) is type(net_id) is type(step) is type(task) is int
            and type(subtask) in _INT_OR_NULL
            and type(w) in _INT_OR_NULL
            and type(wk) in _INT_OR_NULL
            and (note is None or type(note) is str)
        ):
            return (
                f'{{"case":{case},"discards":[],"network":{net_id},'
                f'"note":{"null" if note is None else _escape(note)},'
                f'"step":{step},"subtask":{"null" if subtask is None else subtask},'
                f'"task":{task},"w":{"null" if w is None else w},'
                f'"wk":{"null" if wk is None else wk}}}'
            )
    return _canon(row)


def write_bundle(bundle: ConstructionBundle, outdir: Path) -> None:
    """Write the bundle's six files into outdir. Each levels, edges,
    aggregates and provenance row is formatted by its row kind's one
    formatter; `trace` shares the levels and edges ones. Each table and
    each edge is written once, in levels.jsonl and edges.jsonl.

    The three row kinds that hold rationals share one `_rat_memo`, so
    each distinct value object is turned into decimal once per write: a
    run of clean levels at s = 0 shares one total object, which is also
    each row's s_n, as nothing flows in, and it is formatted once for the
    whole run. The bundle holds every value for the length of the write."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_text(outdir / "config.json", _pretty(bundle.config.to_payload()))
    nets = bundle.networks
    rat = _rat_memo()
    levels = [
        _level_row(net.network_id, net.tables[n], rat)
        for n in range(bundle.depth + 1)
        for net in nets
    ]
    _write_lines(outdir / "levels.jsonl", levels)
    edges = [_edge_row(e, rat) for net in nets for e in net.edges]
    _write_lines(outdir / "edges.jsonl", edges)
    aggregates = [
        _aggregates_row(net.network_id, n, agg, rat)
        for net in nets
        for n, agg in enumerate(net.aggregates)
    ]
    _write_lines(outdir / "aggregates.jsonl", aggregates)
    _write_lines(outdir / "provenance.jsonl", [_prov_row(r) for r in bundle.provenance])
    _write_text(outdir / "report.json", _pretty(_bundle_report(bundle)))


# --- reading -------------------------------------------------------------


def _table_from_record(rec: dict, rat: Callable[[str], Fraction]) -> DelayTable:
    table = DelayTable(rec["level"], rat(rec["default"]))
    if rec["vertex"] == rec["suffix"] == rec["subtree"] == []:
        return table  # most levels: the default alone
    for s, v in rec["vertex"]:
        table.set_vertex(BitString.from_str(s), rat(v))
    suffix = [(Cube.from_pattern(pat), rat(v)) for pat, v in rec["suffix"]]
    table.add_suffix(suffix)  # checks delays and lengths, not disjointness
    cubes = [c for c, _ in suffix]
    # Stored entries are mostly prefix cubes, which sorting clears; the
    # join runs only when it cannot, and then names the first pair.
    if prefix_spans(cubes) is None:
        for i, j in meets(cubes, cubes):
            if i != j:
                where = f"network {rec['network']}, level {table.level}"
                raise ConstructionError(f"{where}: suffix entries {i} and {j} overlap")
    for s, v in rec["subtree"]:
        table.add_subtree(BitString.from_str(s), rat(v))
    return table


def _int_field(rec: dict, key: str, where: str, null: bool = False) -> Optional[int]:
    """rec[key], which must be an int (JSON's true and false are not), or
    null where null is allowed. Anything else, a missing key included, is
    a BundleError naming where the row is."""
    if key not in rec:
        raise BundleError(f"{where} has no {key}")
    v = rec[key]
    if type(v) is int or (null and v is None):
        return v
    want = "an int or null" if null else "an int"
    raise BundleError(f"{where}: {key} {v!r} is not {want}")


def _edge_from_record(
    rec: dict, rat: Callable[[str], Fraction], where: str
) -> ExtraEdge:
    return ExtraEdge(
        source=BitString.from_str(rec["from"]),
        target=BitString.from_str(rec["to"]),
        q=rat(rec["q"]),
        task=_int_field(rec, "task", where),
        subtask=_int_field(rec, "subtask", where, null=True),
        network_id=_int_field(rec, "network", where),
        step_drawn=_int_field(rec, "step", where),
    )


def read_bundle(path: Path) -> ConstructionBundle:
    """Rebuild a run from its files.

    Each network takes its levels through `ElementaryNetwork.record_level`,
    which checks every table's level and every edge's weight and source
    at read time. Stored edges are grouped by the level they land on and
    go in with that level, as a build hands them over; an edge that lands
    below the bundle's depth is a BundleError. Frames are made on demand:
    the first read of `frames` pushes the recorded levels in order through
    the one push path, which runs the conservation ledger and coalesces
    each level, so a reloaded frame equals the built one item for item. A
    command that reads no frame (`export`, `mltest`) pushes none, and a
    broken ledger surfaces, as a ConstructionError, where a frame is
    first read. Stored aggregates are kept as the independent record the
    checks compare against. Each distinct rational string is parsed once
    per read. A row's kept share is checked as a string first: with no
    inflow, an s_n equal to the row's total_R string is exact, and the
    row formats nothing; any other s_n is compared with the lowest-terms
    form of total_R - extra_inflow.

    Each .jsonl file is read by `_load_jsonl`: a well-formed file, as the
    writer writes it, by one decode per line, and any other by the full
    per-line loop, so every refusal and its text are those of that loop.
    Every levels and aggregates row must name a network and level of the
    bundle, and every int field must be an int; provenance holds one row
    per step, in order, and the row of each edge's step gives the edge's
    class width w, which lies in 1..l(source)+1; no provenance row
    carries tables or edges, which levels.jsonl and edges.jsonl store; and
    each edge was drawn at the step of its target's level, for that step's
    task. Anything else is a BundleError naming the row or edge at fault,
    so no row is dropped without a word. A row is named by its file and
    its place among the file's rows, blank lines not counted."""
    path = Path(path)
    if not path.is_dir():
        raise BundleError(f"{path} is not a bundle directory")
    payload = _load_json(path / "config.json")
    if not isinstance(payload, dict):
        raise BundleError(f"{path / 'config.json'} must hold a JSON object")
    config = RunConfig.from_payload(payload)
    ops, fns = config.validate()
    level_rows = _load_jsonl(path / "levels.jsonl")
    edge_rows = _load_jsonl(path / "edges.jsonl")
    agg_rows = _load_jsonl(path / "aggregates.jsonl")
    prov_rows = _load_jsonl(path / "provenance.jsonl")

    known = set(range(1, config.networks + 1))
    depth = config.depth

    def place(rec: dict, name: str, k: int) -> tuple[int, int]:
        """The (network, level) that row k of file name is for, which must
        be a network and a level of the bundle."""
        net_id, n = rec["network"], rec["level"]
        if type(net_id) is int and type(n) is int:
            if net_id in known and 0 <= n <= depth:
                return net_id, n
        where = f"{name} row {k}"
        net_id, n = _int_field(rec, "network", where), _int_field(rec, "level", where)
        raise BundleError(
            f"{where}: network {net_id}, level {n} is outside the bundle's "
            f"networks 1..{config.networks} and levels 0..{depth}"
        )

    # A bundle repeats few distinct rationals (defaults, the totals of idle
    # levels), so each string is parsed once per read, by a memo that the
    # read drops when it returns.
    rat = functools.cache(rat_parse)
    try:
        tables: dict[tuple[int, int], DelayTable] = {}
        for k, rec in enumerate(level_rows, 1):
            key = place(rec, "levels.jsonl", k)
            if key in tables:
                raise BundleError(f"duplicate level record {key}")
            tables[key] = _table_from_record(rec, rat)
        edges: list[ExtraEdge] = []  # in row order
        edges_by_net: dict[int, list[ExtraEdge]] = {}
        for k, rec in enumerate(edge_rows, 1):
            e = _edge_from_record(rec, rat, f"edges.jsonl row {k}")
            edges.append(e)
            edges_by_net.setdefault(e.network_id, []).append(e)
        agg_by_net: dict[int, dict[int, LevelAggregates]] = {}
        for k, rec in enumerate(agg_rows, 1):
            net_id, n = place(rec, "aggregates.jsonl", k)
            agg = LevelAggregates(rat(rec["total_R"]), rat(rec["extra_inflow"]))
            # With no inflow, a stored share equal to the stored total as a
            # string is s_n = total_R exactly, and no value is formatted.
            # Any other share is formatted, and read as a Fraction only when
            # its string is not the share's lowest-terms form.
            stored = rec["s_n"]
            if (
                (stored != rec["total_R"] or agg.extra_inflow)
                and stored != rat_str(agg.s_n)
                and rat_parse(stored) != agg.s_n
            ):
                raise BundleError(
                    f"aggregate record for network {net_id} level {n} "
                    "does not add up"
                )
            by_level = agg_by_net.setdefault(net_id, {})
            if n in by_level:
                raise BundleError(f"duplicate aggregate record {(net_id, n)}")
            by_level[n] = agg
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise BundleError(f"malformed bundle record: {exc!r}")

    stray = set(edges_by_net) - known
    if stray:
        raise BundleError(f"edges reference unknown networks {sorted(stray)}")

    nets = []
    for net_id in sorted(known):
        net = ElementaryNetwork(net_id)
        base = tables.get((net_id, 0))
        if base is None:
            raise BundleError(f"missing level-0 record for network {net_id}")
        net.tables[0] = base
        landing: dict[int, list[ExtraEdge]] = {}
        for e in edges_by_net.get(net_id, []):
            if len(e.target) > config.depth:
                raise BundleError(
                    f"edge {e.source} -> {e.target} of network {net_id} lands "
                    f"below the bundle's depth {config.depth}"
                )
            landing.setdefault(len(e.target), []).append(e)
        for n in range(1, config.depth + 1):
            t = tables.get((net_id, n))
            if t is None:
                raise BundleError(f"missing level-{n} record for network {net_id}")
            net.record_level(t, landing.get(n, []))
        stored = agg_by_net.get(net_id, {})
        if sorted(stored) != list(range(config.depth + 1)):
            raise BundleError(
                f"aggregate records for network {net_id} incomplete"
            )
        net.aggregates = [stored[n] for n in range(config.depth + 1)]
        nets.append(net)

    # One provenance row per step, in order; the checks read each edge's
    # class width w from the row of the step that drew it.
    if len(prov_rows) != config.depth:
        raise BundleError(
            f"provenance.jsonl holds {len(prov_rows)} rows for "
            f"{config.depth} steps"
        )
    discards = []
    for k, row in enumerate(prov_rows, 1):
        where = f"provenance.jsonl row {k}"
        if _int_field(row, "step", where) != k:
            raise BundleError(f"{where}: step {row['step']} is not {k}")
        _int_field(row, "w", where, null=True)
        _int_field(row, "subtask", where, null=True)
        for key in ("tables", "edges"):
            if key in row:
                raise BundleError(
                    f"{where} carries {key}, which only levels.jsonl and "
                    "edges.jsonl store"
                )
        recs = row.get("discards", [])
        if not isinstance(recs, list):
            raise BundleError(f"{where}: discards {recs!r} is not a list")
        for rec in recs:
            try:
                src = BitString.from_str(rec["source"])
                cubes = tuple(Cube.from_pattern(p) for p in rec["patterns"])
                bound = rat(rec["bound"])
                target = rec["target"]
            except (KeyError, ValueError, TypeError) as exc:
                raise BundleError(f"malformed discard record: {exc!r}")
            edge_net = _int_field(rec, "edge_network", f"{where}, discard")
            holder = _int_field(rec, "network", f"{where}, discard")
            step = _int_field(rec, "step", f"{where}, discard")
            for net_id in (edge_net, holder):
                if net_id not in known:
                    raise BundleError(f"discard references unknown network {net_id}")
            e = nets[edge_net - 1].outgoing_edge(src)
            if e is None or str(e.target) != target or e.step_drawn != step:
                raise BundleError(f"discard references unknown edge at {src}")
            discards.append(
                DiscardRecord(
                    network_id=holder, cubes=cubes, edge=e, bound=bound
                )
            )

    # Each edge takes its class width w from the provenance row of its
    # step; the engine draws an edge at the step of its target's level,
    # for the task that the preset's stream runs at that step and the
    # subtask that the step's provenance row names.
    state = ScheduleState(task_stream(config.preset), config.depth)
    for k, e in enumerate(edges, 1):
        step = e.step_drawn
        edge = f"edge {e.source} -> {e.target} of network {e.network_id}"
        if not 1 <= step <= config.depth or prov_rows[step - 1]["w"] is None:
            raise BundleError(
                f"{edge} was drawn at step {step}, which has no provenance "
                "row with an int w"
            )
        # The class of a source x keeps positions w..l(x) of x.
        w = prov_rows[step - 1]["w"]
        if not 1 <= w <= len(e.source) + 1:
            raise BundleError(
                f"{edge}: provenance.jsonl row {step} gives w {w}, outside "
                f"1..{len(e.source) + 1}"
            )
        level = len(e.target)
        task = state.stream.task(level)
        if (step, e.task) != (level, task):
            raise BundleError(
                f"edges.jsonl row {k}: {edge} is stored as drawn at step "
                f"{step} for task {e.task}, but lands on level {level}, which "
                f"is task {task}'s step"
            )
        subtask = prov_rows[step - 1]["subtask"]
        if e.subtask != subtask:
            raise BundleError(
                f"edges.jsonl row {k}: {edge} is stored with subtask "
                f"{json.dumps(e.subtask)}, but provenance.jsonl row {step} gives "
                f"subtask {json.dumps(subtask)}"
            )
        state.record_edge(e.task, e.subtask, level)
    return ConstructionBundle(
        config=config,
        networks=nets,
        state=state,
        provenance=prov_rows,
        discards=discards,
        operators=ops,
        functions=fns,
    )


# --- commands ------------------------------------------------------------


def _emit(text: str, out: Optional[Path]) -> None:
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    payload = {}
    if args.config:
        payload = _load_json(args.config)
        if not isinstance(payload, dict):
            raise BundleError(f"{args.config} must hold a JSON object")
    for key in ("preset", "depth", "networks", "mode", "seed"):
        value = getattr(args, key)
        if value is not None:
            payload[key] = value
    config = RunConfig.from_payload(payload)
    config.validate()
    if config.mode == "dense" and config.depth > ORACLE_DEPTH_CAP:
        raise ConfigError(
            f"dense mode replays every vertex and is capped at depth "
            f"{ORACLE_DEPTH_CAP}"
        )
    bundle = build(config)
    if config.mode == "dense":
        problems = compare_runs(bundle, dense_build(config))
        if problems:
            raise ConstructionError(problems[0])
    out = args.out or Path(f"{config.preset}-d{config.depth}")
    write_bundle(bundle, out)
    print(f"wrote {out}")
    return 0


def cmd_verify(args) -> int:
    bundle = read_bundle(args.bundle)
    if args.checks.strip() == "all":
        names = None
    else:
        names = [
            c.strip().replace("-", "_")
            for c in args.checks.split(",")
            if c.strip()
        ]
        if not names:
            raise ConfigError(
                f"--checks {args.checks!r} names no check; have {sorted(CHECKS)}"
            )
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks {unknown}; have {sorted(CHECKS)}")
    reports = run_checks(bundle, names=names)
    if args.oracle_depth is not None:
        cfg = bundle.config
        if args.oracle_depth != bundle.depth:
            cfg = dataclasses.replace(cfg, depth=args.oracle_depth)
        reports.append(dense_oracle(cfg))
    payload = {
        "bundle": str(args.bundle),
        "preset": bundle.config.preset,
        "depth": bundle.depth,
        "passed": all(r.passed for r in reports),
        "checks": [r.to_payload() for r in reports],
    }
    _emit(_pretty(payload), args.out)
    return 0 if payload["passed"] else 1


def cmd_export(args) -> int:
    bundle = read_bundle(args.bundle)
    write_bundle(bundle, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_trace(args) -> int:
    """Print the provenance rows the filters keep, each joined with its
    level's tables, one per network, and the edges drawn at its step,
    grouped by network in stored order."""
    bundle = read_bundle(args.bundle)
    drawn: dict[int, list[dict]] = {}
    for net in bundle.networks:
        for e in net.edges:
            drawn.setdefault(e.step_drawn, []).append(
                _decode(_edge_row(e, rat_str))[0]
            )
    kept = []
    for step, row in enumerate(bundle.provenance, 1):
        if args.task is not None and row.get("task") != args.task:
            continue
        if args.subtask is not None and row.get("subtask") != args.subtask:
            continue
        if args.level is not None and step != args.level:
            continue
        tables = {}
        for net in bundle.networks:
            table = _decode(_level_row(net.network_id, net.tables[step], rat_str))[0]
            del table["network"]
            tables[str(net.network_id)] = table
        kept.append({**row, "tables": tables, "edges": drawn.get(step, [])})
    _emit("".join(_canon(r) + "\n" for r in kept), args.out)
    return 0


def cmd_mltest(args) -> int:
    bundle = read_bundle(args.bundle)
    test = ml_test(bundle, index=args.index)
    rows = []
    for i in sorted(test.per_index):
        entry = test.per_index[i]
        tail = test.tails[i]
        rows.append(
            {
                "index": i,
                "roots": entry["roots"],
                "mass": rat_str(entry["mass"]),
                "allowance": rat_str(entry["bound_sum"]),
                "cap": rat_str(entry["cap"]),
                "edge_count": entry["edge_count"],
                "ok": entry["ok"],
                "tail_roots": tail["roots"],
                "tail_mass": rat_str(tail["mass"]),
                "tail_ok": tail["ok"],
            }
        )
    _emit("".join(_canon(r) + "\n" for r in rows), args.out)
    return 0 if test.ok() else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treeflow",
        description="Build, check, and export staged network-flow runs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="run a construction and write its bundle")
    b.add_argument("--config", type=Path, help="JSON file with run parameters")
    b.add_argument("--preset", choices=PRESETS)
    b.add_argument("--depth", type=int)
    b.add_argument("--networks", type=int)
    b.add_argument(
        "--mode",
        choices=("sparse", "dense"),
        help="dense replays every vertex individually as a build-time cross-check",
    )
    b.add_argument("--seed", type=int)
    b.add_argument(
        "--out", type=Path, help="bundle directory (default: <preset>-d<depth>)"
    )
    b.set_defaults(fn=cmd_build)

    v = sub.add_parser("verify", help="reload a bundle and run checks on it")
    v.add_argument("bundle", type=Path)
    v.add_argument(
        "--checks",
        default="all",
        help='comma-separated check names (dashes ok) or "all"',
    )
    v.add_argument(
        "--oracle-depth",
        type=int,
        dest="oracle_depth",
        help="also replay the config at this depth vertex by vertex",
    )
    v.add_argument("--out", type=Path, help="write the report here, not stdout")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("export", help="reload a bundle and re-serialize it")
    e.add_argument("bundle", type=Path)
    e.add_argument("--out", type=Path, required=True)
    e.set_defaults(fn=cmd_export)

    t = sub.add_parser("trace", help="filter the step-by-step provenance log")
    t.add_argument("bundle", type=Path)
    t.add_argument("--task", type=int)
    t.add_argument("--subtask", type=int)
    t.add_argument("--level", type=int, help="step number, which is the level built")
    t.add_argument("--out", type=Path)
    t.set_defaults(fn=cmd_trace)

    m = sub.add_parser(
        "mltest", help="interval unions per task with exact masses and bounds"
    )
    m.add_argument("bundle", type=Path)
    m.add_argument("--index", type=int, help="one task index instead of all")
    m.add_argument("--out", type=Path)
    m.set_defaults(fn=cmd_mltest)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BundleError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource cap hit: {exc}", file=sys.stderr)
        return 4
    except ConstructionError as exc:
        print(f"construction violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
