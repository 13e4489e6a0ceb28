"""Output checks for the benchmark, written apart from treeflow.

Nothing here imports treeflow. Every check reads the files or the
reports a treeflow command wrote and re-derives a property the
construction must have from the raw text, so a wrong answer from the
program cannot also pass here by sharing its code. Each function returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

BUNDLE_FILES = (
    "aggregates.jsonl",
    "config.json",
    "edges.jsonl",
    "levels.jsonl",
    "provenance.jsonl",
    "report.json",
)


def rat(text: str) -> Fraction:
    """A lowest-terms "numerator/denominator" string, strictly."""
    num, den = text.split("/")
    value = Fraction(int(num), int(den))
    if int(den) <= 0 or f"{value.numerator}/{value.denominator}" != text:
        raise ValueError(f"{text!r} is not a lowest-terms rational")
    return value


def read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def is_strict_prefix(a: str, b: str) -> bool:
    return len(a) < len(b) and b.startswith(a)


def dyadic_exponent(value: Fraction):
    """e when value == 2**-e, else None (without building 2**e)."""
    den = value.denominator
    if value.numerator != 1 or den & (den - 1):
        return None
    return den.bit_length() - 1


def breadth_first_index(x: str) -> int:
    """Code of x in the order "", "0", "1", "00", ...: 2^len - 1 + value."""
    return (1 << len(x)) - 1 + (int(x, 2) if x else 0)


class Table:
    """One stored delay table, looked up the way the bundle format defines
    it: vertex entries first, then suffix patterns, then subtree roots,
    then the default."""

    def __init__(self, rec: dict):
        self.level = rec["level"]
        self.default = rat(rec["default"])
        self.vertex = {x: rat(v) for x, v in rec["vertex"]}
        self.suffix = [(p, rat(v)) for p, v in rec["suffix"]]
        self.subtree = [(r, rat(v)) for r, v in rec["subtree"]]

    def values(self):
        yield "default", None, self.default
        yield from (("vertex", x, v) for x, v in self.vertex.items())
        yield from (("suffix", p, v) for p, v in self.suffix)
        yield from (("subtree", r, v) for r, v in self.subtree)

    def delay(self, x: str) -> Fraction:
        if x in self.vertex:
            return self.vertex[x]
        for pattern, v in self.suffix:
            if all(p in ("*", b) for p, b in zip(pattern, x)):
                return v
        for root, v in self.subtree:
            if x.startswith(root):
                return v
        return self.default


def check_bundle(path: Path) -> list[str]:
    """Delay form, edge shape and weight, and the kept-share ledger of one
    bundle directory."""
    path = Path(path)
    try:
        config = json.loads((path / "config.json").read_text())
        depth, networks = config["depth"], config["networks"]
        tables = {}
        for rec in read_jsonl(path / "levels.jsonl"):
            tables[rec["network"], rec["level"]] = Table(rec)
        edges = read_jsonl(path / "edges.jsonl")
        aggregates = read_jsonl(path / "aggregates.jsonl")
        discards = [
            d for row in read_jsonl(path / "provenance.jsonl") for d in row["discards"]
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path}: unreadable bundle: {exc!r}"]
    expected = {(m, n) for m in range(1, networks + 1) for n in range(depth + 1)}
    if set(tables) != expected:
        return [f"{path}: levels.jsonl does not hold levels 0..{depth} of {networks} networks"]
    problems = []
    problems += _check_delays(path, tables)
    problems += _check_edges(path, tables, edges)
    problems += _check_kept_share(path, config, expected, aggregates, discards)
    return problems


def _check_delays(path, tables) -> list[str]:
    for (net, level), table in sorted(tables.items()):
        for kind, where, v in table.values():
            if v != 0 and (v.numerator != 1 or not 0 < v <= 1):
                return [f"{path}: delay {v} ({kind} {where}) at network {net} "
                        f"level {level} is not 0 or 1/M"]
    return []


def _check_edges(path, tables, edges) -> list[str]:
    seen = set()
    for e in edges:
        src, dst, net = e["from"], e["to"], e["network"]
        where = f"{path}: edge {src}->{dst} on network {net}"
        if not is_strict_prefix(src, dst):
            return [f"{where}: source is not a strict prefix of the target"]
        if len(dst) - len(src) < 2:
            return [f"{where}: skips fewer than two levels"]
        if len(dst) != e["step"]:
            return [f"{where}: drawn at step {e['step']} but lands on level {len(dst)}"]
        if (net, src) in seen:
            return [f"{where}: second outgoing edge at the source"]
        seen.add((net, src))
        table = tables.get((net, len(src)))
        if table is None or rat(e["q"]) != table.delay(src):
            return [f"{where}: weight {e['q']} differs from the source's delay"]
    return []


def _check_kept_share(path, config, expected, aggregates, discards) -> list[str]:
    rows = {(a["network"], a["level"]): a for a in aggregates}
    if set(rows) != expected:
        return [f"{path}: aggregates.jsonl does not cover every network and level"]
    allowance: dict[tuple[int, int], Fraction] = {}
    for d in discards:
        bound = rat(d["bound"])
        if dyadic_exponent(bound) != breadth_first_index(d["source"]) + 3:
            return [f"{path}: discard behind {d['source']} claims bound {d['bound']}, "
                    "not 2^-(index(source)+3)"]
        key = (d["network"], d["step"])
        allowance[key] = allowance.get(key, Fraction(0)) + bound
    rho = config["rho_base"]
    for net in range(1, config["networks"] + 1):
        loss = Fraction(0)
        held = Fraction(0)
        for n in range(config["depth"] + 1):
            if n:
                loss += Fraction(1, (n + rho) ** 2)
            held += allowance.get((net, n), Fraction(0))
            row = rows[net, n]
            s_n = rat(row["s_n"])
            where = f"{path}: network {net} level {n}"
            if s_n != rat(row["total_R"]) - rat(row["extra_inflow"]):
                return [f"{where}: s_n {s_n} is not total_R - extra_inflow"]
            if s_n < Fraction(1, 2):
                return [f"{where}: s_n {s_n} below 1/2"]
            if s_n < 1 - loss - held:
                return [f"{where}: s_n {s_n} below 1 - install losses - discard allowance"]
    return []


def check_export(source: Path, copy: Path) -> list[str]:
    """The exported copy holds the same six files with the same bytes."""
    source, copy = Path(source), Path(copy)
    names = sorted(p.name for p in copy.iterdir()) if copy.is_dir() else []
    if names != sorted(BUNDLE_FILES):
        return [f"{copy}: holds {names}, not the six bundle files"]
    for name in BUNDLE_FILES:
        if (source / name).read_bytes() != (copy / name).read_bytes():
            return [f"{copy / name}: differs from {source / name}"]
    return []


def _union_mass(roots: list[str], where: str) -> tuple[Fraction, list[str]]:
    for a in roots:
        for b in roots:
            if a != b and b.startswith(a):
                return Fraction(0), [f"{where}: roots {a} and {b} are not prefix-free"]
    return sum((Fraction(1, 1 << len(r)) for r in roots), Fraction(0)), []


def check_mltest(rows: list[dict]) -> list[str]:
    """Recompute each task's interval union mass from the printed roots and
    hold it to the printed mass and to the cap 2^-index."""
    if [r["index"] for r in rows] != list(range(1, len(rows) + 1)):
        return ["mltest rows do not cover tasks 1..max in order"]
    for r in rows:
        i = r["index"]
        cap = Fraction(1, 1 << i)
        where = f"mltest task {i}"
        if rat(r["cap"]) != cap:
            return [f"{where}: cap {r['cap']} is not 2^-{i}"]
        mass, problems = _union_mass(r["roots"], where)
        if problems:
            return problems
        if mass != rat(r["mass"]):
            return [f"{where}: roots add up to {mass}, row says {r['mass']}"]
        if mass > cap:
            return [f"{where}: union mass {mass} exceeds {cap}"]
        tail, problems = _union_mass(r["tail_roots"], where + " tail")
        if problems:
            return problems
        if tail != rat(r["tail_mass"]) or tail > cap:
            return [f"{where}: tail mass {tail} (row {r['tail_mass']}) against cap {cap}"]
    return []


def check_report(report: dict, names: list[str]) -> list[str]:
    """A verify report that ran exactly `names` and passed every one."""
    got = [c["name"] for c in report.get("checks", [])]
    if got != names:
        return [f"verify ran {got}, expected {names}"]
    failed = [c["name"] for c in report["checks"] if c["passed"] is not True]
    if failed or report.get("passed") is not True:
        return [f"verify report failed {failed or 'overall'}"]
    return []
