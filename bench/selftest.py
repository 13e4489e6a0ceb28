"""Self-test of the benchmark's output checks.

Each check must pass a clean output and reject a deliberately corrupted
copy of it, so that no check passes unconditionally:

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import unittest
from pathlib import Path

import checks
import run

MODULES = run.import_treeflow()
WORK = run.WORK / "selftest"


def treeflow(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = MODULES["cli"].main(list(argv))
    if code != 0:
        raise RuntimeError(f"treeflow {' '.join(argv)} exited with {code}")


def setUpModule():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    treeflow("build", "--preset", "family", "--networks", "3", "--depth", "16", "--out", str(WORK / "family"))
    treeflow("build", "--preset", "nonstochastic", "--depth", "24", "--out", str(WORK / "ns"))
    treeflow("mltest", str(WORK / "ns"), "--out", str(WORK / "ns.mltest"))
    treeflow("build", "--preset", "atom", "--depth", "12", "--out", str(WORK / "atom"))
    treeflow("verify", str(WORK / "atom"), "--out", str(WORK / "atom.verify.json"))


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


def write_rows(path: Path, records: list) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records))


def corrupt(name: str, filename: str, edit) -> Path:
    """A copy of fixture bundle `name` with `edit` applied to one file's rows."""
    copy = WORK / f"{name}-corrupt"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(WORK / name, copy)
    records = checks.read_jsonl(copy / filename)
    edit(records)
    write_rows(copy / filename, records)
    return copy


def first_edge(records: list) -> dict:
    return next(r for r in records if r["network"] == 1)


class BundleChecks(unittest.TestCase):
    def assertRejected(self, problems: list, fragment: str):
        self.assertTrue(problems, "corruption went unnoticed")
        self.assertIn(fragment, problems[0])

    def test_clean_bundles_pass(self):
        for name in ("family", "ns", "atom"):
            self.assertEqual(checks.check_bundle(WORK / name), [], name)

    def test_fixture_has_edges_and_discards(self):
        edges = checks.read_jsonl(WORK / "family" / "edges.jsonl")
        discards = [d for r in checks.read_jsonl(WORK / "family" / "provenance.jsonl") for d in r["discards"]]
        self.assertTrue(edges and discards)

    def test_delay_not_unit_fraction(self):
        def edit(records):
            records[5]["default"] = "2/7"

        self.assertRejected(checks.check_bundle(corrupt("ns", "levels.jsonl", edit)), "not 0 or 1/M")

    def test_delay_not_lowest_terms(self):
        def edit(records):
            records[5]["default"] = "2/14"

        self.assertRejected(checks.check_bundle(corrupt("ns", "levels.jsonl", edit)), "unreadable")

    def test_missing_level(self):
        self.assertRejected(checks.check_bundle(corrupt("ns", "levels.jsonl", list.pop)), "levels.jsonl")

    def test_shifted_s_n(self):
        def edit(records):
            row = records[5]
            row["s_n"] = checks.rat(row["s_n"]) + checks.Fraction(1, 1024)
            row["s_n"] = f"{row['s_n'].numerator}/{row['s_n'].denominator}"

        self.assertRejected(checks.check_bundle(corrupt("ns", "aggregates.jsonl", edit)), "is not total_R - extra_inflow")

    def test_s_n_below_half(self):
        def edit(records):
            records[3].update(total_R="1/4", extra_inflow="0/1", s_n="1/4")

        self.assertRejected(checks.check_bundle(corrupt("ns", "aggregates.jsonl", edit)), "below 1/2")

    def test_s_n_below_budget(self):
        # Level 1 loses 1/(1+3)^2 to the install and holds no discards.
        def edit(records):
            records[1].update(total_R="959/1024", extra_inflow="0/1", s_n="959/1024")

        self.assertEqual(checks.read_jsonl(WORK / "ns" / "aggregates.jsonl")[1]["level"], 1)
        self.assertRejected(checks.check_bundle(corrupt("ns", "aggregates.jsonl", edit)), "discard allowance")

    def test_edge_weight_differs_from_delay(self):
        def edit(records):
            edge = first_edge(records)
            edge["q"] = "1/99991"

        self.assertRejected(checks.check_bundle(corrupt("ns", "edges.jsonl", edit)), "differs from the source's delay")

    def test_edge_skips_one_level(self):
        def edit(records):
            edge = first_edge(records)
            edge["to"] = edge["from"] + "0"

        self.assertRejected(checks.check_bundle(corrupt("ns", "edges.jsonl", edit)), "fewer than two levels")

    def test_edge_source_not_prefix(self):
        def edit(records):
            edge = first_edge(records)
            edge["to"] = ("1" if edge["to"][0] == "0" else "0") + edge["to"][1:]

        self.assertRejected(checks.check_bundle(corrupt("ns", "edges.jsonl", edit)), "not a strict prefix")

    def test_edge_off_its_step(self):
        def edit(records):
            first_edge(records)["step"] += 1

        self.assertRejected(checks.check_bundle(corrupt("ns", "edges.jsonl", edit)), "lands on level")

    def test_second_edge_from_one_source(self):
        def edit(records):
            records.append(dict(first_edge(records)))

        self.assertRejected(checks.check_bundle(corrupt("ns", "edges.jsonl", edit)), "second outgoing edge")

    def test_discard_bound(self):
        def edit(records):
            row = next(r for r in records if r["discards"])
            row["discards"][0]["bound"] = "1/2"

        self.assertRejected(checks.check_bundle(corrupt("family", "provenance.jsonl", edit)), "claims bound")


class ExportCheck(unittest.TestCase):
    def test_identical_copy_passes(self):
        copy = WORK / "export-same"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(WORK / "ns", copy)
        self.assertEqual(checks.check_export(WORK / "ns", copy), [])

    def test_one_changed_byte(self):
        copy = WORK / "export-byte"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(WORK / "ns", copy)
        data = bytearray((copy / "edges.jsonl").read_bytes())
        data[len(data) // 2] ^= 1
        (copy / "edges.jsonl").write_bytes(bytes(data))
        self.assertTrue(checks.check_export(WORK / "ns", copy))

    def test_missing_file(self):
        copy = WORK / "export-missing"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(WORK / "ns", copy)
        (copy / "report.json").unlink()
        self.assertTrue(checks.check_export(WORK / "ns", copy))


class MLTestCheck(unittest.TestCase):
    def setUp(self):
        self.rows = checks.read_jsonl(WORK / "ns.mltest")

    def test_clean_rows_pass(self):
        self.assertTrue(any(r["roots"] for r in self.rows))
        self.assertEqual(checks.check_mltest(self.rows), [])

    def test_mass_disagrees_with_roots(self):
        row = next(r for r in self.rows if r["roots"])
        row["roots"] = row["roots"][1:]
        self.assertTrue(checks.check_mltest(self.rows))

    def test_roots_not_prefix_free(self):
        row = next(r for r in self.rows if r["roots"])
        row["roots"].append(row["roots"][0] + "0")
        self.assertTrue(checks.check_mltest(self.rows))

    def test_mass_above_cap(self):
        row = self.rows[1]
        row.update(roots=["0"], mass="1/2")
        self.assertIn("exceeds", checks.check_mltest(self.rows)[0])


class ReportAndOutcomeChecks(unittest.TestCase):
    def setUp(self):
        self.report = json.loads((WORK / "atom.verify.json").read_text())
        self.names = [c["name"] for c in self.report["checks"]]

    def test_clean_report_passes(self):
        self.assertEqual(checks.check_report(self.report, self.names), [])

    def test_failed_check(self):
        self.report["checks"][2]["passed"] = False
        self.assertTrue(checks.check_report(self.report, self.names))

    def test_missing_check(self):
        self.report["checks"].pop()
        self.assertTrue(checks.check_report(self.report, self.names))

    def test_cap_is_a_failure_only_where_allowed(self):
        harness = run.Harness(MODULES)
        out = WORK / "shadow.json"
        argv = ["verify", str(WORK / "ns"), "--checks", "extension-shadow", "--out", str(out)]
        op = run.Op("verify", argv, out, source=WORK / "ns")
        _elapsed, outcome, _nets = harness.run(op)
        self.assertEqual(outcome, "cap")
        self.assertTrue(run.judge_failure(op, outcome))
        op.may_cap = True
        self.assertEqual(run.judge_failure(op, outcome), [])
        missing = run.Op("export", ["export", str(WORK / "nowhere"), "--out", str(WORK / "x")],
                         WORK / "x", source=WORK / "nowhere", may_cap=True)
        with contextlib.redirect_stderr(io.StringIO()):
            _elapsed, outcome, _nets = harness.run(missing)
        self.assertTrue(outcome.startswith("error"))
        self.assertTrue(run.judge_failure(missing, outcome))

    def test_output_changed_between_passes(self):
        out = WORK / "pass.mltest"
        shutil.copy(WORK / "ns.mltest", out)
        op = run.Op("mltest", [], out, source=WORK / "ns")
        first = {}
        self.assertEqual(run.check_output(op, first), [])
        out.write_text(out.read_text() + "\n")
        self.assertTrue(run.check_output(op, first))


if __name__ == "__main__":
    unittest.main()
