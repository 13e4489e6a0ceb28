"""Literal mirror of the level engine, one dictionary entry per vertex.

Everything here is recomputed from the raw step arithmetic: windows come
from scanning the step list, candidates from walking whole levels, masses
from summing vertices one at a time. The only shared modules are the
string codec and the operators, so agreement with the cube-based engine
exercises both sides' bookkeeping. Feasible to depth 14 or so.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from treeflow.bitseq import (
    BitString,
    index_of,
    restricted_triple,
    string_of,
    unpair_1,
    unpair_2,
)
from treeflow.operators import apply_modified, phi_bounded

ZERO = Fraction(0)
ONE = Fraction(1)


class DenseFailure(Exception):
    """The literal mirror hit a state the construction must never reach."""


def strings(n: int) -> tuple[BitString, ...]:
    """Every vertex of level n in numeric order."""
    return tuple(BitString(n, v) for v in range(1 << n))


class Levels(dict):
    """`strings(n)` of each level n read so far, built on the first read."""

    def __missing__(self, n: int) -> tuple[BitString, ...]:
        level = self[n] = strings(n)
        return level


def agrees(v: BitString, pattern: BitString, start: int) -> bool:
    """True when v matches pattern on positions start..len(pattern), the
    pattern's low len(pattern) - start + 1 bits."""
    gap = len(v) - len(pattern)
    if gap < 0:
        return False
    mask = (1 << (len(pattern) - start + 1)) - 1
    return ((v.value >> gap) ^ pattern.value) & mask == 0


class DenseNet:
    def __init__(self, net_id: int, levels: Levels):
        self.id = net_id
        self.levels = levels
        root = BitString(0, 0)
        self.s: list[dict[BitString, Fraction]] = [{root: ZERO}]
        self.R: list[dict[BitString, Fraction]] = [{root: ONE}]
        self.inflows: list[Fraction] = [ZERO]
        self.edges: list[dict] = []
        self.edge_by_source: dict[BitString, dict] = {}

    @property
    def depth(self) -> int:
        return len(self.R) - 1

    def pre_frame(self, n: int) -> dict[BitString, Fraction]:
        if n != self.depth + 1:
            raise DenseFailure(f"pre frame asked at {n}, depth {self.depth}")
        out: dict[BitString, Fraction] = {}
        for x, r in self.R[n - 1].items():
            share = r * (1 - self.s[n - 1][x]) / 2
            out[x.child(0)] = share
            out[x.child(1)] = share
        return out

    def commit(self, n: int, s_table: dict[BitString, Fraction], new_edges: list[dict]):
        frame = self.pre_frame(n)
        inflow = ZERO
        for e in new_edges:
            src = e["source"]
            if src in self.edge_by_source:
                raise DenseFailure(f"second outgoing edge at {src}")
            if e["q"] != self.s[len(src)][src]:
                raise DenseFailure(f"edge weight differs from delay at {src}")
            self.edge_by_source[src] = e
            self.edges.append(e)
            moved = e["q"] * self.R[len(src)][src]
            frame[e["target"]] += moved
            inflow += moved
        full = {z: s_table.get(z, ZERO) for z in self.levels[n]}
        for v in full.values():
            if v < 0 or v > 1:
                raise DenseFailure("delay outside [0, 1]")
        self.s.append(full)
        self.R.append(frame)
        self.inflows.append(inflow)

    def total_R(self, n: int) -> Fraction:
        return sum(self.R[n].values(), ZERO)

    def P(self, x: BitString) -> Fraction:
        total = self.R[len(x)][x]
        for k in range(len(x)):
            anc = x.truncate(k)
            e = self.edge_by_source.get(anc)
            if e is not None and x.is_strict_prefix_of(e["target"]):
                total += e["q"] * self.R[k][anc]
        return total


class DenseRun:
    def __init__(self, config):
        self.config = config
        self.levels = Levels()
        self.nets: dict[int, DenseNet] = {
            m + 1: DenseNet(m + 1, self.levels) for m in range(config.networks)
        }
        self.cases: list[dict] = []

    def net(self, net_id: int) -> DenseNet:
        return self.nets[net_id]

    def all_edges(self) -> list[dict]:
        out = []
        for net in self.nets.values():
            out.extend(net.edges)
        out.sort(key=lambda e: (e["step"], e["net"], index_of(e["source"])))
        return out


class _Driver:
    def __init__(self, config):
        self.ops, self.fns = config.validate()
        self.config = config
        self.run = DenseRun(config)
        self.depth = config.depth
        self.paired = config.preset == "divisible"
        self.history: list[dict] = []

    # -- step arithmetic, recomputed longhand ----------------------------

    def task_of(self, n: int) -> int:
        if self.paired:
            return unpair_1(unpair_1(n))
        return unpair_1(n)

    def subtask_of(self, n: int) -> int:
        return unpair_1(unpair_2(n))

    def barrier(self, i: int) -> int:
        levels = [e["step"] for e in self.history if e["task"] < i]
        return max(levels) if levels else 0

    def sub_barrier(self, i: int, k: int) -> int:
        best = self.barrier(i)
        for e in self.history:
            if e["task"] == i and e["subtask"] is not None and e["subtask"] < k:
                best = max(best, e["step"])
        return best

    def _first_typed(self, match: Callable[[int], bool], lo: int, n: int):
        for m in range(1, n + 1):
            if m > lo and match(m):
                return m
        return None

    def w_session(self, i: int, n: int) -> Optional[int]:
        return self._first_typed(lambda m: self.task_of(m) == i, self.barrier(i), n)

    def w_subsession(self, i: int, k: int, n: int) -> Optional[int]:
        return self._first_typed(
            lambda m: self.task_of(m) == i and self.subtask_of(m) == k,
            self.sub_barrier(i, k),
            n,
        )

    def task_levels(self, i: int, lo: int, n: int) -> list[int]:
        return [m for m in range(lo, n) if self.task_of(m) == i]

    def sub_levels(self, i: int, k: int, lo: int, n: int) -> list[int]:
        return [
            m
            for m in range(lo, n)
            if self.task_of(m) == i and self.subtask_of(m) == k
        ]

    # -- shared pieces ---------------------------------------------------

    def install(self, n: int) -> dict[BitString, Fraction]:
        v = Fraction(1, (n + self.config.rho_base) ** 2)
        return {z: v for z in self.run.levels[n]}

    def record(self, n: int, i: int, k, net_id: int, case: int, note: str = ""):
        self.run.cases.append(
            {"step": n, "task": i, "subtask": k, "network": net_id, "case": case, "note": note}
        )

    def literal_beta(self, x: BitString, n: int, holds) -> Optional[BitString]:
        if n - len(x) < 2:
            return None
        for value in range(1 << (n - len(x))):
            y = x.concat(BitString(n - len(x), value))
            if holds(x, y):
                return y
        return None

    def commit_all(self, n: int, tables: dict[int, dict], edges: list[dict]):
        for net_id in sorted(self.run.nets):
            mine = [e for e in edges if e["net"] == net_id]
            self.run.nets[net_id].commit(n, tables.get(net_id, {}), mine)
        self.history.extend(edges)

    # -- template mirrors ------------------------------------------------

    def t1_table(self, n: int, cands: list, net: DenseNet) -> dict[BitString, Fraction]:
        table: dict[BitString, Fraction] = {}
        claimed: dict[BitString, BitString] = {}
        for x, y in cands:
            sx = net.s[len(x)][x]
            if sx == ONE:
                continue
            value = sx / (1 - sx)
            for z in self.run.levels[n]:
                if x.is_prefix_of(z) and z != y:
                    if z in claimed:
                        raise DenseFailure(f"{z} inside two drawn subtrees")
                    claimed[z] = x
                    table[z] = value
        return table

    def step_nonstochastic(self, n: int):
        net = self.run.nets[1]
        i = self.task_of(n)
        op = self.ops.operator_for(i)
        w = self.w_session(i, n)
        if w is None:
            self.record(n, i, None, 1, 3)
            return {}, []
        if w == n:
            self.record(n, i, None, 1, 1)
            return {1: self.install(n)}, []

        def holds(x, y):
            return len(apply_modified(op, y)) > index_of(x) + i

        cands = []
        for m in self.task_levels(i, w, n):
            for x in self.run.levels[m]:
                if net.s[m][x] <= 0 or x in net.edge_by_source:
                    continue
                y = self.literal_beta(x, n, holds)
                if y is not None:
                    cands.append((x, y))
        if not cands:
            self.record(n, i, None, 1, 3)
            return {}, []
        self.record(n, i, None, 1, 2)
        edges = [
            {
                "source": x,
                "target": y,
                "q": net.s[len(x)][x],
                "task": i,
                "subtask": None,
                "net": 1,
                "step": n,
            }
            for x, y in cands
        ]
        return {1: self.t1_table(n, cands, net)}, edges

    def discard_region(self, img: BitString, x: BitString, n: int):
        """Level-n vertices to silence, or None when the combination is
        rejected outright (reject mode with comparable strings)."""
        comparable = img.is_prefix_of(x) or x.is_prefix_of(img)
        if self.config.discard_mode == "reject":
            if comparable:
                return None
            return [z for z in self.run.levels[n] if img.is_prefix_of(z)]
        return [
            z
            for z in self.run.levels[n]
            if img.is_prefix_of(z) and not x.is_prefix_of(z)
        ]

    def step_divisible(self, n: int):
        net = self.run.nets[1]
        i = self.task_of(n)
        op = self.ops.operator_for(i)
        w = self.w_session(i, n)
        if w is None:
            self.record(n, i, None, 1, 3)
            return {}, []
        if w == n:
            self.record(n, i, None, 1, 1)
            return {1: self.install(n)}, []
        x = string_of(unpair_2(unpair_1(n)))
        m = len(x)
        usable = (
            m in self.task_levels(i, w, n)
            and net.s[m][x] > 0
            and x not in net.edge_by_source
        )
        pre = net.pre_frame(n)

        def holds(xx, y):
            img = apply_modified(op, y)
            if img.is_prefix_of(y):
                return False
            region = self.discard_region(img, xx, n)
            if region is None:
                return False
            mass = sum((pre[z] for z in region), ZERO)
            return mass <= Fraction(1, 1 << (index_of(xx) + 3))

        y = self.literal_beta(x, n, holds) if usable else None
        if y is None:
            self.record(n, i, None, 1, 3)
            return {}, []
        self.record(n, i, None, 1, 2)
        sx = net.s[m][x]
        table = self.t1_table(n, [(x, y)], net)
        img = apply_modified(op, y)
        for z in self.discard_region(img, x, n):
            if z in table:
                raise DenseFailure(f"discard overlaps a delay write at {z}")
            table[z] = ONE
        edge = {
            "source": x,
            "target": y,
            "q": sx,
            "task": i,
            "subtask": None,
            "net": 1,
            "step": n,
        }
        return {1: table}, [edge]

    def class_members(self, x: BitString, w: int) -> list[BitString]:
        return [m for m in self.run.levels[len(x)] if agrees(m, x, w)]

    def t2_draws(self, n: int, i: int, k: int, net: DenseNet, holds):
        """Run the subtree-replicated step; returns (case, table, edges)."""
        w = self.w_session(i, n)
        if w is None:
            return 3, {}, []
        if k > (1 << w):
            return 3, {}, []
        wk = self.w_subsession(i, k, n)
        if wk is None:
            return 3, {}, []
        if wk == n:
            return 1, self.install(n), []
        z0 = BitString(w, k - 1)
        cands = []
        for m in self.sub_levels(i, k, wk, n):
            if len(z0) > m:
                continue
            for x in self.run.levels[m]:
                if not z0.is_prefix_of(x):
                    continue
                if net.s[m][x] <= 0 or x in net.edge_by_source:
                    continue
                y = self.literal_beta(x, n, holds)
                if y is not None:
                    cands.append((x, y))
        if not cands:
            return 3, {}, []
        table: dict[BitString, Fraction] = {}
        target_claims: dict[BitString, int] = {}
        desc_claims: dict[BitString, int] = {}
        targets_all: set[BitString] = set()
        for idx_c, (x, y) in enumerate(cands):
            for v in self.run.levels[n]:
                if agrees(v, y, w):
                    if v in target_claims and target_claims[v] != idx_c:
                        raise DenseFailure(f"{v} targeted by two classes")
                    target_claims[v] = idx_c
                    targets_all.add(v)
        edges = []
        for idx_c, (x, y) in enumerate(cands):
            sx = net.s[len(x)][x]
            tail = y.suffix_from(len(x) + 1)
            for m in self.class_members(x, w):
                if net.s[len(m)][m] != sx:
                    raise DenseFailure(f"class of {x} has uneven delays at {m}")
                edges.append(
                    {
                        "source": m,
                        "target": m.concat(tail),
                        "q": sx,
                        "task": i,
                        "subtask": k,
                        "net": net.id,
                        "step": n,
                    }
                )
            if sx == ONE:
                continue
            value = sx / (1 - sx)
            for v in self.run.levels[n]:
                if agrees(v, x, w) and v not in targets_all:
                    if v in desc_claims and desc_claims[v] != idx_c:
                        raise DenseFailure(f"{v} under two drawn classes")
                    desc_claims[v] = idx_c
                    table[v] = value
        return 2, table, edges

    def step_atom(self, n: int):
        net = self.run.nets[1]
        i = self.task_of(n)
        k = self.subtask_of(n)
        op = self.ops.operator_for(i)

        def holds(x, y):
            return len(apply_modified(op, y)) > index_of(x) + i

        case, table, edges = self.t2_draws(n, i, k, net, holds)
        self.record(n, i, k, 1, case)
        return {1: table}, edges

    def family_pattern_vertices(self, img: BitString, w: int, n: int):
        if len(img) < w:
            return list(self.run.levels[n])
        if len(img) > n:
            return []
        return [v for v in self.run.levels[n] if agrees(v, img, w)]

    def family_step(self, n: int, i: int, k: int, triple_index: int):
        base_raw, target_raw, op_num = restricted_triple(triple_index)
        count = self.config.networks
        base_id = (base_raw - 1) % count + 1
        target_id = (target_raw - 1) % count + 1
        if base_id == target_id:
            self.record(n, i, k, base_id, 3, "collision")
            return {}, []
        net = self.run.nets[base_id]
        target = self.run.nets[target_id]
        op = self.ops.base_for(op_num)
        w = self.w_session(i, n)
        target_pre = target.pre_frame(n)
        mass_memo: dict[tuple, Fraction] = {}

        def pattern_mass(img):
            key = (len(img), img.value)
            if key not in mass_memo:
                verts = self.family_pattern_vertices(img, w, n)
                mass_memo[key] = sum((target_pre[v] for v in verts), ZERO)
            return mass_memo[key]

        def holds(x, y):
            tail = y.suffix_from(len(x) + 1)
            for m in self.class_members(x, w):
                img = apply_modified(op, m.concat(tail))
                if pattern_mass(img) > Fraction(1, 1 << (index_of(m) + 3)):
                    return False
            return True

        case, table, edges = self.t2_draws(n, i, k, net, holds)
        self.record(n, i, k, base_id, case)
        tables = {base_id: table}
        if edges:
            discard: dict[BitString, tuple] = {}
            for e in edges:
                img = apply_modified(op, e["target"])
                key = (len(img) if len(img) >= w else -1, img.value if len(img) >= w else 0)
                for v in self.family_pattern_vertices(img, w, n):
                    if v in discard and discard[v] != key:
                        raise DenseFailure(f"overlapping discard patterns at {v}")
                    discard[v] = key
            tables[target_id] = {v: ONE for v in discard}
        return tables, edges

    def step_family(self, n: int):
        i = self.task_of(n)
        return self.family_step(n, i, self.subtask_of(n), i)

    def step_hyperimmune(self, n: int):
        i = self.task_of(n)
        k = self.subtask_of(n)
        if i == 1:
            self.record(n, i, k, 1, 3, "inert")
            return {}, []
        if i % 2 == 0:
            return self.family_step(n, i, k, i // 2)
        j = (i - 1) // 2
        net_id = (unpair_1(j) - 1) % self.config.networks + 1
        net = self.run.nets[net_id]

        def holds(x, y):
            forced = x.child(1).concat(BitString(n - len(x) - 1, 0))
            if y != forced:
                return False
            value = phi_bounded(self.fns, j, len(x) + 2, n)
            return value is not None and n >= value

        case, table, edges = self.t2_draws(n, i, k, net, holds)
        self.record(n, i, k, net_id, case)
        return {net_id: table}, edges

    def build(self) -> DenseRun:
        steps = {
            "nonstochastic": self.step_nonstochastic,
            "divisible": self.step_divisible,
            "atom": self.step_atom,
            "family": self.step_family,
            "hyperimmune": self.step_hyperimmune,
        }[self.config.preset]
        for n in range(1, self.depth + 1):
            tables, edges = steps(n)
            self.commit_all(n, tables, edges)
        return self.run


def dense_build(config) -> DenseRun:
    return _Driver(config).build()


def compare_runs(bundle, run: DenseRun) -> list[str]:
    """Differences between an engine bundle and the literal mirror; empty
    means they agree vertex for vertex."""
    problems: list[str] = []
    config = bundle.config
    for net_id in sorted(run.nets):
        sparse = bundle.network(net_id)
        dense = run.nets[net_id]
        for n in range(config.depth + 1):
            stats = sparse.aggregates[n]
            if stats.total_R != dense.total_R(n):
                problems.append(
                    f"net {net_id} level {n}: total R "
                    f"{stats.total_R} vs {dense.total_R(n)}"
                )
            if stats.extra_inflow != dense.inflows[n]:
                problems.append(
                    f"net {net_id} level {n}: inflow "
                    f"{stats.extra_inflow} vs {dense.inflows[n]}"
                )
            for x in run.levels[n]:
                if sparse.delay(x) != dense.s[n][x]:
                    problems.append(f"net {net_id} delay differs at {x}")
                if sparse.frame_eval(x) != dense.R[n][x]:
                    problems.append(f"net {net_id} frame differs at {x}")
                if sparse.flow_eval(x) != dense.P(x):
                    problems.append(f"net {net_id} flow differs at {x}")
            if len(problems) > 40:
                return problems
    sparse_edges = [
        (
            e.network_id,
            str(e.source),
            str(e.target),
            e.q,
            e.task,
            e.subtask,
            e.step_drawn,
        )
        for e in sorted(
            (e for net in bundle.networks for e in net.edges),
            key=lambda e: (e.step_drawn, e.network_id, index_of(e.source)),
        )
    ]
    dense_edges = [
        (
            e["net"],
            str(e["source"]),
            str(e["target"]),
            e["q"],
            e["task"],
            e["subtask"],
            e["step"],
        )
        for e in run.all_edges()
    ]
    if sparse_edges != dense_edges:
        problems.append(f"edge lists differ: {sparse_edges} vs {dense_edges}")
    sparse_cases = [(p["step"], p["network"], p["case"]) for p in bundle.provenance]
    dense_cases = [(c["step"], c["network"], c["case"]) for c in run.cases]
    if sparse_cases != dense_cases:
        problems.append("case decisions differ")
    return problems
