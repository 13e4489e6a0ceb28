"""Task streams and the session-start machinery.

Steps are handed to tasks through the diagonal pairing: step n belongs to
task unpair_1(n), and a second unpairing layer inside unpair_2(n) yields the
subtask index, so every (task, subtask) pair recurs infinitely often. A
session of task i starts at the least i-typed step beyond every edge level
drawn by tasks of higher priority (smaller index); subsessions additionally
wait out their own earlier subtasks. Each preset fixes which stream it
runs on and which of several networks a task acts on.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from treeflow.bitseq import (
    BitString,
    index_of,
    restricted_triple,
    string_of,
    unpair_1,
    unpair_2,
)
from treeflow.cubes import Cube
from treeflow.network import ConstructionError, ElementaryNetwork


class ResourceLimit(ConstructionError):
    """A hard enumeration cap was hit; raise instead of degrading silently."""


class TaskStream:
    """Two-layer stream: task(n) = first pair part, subtask via the second."""

    def task(self, n: int) -> int:
        return unpair_1(n)

    def subtask(self, n: int) -> int:
        return unpair_1(unpair_2(n))


class PairedTaskStream:
    """Stream whose first layer itself carries a pair: the task is
    [p(n)]_1 and [p(n)]_2 names one designated vertex by its code."""

    def task(self, n: int) -> int:
        return unpair_1(unpair_1(n))

    def designated(self, n: int) -> BitString:
        return string_of(unpair_2(unpair_1(n)))


def task_stream(preset: str):
    """The stream a preset runs on: `divisible` draws its designated
    vertices from the paired stream, every other preset uses TaskStream."""
    return PairedTaskStream() if preset == "divisible" else TaskStream()


def task_networks(
    preset: str, i: int, count: int
) -> tuple[int, Optional[int], Optional[int]]:
    """(acting network, target network, operator number) of task i when a
    preset runs on `count` networks; network numbers wrap into 1..count.

    `family` decodes i as a restricted triple (base, target, operator).
    `hyperimmune` decodes i/2 the same way for even i, puts odd i > 1 on
    network unpair_1((i-1)/2) and task 1 on network 1. Target and operator
    are None outside that family decoding; single-network presets act on
    network 1."""
    if preset == "hyperimmune" and i % 2:
        acting = 1 if i == 1 else unpair_1((i - 1) // 2)
        return (acting - 1) % count + 1, None, None
    if preset == "hyperimmune":
        i //= 2
    elif preset != "family":
        return 1, None, None
    base, target, op_num = restricted_triple(i)
    return (base - 1) % count + 1, (target - 1) % count + 1, op_num


class ScheduleState:
    """Edge history plus step typing for one run (all networks together)."""

    def __init__(self, stream, depth: int):
        self.stream = stream
        self.depth = depth
        self._task_steps: dict[int, list[int]] = {}
        self._sub_steps: dict[tuple[int, int], list[int]] = {}
        has_sub = hasattr(stream, "subtask")
        for n in range(1, depth + 1):
            i = stream.task(n)
            self._task_steps.setdefault(i, []).append(n)
            if has_sub:
                k = stream.subtask(n)
                self._sub_steps.setdefault((i, k), []).append(n)
        # Edge levels by task and by (task, subtask), across all networks.
        self._edge_levels: dict[int, list[int]] = {}
        self._sub_edge_levels: dict[tuple[int, int], list[int]] = {}

    def task_steps(self, i: int) -> list[int]:
        return self._task_steps.get(i, [])

    def sub_steps(self, i: int, k: int) -> list[int]:
        return self._sub_steps.get((i, k), [])

    def record_edge(self, task: int, subtask: Optional[int], level: int) -> None:
        self._edge_levels.setdefault(task, []).append(level)
        if subtask is not None:
            self._sub_edge_levels.setdefault((task, subtask), []).append(level)

    def barrier(self, i: int) -> int:
        """Highest edge level drawn by any task j < i (0 when none)."""
        best = 0
        for j, levels in self._edge_levels.items():
            if j < i and levels:
                best = max(best, max(levels))
        return best

    def sub_barrier(self, i: int, k: int) -> int:
        best = self.barrier(i)
        for (j, t), levels in self._sub_edge_levels.items():
            if j == i and t < k and levels:
                best = max(best, max(levels))
        return best

    def _first_after(self, steps: list[int], barrier: int, n: int) -> Optional[int]:
        pos = bisect_right(steps, barrier)
        if pos < len(steps) and steps[pos] <= n:
            return steps[pos]
        return None

    def w_session(self, i: int, n: int) -> Optional[int]:
        return self._first_after(self.task_steps(i), self.barrier(i), n)

    def w_subsession(self, i: int, k: int, n: int) -> Optional[int]:
        return self._first_after(self.sub_steps(i, k), self.sub_barrier(i, k), n)

    def candidate_levels(self, i: int, w: int, n: int) -> list[int]:
        steps = self.task_steps(i)
        return steps[bisect_right(steps, w - 1) : bisect_right(steps, n - 1)]

    def sub_candidate_levels(self, i: int, k: int, wk: int, n: int) -> list[int]:
        steps = self.sub_steps(i, k)
        return steps[bisect_right(steps, wk - 1) : bisect_right(steps, n - 1)]


def candidates(
    state: ScheduleState,
    net: ElementaryNetwork,
    i: int,
    n: int,
    oracle,
    w: int,
    subtask: Optional[int] = None,
    wk: Optional[int] = None,
    subtree_root: Optional[BitString] = None,
    cap: int = 4096,
) -> list[tuple[BitString, BitString]]:
    """Vertices requiring processing at step n, with their edge targets.

    A candidate x sits at a task-typed level in [w, n) (subtask-typed in
    [wk, n) for the subtree variant), has s(x) > 0, no outgoing extra edge,
    and a defined edge target beta(x). The oracle supplies both the source
    enumeration (it may prune by its own viability bounds) and beta.
    Returned in increasing index_of order.
    """
    if subtask is None:
        levels = state.candidate_levels(i, w, n)
    else:
        levels = state.sub_candidate_levels(i, subtask, wk if wk is not None else w, n)
    found: list[tuple[BitString, BitString]] = []
    seen = 0
    for m in levels:
        region_filter = None
        if subtree_root is not None:
            if len(subtree_root) > m:
                continue
            region_filter = Cube.subtree(subtree_root, m)
        for cube, s in net.tables[m].s_partition():
            if s == 0:
                continue
            region = cube if region_filter is None else cube.intersect(region_filter)
            if region is None:
                continue
            for x in oracle.iter_sources(region, m):
                seen += 1
                if seen > cap:
                    raise ResourceLimit(
                        f"Caps.candidates = {cap} exceeded at level {n}, "
                        f"task {i}, network {net.network_id}: "
                        f"candidate enumeration from level {m}"
                    )
                if net.outgoing_edge(x) is not None:
                    continue
                y = oracle.beta(x)
                if y is not None:
                    found.append((x, y))
    found.sort(key=lambda pair: index_of(pair[0]))
    return found
