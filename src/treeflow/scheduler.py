"""Task streams, keyed sessions, and candidate enumeration.

Steps are handed to tasks through the diagonal pairing: step n belongs to
task unpair_1(n), and a second unpairing layer inside unpair_2(n) yields the
subtask index, so every (task, subtask) pair recurs infinitely often.

A session of task i has the key (i,), and subsession k inside it the key
(i, k); the steps of a key are the steps the stream types with it. Keys
sort as tuples, so (j, ...) < (i,) < (i, 1) < (i, 2) for j < i. A key's
session starts at its first step beyond every edge level recorded under a
key that sorts before it: a session waits out every task of higher
priority (smaller index), and a subsession also its own task's earlier
subtasks. Each preset fixes which stream it runs on and which of several
networks a task acts on.
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
from treeflow.network import ConstructionError


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
    """Edge history plus step typing for one run (all networks together).

    Sessions are keyed by tuples: (i,) is a session of task i and (i, k)
    its subsession k. The steps of a key are the steps the stream types
    with it; an edge is recorded under (task,) or (task, subtask).
    """

    def __init__(self, stream, depth: int):
        self.stream = stream
        self.depth = depth
        # The steps of each key, typed on the first read: a reloaded
        # bundle that only exports or runs mltest reads none.
        self._steps: Optional[dict[tuple[int, ...], list[int]]] = None
        # Highest edge level per key, across all networks.
        self._edge_levels: dict[tuple[int, ...], int] = {}

    def steps(self, key: tuple[int, ...]) -> list[int]:
        if self._steps is None:
            self._steps = {}
            has_sub = hasattr(self.stream, "subtask")
            for n in range(1, self.depth + 1):
                i = self.stream.task(n)
                self._steps.setdefault((i,), []).append(n)
                if has_sub:
                    self._steps.setdefault((i, self.stream.subtask(n)), []).append(n)
        return self._steps.get(key, [])

    def record_edge(self, task: int, subtask: Optional[int], level: int) -> None:
        key = (task,) if subtask is None else (task, subtask)
        self._edge_levels[key] = max(self._edge_levels.get(key, 0), level)

    def barrier(self, key: tuple[int, ...]) -> int:
        """Highest edge level recorded under a key that sorts before `key`
        (0 when none): every task j < i for (i,), and also the subtasks
        t < k of task i for (i, k). An edge of task i with no subtask sorts
        before (i, k) but moves no subsession of its own task."""
        own = key[:1]
        return max(
            (lvl for r, lvl in self._edge_levels.items() if r < key and r != own),
            default=0,
        )

    def start(self, key: tuple[int, ...], n: int) -> Optional[int]:
        """The first step of `key` past its barrier, if it is at most n.

        A step engine asks at a step n that the stream types with `key`,
        while every recorded edge was drawn at an earlier step and lands
        on that step's level. The barrier then lies below n, which is one
        of the key's steps, so the answer is a step of at most n, never
        None."""
        steps = self.steps(key)
        pos = bisect_right(steps, self.barrier(key))
        if pos < len(steps) and steps[pos] <= n:
            return steps[pos]
        return None

    def candidate_levels(self, key: tuple[int, ...], start: int, n: int) -> list[int]:
        """The steps of `key` in [start, n)."""
        steps = self.steps(key)
        return steps[bisect_right(steps, start - 1) : bisect_right(steps, n - 1)]


def candidates(
    ctx, predicate, levels: list[int], root: Optional[BitString] = None
) -> list[tuple[BitString, BitString]]:
    """Vertices requiring processing at step ctx.n on ctx.net, with their
    edge targets.

    A candidate x sits at one of `levels` (the candidate levels of a
    session or subsession), inside the subtree of `root` when one is
    given, has s(x) > 0, no outgoing extra edge, and a defined edge target
    beta(x). No level lies above the root: t1_step keeps only the
    designated vertex's level, and t2_step's levels start at the
    subsession's start, which is at least the session's start, the
    root's length. The predicate supplies the level gate, the source
    enumeration (it may prune by its own viability bounds) and beta. A
    level the gate shuts is not read, not enumerated and counts against
    no cap, and beta is asked only for sources on open levels. More than
    Caps.candidates sources raise through ctx.cap_hit. Returned in
    increasing index_of order.
    """
    net, cap = ctx.net, ctx.caps.candidates
    found: list[tuple[BitString, BitString]] = []
    seen = 0
    for m in levels:
        if not predicate.level_open(m):
            continue
        region_filter = None if root is None else Cube.subtree(root, m)
        for cube, s in net.tables[m].s_partition():
            if s == 0:
                continue
            region = cube if region_filter is None else cube.intersect(region_filter)
            if region is None:
                continue
            for x in predicate.iter_sources(region, m):
                seen += 1
                if seen > cap:
                    raise ctx.cap_hit(
                        "candidates", f"candidate enumeration from level {m}"
                    )
                if net.outgoing_edge(x) is not None:
                    continue
                y = predicate.beta(x)
                if y is not None:
                    found.append((x, y))
    found.sort(key=lambda pair: index_of(pair[0]))
    return found
