"""Step engines that draw extra edges and write delay tables.

Two engines, t1_step and t2_step, share one skeleton. Each step n on a
network either installs a fresh uniform delay 1/(n+3)^2 across level n
(case 1, session start), processes candidate vertices by drawing edges and
shifting their delayed share onto descendants (case 2), or writes an
all-zero level (case 3).

t1_step handles one vertex per edge; given a designated vertex it processes
only that one. t2_step runs inside leading subtrees and replicates every
draw and every delay write across suffix-equivalence classes. Neither
writes discards: a driver that silences an image region behind an edge
does so after the draw and books it with DiscardRecord.behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from treeflow.bitseq import BitString, index_of
from treeflow.cubes import Cube, subtract_many
from treeflow.network import (
    ONE,
    ZERO,
    ConstructionError,
    DelayTable,
    ElementaryNetwork,
    ExtraEdge,
    Rational,
)
from treeflow.scheduler import ResourceLimit, ScheduleState, candidates


@dataclass
class Caps:
    """Hard enumeration limits. Hitting one raises, never degrades.

    candidates bounds the sources one candidate enumeration may return
    (scheduler.candidates). beta_scan bounds one edge-target lookup: the
    holds probes of a scan, or the nodes of a search. class_members
    bounds the members enumerated from one suffix class or source region.
    """

    candidates: int = 4096
    beta_scan: int = 8192
    class_members: int = 4096


@dataclass(frozen=True)
class DiscardRecord:
    """Region killed (s = 1) on `network_id` by `edge`, with the mass
    allowance 2^-allowance_exponent(source) the drawing predicate
    guaranteed."""

    network_id: int
    cubes: tuple[Cube, ...]
    edge: ExtraEdge
    bound: Rational

    @classmethod
    def behind(
        cls, edge: ExtraEdge, network_id: int, cubes: tuple[Cube, ...]
    ) -> "DiscardRecord":
        """The record of `cubes` silenced on `network_id` behind `edge`,
        bounded by the allowance of the edge's source."""
        return cls(
            network_id=network_id,
            cubes=cubes,
            edge=edge,
            bound=Rational(1, 1 << allowance_exponent(edge.source)),
        )


@dataclass(frozen=True)
class StepOutcome:
    step: int
    network_id: int
    task: int
    subtask: Optional[int]
    case_taken: int
    w: Optional[int] = None
    wk: Optional[int] = None
    edges: tuple[ExtraEdge, ...] = ()
    discards: tuple[DiscardRecord, ...] = ()
    note: str = ""


@dataclass
class StepContext:
    n: int
    i: int
    net: ElementaryNetwork
    state: ScheduleState
    k: Optional[int] = None
    rho_base: int = 3
    caps: Caps = field(default_factory=Caps)

    def install_value(self) -> Rational:
        return Rational(1, (self.n + self.rho_base) ** 2)

    def class_members(self, klass: Cube) -> Iterator[BitString]:
        """The members of a suffix class; one over Caps.class_members
        raises instead of being enumerated."""
        return self._members(klass, "class")

    def source_members(self, region: Cube) -> Iterator[BitString]:
        """The members of a source region, under the same cap."""
        return self._members(region, "source region")

    def _members(self, cube: Cube, what: str) -> Iterator[BitString]:
        cap = self.caps.class_members
        if cube.count() > cap:
            raise self.cap_hit(
                "class_members", f"{what} {cube.pattern()} has {cube.count()} members"
            )
        return cube.members(cap=cap)

    def cap_hit(self, name: str, what: str) -> ResourceLimit:
        """The error for passing Caps.<name>, naming the level, task and
        network of this step."""
        return ResourceLimit(
            f"Caps.{name} = {getattr(self.caps, name)} exceeded at level {self.n}, "
            f"task {self.i}, network {self.net.network_id}: {what}"
        )

    def outcome(self, case: int, **kw) -> StepOutcome:
        return StepOutcome(
            step=self.n,
            network_id=self.net.network_id,
            task=self.i,
            subtask=self.k,
            case_taken=case,
            **kw,
        )


class EdgePredicate:
    """Decides whether (x, y) may become an extra edge, and finds targets.

    level_open(m) says whether a source on level m may draw at step n at
    all. A pair at distance 1 is never a legal extra edge, so the default
    opens only levels at least two below n; a subclass narrows it with
    gates that depend on the level alone. scheduler.candidates reads it
    once per level and enumerates and asks beta only on open levels.

    Subclasses override holds(x, y). beta returns the numerically least
    length-n extension of x satisfying it, or None. This beta scans the
    extensions in order, one holds probe each, and raises after
    Caps.beta_scan probes. A subclass may override it with a search that
    returns the same target; the search's nodes count against the same
    cap. The source enumeration may be overridden to prune by viability
    bounds.
    """

    def __init__(self, ctx: StepContext):
        self.ctx = ctx

    def level_open(self, level: int) -> bool:
        return self.ctx.n - level >= 2

    def holds(self, x: BitString, y: BitString) -> bool:
        raise NotImplementedError

    def iter_sources(self, cube: Cube, level: int):
        yield from self.ctx.source_members(cube)

    def beta(self, x: BitString) -> Optional[BitString]:
        n = self.ctx.n
        budget = self.ctx.caps.beta_scan
        for count, y in enumerate(x.extensions(n)):
            if count >= budget:
                raise self.ctx.cap_hit("beta_scan", f"edge-target scan from {x}")
            if self.holds(x, y):
                return y
        return None


def allowance_exponent(source: BitString) -> int:
    """The e in the mass allowance 2^-e = 2^-(index_of(source)+3) that an
    edge from `source` may discard. Kept as an exponent: for deep sources
    the power itself is far too large to build."""
    return index_of(source) + 3


def t1_step(
    ctx: StepContext,
    predicate: EdgePredicate,
    designated: Optional[BitString] = None,
):
    """One construction step; returns (table, outcome), the drawn edges
    in the outcome. With `designated` set, only that vertex is eligible.
    """
    n, i, net, state = ctx.n, ctx.i, ctx.net, ctx.state
    w = state.start((i,), n)
    if w == n:
        table = DelayTable(n, default=ctx.install_value())
        return table, ctx.outcome(1, w=w)
    levels = state.candidate_levels((i,), w, n)
    if designated is not None:
        levels = [m for m in levels if m == len(designated)]
    pairs = candidates(ctx, predicate, levels, root=designated)
    if not pairs:
        return DelayTable(n), ctx.outcome(3, w=w, note="no candidates")

    table = DelayTable(n)
    drawn: list[ExtraEdge] = []
    for x, y in pairs:
        s = net.delay(x)
        edge = ExtraEdge(
            source=x,
            target=y,
            q=s,
            task=i,
            subtask=ctx.k,
            network_id=net.network_id,
            step_drawn=n,
        )
        drawn.append(edge)
        table.set_vertex(y, ZERO)
        if s != ONE:
            table.add_subtree(x, s / (ONE - s))
    return table, ctx.outcome(2, w=w, edges=tuple(drawn))


def discard_pieces(
    img: BitString, source: BitString, n: int, mode: str
) -> Optional[list[Cube]]:
    """Level-n region to kill behind an edge: extensions of the operator
    image, never touching the source's own subtree. The image is no
    longer than n, as the budgeted image of a level-n vertex always is.

    In exclude mode the source subtree is carved out of the region. In
    reject mode a comparable image/source pair returns None: the edge
    itself was supposed to be refused.
    """
    region = Cube.subtree(img, n)
    comparable = img.is_prefix_of(source) or source.is_prefix_of(img)
    if mode == "reject":
        return None if comparable else [region]
    if comparable:
        return subtract_many(region, [Cube.subtree(source, n)])
    return [region]


def prefix_root(piece: Cube) -> BitString:
    """The root vertex of a cube that pins exactly positions 1..k."""
    k = piece.care.bit_count()
    shift = piece.length - k
    if piece.care != ((1 << k) - 1) << shift:
        raise ConstructionError("discard piece is not a subtree region")
    return BitString(k, piece.value >> shift)


def class_cube(x: BitString, w: int) -> Cube:
    """All vertices agreeing with x at positions w..l(x)."""
    return Cube.suffix_pattern(len(x), w, x.suffix_from(w))


def t2_step(ctx: StepContext, predicate: EdgePredicate):
    """Subtree-replicated step: the leading subtree's candidates drive, and
    each draw plus each delay write is copied across suffix classes.
    Returns (table, outcome), the drawn edges in the outcome."""
    n, i, k, net, state = ctx.n, ctx.i, ctx.k, ctx.net, ctx.state
    if k is None:
        raise ConstructionError("t2_step needs a subtask index")
    w = state.start((i,), n)
    if k > 2**w:
        return DelayTable(n), ctx.outcome(
            3, w=w, note="subsession index beyond subtree count"
        )
    wk = state.start((i, k), n)
    if wk == n:
        table = DelayTable(n, default=ctx.install_value())
        return table, ctx.outcome(1, w=w, wk=wk)
    levels = state.candidate_levels((i, k), wk, n)
    pairs = candidates(ctx, predicate, levels, root=BitString(w, k - 1))
    if not pairs:
        return DelayTable(n), ctx.outcome(3, w=w, wk=wk, note="no candidates")

    table = DelayTable(n)
    drawn: list[ExtraEdge] = []
    draws = [(x, y, net.delay(x)) for x, y in pairs]
    # Every target class must be dug out of every descendant region before
    # any suffix write lands, else a later target would inherit a nonzero
    # delay from an earlier candidate's descendants.
    target_cubes = [class_cube(y, w) for (_x, y, _s) in draws]
    for x, y, s in draws:
        tail = y.suffix_from(len(x) + 1)
        klass = class_cube(x, w)
        members = sorted(ctx.class_members(klass), key=index_of)
        drawn.extend(
            ExtraEdge(
                source=m,
                target=m.concat(tail),
                q=s,
                task=i,
                subtask=k,
                network_id=net.network_id,
                step_drawn=n,
            )
            for m in members
        )
        if s != ONE:
            value = s / (ONE - s)
            desc = klass.extend(n - len(x))
            table.add_suffix([(p, value) for p in subtract_many(desc, target_cubes)])
    return table, ctx.outcome(2, w=w, wk=wk, edges=tuple(drawn))
