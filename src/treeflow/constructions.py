"""The five concrete constructions and the interval test sets.

Each preset pairs a step engine with one predicate:

  nonstochastic  t1 steps, image length must outgrow the source's code
  divisible      designated-vertex t1 steps with image-region discards
  atom           t2 steps with the image-length predicate
  family         t2 steps on a base network, discards on a target network
  hyperimmune    even tasks run the family semantics, odd tasks draw
                 single-1 "sparse" edges gated by a step-counted function

A driver advances every network one level per step and commits them
together, so frames, aggregates, and the edge history stay in lockstep.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Optional

from treeflow.bitseq import BitString, index_of
from treeflow.cubes import Cube
from treeflow.network import (
    ONE,
    ZERO,
    ConstructionError,
    DelayTable,
    ElementaryNetwork,
    Rational,
    mass_in,
    rat_str,
)
from treeflow.operators import (
    FunctionRoster,
    OperatorError,
    OperatorRoster,
    TransducerOperator,
    apply_modified,
    load_rosters,
    phi_bounded,
)
from treeflow.scheduler import ScheduleState, task_networks, task_stream
from treeflow.templates import (
    Caps,
    DiscardRecord,
    EdgePredicate,
    StepContext,
    StepOutcome,
    allowance_exponent,
    class_cube,
    discard_pieces,
    prefix_root,
    t1_step,
    t2_step,
)

PRESETS = ("nonstochastic", "divisible", "atom", "family", "hyperimmune")
MULTI_NETWORK_PRESETS = ("family", "hyperimmune")


class ConfigError(Exception):
    """Bad run parameters, caught before any construction starts."""


def reference_roster_descriptors() -> dict:
    """The default operator and function line-up for acceptance runs."""
    return {
        "operators": [
            {"kind": "echo", "name": "echo"},
            {"kind": "silent", "name": "silent"},
            {"kind": "flip", "name": "flip"},
            {"kind": "doubler", "name": "doubler"},
            {"kind": "const", "bits": "110010011", "name": "const-110010011"},
        ],
        "functions": [
            {"kind": "linear", "a": 2, "b": 2, "name": "linear-2x+2"},
            {"kind": "table", "rows": [], "name": "empty-table"},
        ],
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class RunConfig:
    """Everything a run depends on, the caps included: `build(config)`
    starts a run, and `config.json` records and replays it."""

    preset: str
    depth: int
    networks: Optional[int] = None
    rho_base: int = 3
    discard_mode: str = "exclude"
    seed: int = 0
    mode: str = "sparse"
    rosters: Optional[dict] = None
    caps: Caps = field(default_factory=Caps)

    def __post_init__(self):
        if self.networks is None:
            self.networks = 3 if self.preset in MULTI_NETWORK_PRESETS else 1
        if self.rosters is None:
            self.rosters = reference_roster_descriptors()

    def validate(self) -> tuple[OperatorRoster, FunctionRoster]:
        """Check every field and load the rosters, which are returned;
        any problem is a ConfigError."""
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        for name in ("depth", "networks", "rho_base", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if not isinstance(self.caps, Caps):
            raise ConfigError("caps must be a Caps")
        for f in dataclasses.fields(Caps):
            value = getattr(self.caps, f.name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"Caps.{f.name} must be an integer of at least 1")
        if self.depth < 0:
            raise ConfigError("depth must not be negative")
        if self.preset in MULTI_NETWORK_PRESETS:
            if self.networks < 2:
                raise ConfigError(f"preset {self.preset} needs at least 2 networks")
        elif self.networks != 1:
            raise ConfigError(f"preset {self.preset} runs on a single network")
        if self.discard_mode not in ("exclude", "reject"):
            raise ConfigError(f"unknown discard mode {self.discard_mode!r}")
        if self.rho_base < 1:
            raise ConfigError("rho base must be at least 1")
        if self.mode not in ("sparse", "dense"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not isinstance(self.rosters, dict):
            raise ConfigError("rosters must be an object")
        try:
            return load_rosters(self.rosters)
        except (OperatorError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"bad rosters: {exc!r}")

    def to_payload(self) -> dict:
        payload = {
            "preset": self.preset,
            "depth": self.depth,
            "networks": self.networks,
            "rho_base": self.rho_base,
            "discard_mode": self.discard_mode,
            "seed": self.seed,
            "mode": self.mode,
            "rosters": self.rosters,
        }
        if self.caps != Caps():
            payload["caps"] = dataclasses.asdict(self.caps)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ConfigError(f"unknown config keys {sorted(extra)}")
        missing = {"preset", "depth"} - set(payload)
        if missing:
            raise ConfigError(f"missing config keys {sorted(missing)}")
        caps = payload.get("caps", {})
        if not isinstance(caps, dict):
            raise ConfigError("caps must be an object")
        extra = set(caps) - {f.name for f in dataclasses.fields(Caps)}
        if extra:
            raise ConfigError(f"unknown caps keys {sorted(extra)}")
        return cls(**{**payload, "caps": Caps(**caps)})


@dataclass
class ConstructionBundle:
    config: RunConfig
    networks: list[ElementaryNetwork]
    state: ScheduleState
    provenance: list[dict]
    discards: list[DiscardRecord]
    operators: OperatorRoster
    functions: FunctionRoster

    @property
    def depth(self) -> int:
        return self.config.depth

    def network(self, net_id: int) -> ElementaryNetwork:
        return self.networks[net_id - 1]


# --- predicates ---------------------------------------------------------


class LengthPredicate(EdgePredicate):
    """Targets whose operator image outgrows the source's code number.

    Only a source whose index_of(x) + task stays below the longest image
    the operator can emit may qualify, which caps the enumeration at a
    fixed code number and shuts every level whose first vertex is past it."""

    def __init__(self, ctx: StepContext, operator, task: int):
        super().__init__(ctx)
        self.operator = operator
        self.task = task
        self._reach = min(operator.max_image_len(ctx.n), ctx.n)

    def _passable(self, level: int) -> int:
        """How many sources of the level, from value 0 up, may qualify:
        index_of(x) + task must stay below the achievable image length,
        and index_of(x) is 2^level - 1 + the value of x."""
        return max(0, min(1 << level, self._reach - self.task - (1 << level) + 1))

    def level_open(self, level):
        return super().level_open(level) and self._passable(level) > 0

    def iter_sources(self, cube, level):
        for value in range(self._passable(level)):
            x = BitString(level, value)
            if cube.contains(x):
                yield x

    def holds(self, x, y):
        img = apply_modified(self.operator, y)
        return len(img) > index_of(x) + self.task


class ImageMassPredicate(EdgePredicate):
    """Non-prefix image whose region carries little frame mass.

    Under an operator whose images are all prefixes of their inputs no
    target passes, whatever the source, so every level is shut."""

    def __init__(self, ctx: StepContext, operator, mode: str):
        super().__init__(ctx)
        self.operator = operator
        self.mode = mode

    def _pieces_mass(self, pieces) -> Rational:
        total = ZERO
        for piece in pieces:
            total += self.ctx.net.pattern_mass(self.ctx.n, piece)
        return total

    def level_open(self, level):
        return super().level_open(level) and not self.operator.prefix_image_only()

    def holds(self, x, y):
        img = apply_modified(self.operator, y)
        if img.is_prefix_of(y):
            return False
        pieces = discard_pieces(img, x, self.ctx.n, self.mode)
        if pieces is None:
            return False
        return not exceeds_dyadic(self._pieces_mass(pieces), allowance_exponent(x))

    def beta(self, x):
        if self.operator.length_determined():
            # One evaluation settles the mass conjunct for every target.
            probe = next(x.extensions(self.ctx.n))
            img = apply_modified(self.operator, probe)
            pieces = discard_pieces(img, x, self.ctx.n, self.mode)
            if pieces is None:
                return None
            if exceeds_dyadic(self._pieces_mass(pieces), allowance_exponent(x)):
                return None
        return super().beta(x)


def exceeds_dyadic(value: Rational, e: int) -> bool:
    """value > 2**-e, without building the power (e can run to billions)."""
    if value <= 0:
        return False
    if e >= value.denominator.bit_length():
        # numerator * 2**e >= 2**e >= 2**bitlen(den) > den
        return True
    return value > Rational(1, 1 << e)


def family_pattern(img: BitString, w: int, level: int) -> Cube:
    """Level vertices agreeing with the image at positions w..l(image).

    The image is never longer than the level: every caller passes the
    budgeted image of a level vertex, which is no longer than its input,
    or the search's image, which stops at the level."""
    if len(img) < w:
        return Cube.whole_level(level)
    return Cube.suffix_pattern(level, w, img.suffix_from(w))


class TargetMassPredicate(EdgePredicate):
    """Mass bound on the target network, one bound per class member."""

    def __init__(self, ctx: StepContext, operator, target: ElementaryNetwork, w):
        super().__init__(ctx)
        self.operator = operator
        self.target = target
        self.w = w

    def _worst_mask(self, length: int) -> int:
        # Free positions 1..w-1 are the high bits of the code, so the
        # largest-index class member has them all set.
        return ((1 << (self.w - 1)) - 1) << (length - self.w + 1)

    def _worst_member(self, x) -> BitString:
        return BitString(len(x), x.value | self._worst_mask(len(x)))

    def _member_ok(self, member, tail, n) -> bool:
        img = apply_modified(self.operator, member.concat(tail))
        mass = self.target.pattern_mass(n, family_pattern(img, self.w, n))
        return not exceeds_dyadic(mass, allowance_exponent(member))

    def holds(self, x, y):
        n = self.ctx.n
        tail = y.suffix_from(len(x) + 1)
        # The largest index carries the tightest bound; checking it first
        # settles almost every rejection in one mass evaluation.
        worst = self._worst_member(x)
        if not self._member_ok(worst, tail, n):
            return False
        for member in self.ctx.class_members(class_cube(x, self.w)):
            if member != worst and not self._member_ok(member, tail, n):
                return False
        return True

    @functools.cached_property
    def _image_mass(self) -> Rational:
        """For a length-determined operator, the target's mass in the region
        of the one image that every member and target of the step has. The
        step writes no level of the target, so one evaluation serves the
        whole step."""
        n = self.ctx.n
        img = apply_modified(self.operator, BitString(n, 0))
        return self.target.pattern_mass(n, family_pattern(img, self.w, n))

    def _ruled_out(self, worst: Cube, e: int) -> bool:
        """True when no source whose worst class member lies in `worst` can
        have a target, because even the loosest of their member bounds,
        2^-e, sits below any reachable mass. Closed-form tests only: they
        keep deep sources from being enumerated or searched at all."""
        n = self.ctx.n
        if self.operator.length_determined():
            return exceeds_dyadic(self._image_mass, e)
        if self.operator.prefix_image_only():
            # The image is a prefix of the target, so the pattern region
            # always contains the target itself; the value pushed anywhere
            # below the worst members alone exceeds the bound.
            floor = self.target.pattern_floor(n, worst.extend(n - worst.length))
            return floor is not None and exceeds_dyadic(floor, e)
        if self.w >= 2:
            # Patterns leave positions 1..w-1 free, so every region meets
            # both halves of the level; a fully-live half already carries
            # more than the bound per vertex.
            for b in (0, 1):
                floor = self.target.pattern_floor(n, Cube.subtree(BitString(1, b), n))
                if floor is not None and exceeds_dyadic(floor, e):
                    return True
        return False

    def iter_sources(self, cube, level):
        mask = self._worst_mask(level)
        worst = Cube(level, cube.care | mask, cube.value | mask)
        # The smallest worst-member index offers the loosest bound in this
        # piece; ruling it out rules out the piece without enumerating it.
        if not self._ruled_out(worst, allowance_exponent(worst.representative())):
            yield from super().iter_sources(cube, level)

    def beta(self, x):
        """The least target of x, or None. A length-determined operator
        gives every target one image, so the vertex-level rule-out decides
        it alone: past it, the first extension is the target, with no
        `holds` probe. Otherwise the rule-out only prunes the search."""
        worst = self._worst_member(x)
        if self._ruled_out(Cube.vertex(worst), allowance_exponent(worst)):
            return None
        if self.operator.length_determined():
            return next(x.extensions(self.ctx.n))
        if isinstance(self.operator, TransducerOperator):
            return TargetSearch(self, x).target()
        return super().beta(x)


class TargetSearch:
    """beta of a TargetMassPredicate with a transducer operator, by a
    depth-first search over the tail bits below x, 0-branch first, so the
    first target found is the numerically least one the scan would find.

    A node u (a partial tail) runs the transducer over member + u. Its
    image so far is a prefix of the image at every leaf below, so the
    pattern it pins only shrinks further down and every member's mass only
    falls. A member that passes at u therefore passes below it; once all
    do, u padded with zeros is the target. A failing member prunes u when
    a floor on its mass at every leaf below still exceeds its bound (the
    product construction of Mohri, Computational Linguistics 23(2), 1997).
    Every visited node counts against Caps.beta_scan.
    """

    def __init__(self, pred: TargetMassPredicate, x: BitString):
        self.ctx = pred.ctx
        self.operator = pred.operator
        self.x = x
        self.n = pred.ctx.n
        self.w = pred.w
        self.start = (pred.operator.start, 0, 0)
        self.items = pred.target.pre_frame(self.n)
        self.gap = self.n - len(x)
        self.worst = pred._worst_member(x)
        # Positions 1..w-1: never pinned by a family pattern.
        self.high = pred._worst_mask(self.n)
        self.visited = 0

    def advance(self, machine, value: int, count: int):
        """The transducer's `advance` with the image capped at n bits,
        where the budgeted image of a level-n target stops."""
        return self.operator.advance(machine, value, count, self.n)

    def floor(self, machine, pattern: Cube, mass: Rational, depth: int) -> Rational:
        """A floor on the mass at every leaf below a node `depth` bits deep
        whose pattern carries `mass`. Frame items that meet the pattern and
        pin no position the image may still pin meet every later pattern,
        each in at least its free positions among 1..w-1."""
        n, w = self.n, self.w
        state, length, _img = machine
        lo = max(w, length + 1)
        hi = min(n, length + self.operator.max_emission(state, self.gap - depth))
        if lo > hi:
            return mass  # the pattern is final
        pinnable = ((1 << (hi - lo + 1)) - 1) << (n - hi)
        floor = ZERO
        for c, v in self.items:
            if c.care & pinnable or (c.value ^ pattern.value) & c.care & pattern.care:
                continue
            floor += v * (1 << (w - 1 - (c.care & self.high).bit_count()))
        return floor

    def fails_below(self, member: BitString, machine, depth: int) -> Optional[bool]:
        """None when the member passes at this node (so at every leaf
        below), True when it fails at every leaf below, False otherwise."""
        _state, length, img = machine
        pattern = family_pattern(BitString(length, img), self.w, self.n)
        mass = mass_in(self.items, pattern)
        e = allowance_exponent(member)
        if not exceeds_dyadic(mass, e):
            return None
        return exceeds_dyadic(self.floor(machine, pattern, mass, depth), e)

    def target(self) -> Optional[BitString]:
        worst = self.worst
        found = self.visit(self.advance(self.start, worst.value, len(worst)), 0, 0)
        if found is None:
            return None
        return BitString(self.n, (self.x.value << self.gap) | found)

    def visit(self, machine, depth: int, tail: int) -> Optional[int]:
        """The least accepted tail below the node `tail` (depth bits),
        padded to the full gap, or None; `machine` is the worst member's.
        At a leaf every floor is exact, so a failing member prunes there."""
        if self.visited >= self.ctx.caps.beta_scan:
            raise self.ctx.cap_hit("beta_scan", f"edge-target search from {self.x}")
        self.visited += 1
        verdict = self.fails_below(self.worst, machine, depth)
        if verdict is None:
            for member in self.ctx.class_members(class_cube(self.x, self.w)):
                if member == self.worst:
                    continue
                seq = (member.value << depth) | tail
                verdict = self.fails_below(
                    member, self.advance(self.start, seq, len(member) + depth), depth
                )
                if verdict is not None:
                    break
            else:
                return tail << (self.gap - depth)
        if verdict:
            return None
        for b in (0, 1):
            found = self.visit(self.advance(machine, b, 1), depth + 1, (tail << 1) | b)
            if found is not None:
                return found
        return None


class SparsityPredicate(EdgePredicate):
    """Forced-shape targets: the source, one 1, then zeros to the level;
    allowed only once the level reaches a step-counted function value.

    The gate depends on the source's level m and the step n alone: past
    the distance-1 rule, phi_j(m + 2) must have settled at a value of at
    most n. On an open level every source has its forced target."""

    def __init__(self, ctx: StepContext, functions: FunctionRoster, j: int):
        super().__init__(ctx)
        self.functions = functions
        self.j = j

    def level_open(self, level: int) -> bool:
        if not super().level_open(level):
            return False
        n = self.ctx.n
        value = phi_bounded(self.functions, self.j, level + 2, n)
        return value is not None and n >= value

    def beta(self, x):
        return x.child(1).concat(BitString(self.ctx.n - len(x) - 1, 0))


# --- drivers ------------------------------------------------------------


def _discard_record(d: DiscardRecord) -> dict:
    return {
        "network": d.network_id,
        "patterns": [c.pattern() for c in d.cubes],
        "edge_network": d.edge.network_id,
        "source": str(d.edge.source),
        "target": str(d.edge.target),
        "step": d.edge.step_drawn,
        "bound": rat_str(d.bound),
    }


def _prov(out: StepOutcome) -> dict:
    return {
        "step": out.step,
        "task": out.task,
        "subtask": out.subtask,
        "network": out.network_id,
        "case": out.case_taken,
        "w": out.w,
        "wk": out.wk,
        "discards": [_discard_record(d) for d in out.discards],
        "note": out.note,
    }


def _context(config, n, i, net, state, k=None) -> StepContext:
    return StepContext(
        n=n, i=i, net=net, state=state, k=k, rho_base=config.rho_base, caps=config.caps
    )


def _step_nonstochastic(config, n, nets, state, ops, fns):
    net = nets[0]
    i = state.stream.task(n)
    ctx = _context(config, n, i, net, state)
    pred = LengthPredicate(ctx, ops.operator_for(i), i)
    table, out = t1_step(ctx, pred)
    return {1: table}, out


def _step_divisible(config, n, nets, state, ops, fns):
    """t1 on the designated vertex; then the image region behind the
    drawn edge, less the source's own subtree, goes dead (s = 1)."""
    net = nets[0]
    i = state.stream.task(n)
    op = ops.operator_for(i)
    ctx = _context(config, n, i, net, state)
    pred = ImageMassPredicate(ctx, op, config.discard_mode)
    table, out = t1_step(ctx, pred, designated=state.stream.designated(n))
    records = []
    for e in out.edges:
        img = apply_modified(op, e.target)
        pieces = discard_pieces(img, e.source, n, config.discard_mode)
        if pieces is None:
            raise ConstructionError(
                f"edge ({e.source}, {e.target}) reaches into its own image "
                "region in reject mode; the predicate should have refused it"
            )
        if pieces:
            for piece in pieces:
                table.add_subtree(prefix_root(piece), ONE)
            records.append(DiscardRecord.behind(e, net.network_id, tuple(pieces)))
    if records:
        out = dataclasses.replace(out, discards=tuple(records))
    return {1: table}, out


def _step_atom(config, n, nets, state, ops, fns):
    net = nets[0]
    i = state.stream.task(n)
    k = state.stream.subtask(n)
    ctx = _context(config, n, i, net, state, k)
    pred = LengthPredicate(ctx, ops.operator_for(i), i)
    table, out = t2_step(ctx, pred)
    return {1: table}, out


def _step_family(config, n, nets, state, ops, fns):
    """The family preset, and hyperimmune's even tasks: t2 on the decoded
    base network, image-pattern discards on the target network."""
    i = state.stream.task(n)
    k = state.stream.subtask(n)
    base_id, target_id, op_num = task_networks(config.preset, i, len(nets))
    tables = {net.network_id: DelayTable(n) for net in nets}
    acting = nets[base_id - 1]
    ctx = _context(config, n, i, acting, state, k)
    if base_id == target_id:
        return tables, ctx.outcome(3, note="base and target collide after wrapping")
    target = nets[target_id - 1]
    w = state.start((i,), n)
    op = ops.base_for(op_num)
    pred = TargetMassPredicate(ctx, op, target, w)
    table, out = t2_step(ctx, pred)
    tables[base_id] = table
    records = []
    for e in out.edges:
        cube = family_pattern(apply_modified(op, e.target), w, n)
        # Edges in one class share an image suffix, so their patterns
        # coincide; `add_suffix` keeps only what is not stored yet, so a
        # repeat writes nothing, while every edge still books its own
        # allowance.
        tables[target_id].add_suffix([(cube, ONE)])
        records.append(DiscardRecord.behind(e, target_id, (cube,)))
    if records:
        out = dataclasses.replace(out, discards=tuple(records))
    return tables, out


def _step_hyperimmune(config, n, nets, state, ops, fns):
    """Even tasks run the family semantics, odd ones draw sparse edges."""
    i = state.stream.task(n)
    if i % 2 == 0:
        return _step_family(config, n, nets, state, ops, fns)
    k = state.stream.subtask(n)
    net_id, _target, _op = task_networks(config.preset, i, len(nets))
    tables = {net.network_id: DelayTable(n) for net in nets}
    acting = nets[net_id - 1]
    ctx = _context(config, n, i, acting, state, k)
    if i == 1:
        return tables, ctx.outcome(3, note="task 1 carries no decoded index")
    pred = SparsityPredicate(ctx, fns, (i - 1) // 2)
    table, out = t2_step(ctx, pred)
    tables[net_id] = table
    return tables, out


_STEP_FNS = {
    "nonstochastic": _step_nonstochastic,
    "divisible": _step_divisible,
    "atom": _step_atom,
    "family": _step_family,
    "hyperimmune": _step_hyperimmune,
}


def build(config: RunConfig) -> ConstructionBundle:
    """The one way to start a run: validate the config, then advance
    every network one level per step."""
    ops, fns = config.validate()
    state = ScheduleState(task_stream(config.preset), config.depth)
    count = config.networks
    nets = [ElementaryNetwork(m + 1) for m in range(count)]
    provenance: list[dict] = []
    discards: list[DiscardRecord] = []
    step_fn = _STEP_FNS[config.preset]
    for n in range(1, config.depth + 1):
        tables, out = step_fn(config, n, nets, state, ops, fns)
        for net in nets:
            edges = [e for e in out.edges if e.network_id == net.network_id]
            net.commit_level(tables[net.network_id], edges)
        for e in out.edges:
            state.record_edge(e.task, e.subtask, len(e.target))
        discards.extend(out.discards)
        provenance.append(_prov(out))
    return ConstructionBundle(
        config=config,
        networks=nets,
        state=state,
        provenance=provenance,
        discards=discards,
        operators=ops,
        functions=fns,
    )


# --- interval test sets -------------------------------------------------


@dataclass
class MLTest:
    """Per task index: the interval roots, their union mass, the sum of
    the per-edge allowances 2^-(index_of(source)+i), and the cap 2^-i
    that both the mass and the tail mass must stay under."""

    per_index: dict[int, dict]
    tails: dict[int, dict]
    max_task: int

    def ok(self) -> bool:
        return all(entry["ok"] for entry in self.per_index.values()) and all(
            entry["ok"] for entry in self.tails.values()
        )


def prefix_free(roots: list[BitString]) -> list[BitString]:
    kept: list[BitString] = []
    for r in sorted(set(roots), key=lambda s: (len(s), s.value)):
        if not any(k.is_prefix_of(r) for k in kept):
            kept.append(r)
    return kept


def union_mass(roots: list[BitString]) -> Rational:
    total = ZERO
    for r in prefix_free(roots):
        total += Rational(1, 1 << len(r))
    return total


def ml_test(bundle: ConstructionBundle, index: Optional[int] = None) -> MLTest:
    if bundle.config.preset not in ("nonstochastic", "atom"):
        raise ConfigError(
            "interval test sets are defined for the image-length presets only"
        )
    stream = bundle.state.stream
    max_task = max(
        (stream.task(n) for n in range(1, bundle.depth + 1)), default=0
    )
    if index is not None and index < 1:
        raise ConfigError(f"task index {index} is below 1; tasks count from 1")
    if index is not None and index > max_task:
        raise ConfigError(f"task {index} never runs at depth {bundle.depth}")
    roots_by_task: dict[int, list[BitString]] = {}
    allowance: dict[int, Rational] = {}
    for i in range(1, max_task + 1):
        op = bundle.operators.operator_for(i)
        roots: list[BitString] = []
        bound = ZERO
        for net in bundle.networks:
            for e in net.edges:
                if e.task != i:
                    continue
                roots.append(apply_modified(op, e.target))
                bound += Rational(1, 1 << (index_of(e.source) + i))
        roots_by_task[i] = roots
        allowance[i] = bound
    per_index = {}
    tails = {}
    for i in range(1, max_task + 1):
        mass = union_mass(roots_by_task[i])
        cap = Rational(1, 1 << i)
        per_index[i] = {
            "roots": [str(r) for r in prefix_free(roots_by_task[i])],
            "mass": mass,
            "bound_sum": allowance[i],
            "cap": cap,
            "edge_count": len(roots_by_task[i]),
            "ok": mass <= allowance[i] <= cap,
        }
        tail_roots: list[BitString] = []
        for j in range(i + 1, max_task + 1):
            tail_roots.extend(roots_by_task[j])
        tail_mass = union_mass(tail_roots)
        tails[i] = {
            "roots": [str(r) for r in prefix_free(tail_roots)],
            "mass": tail_mass,
            "ok": tail_mass <= cap,
        }
    if index is not None:
        per_index = {index: per_index[index]}
        tails = {index: tails[index]}
    return MLTest(per_index=per_index, tails=tails, max_task=max_task)
