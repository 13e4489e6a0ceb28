"""Invariant checks over completed runs.

Each check reads a finished bundle and re-derives one structural fact from
the stored tables, frames, and edge lists, reporting an exact witness when
the fact fails. No check samples: each one walks its whole region, over
the cube structure of frames and delay tables where a vertex-by-vertex
walk would not finish, so the run config's seed drives none of them.

A check body states only its fact. It passes by returning its details (a
dict, or nothing), returns NOT_APPLICABLE when the bundle's preset has no
such fact, and fails by raising CheckFailed with its witness. The `_check`
decorator names, times and reports it, and registers it in CHECKS.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from treeflow.bitseq import BitString, index_of
from treeflow.cubes import Cube, subtract_many
from treeflow.network import rat_str
# apply_modified is not called here any more; bench/tracer.py counts the
# calls made through this module's name for it.
from treeflow.operators import TransducerOperator, apply_modified  # noqa: F401
from treeflow.scheduler import ResourceLimit, task_networks

Rational = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

T2_PRESETS = {"atom", "family", "hyperimmune"}
LENGTH_PRESETS = {"nonstochastic", "atom"}

ORACLE_DEPTH_CAP = 14


@dataclass
class CheckReport:
    name: str
    passed: bool
    witness: Optional[dict] = None
    details: dict = field(default_factory=dict)
    levels: Optional[tuple[int, int]] = None
    runtime: float = 0.0

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": self.witness,
            "details": self.details,
            "levels": list(self.levels) if self.levels else None,
            "runtime": round(self.runtime, 6),
        }


class CheckFailed(Exception):
    """Raised by a check body when its fact fails at `witness`."""

    def __init__(self, witness: dict, details: Optional[dict] = None,
                 levels: Optional[tuple[int, int]] = None):
        super().__init__(witness)
        self.witness = witness
        self.details = details
        self.levels = levels


NOT_APPLICABLE = object()  # a check body's return for a preset it skips

CHECKS: dict[str, Callable] = {}


def _check(name: str, register: bool = True):
    """Make a check body, called with a bundle (or, for the dense oracle, a
    run config) and its own arguments, into a timed CheckReport named
    `name`. Returned details pass over levels 0..depth; NOT_APPLICABLE
    passes with a note and no levels; CheckFailed fails. Registered checks
    join CHECKS in definition order."""

    def wrap(body):
        @functools.wraps(body)
        def run(run_of, *args, **kwargs) -> CheckReport:
            start = time.monotonic()
            try:
                details = body(run_of, *args, **kwargs)
            except CheckFailed as failed:
                report = CheckReport(
                    name, False, failed.witness, failed.details or {}, failed.levels
                )
            else:
                if details is NOT_APPLICABLE:
                    report = CheckReport(name, True, details={"note": "not applicable"})
                else:
                    report = CheckReport(
                        name, True, details=details or {}, levels=(0, run_of.depth)
                    )
            report.runtime = time.monotonic() - start
            return report

        if register:
            CHECKS[name] = run
        return run

    return wrap


# Both sums below count vertices per distinct value first, keyed by the
# integers of the value (hashing a Fraction costs a modular inverse), and
# then take one Fraction product per value.


def _frame_total(net, n) -> Fraction:
    counts: dict[tuple[int, int], int] = {}
    for c, v in net.frames[n]:
        key = (v.numerator, v.denominator)
        counts[key] = counts.get(key, 0) + c.count()
    return sum((Fraction(a * k, b) for (a, b), k in counts.items()), ZERO)


def _pre_mass(net, level, cubes) -> Fraction:
    """Mass arriving at `cubes` (level `level`) before level edges land."""
    hits: dict[tuple[int, int, int, int], int] = {}
    parts = [(c, s) for c, s in net.tables[level - 1].s_partition() if s != 1]
    items = [(c, v) for c, v in net.frames[level - 1] if v]
    for j, i in _meeting_pairs([c for c, _ in parts], [c for c, _ in items]):
        (c2, s), (c, v) = parts[j], items[i]
        child = c.intersect(c2).extend(1)
        k = sum(child.overlap(cube) for cube in cubes)
        if k:
            key = (v.numerator, v.denominator, s.numerator, s.denominator)
            hits[key] = hits.get(key, 0) + k
    # each hit child vertex receives v * (1 - s) / 2; the terms are added
    # as integers over one common denominator
    common = lcm(*(2 * vd * sd for _, vd, _, sd in hits))
    return Fraction(
        sum(
            vn * (sd - sn) * k * (common // (2 * vd * sd))
            for (vn, vd, sn, sd), k in hits.items()
        ),
        common,
    )


def _stream_task(bundle, n: int) -> int:
    return bundle.state.stream.task(n)


def _active_tasks(bundle) -> list[int]:
    return sorted({_stream_task(bundle, n) for n in range(1, bundle.depth + 1)})


def _stable_tasks(bundle) -> dict[int, int]:
    """Tasks whose session start no longer moves, mapped to their w."""
    depth = bundle.depth
    cutoff = (3 * depth) // 4
    out = {}
    for i in _active_tasks(bundle):
        w = bundle.state.start((i,), depth)
        if w is not None and bundle.state.barrier((i,)) <= cutoff:
            out[i] = w
    return out


def _acting_net(bundle, i: int) -> int:
    acting, _target, _op = task_networks(
        bundle.config.preset, i, bundle.config.networks
    )
    return acting


# --- the checks ---------------------------------------------------------


@_check("delay_form")
def check_delay_form(bundle) -> CheckReport:
    """Every stored delay is 0 or a unit fraction 1/M."""

    def bad(v):
        return v != 0 and (v.numerator != 1 or not 0 < v <= 1)

    for net in bundle.networks:
        for table in net.tables:
            entries = [("default", None, table.default)]
            entries += [("vertex", x, v) for x, v in table.vertex.items()]
            entries += [("suffix", c, v) for c, v in table.suffix]
            entries += [("subtree", r, v) for r, v in table.subtree.items()]
            for kind, where, v in entries:
                if bad(Fraction(v)):
                    # Only the entry reported is formatted.
                    if where is not None:
                        where = where.pattern() if kind == "suffix" else str(where)
                    raise CheckFailed({
                        "network": net.network_id,
                        "level": table.level,
                        "kind": kind,
                        "where": where,
                        "value": rat_str(Fraction(v)),
                    })


@_check("no_overlap")
def check_no_overlap(bundle) -> CheckReport:
    """No pair of edges with nested sources and a crossing in between."""
    for net in bundle.networks:
        for a in net.edges:
            for b in net.edges:
                if (
                    b.source.is_strict_prefix_of(a.source)
                    and a.source.is_strict_prefix_of(b.target)
                    and len(b.target) < len(a.target)
                ):
                    raise CheckFailed({
                        "network": net.network_id,
                        "outer": [str(b.source), str(b.target)],
                        "inner": [str(a.source), str(a.target)],
                    })


@_check("conservation")
def check_conservation(bundle) -> CheckReport:
    """Per level: frame total equals pushed share plus edge inflow, the
    stored aggregates match both, and held mass splits into the delayed
    part plus exactly the recorded discard regions."""

    def fail(net, n, what, **sides):
        return CheckFailed({"network": net.network_id, "level": n, "identity": what, **sides})

    def unequal(net, n, what, lhs, rhs):
        return fail(net, n, what, lhs=rat_str(lhs), rhs=rat_str(rhs))

    for net in bundle.networks:
        for n in range(bundle.depth + 1):
            total = _frame_total(net, n)
            agg = net.aggregates[n]
            if total != agg.total_R:
                raise unequal(net, n, "stored total", total, agg.total_R)
            if n == 0:
                continue
            pushed = _pre_mass(net, n, [Cube.whole_level(n)])
            inflow = sum(
                (
                    e.q * net.frame_eval(e.source)
                    for e in net.edges
                    if len(e.target) == n
                ),
                ZERO,
            )
            if inflow != agg.extra_inflow:
                raise unequal(net, n, "stored inflow", inflow, agg.extra_inflow)
            if total != pushed + inflow:
                raise unequal(net, n, "level balance", total, pushed + inflow)
        # Held mass at each level: the s = 1 region must be exactly the
        # recorded discard regions, nothing more.
        for n in range(bundle.depth + 1):
            dead = [c for c, s in net.tables[n].s_partition() if s == 1]
            recorded = [
                c
                for d in bundle.discards
                if d.network_id == net.network_id and d.edge.step_drawn == n
                for c in d.cubes
            ]
            extra = dead
            for cube in recorded:
                extra = [p for piece in extra for p in piece.subtract(cube)]
            if extra:
                raise fail(
                    net, n, "unrecorded dead region", region=extra[0].pattern()
                )
            orphan = recorded
            for cube in dead:
                orphan = [p for piece in orphan for p in piece.subtract(cube)]
            if orphan:
                raise fail(
                    net, n, "recorded region not silenced", region=orphan[0].pattern()
                )
    # Every level of every network is summed in full, nothing is sampled.
    coverage = {
        str(net.network_id): {"walk": "exhaustive", "levels": bundle.depth + 1}
        for net in bundle.networks
    }
    return {"coverage": coverage}


@_check("sn_bound")
def check_sn_bound(bundle) -> CheckReport:
    """Level aggregates stay above the install-loss budget and 1/2. The
    budget also leaves out the allowance of every discard the network has
    recorded up to the level."""
    rho = bundle.config.rho_base
    for net in bundle.networks:
        loss = ZERO
        for n in range(bundle.depth + 1):
            if n >= 1:
                loss += Fraction(1, (n + rho) ** 2)
            allowance = sum(
                (
                    d.bound
                    for d in bundle.discards
                    if d.network_id == net.network_id and d.edge.step_drawn <= n
                ),
                ZERO,
            )
            budget = ONE - loss - allowance
            s_n = net.aggregates[n].s_n
            if s_n < budget or s_n < HALF:
                raise CheckFailed({
                    "network": net.network_id,
                    "level": n,
                    "s_n": rat_str(s_n),
                    "budget": rat_str(budget),
                })


@_check("duplication")
def check_duplication(bundle) -> CheckReport:
    """Edges drawn at one step split into suffix classes: equal weight,
    equal tail, and one member per free prefix."""
    if bundle.config.preset not in T2_PRESETS:
        return NOT_APPLICABLE
    w_by_step = {p["step"]: p["w"] for p in bundle.provenance}
    classes = 0
    for net in bundle.networks:
        groups: dict[tuple, list] = {}
        for e in net.edges:
            w = w_by_step[e.step_drawn]
            tail = e.target.suffix_from(len(e.source) + 1)
            key = (
                e.step_drawn,
                len(e.source),
                str(e.source.suffix_from(w)),
                str(tail),
            )
            groups.setdefault(key, []).append((e, w))
        classes += len(groups)
        for key, members in groups.items():
            w = members[0][1]
            want = 1 << (w - 1)
            qs = {e.q for e, _ in members}
            prefixes = {
                e.source.value >> (len(e.source) - w + 1) for e, _ in members
            }
            if len(qs) != 1 or len(members) != want or len(prefixes) != want:
                raise CheckFailed({
                    "network": net.network_id,
                    "class": list(key),
                    "size": len(members),
                    "expected_size": want,
                    "weights": sorted(rat_str(q) for q in qs),
                })
    return {"classes": classes}


def _flow_pieces(net, n) -> list[tuple[int, int, int]]:
    """P at level n as (care, value, P * D) pieces, for one common
    denominator D of the level's values, so that sums and cross products
    are integer operations. The pieces are every frame item, plus one point
    q * R(source) at target[:n] per edge in transit over level n. A point
    may sit on a frame item; P at a vertex is the sum of the pieces that
    hold it."""
    pieces = [(c.care, c.value, v) for c, v in net.frames[n] if v]
    for e in net.edges:
        if len(e.source) < n < len(e.target):
            p = e.q * net.frame_eval(e.source)
            if p:
                t = e.target
                pieces.append(((1 << n) - 1, t.value >> (t.length - n), p))
    scale = lcm(*(p.denominator for _, _, p in pieces))
    return [
        (care, value, p.numerator * (scale // p.denominator))
        for care, value, p in pieces
    ]


def _uncut_regions(pieces):
    """(value, covering pieces) for the regions of a recursive split of
    the whole space, over pieces whose first two entries are the care and
    value of a cube. A region splits on a bit that some piece meeting it
    pins and it leaves free, until every piece that meets a region covers
    it. A region's value has its free bits 0."""
    whole = tuple(p for p in pieces if not p[0])
    stack = [(0, 0, [p for p in pieces if p[0]], whole)]
    while stack:
        care, value, cutting, covering = stack.pop()
        if not cutting:
            yield value, covering
            continue
        bit = 1 << ((cutting[0][0] & ~care).bit_length() - 1)
        care |= bit
        for side in (bit, 0):  # the 0 side pops first
            cut, cover = [], covering
            for p in cutting:
                if p[0] & bit and p[1] & bit != side:
                    continue
                if p[0] & ~care:
                    cut.append(p)
                else:
                    cover += (p,)
            stack.append((care, value | side, cut, cover))


def _head_regions(m_pieces, w_pieces, shift):
    """(head, P_w(H b), tail pieces of P_m on H b for b = 0, 1) for the
    head regions H that no piece cuts, with P scaled as _flow_pieces gives
    it. Pieces come from levels w and m = w + shift; a head is positions
    1..w-1, b is position w and a tail positions w+1..m.

    Pieces are bucketed by their head projection and the split runs over
    the buckets, so P at both levels is the same at every head of a
    region."""
    tail_mask = (1 << shift) - 1
    # head projection (care, value) -> [P_w part at b = 0, 1, tail pieces
    # of P_m at b = 0, 1]
    buckets: dict[tuple[int, int], list] = {}

    def bucket(care, value, low):
        key = (care >> low, value >> low)
        found = buckets.get(key)
        if found is None:
            found = buckets[key] = [0, 0, [], []]
        return found

    def sides(care, value, pos):
        return (value >> pos & 1,) if care >> pos & 1 else (0, 1)

    for care, value, p in m_pieces:
        into = bucket(care, value, shift + 1)
        for b in sides(care, value, shift):
            into[2 + b].append((care & tail_mask, value & tail_mask, p))
    for care, value, p in w_pieces:
        into = bucket(care, value, 1)
        for b in sides(care, value, 0):
            into[b] += p
    regions = _uncut_regions([(*key, found) for key, found in buckets.items()])
    for head, covering in regions:
        yield (
            head,
            [sum(k[2][b] for k in covering) for b in (0, 1)],
            [[t for k in covering for t in k[2][2 + b]] for b in (0, 1)],
        )


def _level_mismatch(m_pieces, w_pieces, shift, walk):
    """(b, head of the first region, head, tail) for a region whose tail
    map differs from that of the first region with the same b, or None.
    Counts the regions in `walk`."""
    refs = [None, None]
    for head, prefixes, tails in _head_regions(m_pieces, w_pieces, shift):
        for b in (0, 1):
            prefix = prefixes[b]
            if prefix == 0:
                walk["zero_prefix_regions"] += 1
                continue
            walk["regions"] += 1
            if refs[b] is None:
                refs[b] = head, prefix, tails[b]
                continue
            ref_head, ref_prefix, ref_tails = refs[b]
            # P(H b t) / P(H b) differs from the first region's map where
            # ref_tails * prefix - tails * ref_prefix is not 0
            signed = [(c, v, p * prefix) for c, v, p in ref_tails]
            signed += [(c, v, -p * ref_prefix) for c, v, p in tails[b]]
            for tail, covering in _uncut_regions(signed):
                if sum(p for _, _, p in covering):
                    return b, ref_head, head, tail
    return None


@_check("ratio_identity")
def check_ratio_identity(bundle) -> CheckReport:
    """Flows inside suffix-equivalent subtrees stay proportional: for y, z
    at a level m of a settled task's session that share positions w..m,
    P(y) P(z[:w]) = P(z) P(y[:w]).

    Every pair is decided. Within a head region from _head_regions, P at
    levels m and w does not depend on the head, so the identity holds for
    all pairs exactly when each region's tail map t -> P(H b t) / P(H b)
    is the same as that of the first region, for b = 0 and b = 1. Regions
    with zero prefix flow are left out, and so are levels m with an
    unsettled task in (w, m]."""
    if bundle.config.preset not in T2_PRESETS:
        return NOT_APPLICABLE
    depth = bundle.depth
    stable = _stable_tasks(bundle)
    tasks = _active_tasks(bundle)
    usable: dict[int, list[int]] = {}
    for i, w in stable.items():
        levels = [
            m for m in range(w, depth + 1) if _stream_task(bundle, m) == i
        ]
        if levels:
            usable[i] = levels
    walk = {
        "walk": "exhaustive",
        "levels": 0,
        "regions": 0,
        "straddling_levels": 0,
        "zero_prefix_regions": 0,
    }
    covered = set()
    for i in sorted(usable):
        w = stable[i]
        net = bundle.network(_acting_net(bundle, i))
        w_pieces = _flow_pieces(net, w)
        # the first level above w that an unsettled task owns
        unsettled = next(
            (
                n
                for n in range(w + 1, depth + 1)
                if _stream_task(bundle, n) not in stable
            ),
            depth + 1,
        )
        for m in usable[i]:
            if m >= unsettled:
                walk["straddling_levels"] += 1
                continue
            walk["levels"] += 1
            regions = walk["regions"]
            bad = _level_mismatch(_flow_pieces(net, m), w_pieces, m - w, walk)
            if walk["regions"] > regions:
                covered.add(i)
            if bad is None:
                continue
            b, ref_head, head, tail = bad
            low = (b << (m - w)) | tail
            y = BitString(m, (ref_head << (m - w + 1)) | low)
            z = BitString(m, (head << (m - w + 1)) | low)
            raise CheckFailed({
                "task": i,
                "w": w,
                "network": net.network_id,
                "y": str(y),
                "z": str(z),
                "P_y": rat_str(net.flow_eval(y)),
                "P_z": rat_str(net.flow_eval(z)),
                "P_y_root": rat_str(net.flow_eval(y.truncate(w))),
                "P_z_root": rat_str(net.flow_eval(z.truncate(w))),
            })
    coverage = Fraction(len(covered), len(tasks)) if tasks else ONE
    details = {
        "coverage": walk,
        "tasks": len(tasks),
        "covered": sorted(covered),
        "task_coverage": rat_str(coverage),
        "stable": {str(i): w for i, w in sorted(stable.items())},
    }
    # Every settled task with levels to compare must have a region with
    # nonzero prefix flow on one of them.
    missing = sorted(set(usable) - covered)
    if missing:
        raise CheckFailed(
            {"uncovered_settled_tasks": missing}, details, levels=(0, depth)
        )
    return details


def _pinned_bits(cubes, idx) -> tuple[int, int]:
    """The bits that some cube of idx pins to 1, and those some pins to 0."""
    ones = zeros = 0
    for i in idx:
        ones |= cubes[i].value
        zeros |= cubes[i].care ^ cubes[i].value
    return ones, zeros


def _split_on(cubes, idx, bit) -> tuple[list, list, list]:
    """idx split by what its cubes do on bit: pin 0, pin 1, leave free."""
    zero = [i for i in idx if (cubes[i].care ^ cubes[i].value) & bit]
    one = [i for i in idx if cubes[i].value & bit]
    free = [i for i in idx if not cubes[i].care & bit]
    return zero, one, free


def _meeting_pairs(a, b) -> list[tuple[int, int]]:
    """Every index pair (i, j), ascending, whose cubes a[i] and b[j] share
    a vertex. Both lists are bucketed by their leading pinned bits: a
    bucket pair splits on the first bit that a cube of one pins to 0 and a
    cube of the other to 1, a cube free on it going to both halves and a
    pair free on it counting in the 0 half only. With no such bit every
    pair meets; bucket pairs with at most 16 pairs per cube are tested
    pair by pair."""
    out = []
    todo = [(range(len(a)), range(len(b)))]
    split = False  # a lone scan leaves the pairs in order
    while todo:
        ia, ib = todo.pop()
        if len(ia) * len(ib) <= 16 * (len(ia) + len(ib)):
            for i in ia:
                care, value = a[i].care, a[i].value
                out += [(i, j) for j in ib if not (b[j].value ^ value) & b[j].care & care]
            continue
        split = True
        ones_a, zeros_a = _pinned_bits(a, ia)
        ones_b, zeros_b = _pinned_bits(b, ib)
        sep = (ones_a & zeros_b) | (zeros_a & ones_b)
        if not sep:
            out += [(i, j) for i in ia for j in ib]
            continue
        bit = 1 << (sep.bit_length() - 1)
        a0, a1, af = _split_on(a, ia, bit)
        b0, b1, bf = _split_on(b, ib, bit)
        todo += [(a0 + af, b0 + bf), (a1, b1 + bf), (af, b1)]
    if split:
        out.sort()
    return out


def _unhalved(children, parents):
    """(piece, R(x), R(parent of x)) for the child-level pieces on which
    2 R(x) > R(parent of x), over two frames one level apart. A child item
    and a parent item that meet share one pair of values; a child vertex
    under no parent item has R(parent) = 0. `_meeting_pairs` finds the
    parent items each child item meets, in frame order.

    2 v > u is decided once per pair of value objects, as the integer
    comparison 2 v.num u.den > u.num v.den (both denominators positive);
    a frame holds few values in many pieces. id keys are sound: both
    frames hold every value throughout."""
    below = [(p.extend(1), u) for p, u in parents]
    under: list[list] = [[] for _ in children]
    for i, j in _meeting_pairs([c for c, _ in children], [b for b, _ in below]):
        under[i].append(below[j])
    over: dict[tuple[int, int], bool] = {}
    for (c, v), met in zip(children, under):
        for b, u in met:
            key = (id(v), id(u))
            more = over.get(key)
            if more is None:
                more = over[key] = (
                    2 * v.numerator * u.denominator > u.numerator * v.denominator
                )
            if more:
                yield c.intersect(b), v, u
        if v > 0:
            for rest in subtract_many(c, [b for b, _ in met]):
                yield rest, v, ZERO


@_check("separators")
def check_separators(bundle) -> CheckReport:
    """Levels no edge crosses: flow halves from parent to child there.
    Each settled task's session start must itself be such a level on the
    network the task acts on."""
    depth = bundle.depth
    separators: dict[int, list[int]] = {}
    coverage: dict[str, list[dict]] = {}
    for net in bundle.networks:
        levels = [
            n
            for n in range(depth + 1)
            if all(
                len(e.source) >= n or len(e.target) < n for e in net.edges
            )
        ]
        separators[net.network_id] = levels
        walked = coverage[str(net.network_id)] = []
        for n in levels:
            if n == 0:
                continue
            walked.append({"level": n, "walk": "exhaustive", "vertices": 1 << n})
            # No edge is in transit over level n or level n - 1, so P is R
            # on both and the frames decide every vertex.
            bad = min(
                _unhalved(net.frames[n], net.frames[n - 1]),
                key=lambda piece: piece[0].value,
                default=None,
            )
            if bad is not None:
                piece, p, p_parent = bad
                raise CheckFailed({
                    "network": net.network_id,
                    "level": n,
                    "vertex": str(piece.representative()),
                    "P": rat_str(p),
                    "P_parent": rat_str(p_parent),
                })
    stable = _stable_tasks(bundle)
    for i, w in sorted(stable.items()):
        net = bundle.network(_acting_net(bundle, i))
        for e in net.edges:
            if len(e.source) < w <= len(e.target):
                raise CheckFailed({
                    "task": i,
                    "w": w,
                    "network": net.network_id,
                    "edge": [str(e.source), str(e.target)],
                })
    return {
        "separators": {str(k): v for k, v in separators.items()},
        "coverage": coverage,
        "session_starts": {str(i): w for i, w in sorted(stable.items())},
        "unsettled": sorted(set(_active_tasks(bundle)) - set(stable)),
    }


@_check("discards")
def check_discards(bundle) -> CheckReport:
    """Recorded discards respect the draw-time mass bound, and silenced
    vertices pass nothing on: both children carry zero flow."""
    checked = 0
    for d in bundle.discards:
        net = bundle.network(d.network_id)
        level = d.edge.step_drawn
        want = Fraction(1, 1 << (index_of(d.edge.source) + 3))
        if d.bound != want:
            raise CheckFailed({
                "network": d.network_id,
                "level": level,
                "bound": rat_str(d.bound),
                "expected": rat_str(want),
            })
        mass = _pre_mass(net, level, list(d.cubes))
        if mass > d.bound:
            raise CheckFailed({
                "network": d.network_id,
                "level": level,
                "mass": rat_str(mass),
                "bound": rat_str(d.bound),
                "patterns": [c.pattern() for c in d.cubes],
            })
        if level + 1 > bundle.depth:
            continue
        for cube in d.cubes:
            below = cube.extend(1)
            m = below.length
            # A child carries flow only under a frame item of its level or
            # below an edge in transit over it. Frame values and q * R are
            # nonnegative, so one child per such piece or edge decides it.
            heads = [
                c.intersect(below).representative()
                for c, _ in net.frames[m]
                if c.overlap(below)
            ]
            heads += [
                e.target.truncate(m)
                for e in net.edges
                if len(e.source) < m < len(e.target)
                and below.contains(e.target.truncate(m))
            ]
            for child in sorted(heads):
                p = net.flow_eval(child)
                if p != 0:
                    raise CheckFailed({
                        "network": d.network_id,
                        "vertex": str(child.truncate(m - 1)),
                        "child": str(child),
                        "P": rat_str(p),
                    })
            checked += cube.count()
    return {
        "records": len(bundle.discards),
        "coverage": {"walk": "exhaustive", "vertices": checked},
    }


def _longest_image(op, x: BitString, depth: int) -> int:
    """The longest image apply_modified(op, y) over the length-`depth`
    extensions y of x.

    A transducer runs x and then takes a forward pass over the states it
    can reach with the bits left, keeping the most bits any run into each
    state has emitted. A run that halts keeps its output and emission never
    shrinks, so the best count seen at any step is the answer. Under a
    table, some extension of x reaches every entry whose input is
    comparable with x and fits in `depth` bits, and an image is the longest
    output its input reaches."""
    if isinstance(op, TransducerOperator):
        state, best = op.start, 0
        for shift in range(len(x) - 1, -1, -1):
            rule = op.rules.get((state, x.value >> shift & 1))
            if rule is None:
                return min(best, depth)
            state, emit = rule
            best += len(emit)
        runs = {state: best}
        for _ in range(depth - len(x)):
            after: dict[str, int] = {}
            for s, k in runs.items():
                for b in (0, 1):
                    rule = op.rules.get((s, b))
                    if rule is not None:
                        t, emit = rule
                        after[t] = max(after.get(t, 0), k + len(emit))
            runs = after
            best = max([best, *runs.values()])
        return min(best, depth)
    return max(
        (
            min(len(dst), depth)
            for src, dst, cost in op.entries
            if cost <= depth
            and len(src) <= depth
            and (src.is_prefix_of(x) or x.is_prefix_of(src))
        ),
        default=0,
    )


@_check("extension_shadow")
def check_extension_shadow(
    bundle,
    task: Optional[int] = None,
    admits: Optional[Callable[[int, BitString], bool]] = None,
) -> CheckReport:
    """Support paths all of whose prefixes could still satisfy a task's
    predicate must run through one of that task's edges or over an s = 1
    vertex.

    The walk visits, depth first, only the prefixes on which some task is
    still live, testing P > 0 on each with `flow_eval`. A child on which
    no task is live decides no verdict: its support leaves only add to
    `paths`, and are counted from the deepest frame when the walk reaches
    it. A test that keeps every prefix live still visits every support
    vertex, so depths stay capped."""
    depth = bundle.depth
    if admits is None and bundle.config.preset not in LENGTH_PRESETS:
        return NOT_APPLICABLE
    if depth > ORACLE_DEPTH_CAP:
        tasks_named = "every task" if task is None else f"task {task}"
        raise ResourceLimit(
            f"verify.ORACLE_DEPTH_CAP = {ORACLE_DEPTH_CAP} exceeded at level "
            f"{depth}, {tasks_named}, every network: the extension-shadow "
            f"walk visits every prefix on which a task is still live"
        )
    tasks = [task] if task is not None else _active_tasks(bundle)
    ops = bundle.operators

    memo: dict[tuple[int, BitString], bool] = {}

    def default_admits(i: int, x: BitString) -> bool:
        bound = index_of(x) + i
        # no image is longer than the depth
        return bound < depth and _longest_image(ops.operator_for(i), x, depth) > bound

    test = admits or default_admits

    def admits_at(i: int, x: BitString) -> bool:
        key = (i, x)
        if key not in memo:
            memo[key] = test(i, x)
        return memo[key]

    counts = {"paths": 0, "qualifying": 0, "via_edge": 0, "via_discard": 0}
    for net in bundle.networks:
        ends: dict[BitString, set[int]] = {}
        for e in net.edges:
            ends.setdefault(e.target, set()).add(e.task)
        leaves = net.frames[depth]
        # A node carries the tasks that admit every prefix so far, the
        # tasks with an edge ending on the path so far, and whether the
        # path has crossed an s = 1 vertex.
        stack = [(BitString(0, 0), tuple(tasks), frozenset(), False)]
        while stack:
            x, alive, via, dead = stack.pop()
            if not alive:
                # Live sets only shrink along a path, so no leaf below x
                # counts toward the verdict; its support leaves are the
                # members of x's subtree with R > 0 in the deepest frame.
                # That is the count a walk testing P > 0 on every vertex
                # would reach: at full depth P = R, as no edge is in
                # transit below the last level; frames hold no zero
                # values; and R(y) > 0 makes P > 0 on every prefix of y,
                # since a share needs R(parent) > 0 and a landing edge
                # needs R(source) > 0 and is in transit over every vertex
                # in between.
                below = Cube.subtree(x, depth)
                counts["paths"] += sum(c.overlap(below) for c, _ in leaves)
                continue
            if len(x) < depth:
                for b in (0, 1):
                    child = x.child(b)
                    live = tuple(i for i in alive if admits_at(i, child))
                    if not live:
                        stack.append((child, live, via, dead))
                    elif net.flow_eval(child) > 0:
                        stack.append((
                            child,
                            live,
                            via.union(ends.get(child, ())),
                            dead or net.delay(child) == 1,
                        ))
                continue
            counts["paths"] += 1
            for i in alive:
                counts["qualifying"] += 1
                if i in via:
                    counts["via_edge"] += 1
                elif dead:
                    counts["via_discard"] += 1
                else:
                    raise CheckFailed(
                        {"network": net.network_id, "path": str(x), "task": i},
                        counts,
                    )
    return counts


@_check("dense_oracle", register=False)
def dense_oracle(config) -> CheckReport:
    """Rebuild with the vertex-by-vertex mirror and compare everything."""
    from treeflow.constructions import build
    from treeflow.dense import compare_runs, dense_build

    if config.depth > ORACLE_DEPTH_CAP:
        raise ResourceLimit(
            f"verify.ORACLE_DEPTH_CAP = {ORACLE_DEPTH_CAP} exceeded at level "
            f"{config.depth}, every task, every network: the dense oracle "
            f"replays every vertex"
        )
    problems = compare_runs(build(config), dense_build(config))
    details = {"differences": len(problems), "preset": config.preset}
    if problems:
        raise CheckFailed({"first": problems[0]}, details, levels=(0, config.depth))
    return details


def run_checks(bundle, names: Optional[list[str]] = None) -> list[CheckReport]:
    if names is None:
        names = [n for n in CHECKS if n != "extension_shadow"]
        if (
            bundle.depth <= ORACLE_DEPTH_CAP
            and bundle.config.preset in LENGTH_PRESETS
        ):
            names.append("extension_shadow")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    return [CHECKS[n](bundle) for n in names]
