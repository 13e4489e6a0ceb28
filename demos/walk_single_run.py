#!/usr/bin/env python3
"""Build one preset in-process and walk through what it drew.

Prints the task schedule, every stored edge with its weight, the discard
records, the kept share per network, and the verdict of each invariant
check. Everything is exact rational arithmetic, printed as n/d.

    python3 demos/walk_single_run.py --preset atom --depth 12
    python3 demos/walk_single_run.py --preset hyperimmune --depth 32
"""

import argparse
import sys

from treeflow import PRESETS, RunConfig, build, index_of, rat_str, run_checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", choices=PRESETS, default="atom")
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = RunConfig(preset=args.preset, depth=args.depth, seed=args.seed)
    bundle = build(cfg)

    stream = bundle.state.stream
    print(f"{args.preset} at depth {args.depth}, {cfg.networks} network(s)")
    print()
    print("schedule (step: task/subtask):")
    has_sub = hasattr(stream, "subtask")
    row = []
    for n in range(1, args.depth + 1):
        sub = f".{stream.subtask(n)}" if has_sub else ""
        row.append(f"{n}:{stream.task(n)}{sub}")
    print("  " + " ".join(row))
    print()

    edges = sorted(
        (e for net in bundle.networks for e in net.edges),
        key=lambda e: (e.step_drawn, e.network_id, index_of(e.source)),
    )
    print(f"edges drawn: {len(edges)}")
    for e in edges:
        sub = f".{e.subtask}" if e.subtask is not None else ""
        print(
            f"  step {e.step_drawn:>3}  net {e.network_id}  task {e.task}{sub}"
            f"  {e.source} -> {e.target}  q={rat_str(e.q)}"
        )
    print()

    print(f"discards recorded: {len(bundle.discards)}")
    for d in bundle.discards:
        cubes = " ".join(c.pattern() for c in d.cubes)
        print(
            f"  net {d.network_id}  bound {rat_str(d.bound)}"
            f"  after edge {d.edge.source} -> {d.edge.target}  cubes: {cubes}"
        )
    print()

    print("kept share by network (level 0 and final):")
    for net in bundle.networks:
        first = rat_str(net.aggregates[0].s_n)
        last = rat_str(net.aggregates[-1].s_n)
        print(f"  net {net.network_id}: S_0 = {first}, S_{args.depth} = {last}")
    print()

    reports = run_checks(bundle)
    bad = 0
    for rep in reports:
        verdict = "pass" if rep.passed else "FAIL"
        print(f"  check {rep.name:<18} {verdict}")
        if not rep.passed:
            bad += 1
            print(f"    witness: {rep.witness}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
