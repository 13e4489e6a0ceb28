"""Benchmark harness for treeflow (standard library only).

Runs one workload in this process through the command functions behind
``treeflow build``, ``export``, ``mltest`` and ``verify``, checks their
outputs with bench/checks.py, and prints one JSON result as its last line:

    python3 bench/run.py --workload construct --seed 1 --seconds 16 --trace 0

``--trace 0`` reports the end-to-end metrics, with times scaled to a
machine of reference speed (see SpeedScale), ``--trace 1`` the per-layer
metrics of a separately traced run. ``--workload all`` runs every
workload, each in its own process, and prints a table. bench/README.md
describes the workloads and metrics and records reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import checks
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

WORKLOADS = ("construct", "reload", "verify", "reach")
PRESETS = ("nonstochastic", "divisible", "atom", "family", "hyperimmune")
MULTI_NETWORK = ("family", "hyperimmune")
IMPORT_REPEATS = 5  # cold interpreter starts timed for setup_s
SETUP_REPEATS = 3  # builds of the bundles a workload reads, timed for setup_s
# verify: a shallow depth where separators walks every vertex and
# extension_shadow runs, and a moderate one where both samplers engage.
VERIFY_DEPTHS = (10, 20)
ORACLE_DEPTH = 10  # the dense mirror replays every vertex, so stay shallow
# Typical time of reference_seconds() on the machine the README figures
# come from; timings are scaled to a machine running it this fast.
REFERENCE_S = 0.003
SAMPLE_EVERY_S = 0.1  # how often SpeedScale times the reference loop
MIN_SAMPLES = 4  # reference runs that set the speed for one timed piece


@dataclass
class Op:
    """One command as a user would type it after ``treeflow``."""

    kind: str  # build | export | mltest | verify
    argv: list
    out: Path
    source: Optional[Path] = None  # the bundle an export, mltest or verify reads
    may_cap: bool = False  # a hit cap counts as a failed operation, not a wrong one
    checks: tuple = ()  # verify: the check names the report must hold

    @property
    def label(self) -> str:
        return f"{self.kind} {(self.source or self.out).name}"


def build_op(preset: str, depth: int, folder: Path, seed: int, may_cap=False) -> Op:
    out = folder / f"{preset}-{depth}"
    argv = ["build", "--preset", preset, "--depth", str(depth), "--seed", str(seed)]
    if preset in MULTI_NETWORK:
        argv += ["--networks", "3"]
    return Op("build", argv + ["--out", str(out)], out, may_cap=may_cap)


def reader_op(kind: str, bundle: Path, out: Path, *flags: str, checks=()) -> Op:
    return Op(kind, [kind, str(bundle), *flags, "--out", str(out)], out, source=bundle, checks=checks)


def plan(workload: str, work: Path, seed: int) -> tuple[list, list, list]:
    """(set-up builds, timed operations, untimed operations whose output
    is checked once after the timed passes)."""
    if workload == "construct":
        specs = [(p, 128) for p in PRESETS[:4]] + [("hyperimmune", 62)]
        ops = [build_op(p, d, work, seed) for p, d in specs]
        atom = ops[2].out
        return [], ops, [reader_op("mltest", atom, work / "atom.mltest")]
    if workload == "reload":
        setup = [build_op("nonstochastic", 128, work, seed), build_op("hyperimmune", 62, work, seed)]
        ops = [reader_op("export", b.out, work / f"{b.out.name}.export") for b in setup]
        ops.append(reader_op("mltest", setup[0].out, work / "nonstochastic.mltest"))
        return setup, ops, []
    if workload == "verify":
        setup, ops, oracle = [], [], []
        for depth in VERIFY_DEPTHS:
            for preset in PRESETS:
                b = build_op(preset, depth, work, seed)
                names = [n for n in tracing.CHECK_NAMES if n != "extension_shadow"]
                if depth <= 14 and preset in ("nonstochastic", "atom"):
                    names.append("extension_shadow")
                setup.append(b)
                ops.append(reader_op("verify", b.out, work / f"{b.out.name}.json",
                                     "--checks", "all", checks=tuple(names)))
                if depth == ORACLE_DEPTH:
                    oracle.append(reader_op("verify", b.out, work / f"{b.out.name}.oracle.json",
                                            "--checks", "delay-form", "--oracle-depth", str(ORACLE_DEPTH),
                                            checks=("delay_form", "dense_oracle")))
        return setup, ops, oracle
    if workload == "reach":
        return [], [build_op("hyperimmune", 64, work, seed, may_cap=True)], []
    raise ValueError(workload)


class Harness:
    """Runs commands in this process and keeps the networks each creates."""

    def __init__(self, modules: dict):
        self.cli = modules["cli"]
        self.resource_limit = modules["treeflow"].ResourceLimit
        self.tracer = None
        self.nets = []
        net_cls = modules["network"].ElementaryNetwork
        init = net_cls.__init__

        def registering_init(net, *args, **kwargs):
            init(net, *args, **kwargs)
            self.nets.append(net)

        net_cls.__init__ = registering_init

    def run(self, op: Op) -> tuple[float, str, list]:
        """Time one command; returns (seconds, outcome, its networks).
        The outcome is "ok", "cap" for a hit enumeration cap, or an error."""
        region = self.tracer.region(f"cli.cmd_{op.kind}") if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with region, contextlib.redirect_stdout(io.StringIO()):
                args = self.cli._build_parser().parse_args(op.argv)
                code = args.fn(args)
            outcome = "ok" if code == 0 else f"exit code {code}"
        except self.resource_limit:
            outcome = "cap"
        except Exception as exc:  # any other error is a wrong result: record it and go on
            traceback.print_exc(file=sys.stderr)
            outcome = f"error: {exc!r}"
        elapsed = time.perf_counter() - start
        nets, self.nets = self.nets, []
        return elapsed, outcome, nets


def digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()) if path.is_dir() else [path]:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def check_output(op: Op, first: dict) -> list:
    """Checks one operation's output; `first` maps each output to the digest
    of its first pass, which every later pass must reproduce."""
    if op.kind == "verify":
        return checks.check_report(json.loads(op.out.read_text()), list(op.checks))
    if op.kind == "export":
        return checks.check_export(op.source, op.out)
    seen = digest(op.out)
    if op.out in first:
        return [] if first[op.out] == seen else [f"{op.out} changed between passes"]
    first[op.out] = seen
    if op.kind == "build":
        return checks.check_bundle(op.out)
    return checks.check_mltest([json.loads(line) for line in op.out.read_text().splitlines()])


def judge_failure(op: Op, outcome: str) -> list:
    """A failed operation is a wrong result unless it may stop on a cap and did."""
    return [] if outcome == "cap" and op.may_cap else [f"{op.label}: {outcome}"]


def add_network_metrics(layer: dict, nets: list, build: bool) -> None:
    """Levels committed by builds, frame items held, and the widest frame
    denominator, over the networks one operation left behind."""
    if build:
        layer["constructions.levels_committed"] += sum(net.depth for net in nets)
    layer["network.frame_items"] += sum(len(frame) for net in nets for frame in net.frames)
    bits = [v.denominator.bit_length() for net in nets for frame in net.frames for _, v in frame]
    layer["network.denominator_bits_max"] = max([layer["network.denominator_bits_max"], *bits])


def reference_seconds() -> float:
    """One run of a fixed loop of dict, tuple and Fraction work that shares
    no code with treeflow. Its time tracks the machine's current speed."""
    start = time.perf_counter()
    counts: dict = {}
    total = Fraction(0)
    for k in range(1, 500):
        key = (k & 127, k % 11)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(k % 7 + 1, (k % 13 + 2) * (k % 11 + 3))
        tuple(sorted((k % 5, k % 3, k % 7)))
    return time.perf_counter() - start


class SpeedScale:
    """Scales a measured time to a machine of reference speed.

    A shared machine can change speed by a factor of two within seconds
    as other load comes and goes, and the reference loop slows with it. A
    timer signal runs the loop every SAMPLE_EVERY_S seconds, also in the
    middle of a command. A timed piece of work, less the loop runs inside
    it, is scaled by REFERENCE_S over the mean loop time during it (or
    over the MIN_SAMPLES runs nearest to it, for short work). The raw
    times are kept in the result file."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        for _ in range(MIN_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self, *_signal_args) -> None:
        self.samples.append((time.perf_counter(), reference_seconds()))

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, elapsed: float) -> float:
        """Scales work of `elapsed` seconds that has just ended."""
        end = time.perf_counter()
        start = end - elapsed
        inside = [d for t, d in self.samples if start <= t < end]
        if len(inside) >= MIN_SAMPLES:
            speed = statistics.mean(inside)
        else:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
            speed = statistics.mean(d for _t, d in nearest)
        return (elapsed - sum(inside)) * REFERENCE_S / speed


def cold_import_seconds() -> float:
    """One interpreter start plus ``import treeflow``, in a child process."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import treeflow"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
    return time.perf_counter() - start


def import_treeflow() -> dict:
    sys.path.insert(0, str(SRC))
    try:
        import treeflow
        from treeflow import bitseq, cli, constructions, cubes, network, templates, verify
    except ImportError as exc:
        raise SystemExit(f"error: cannot import treeflow from {SRC}: {exc}")
    if Path(treeflow.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported treeflow from {treeflow.__file__}, not {SRC}")
    return dict(treeflow=treeflow, cli=cli, constructions=constructions, templates=templates,
                network=network, cubes=cubes, bitseq=bitseq, verify=verify)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    modules = import_treeflow()
    work = WORK / f"{name}-s{seed}-t{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    speed = None if traced else SpeedScale()
    try:
        return measure(name, modules, work, seed, seconds, speed)
    finally:
        if speed:
            speed.close()
        shutil.rmtree(work, ignore_errors=True)


def measure(name, modules, work, seed, seconds, speed) -> dict:
    harness = Harness(modules)
    setup, ops, after = plan(name, work, seed)
    problems = []

    # A traced run reports no set-up or pass time scaled to the
    # reference speed, so it sets up once and runs no reference loop.
    traced = speed is None
    # Cold starts run in child processes and spend their time starting an
    # interpreter and reading files, which does not follow the reference
    # loop, so they stay unscaled.
    imports = [cold_import_seconds() for _ in range(0 if traced else IMPORT_REPEATS)]
    rounds, scaled_rounds = [], []
    for _ in range(0 if not setup else 1 if traced else SETUP_REPEATS):
        total = 0.0
        for op in setup:
            elapsed, outcome, _nets = harness.run(op)
            if outcome != "ok":
                raise SystemExit(f"error: set-up {op.label} failed: {outcome}")
            total += elapsed
        rounds.append(total)
        if speed:
            scaled_rounds.append(speed.scale(total))
    for op in setup:
        problems += checks.check_bundle(op.out)

    tracer = None
    if traced:
        tracer = harness.tracer = tracing.Tracer()
        tracer.install(**{k: v for k, v in modules.items() if k != "treeflow"})

    first: dict = {}
    passes, scaled_passes, per_layer, op_seconds = [], [], [], {}
    attempted = failed = reach = 0
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        mark = tracer.mark() if tracer else None
        layer = dict.fromkeys(tracing.NETWORK_METRICS, 0)
        spent = scaled = 0.0
        for op in ops:
            elapsed, outcome, nets = harness.run(op)
            spent += elapsed
            if speed:
                scaled += speed.scale(elapsed)
            attempted += 1
            op_seconds.setdefault(op.label, []).append(elapsed)
            reach = max([reach] + [net.depth for net in nets])
            if tracer:
                add_network_metrics(layer, nets, op.kind == "build")
            del nets
            if outcome == "ok":
                problems += check_output(op, first)
            else:
                failed += 1
                problems += judge_failure(op, outcome)
        passes.append(spent)
        scaled_passes.append(scaled)
        if tracer:
            layer.update(tracer.since(mark))
            per_layer.append(layer)

    for op in after:
        _elapsed, outcome, _nets = harness.run(op)
        problems += check_output(op, first) if outcome == "ok" else [f"{op.label}: {outcome}"]

    if traced:
        metrics = {}
        for key in tracing.per_layer_names():
            if key == "traced.pipeline_s":
                value = statistics.median(passes)
            elif key.endswith("_s"):
                value = statistics.median(p[key] for p in per_layer)
            else:
                value = per_layer[0][key]
                if any(p[key] != value for p in per_layer):
                    problems.append(f"count {key} differs between passes")
            metrics[key] = {"value": value, "unit": tracing.unit_of(key)}
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"{name}-s{seed}.spans.jsonl")
    else:
        setup_s = statistics.median(imports)
        if scaled_rounds:
            setup_s += statistics.median(scaled_rounds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pipeline_s": {"value": statistics.median(scaled_passes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "reach_depth": {"value": reach, "unit": "levels"},
        }
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(traced),
                  raw_passes=passes, scaled_passes=scaled_passes, op_seconds=op_seconds,
                  raw_imports=imports, raw_setup_rounds=rounds,
                  references=speed.samples if speed else [], problems=problems)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-s{seed}-t{int(traced)}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:34} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1, help="passed to every build as --seed")
    p.add_argument("--seconds", type=float, default=16, help="how long the timed passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --workload all: also write the results here as JSON")
    args = p.parse_args()
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
