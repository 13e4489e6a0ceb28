"""Run-time instrumentation of treeflow, installed from the benchmark.

Nothing in src/ changes: the tracer replaces functions with timed or
counting wrappers at the places where callers look them up. A name that
a module imported by value (``from treeflow.x import f``) is wrapped in
the importing module, because rebinding it in the defining module would
not reach that caller.

Spans are [name, start, end, parent] rows kept in memory and written out
at the end; counts are a dict of integers. A span whose innermost open
span has the same name is folded into it, so ``super().beta`` calls
count once.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

CHECK_NAMES = (
    "delay_form",
    "no_overlap",
    "conservation",
    "sn_bound",
    "duplication",
    "ratio_identity",
    "separators",
    "discards",
    "extension_shadow",
)

# Per-layer metrics, named after the modules. A "_s" metric sums the
# durations of the spans of one name; the others are counts.
SPAN_METRICS = {
    "constructions.build_s": "constructions.build",
    "templates.beta_s": "templates.beta",
    "scheduler.candidates_s": "scheduler.candidates",
    "network.pre_frame_s": "network.pre_frame",
    "network.commit_level_s": "network.commit_level",
    "network.pattern_mass_s": "network.pattern_mass",
    "network.flow_eval_s": "network.flow_eval",
    "cli.write_s": "cli.write_bundle",
    "cli.read_s": "cli.read_bundle",
    **{f"verify.{name}_s": f"verify.{name}" for name in CHECK_NAMES},
}
COUNT_METRICS = {
    "templates.beta_calls": "templates.beta",
    "templates.beta_probes": "templates.holds",
    "scheduler.sources_enumerated": "scheduler.sources",
    "operators.apply_calls": "operators.apply",
    "network.pattern_mass_calls": "network.pattern_mass",
    "network.flow_eval_calls": "network.flow_eval",
    "cubes.intersect_calls": "cubes.intersect",
    "cubes.subtract_calls": "cubes.subtract",
    "cubes.constructed": "cubes.constructed",
    "bitseq.truncate_calls": "bitseq.truncate",
    "cli.bundle_bytes": "cli.bundle_bytes",
}
# Read off the networks each operation leaves behind (see run.py).
NETWORK_METRICS = (
    "constructions.levels_committed",
    "network.frame_items",
    "network.denominator_bits_max",
)
# Self time per layer: a span's duration minus its child spans', summed
# by the first part of the span name. "cli" includes the command
# functions around the wrapped calls.
LAYERS = ("cli", "constructions", "templates", "scheduler", "network", "verify")


def per_layer_names() -> list[str]:
    return (
        list(SPAN_METRICS)
        + list(COUNT_METRICS)
        + list(NETWORK_METRICS)
        + [f"{layer}.self_s" for layer in LAYERS]
        + ["traced.pipeline_s"]
    )


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_bits_max"):
        return "bits"
    return "count"


def _rebind(owner, attr: str, make):
    """Replace owner.attr (or owner[attr] for a dict) with make(original)."""
    if isinstance(owner, dict):
        owner[attr] = make(owner[attr])
    else:
        setattr(owner, attr, make(getattr(owner, attr)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: Counter = Counter()

    @contextmanager
    def region(self, name: str):
        """A span around harness code: one command."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.open[-1] if self.open else None])
        self.open.append(idx)
        try:
            yield
        finally:
            self.open.pop()
            self.spans[idx][2] = time.perf_counter()

    # -- wrappers ----------------------------------------------------------

    def span(self, owner, attr: str, name: str, count: bool = False):
        spans, open_, counts = self.spans, self.open, self.counts
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                if open_ and spans[open_[-1]][0] == name:
                    return fn(*args, **kwargs)
                if count:
                    counts[name] += 1
                idx = len(spans)
                spans.append([name, clock(), None, open_[-1] if open_ else None])
                open_.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    open_.pop()
                    spans[idx][2] = clock()

            return wrapper

        _rebind(owner, attr, make)

    def count(self, owner, attr: str, name: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        _rebind(owner, attr, make)

    def count_yields(self, owner, attr: str, name: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] += 1
                    yield item

            return wrapper

        _rebind(owner, attr, make)

    def bundle_io(self, cli, attr: str, name: str, path_arg: int):
        """Span around a bundle read or write, plus the bytes it moved."""
        self.span(cli, attr, name)
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    folder = Path(args[path_arg])
                    if folder.is_dir():
                        counts["cli.bundle_bytes"] += sum(
                            p.stat().st_size for p in folder.iterdir()
                        )

            return wrapper

        _rebind(cli, attr, make)

    def install(self, cli, constructions, templates, network, cubes, bitseq, verify):
        self.bundle_io(cli, "read_bundle", "cli.read_bundle", 0)
        self.bundle_io(cli, "write_bundle", "cli.write_bundle", 1)
        # The build command calls cli.build; verify.dense_oracle imports
        # constructions.build when it runs.
        self.span(cli, "build", "constructions.build")
        self.span(constructions, "build", "constructions.build")
        self.span(cli, "ml_test", "constructions.ml_test")
        # t1_discard_step reaches t1_step through the templates module.
        for mod in (constructions, templates):
            self.span(mod, "t1_step", "templates.t1_step")
        self.span(constructions, "t2_step", "templates.t2_step")
        self.span(templates, "candidates", "scheduler.candidates")
        for cls in (
            templates.EdgePredicate,
            constructions.LengthPredicate,
            constructions.ImageMassPredicate,
            constructions.TargetMassPredicate,
            constructions.SparsityPredicate,
        ):
            if "beta" in vars(cls):
                self.span(cls, "beta", "templates.beta", count=True)
            if "holds" in vars(cls):
                self.count(cls, "holds", "templates.holds")
        # The two enumerations that yield sources themselves; the
        # TargetMassPredicate one delegates to the base through super().
        self.count_yields(templates.EdgePredicate, "iter_sources", "scheduler.sources")
        self.count_yields(constructions.LengthPredicate, "iter_sources", "scheduler.sources")
        for mod in (constructions, verify):
            self.count(mod, "apply_modified", "operators.apply")
        for attr in ("pre_frame", "commit_level", "pattern_mass", "flow_eval"):
            self.span(network.ElementaryNetwork, attr, f"network.{attr}", count=True)
        self.count(cubes.Cube, "__init__", "cubes.constructed")
        self.count(cubes.Cube, "intersect", "cubes.intersect")
        self.count(cubes.Cube, "subtract", "cubes.subtract")
        self.count(bitseq.BitString, "truncate", "bitseq.truncate")
        for name in CHECK_NAMES:
            self.span(verify.CHECKS, name, f"verify.{name}")

    # -- bookkeeping -------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counts)

    def since(self, mark: tuple[int, Counter]) -> dict:
        """Span and count metrics, and self time per layer, for everything
        recorded after `mark`."""
        first, before = mark
        spans = self.spans[first:]
        counts = self.counts - before
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_time: Counter = Counter()
        for offset, (name, start, end, _parent) in enumerate(spans):
            self_time[name.split(".")[0]] += end - start - child[first + offset]
        out = {metric: total[span] for metric, span in SPAN_METRICS.items()}
        out.update({metric: counts[key] for metric, key in COUNT_METRICS.items()})
        out.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")
