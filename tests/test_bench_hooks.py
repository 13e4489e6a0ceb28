"""The traced benchmark run (`bench/run.py --trace 1`) wraps treeflow
functions by the names it looks up; a rename of one of them must fail
here, not only in a traced run."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Runs in a fresh interpreter: installing the tracer rebinds module and
# class attributes for good.
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, tracer
modules = run.import_treeflow()
t = tracer.Tracer()
t.install(**{k: v for k, v in modules.items() if k != "treeflow"})
c = modules["constructions"]
for preset in ("nonstochastic", "family"):
    c.build(c.RunConfig(preset=preset, depth=16))
print(json.dumps(sorted({row[0] for row in t.spans})))
"""


def test_tracer_installs_and_sees_the_step_layers():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCH)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {
        "constructions.build",
        "templates.t1_step",
        "templates.t2_step",
        "scheduler.candidates",
        "templates.beta",
        "network.pre_frame",
        "network.commit_level",
        "network.pattern_mass",
    } <= spans
