"""Fixtures that several test modules share."""

import time

import pytest

from treeflow.cli import write_bundle
from treeflow.constructions import PRESETS, RunConfig, build
from treeflow.dense import dense_build


@pytest.fixture(scope="session")
def deep_bundles(tmp_path_factory):
    """A function of (preset, depth) that gives (built bundle, its folder),
    each built and written once per session, when a test first asks for it.
    Deep builds take seconds, so the tests that need one share it; they
    read the bundle and its folder and change neither, and write what
    they make elsewhere."""
    made = {}

    def get(preset: str, depth: int):
        if (preset, depth) not in made:
            bundle = build(RunConfig(preset=preset, depth=depth))
            out = tmp_path_factory.mktemp(f"{preset}-d{depth}")
            write_bundle(bundle, out)
            made[preset, depth] = bundle, out
        return made[preset, depth]

    return get


@pytest.fixture(scope="session")
def replays12():
    """({preset: (built bundle, mirror run)}, seconds taken): every preset
    at depth 12 with its default networks, built by the engine and
    replayed by the literal mirror once per session. The tests that
    compare the two read both and change neither."""
    t0 = time.monotonic()
    runs = {}
    for preset in PRESETS:
        config = RunConfig(preset=preset, depth=12)
        runs[preset] = build(config), dense_build(config)
    return runs, time.monotonic() - t0
