"""Fixtures that several test modules share."""

import pytest

from treeflow.cli import write_bundle
from treeflow.constructions import RunConfig, build


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
