"""The package's public names: exactly this list, and every one resolves."""

import treeflow

PUBLIC = [
    "BitString",
    "CHECKS",
    "CheckReport",
    "ConfigError",
    "ConstructionBundle",
    "ConstructionError",
    "Cube",
    "DelayTable",
    "DiscardRecord",
    "ElementaryNetwork",
    "ExtraEdge",
    "LevelAggregates",
    "MLTest",
    "PRESETS",
    "ResourceLimit",
    "RunConfig",
    "build",
    "dense_oracle",
    "index_of",
    "ml_test",
    "pair",
    "rat_parse",
    "rat_str",
    "run_checks",
    "string_of",
    "unpair_1",
    "unpair_2",
]


def test_public_names_are_pinned():
    assert treeflow.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in treeflow.__all__:
        assert hasattr(treeflow, name), name
