"""Exact-arithmetic engine for staged network-flow constructions on the binary tree."""

from treeflow.bitseq import BitString, index_of, string_of, pair, unpair_1, unpair_2
from treeflow.constructions import (
    ConfigError,
    ConstructionBundle,
    MLTest,
    PRESETS,
    RunConfig,
    build,
    ml_test,
)
from treeflow.cubes import Cube
from treeflow.network import (
    ConstructionError,
    DelayTable,
    ElementaryNetwork,
    ExtraEdge,
    LevelAggregates,
    rat_parse,
    rat_str,
)
from treeflow.scheduler import ResourceLimit
from treeflow.templates import DiscardRecord
from treeflow.verify import CHECKS, CheckReport, dense_oracle, run_checks

__all__ = [
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
