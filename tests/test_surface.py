"""The package's public names: exactly this list, and every one resolves.
And no code that only tests use: every function in src/ is used there."""

import ast
from pathlib import Path

import treeflow
from treeflow.verify import CHECKS

SRC = Path(treeflow.__file__).resolve().parent

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


def test_every_function_is_referenced_in_src():
    # A function or method counts as used when its name is read anywhere
    # in src/, as a name or an attribute. Exempt are dunders, the public
    # names, and the checks `_check` registers, which CHECKS runs by name.
    exempt = set(treeflow.__all__) | {f.__name__ for f in CHECKS.values()}
    used: set[str] = set()
    defined: dict[str, str] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    unused = [
        f"{where} {name}"
        for name, where in defined.items()
        if name not in used and name not in exempt
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []
