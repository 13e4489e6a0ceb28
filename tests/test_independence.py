"""The oracles re-derive the engine's facts on their own: `verify.py` and
`dense.py` import none of the engine's frame-map operations, and
`verify.py` takes nothing from `treeflow.network` but `rat_str`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "treeflow"

MAP_OPERATIONS = {
    "value_at",
    "items_total",
    "mass_in",
    "floor_in",
    "overlay",
    "meets",
    "prefix_spans",
    "_dyadic_join",
    "_unate_join",
    "push_down",
    "coalesce",
    "_grouped_sum",
    "_fraction_sum",
}


def _imports(module: str) -> list[tuple[str, str]]:
    """(module, name) for every import in the file, function bodies too;
    a plain `import a.b` counts as (a.b, "*")."""
    tree = ast.parse((SRC / module).read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.extend((node.module or "", a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            out.extend((a.name, "*") for a in node.names)
    return out


@pytest.mark.parametrize("module", ["verify.py", "dense.py"])
def test_oracles_import_no_map_operation(module):
    taken = [(m, n) for m, n in _imports(module) if n in MAP_OPERATIONS]
    assert taken == []


def test_verify_takes_only_rat_str_from_network():
    taken = [
        (m, n)
        for m, n in _imports("verify.py")
        if m == "treeflow.network" or (m, n) == ("treeflow", "network")
    ]
    assert taken == [("treeflow.network", "rat_str")]
