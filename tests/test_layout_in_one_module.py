"""Only `rotosense.multipole` knows how T_LM is stored: no other module names its dense stack,
its sectors, its diagonal index or its band tables."""

import ast
from pathlib import Path

import pytest

import rotosense

PACKAGE = Path(rotosense.__file__).parent
LAYOUT_NAMES = ("multipole_stack", "_sector", "_diagonal_index", "_band")


def layout_sites(path: Path) -> list:
    """Lines of `path` that define, name, import or read an attribute called one of LAYOUT_NAMES."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.FunctionDef) and node.name in LAYOUT_NAMES:
            sites.append(f"{path.name}:{node.lineno} {node.name}")
        elif isinstance(node, ast.Name) and node.id in LAYOUT_NAMES:
            sites.append(f"{path.name}:{node.lineno} {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
            sites.append(f"{path.name}:{node.lineno} .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            sites += [f"{path.name}:{node.lineno} import {a.name}" for a in node.names if a.name in LAYOUT_NAMES]
    return sites


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "multipole.py"),
                         ids=lambda p: p.name)
def test_module_leaves_the_layout_to_multipole(path):
    assert layout_sites(path) == []


def test_the_layout_module_is_seen_to_use_it():
    # the check finds every name in the one module allowed to use them
    names = {site.split(" ", 1)[1].lstrip(".") for site in layout_sites(PACKAGE / "multipole.py")}
    assert set(LAYOUT_NAMES) <= names
