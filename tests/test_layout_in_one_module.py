"""Each storage layout is known to one module.  Only `rotosense.multipole` knows how T_LM is stored: no
other module names its dense stack, its sectors, its diagonal index or its band tables.  Only
`rotosense.spin_core` knows how the Clebsch-Gordan embedding is stored: no other module names its
coupling table, builds a strided view with `np.ndarray(...)` or reads `.strides`.  Only `rotosense.spin_core`
builds a value without its checks: no other module calls `object.__new__`, so every value derived from
checked ones goes through its one private constructor."""

import ast
from pathlib import Path

import pytest

import rotosense

PACKAGE = Path(rotosense.__file__).parent
LAYOUT_NAMES = ("multipole_stack", "_sector", "_diagonal_index", "_band")
EMBEDDING_NAMES = ("_coupling_table",)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def layout_sites(path: Path, names=LAYOUT_NAMES) -> list:
    """Lines of `path` that define, name, import or read an attribute called one of `names`."""
    sites = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            sites.append(f"{path.name}:{node.lineno} {node.name}")
        elif isinstance(node, ast.Name) and node.id in names:
            sites.append(f"{path.name}:{node.lineno} {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in names:
            sites.append(f"{path.name}:{node.lineno} .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            sites += [f"{path.name}:{node.lineno} import {a.name}" for a in node.names if a.name in names]
    return sites


def view_sites(path: Path) -> list:
    """Lines of `path` that call `np.ndarray(...)` or read `.strides`; `np.ndarray` as an annotation is no call."""
    sites = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.ndarray", "numpy.ndarray", "ndarray"):
            sites.append(f"{path.name}:{node.lineno} np.ndarray(...)")
        elif isinstance(node, ast.Attribute) and node.attr == "strides":
            sites.append(f"{path.name}:{node.lineno} .strides")
    return sites


def embedding_sites(path: Path) -> list:
    return layout_sites(path, EMBEDDING_NAMES) + view_sites(path)


def unchecked_sites(path: Path) -> list:
    """Lines of `path` that call `object.__new__`, which builds a value without running its checks."""
    return [f"{path.name}:{node.lineno} object.__new__" for node in ast.walk(parse(path))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "multipole.py"),
                         ids=lambda p: p.name)
def test_module_leaves_the_layout_to_multipole(path):
    assert layout_sites(path) == []


def test_the_layout_module_is_seen_to_use_it():
    # the check finds every name in the one module allowed to use them
    names = {site.split(" ", 1)[1].lstrip(".") for site in layout_sites(PACKAGE / "multipole.py")}
    assert set(LAYOUT_NAMES) <= names


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "spin_core.py"),
                         ids=lambda p: p.name)
def test_module_leaves_the_embedding_to_spin_core(path):
    assert embedding_sites(path) == []


def test_the_embedding_module_is_seen_to_use_it():
    # the check finds the table, the view and the strides in the one module allowed to use them
    found = {site.split(" ", 1)[1].lstrip(".") for site in embedding_sites(PACKAGE / "spin_core.py")}
    assert set(EMBEDDING_NAMES) | {"np.ndarray(...)", "strides"} <= found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "spin_core.py"),
                         ids=lambda p: p.name)
def test_module_leaves_unchecked_construction_to_spin_core(path):
    assert unchecked_sites(path) == []


def test_the_private_constructor_is_seen_in_spin_core():
    assert len(unchecked_sites(PACKAGE / "spin_core.py")) == 1
