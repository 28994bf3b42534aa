"""Each storage layout is known to one module.  Only `rotosense.multipole` knows how T_LM is stored: no
other module names its dense stack, its sectors, its diagonal index or its band tables.  Only
`rotosense.spin_core` knows how the Clebsch-Gordan embedding is stored: no other module names its
coupling table, builds a strided view with `np.ndarray(...)` or reads `.strides`.  Only `rotosense.spin_core`
builds a value without its checks: no other module calls `object.__new__`, so every value derived from
checked ones goes through its one private constructor.  Every public module-level name earns its place in
`src/`: `rotosense.__all__` exports it, another line of the package reads it, or README.md names it;
code that only tests use lives with the tests."""

import ast
import re
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


def public_names_without_a_place(package: Path, readme: str, exported) -> list:
    """Public module-level names of `package` that `exported` lacks, no line of the package outside their own
    definition reads or imports (the re-exports of `__init__.py` aside), and no code span of `readme` names."""
    trees = {p.name: parse(p) for p in sorted(package.glob("*.py"))}
    reads = []  # (module, line, name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and module != "__init__.py":
                reads += [(module, node.lineno, a.name) for a in node.names]
    spans = re.findall(r"`([^`\n]+)`", readme)
    missing = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") or name in exported:
                    continue
                if any(read == name and not (m == module and node.lineno <= line <= node.end_lineno)
                       for m, line, read in reads):
                    continue
                if not any(re.search(rf"\b{name}\b", span) for span in spans):
                    missing.append(f"{module}:{node.lineno} {name}")
    return missing


def test_every_public_name_earns_its_place():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    assert public_names_without_a_place(PACKAGE, readme, rotosense.__all__) == []


def test_a_name_only_tests_use_is_seen(tmp_path):
    (tmp_path / "model.py").write_text("LIMIT = 3\n\n\ndef kept():\n    return LIMIT\n\n\n"
                                       "def helper():\n    return helper\n\n\ndef named():\n    pass\n")
    (tmp_path / "__init__.py").write_text("from .model import helper, kept\n")
    assert public_names_without_a_place(tmp_path, "`named` is documented", ["kept"]) == ["model.py:8 helper"]
