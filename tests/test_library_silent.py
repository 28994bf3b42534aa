"""The library itself prints nothing: only `rotosense.cli` writes to stdout or stderr."""

import ast
from pathlib import Path

import pytest

import rotosense

PACKAGE = Path(rotosense.__file__).parent
STREAMS = ("stdout", "stderr")


def output_sites(path: Path) -> list:
    """Lines of `path` that call `print` or name `sys.stdout` or `sys.stderr`."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            sites.append(f"{path.name}:{node.lineno} print")
        elif (isinstance(node, ast.Attribute) and node.attr in STREAMS
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            sites.append(f"{path.name}:{node.lineno} sys.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            sites += [f"{path.name}:{node.lineno} from sys import {a.name}" for a in node.names if a.name in STREAMS]
    return sites


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_library_module_writes_no_output(path):
    assert output_sites(path) == []


def test_the_frontend_is_seen_to_print():
    # the check finds both kinds of site in the one module allowed to write
    kinds = {site.split(" ", 1)[1] for site in output_sites(PACKAGE / "cli.py")}
    assert {"print", "sys.stdout", "sys.stderr"} <= kinds
