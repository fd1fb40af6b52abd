"""Structural checks on the package itself."""
import ast
import sys
from pathlib import Path

import pytest

import swcalc

SRC = Path(__file__).resolve().parent.parent / "src" / "swcalc"


def imported_roots(path: Path) -> set[str]:
    """Top-level package of every absolute import in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_swcalc(path):
    outside = imported_roots(path) - set(sys.stdlib_module_names) - {"swcalc"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_all_names_resolve():
    assert [name for name in swcalc.__all__ if not hasattr(swcalc, name)] == []
    assert len(set(swcalc.__all__)) == len(swcalc.__all__)
