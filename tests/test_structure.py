"""Structural checks on the package itself."""
import ast
import os
import subprocess
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


def _reference(node) -> str | None:
    """The name a node reads: a bare name, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _module_private_definitions(tree: ast.Module):
    """(name, defining statement) for every private module-level name."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def test_private_names_have_readers():
    """Every private module-level name is read somewhere in the package
    outside its own definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unread = []
    for module, tree in trees.items():
        for name, stmt in _module_private_definitions(tree):
            own = {id(node) for node in ast.walk(stmt)}
            if not any(_reference(node) == name and id(node) not in own
                       for other in trees.values() for node in ast.walk(other)):
                unread.append(f"{module}:{name}")
    assert unread == []


def _fresh(script: str) -> str:
    """Stdout of ``script`` run in a new interpreter on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_LOADED = "print(sorted(m for m in sys.modules if m.startswith('swcalc')))"


def test_package_import_loads_no_submodule():
    assert _fresh(f"import sys, swcalc\n{_LOADED}") == "['swcalc']"


def test_cli_import_loads_only_what_every_command_shares():
    # fixedpoint stays: perfbench/harness.py reads sys.modules["swcalc.fixedpoint"]
    # after importing swcalc.cli
    assert _fresh(f"import sys, swcalc.cli\n{_LOADED}") == str(
        ["swcalc", "swcalc.cli", "swcalc.errors", "swcalc.fixedpoint",
         "swcalc.lattice"])


def test_eval_without_hat_skips_the_transfer_stack():
    script = ("import sys, io, contextlib\n"
              "import swcalc.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert swcalc.cli.run_command(['eval', 'E(2) # CP2']) == 0\n"
              "print('swcalc.equivariant' in sys.modules)")
    assert _fresh(script) == "False"


def test_star_import_binds_all():
    script = ("import swcalc\n"
              "names = {}\n"
              "exec('from swcalc import *', names)\n"
              "print([n for n in swcalc.__all__ if n not in names])")
    assert _fresh(script) == "[]"
