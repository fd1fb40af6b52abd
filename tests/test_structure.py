"""Structural checks on the package itself."""
import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
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


def test_no_private_name_is_imported_across_modules():
    """A name that one module of the package imports from another is public;
    attribute reads of a private name are not imports."""
    imported = [f"{path.name}: {node.module}.{alias.name}"
                for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "swcalc")
                for alias in node.names if alias.name.startswith("_")]
    assert imported == []


def _args_read(fn: ast.FunctionDef) -> set[str]:
    """Every ``args.<name>`` that a function reads."""
    return {node.attr for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_every_option_has_a_reader():
    """Each option of a subcommand is read as ``args.<dest>`` by the handler
    that the subcommand registers; ``--format`` is read by ``run_command``."""
    from swcalc import cli
    functions = {stmt.name: stmt for stmt in ast.parse((SRC / "cli.py").read_text()).body
                 if isinstance(stmt, ast.FunctionDef)}
    assert "format" in _args_read(functions["run_command"])
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    unread = []
    for command, parser in sub.choices.items():
        reads = _args_read(functions[parser.get_default("handler").__name__])
        unread += [f"{command} {action.dest}" for action in parser._actions
                   if action.dest not in reads | {"help", "format"}]
    assert unread == []


def test_entry_is_the_only_source_of_k():
    """A catalog entry carries the cyclic order k and |pi_1| = l, so no public
    callable of ``equivariant`` takes ``k``, ``l`` or a copy ``count`` but the
    entry's builders."""
    from swcalc import equivariant
    builders = {"NCatalogEntry", "hat_s1_l", "n_catalog"}
    restated = []
    for name, obj in vars(equivariant).items():
        if name.startswith("_") or name in builders or not callable(obj) \
                or getattr(obj, "__module__", None) != equivariant.__name__:
            continue
        params = inspect.signature(obj).parameters
        restated += [f"{name}({p})" for p in ("k", "l", "count") if p in params]
    assert restated == []


def test_digit_limit_and_sign_vectors_are_stated_once():
    """One function of the package reads the digit limit of ``str``, and only
    ``groupring`` builds the sign vectors of the exceptional classes."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
        for node in ast.walk(tree):
            if _reference(node) == "get_int_max_str_digits":
                # the innermost enclosing function, None at module level
                readers.append(min(((fn.end_lineno - fn.lineno, f"{path.stem}.{fn.name}")
                                    for fn in functions
                                    if fn.lineno <= node.lineno <= fn.end_lineno),
                                   default=(0, None))[1])
    assert len(set(readers)) == 1 and None not in readers, readers
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "product((-1, 1)" in path.read_text()] == ["groupring.py"]


def _scoped(tree: ast.Module):
    """(dotted name of the innermost enclosing class or function, node) for every node."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}" \
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            yield inner, child
            yield from visit(child, inner)
    return visit(tree, "")


def test_group_ring_alone_expands_and_prints_a_power():
    """Only ``groupring`` calls ``mul_power``; elsewhere a ``TermRenderer`` is built
    from an element and names, never from the element's ambient, core rank or
    tails; and every ``within budget`` print refusal is raised in
    ``TermRenderer.render``."""
    restated, refusers = [], set()
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text())):
            where = path.stem + scope
            if isinstance(node, ast.Raise) and any(
                    isinstance(sub, ast.Constant) and sub.value == "within budget"
                    for sub in ast.walk(node)):
                refusers.add(where)
            if path.name == "groupring.py" or not isinstance(node, ast.Call):
                continue
            name = _reference(node.func)
            args = node.args + [kw.value for kw in node.keywords]
            if name == "mul_power" or name == "TermRenderer" and (
                    len(args) > 3
                    or {kw.arg for kw in node.keywords} - {"free_names", "torsion_names"}
                    or any(_reference(sub) in ("ambient", "free_rank", "tails")
                           for arg in args for sub in ast.walk(arg))):
                restated.append(f"{where} calls {name}")
    assert restated == []
    assert refusers == {"groupring.TermRenderer.render"}


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


def test_dir_lists_every_public_name_without_loading_it():
    script = ("import sys, swcalc\n"
              "print('laurent' in dir(swcalc), set(swcalc.__all__) <= set(dir(swcalc)))\n"
              + _LOADED)
    assert _fresh(script).splitlines() == ["True True", "['swcalc']"]


def test_cli_import_loads_only_what_every_command_shares():
    # fixedpoint stays: perfbench/harness.py reads sys.modules["swcalc.fixedpoint"]
    # after importing swcalc.cli
    assert _fresh(f"import sys, swcalc.cli\n{_LOADED}") == str(
        ["swcalc", "swcalc.cli", "swcalc.errors", "swcalc.fixedpoint"])


def test_cli_import_loads_no_rational_arithmetic():
    # the fixed-point rows are integer numerators over k; only the oracles
    # in tests/ read them as Fractions
    script = ("import sys, swcalc.cli\n"
              "print([m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules])")
    assert _fresh(script) == "[]"


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


PERFBENCH = SRC.parent.parent / "perfbench"

# Public functions, classes and class members that no golden report and no
# smoke job enters, each with the reason it stays public.
UNREACHED = {
    "main": "the console entry point; the corpus runs run_command in process",
    "connected_sum": "the binary sum for library users and the tests' copy-by-copy "
                     "oracle; every fold goes through connected_sum_all's runs",
    "GroupRingElement.embed": "the reference implementation for mul_laurent",
    "FactoredElement.expand": "the reference implementation for the factored form",
    "GroupRingElement.one": "how tests and library users build elements",
    "GroupRingElement.zero": "how tests and library users build elements",
    "GroupRingElement.monomial": "how tests and library users build elements",
    "HomeoType.fingerprint": "the inverse of homeo_type, which the round-trip "
                             "test checks",
}


def _public_definitions() -> dict:
    """Every public module-level function and class of the package, by name.
    Exception classes are left out: ``raise`` enters no code of theirs."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"swcalc.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or (inspect.isclass(obj)
                                           and not issubclass(obj, BaseException)):
                assert name not in found, f"{name} is defined twice"
                found[name] = obj
    return found


def _entry_points(obj):
    """Code objects whose call counts as reaching a public name: a function's
    own code, or any method, property or constructor of a class (of the
    object's class, for an instance)."""
    if inspect.isfunction(obj):
        return {obj.__code__}
    cls = obj if inspect.isclass(obj) else type(obj)
    codes = set()
    for value in vars(cls).values():
        value = getattr(value, "__func__", getattr(value, "fget", value))
        if inspect.isfunction(value):
            codes.add(value.__code__)
    return codes


def _public_members(definitions: dict) -> dict:
    """``Class.member`` -> code objects, for every public method, property,
    classmethod and staticmethod defined by a public class."""
    found = {}
    for cls_name, cls in definitions.items():
        if not inspect.isclass(cls):
            continue
        for name, value in vars(cls).items():
            value = getattr(value, "__func__", getattr(value, "fget", value))
            if not name.startswith("_") and inspect.isfunction(value):
                found[f"{cls_name}.{name}"] = {value.__code__}
    return found


def test_every_public_name_is_reached(monkeypatch, tmp_path):
    """Each public function and class of the package, and each public member
    of those classes, is entered by the golden argv corpus, a catalog file or
    the smoke jobs of the three benchmark workloads, or is listed above."""
    from test_golden import REPORTS

    from swcalc import cli, fixedpoint
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from reference import permutation_matrix
    from workloads import WORKLOADS, make_jobs

    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"knots": {"fig8": {"coeffs": {"-1": -1, "0": 3, "1": -1}}},
                                   "manifolds": {"X": "knot_surgery(K3, fig8)"}}))
    # the misspelt entry reaches the suggestion list of catalog names
    argvs = [argv for _, argv, _ in REPORTS] + [
        ["catalog"], ["eval", "X # Y", "--catalog", str(catalog)]]
    library = []
    for workload in WORKLOADS:
        for job in make_jobs(workload, 0, smoke=True):
            if job.argv is None:
                library.append(job.params)
            else:
                argvs.append(list(job.argv))
    definitions = _public_definitions()
    public = {name: _entry_points(obj) for name, obj in definitions.items()}
    public.update(_public_members(definitions))

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                cli.run_command(argv)
        for params in library:
            fixedpoint.fixed_subtorus(fixedpoint.TorusAutomorphism(
                permutation_matrix(params["perm"]), params["order"]))
    finally:
        sys.setprofile(None)
    unreached = sorted(name for name, codes in public.items()
                       if not codes & entered and name not in UNREACHED)
    assert unreached == [], "\n".join(unreached)
    # a listed name that left the package or that a command now enters leaves the list
    assert sorted(name for name in UNREACHED
                  if name not in public or public[name] & entered) == []
