import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcalc.cli import _to_json, run_command
from swcalc.expressions import eval_expr, parse

ROOT = Path(__file__).resolve().parent.parent


def _src_env() -> dict:
    """The environment with this checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_eval_knot_surgery(capsys):
    code, data = run_json(capsys, ["eval", "knot_surgery(E(2), family(2,1))"])
    assert code == 0
    assert data["schema"] == "swcalc/1"
    assert data["mod2_basic_classes"] == 9
    assert data["fingerprint"]["parity"] == "even"


def test_eval_blowup(capsys):
    code, data = run_json(capsys, ["eval", "blowup(E(2),2)"])
    assert code == 0
    assert data["mod2_basic_classes"] == 4


def test_eval_s4(capsys):
    code, data = run_json(capsys, ["eval", "S4"])
    assert code == 0
    assert data["chi"] == 2


def test_eval_sum_includes_dissolution(capsys):
    code, data = run_json(capsys, ["eval", "4*E(2) # 1*S2xS2"])
    assert code == 0
    assert data["homeo_type"]["display"] == "1*(S2xS2) # 4*K3"
    assert data["dissolution"]["display"] == "1*(S2xS2) # 4*K3"


def test_eval_guard_violation_exit_code(capsys):
    code, data = run_json(capsys, ["eval", "E(1)"])
    assert code == 1
    assert data["error"]["type"] == "guard"
    assert data["error"]["requirement"] == "b2+ > 1"


def test_eval_dense_gram_bound(capsys):
    at_bound = eval_expr(parse("1000*E(2) # S2xS2")).to_json_dict()
    assert len(at_bound["intersection"]["gram"]) == 1000
    code, data = run_json(capsys, ["eval", "1001*E(2) # S2xS2"])
    assert code == 1
    assert data["error"]["requirement"] == "at most 1000 tracked classes"


def test_eval_syntax_error_exit_code(capsys):
    code, data = run_json(capsys, ["eval", "E(2) # # S4"])
    assert code == 2
    assert data["error"]["type"] == "syntax"
    assert data["error"]["position"] == 7


def test_eval_unknown_name_suggestions(capsys):
    code, data = run_json(capsys, ["eval", "S2xS1"])
    assert code == 2
    assert "S2xS2" in data["error"]["suggestions"]


def test_unknown_subcommand_exit_code(capsys):
    assert run_command(["frobnicate"]) == 2


def test_family_k3(capsys):
    code, data = run_json(capsys, [
        "family", "--construction", "k3", "--k", "2", "--l", "2",
        "--n", "1", "--size", "3"])
    assert code == 0
    assert data["verdict"] == "smoothly_distinct"
    assert data["counts"] == [10, 18, 26]
    assert data["target"]["dissolved"]["display"] == "1*(S2xS2) # 4*K3"
    assert data["covering_consistent"] is True


def test_family_cp2(capsys):
    code, data = run_json(capsys, [
        "family", "--construction", "cp2", "--k", "2", "--l", "2",
        "--n-prime", "2", "--m-prime", "1", "--size", "2"])
    assert code == 0
    assert data["target"]["dissolved"]["display"] == "13*CP2 # 81*CP2bar"


def test_family_guard_exit(capsys):
    code, data = run_json(capsys, [
        "family", "--construction", "k3", "--k", "2", "--l", "1", "--size", "1"])
    assert code == 1


def test_fixedpoints(capsys):
    code, data = run_json(capsys, ["fixedpoints", "--k", "3"])
    assert code == 0
    assert len(data["solutions"]) == 3
    assert data["solutions"][1] == {"theta": "1/3", "tuple": ["2/3", "1/3", "0"]}
    assert len(data["invariant_locus"]) == 1


def test_lattice_gram_json(capsys):
    code, data = run_json(capsys, [
        "lattice", "--gram", "[[-1,0],[0,-1]]", "--bound", "1"])
    assert code == 0
    assert data["max_characteristic_square"]["value"] == -2
    assert data["spinc_with_max_square"]["vector"] == [1, 1]


def test_lattice_e8_fixture(capsys):
    code, data = run_json(capsys, ["lattice", "--fixture", "e8", "--bound", "1"])
    assert code == 0
    assert data["max_characteristic_square"]["value"] == 0
    assert data["max_characteristic_square"]["bound_limited"] is True
    assert data["diagonalize"]["found"] is False


def test_lattice_bad_gram(capsys):
    code, data = run_json(capsys, ["lattice", "--gram", "[[-2]]"])
    assert code == 2


@pytest.mark.parametrize("fixture", ["diag:x", "diag:", "diag:1.5", "diag:-1"])
def test_lattice_bad_diag_fixture(capsys, fixture):
    code, data = run_json(capsys, ["lattice", "--fixture", fixture])
    assert code == 2
    assert data["error"]["type"] == "syntax"
    assert "diag:N" in data["error"]["message"]


def test_lattice_diag0_fixture(capsys):
    code, data = run_json(capsys, ["lattice", "--fixture", "diag:0"])
    assert code == 0
    assert data["rank"] == 0 and data["gram"] == []


@pytest.mark.parametrize("gram", ['[[-1.5]]', '[["-1"]]', '[[-1,0],[0,-1.9]]', '[[true]]'])
def test_lattice_non_integer_gram_rejected(capsys, gram):
    code, data = run_json(capsys, ["lattice", "--gram", gram])
    assert code == 2
    assert "integers" in data["error"]["message"]


def test_no_runtime_dependencies_loaded():
    """Importing the CLI and running the lattice and fixed-subtorus code
    loads neither numpy nor sympy."""
    script = (
        "import sys, io, contextlib\n"
        "import swcalc.cli\n"
        "from swcalc.fixedpoint import TorusAutomorphism, fixed_subtorus\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert swcalc.cli.run_command(['lattice', '--fixture', 'e8', '--bound', '1']) == 0\n"
        "fixed_subtorus(TorusAutomorphism(((0, 1), (1, 0)), 2))\n"
        "print(sorted({'numpy', 'sympy'} & set(sys.modules)))\n")
    env = _src_env()
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_closed_pipe_exits_quietly():
    """A reader that closes stdout early gets no traceback, and the exit
    status is that of a process killed by SIGPIPE, not a guard's 1."""
    # about 220 KB, more than a pipe holds
    with subprocess.Popen([sys.executable, "-m", "swcalc.cli", "eval", "E(1000)"],
                          env=_src_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(16)
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_bf_subcommand(capsys):
    code, data = run_json(capsys, ["bf", "2*E(2) # hat(2)", "--k", "2"])
    assert code == 0
    assert data["normal_form"] == "BF(E(2))"
    assert data["verdict"] == "nontrivial"


def test_bf_wrong_count(capsys):
    code, data = run_json(capsys, ["bf", "3*E(2) # hat(2)", "--k", "2"])
    assert code == 1


def test_catalog_subcommand(capsys):
    code, data = run_json(capsys, ["catalog"])
    assert code == 0
    assert "trefoil" in data["knots"]
    assert "HatS1L" in data["catalog_kinds"]


def test_catalog_file_flag(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"knots": {"t25": "torus(2,5)"},
                                "manifolds": {"X": "knot_surgery(E(2), t25)"}}))
    code, data = run_json(capsys, ["eval", "X", "--catalog", str(path)])
    assert code == 0
    assert data["mod2_basic_classes"] == 5


def test_text_format(capsys):
    code = run_command(["eval", "S4", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chi: 2" in out


def test_parser_reused_across_commands_matches_fresh_processes(capsys):
    """One process runs an invalid argv, then lattice, fixedpoints and eval
    on the one parser it builds; each answer equals a fresh process's."""
    argvs = [["lattice", "--bound", "x"],
             ["lattice", "--fixture", "diag:3", "--bound", "1"],
             ["fixedpoints", "--k", "4"],
             ["eval", "2*E(2) # S2xS2"]]
    env = _src_env()
    for argv in argvs:
        code = run_command(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "swcalc.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and out


# ----- the JSON emitter -----

_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                          st.characters()))
_INTS = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200),
                  st.integers(max_value=-1))


def _json_trees(depth: int):
    leaves = st.one_of(_TEXT, _INTS, st.booleans(), st.none(), st.lists(_INTS),
                       st.lists(st.one_of(_INTS, st.sampled_from([True, False, None]))))
    if depth == 0:
        return leaves
    sub = _json_trees(depth - 1)
    return st.one_of(leaves, st.lists(sub, max_size=3), st.dictionaries(_TEXT, sub, max_size=3))


@settings(max_examples=300, deadline=None)
@given(_json_trees(6))
def test_emitter_matches_json_dumps(tree):
    assert _to_json(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), object(), 1.5, (1, 2), {1: 2}])
def test_emitter_refuses_other_types(value):
    with pytest.raises(TypeError):
        _to_json({"rows": [[1, 2], [value]]})


@pytest.mark.parametrize("argv", [
    ["eval", "3*E(2) # S2xS2"],
    ["lattice", "--fixture", "e8", "--bound", "1"],
    ["fixedpoints", "--k", "5"],
    ["family", "--construction", "cp2", "--k", "2", "--l", "3", "--size", "2"],
    ["bf", "2*E(2) # hat(3)", "--k", "2"],
    ["catalog"],
    ["eval", "E(2) #"],
], ids=["eval", "lattice", "fixedpoints", "family", "bf", "catalog", "syntax_error"])
def test_cli_jobs_leave_no_reference_cycles(capsys, argv):
    """A repeated job frees everything it made by reference counting alone."""
    run_command(argv)
    gc.collect()
    gc.disable()
    try:
        run_command(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("expression, position", [
    ("²*E(2)", 0), ("E(²)", 2), ("knot_surgery(E(2), torus(2,³))", 27)])
def test_superscript_digit_is_a_syntax_error(capsys, expression, position):
    code, data = run_json(capsys, ["eval", expression])
    assert code == 2
    assert data["error"]["message"].startswith("unexpected character")
    assert data["error"]["position"] == position


def test_unicode_decimal_digit_is_an_integer(capsys):
    code, data = run_json(capsys, ["eval", "E(٣)"])
    assert code == 0
    assert data["label"] == "E(3)"


@pytest.mark.parametrize("content, code", [
    (None, 2),
    ("nope", 2),
    ("[1]", 1),
    ('{"knots": [1]}', 1),
    ('{"manifolds": "X"}', 1),
    ('{"knots": {"x": {"coeffs": {"a": 1}}}}', 1),
    ('{"knots": {"x": {"coeffs": {"0": 1.5}}}}', 1),
], ids=["missing", "invalid_json", "top_level_list", "knots_list", "manifolds_string",
        "exponent_not_integer", "coefficient_not_integer"])
def test_bad_catalog_file_refused(tmp_path, capsys, content, code):
    path = tmp_path / "cat.json"
    if content is not None:
        path.write_text(content)
    exit_code, data = run_json(capsys, ["eval", "S4", "--catalog", str(path)])
    assert exit_code == code
    assert data["error"]["type"] == ("syntax" if code == 2 else "guard")
