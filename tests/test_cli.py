import ast
import gc
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swcalc import expressions
from swcalc.cli import _to_json, run_command
from swcalc.expressions import eval_expr, parse
from swcalc.manifold import homeo_type

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


@pytest.mark.parametrize("text, h1", [
    ("hat(2) # hat(3)", [6]), ("hat(3) # hat(2)", [6]), ("hat(6)", [6]),
    ("hat(2) # 2*hat(4) # hat(3)", [2, 4, 12]), ("E(2) # hat(2) # hat(2)", [2, 2])])
def test_eval_writes_a_sums_h1_as_invariant_factors(capsys, text, h1):
    """Z2 + Z3 is Z6, so the sum prints the H1 that hat(6) prints."""
    code, data = run_json(capsys, ["eval", text])
    assert code == 0 and data["torsion_h1"] == h1


SIMPLY_CONNECTED_PIECES = ("E(2)", "E(3)", "E(4)", "E(6)", "K3", "S2xS2", "CP2", "CP2bar",
                           "logtx(2,3)", "logtx(4,2)", "knot_surgery(E(2),trefoil)",
                           "knot_surgery(E(4),family(2,1))", "blowup(E(3),2)")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.booleans(),
                          st.sampled_from(SIMPLY_CONNECTED_PIECES)), min_size=1, max_size=4))
def test_eval_dissolves_every_simply_connected_sum(runs):
    """Spin pieces have signature 16j and b2+, b2- of at least 3|j|, and a sum keeps
    both, so every simply connected sum has a dissolved homeomorphism type."""
    text = " # ".join(f"{c}*{'~' * rev}{piece}" for c, rev, piece in runs)
    m = eval_expr(parse(text))
    assert m.simply_connected
    assert homeo_type(m).display


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


def test_fixedpoints_bytes_match_closed_form(capsys):
    """Tuple j is ((k-1-i) j / k mod 1)_i, and the invariant locus is tuple 0."""
    for k in [*range(1, 57), 64, 97, 128]:
        solutions = [{"theta": str(Fraction(j, k)),
                      "tuple": [str(Fraction((k - 1 - i) * j, k) % 1) for i in range(k)]}
                     for j in range(k)]
        expected = {"schema": "swcalc/1", "k": k, "solutions": solutions,
                    "invariant_locus": solutions[:1]}
        assert run_command(["fixedpoints", "--k", str(k)]) == 0
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


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


@pytest.mark.parametrize("gram", ["5", "null", "[5]"])
def test_lattice_gram_not_rows_rejected(capsys, gram):
    code, data = run_json(capsys, ["lattice", "--gram", gram])
    assert code == 2
    assert data["error"]["message"] == "--gram must be a JSON array of rows"


@pytest.mark.parametrize("argv", [
    ["family", "--construction", "k3", "--k", "2", "--l", "2", "--size", "1"],
    ["fixedpoints", "--k", "3"],
    ["lattice", "--fixture", "e8", "--bound", "1"],
], ids=lambda argv: argv[0])
def test_catalog_option_refused_where_unread(capsys, argv):
    assert run_command(argv) == 0
    assert run_command(argv + ["--catalog", "x.json"]) == 2


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


def test_bf_catalog_summand_alone(capsys):
    code, data = run_json(capsys, ["bf", "hat(2)", "--k", "2"])
    assert code == 0
    assert data["input"] == "BFG(hat(S1xRP3), k=2)"
    assert data["normal_form"] == "Id"
    assert data["verdict"] == "nontrivial"


def test_bf_wrong_count(capsys):
    code, data = run_json(capsys, ["bf", "3*E(2) # hat(2)", "--k", "2"])
    assert code == 1


@pytest.mark.parametrize("expression", [
    "2*E(2) # S4 # hat(2)", "2*E(2) # hat(2) # S4", "2*E(2) # CP2bar # S4",
    "hat(2) # hat(3)"])
def test_bf_refuses_a_second_catalog_summand(capsys, expression):
    code, data = run_json(capsys, ["bf", expression, "--k", "2"])
    assert code == 2
    assert data["error"]["message"] == "expected exactly one catalog summand"


@pytest.mark.parametrize("expression", ["2*E(2) # 2*hat(2)", "2*E(2) # 2*S4"])
def test_bf_refuses_a_multiple_of_the_catalog_summand(capsys, expression):
    code, data = run_json(capsys, ["bf", expression, "--k", "2"])
    assert code == 2
    assert data["error"]["message"] == "the catalog summand appears once"


def test_bf_s4_alias_splits_to_identity(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"manifolds": {"Z": "S4"}}))
    code, data = run_json(capsys, ["bf", "2*Z # hat(2)", "--k", "2",
                                   "--catalog", str(path)])
    assert code == 0
    assert data["input"] == "BFG(2*S4 # hat(S1xRP3), k=2)"
    assert data["normal_form"] == "Id"
    assert data["verdict"] == "nontrivial"
    assert data["trace"] == [
        "sum_splitting: BFG(2*S4 # hat(S1xRP3), k=2) -> BF(S4) ^ BFG(hat(S1xRP3), k=2)",
        "identity_class: BF(S4) -> Id",
        "identity_class: BFG(hat(S1xRP3), k=2) -> Id",
    ]


@pytest.mark.parametrize("source, label", [("S4 # S4", "(S4 # S4)"), ("~S4", "~S4")])
def test_bf_summand_with_the_s4_fingerprint_splits_to_identity(tmp_path, capsys,
                                                                 source, label):
    """X # S4 is X: the identity rule reads the fingerprint, not the spelling."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"manifolds": {"Z": source}}))
    code, data = run_json(capsys, ["bf", "2*Z # hat(2)", "--k", "2",
                                   "--catalog", str(path)])
    assert code == 0
    assert data["input"] == f"BFG(2*{label} # hat(S1xRP3), k=2)"
    assert data["normal_form"] == "Id"
    assert data["verdict"] == "nontrivial"
    assert data["trace"][1] == f"identity_class: BF({source}) -> Id"


def test_bf_label_parenthesizes_a_sum_summand(tmp_path, capsys):
    """k copies of a sum-valued M read as k*(M), as in the family target."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"manifolds": {"KK": "K3 # K3"}}))
    code, data = run_json(capsys, ["bf", "2*KK # hat(2)", "--k", "2",
                                   "--catalog", str(path)])
    assert code == 0
    assert data["input"] == "BFG(2*(K3 # K3) # hat(S1xRP3), k=2)"
    assert data["trace"][0] == ("sum_splitting: BFG(2*(K3 # K3) # hat(S1xRP3), k=2)"
                                " -> BF(K3 # K3) ^ BFG(hat(S1xRP3), k=2)")
    assert data["normal_form"] == "BF(K3 # K3)"


def test_bf_refuses_two_different_summands(capsys):
    code, data = run_json(capsys, ["bf", "E(2) # E(3) # hat(2)", "--k", "2"])
    assert code == 2
    assert data["error"]["message"] == \
        "expected k copies of a single manifold plus one catalog summand"


def test_bf_refuses_no_catalog_summand(capsys):
    code, data = run_json(capsys, ["bf", "2*E(2)", "--k", "2"])
    assert code == 2
    assert data["error"]["message"] == \
        "expression must contain one catalog summand: hat(l), S4 or CP2bar"


def test_catalog_subcommand(capsys):
    code, data = run_json(capsys, ["catalog"])
    assert code == 0
    assert "trefoil" in data["knots"]
    assert data["catalog_kinds"] == ["S4", "CP2bar", "HatS1L"]


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


def test_text_format_marks_each_nested_item(capsys):
    """A container inside a list starts with its own ``-``: the Gram rows, the
    characteristic vectors and the family members stay apart."""
    assert run_command(["lattice", "--gram", "[[-1,0],[0,-1]]", "--bound", "1",
                        "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "\ngram:\n  -\n    - -1\n    - 0\n  -\n    - 0\n    - -1\n" in out
    assert "  vectors:\n    -\n      - 1\n      - 1\n    -\n      - 1\n      - -1\n" in out
    assert run_command(["family", "--construction", "k3", "--k", "2", "--l", "3",
                        "--size", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n  -\n    label: knot_surgery(E(2), family(") == 2


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
    leaves = st.one_of(_TEXT, _INTS, st.booleans(), st.none(), st.lists(_INTS), st.lists(_TEXT),
                       st.lists(st.one_of(_INTS, st.sampled_from([True, False, None]))))
    if depth == 0:
        return leaves
    sub = _json_trees(depth - 1)
    return st.one_of(leaves, st.lists(sub, max_size=3), st.dictionaries(_TEXT, sub, max_size=3))


@st.composite
def _aliased_trees(draw):
    """A list whose items are drawn from a pool of objects, so that one object
    repeats next to itself and apart, among neighbours that are equal to it but
    of other types or other objects: [1] and [True], [0] and [False], [] and []."""
    pool = draw(st.lists(_json_trees(2), max_size=3)) + [[1], [True], [0], [False], None, [], []]
    items = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return draw(st.sampled_from([items, [items, items], {"rows": items, "again": [items, 0]}]))


_ROW = [0, 0]


@settings(max_examples=600, deadline=None)
@given(st.one_of(_json_trees(6), _aliased_trees()))
@example([[1], [True], [0], [False], None, None, [], [], [[1]], [[True]], {}, {}])
@example({"gram": [_ROW, _ROW, [0, False], _ROW, [[0]], [[0]], [_ROW], [_ROW]]})
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
    ('{"manifolds": {"K3": "E(3)"}}', 1),
    ('{"manifolds": {"E": "K3"}}', 1),
    ('{"manifolds": {"blowup": "K3"}}', 1),
    ('{"knots": {"torus": "torus(2,5)"}}', 1),
], ids=["missing", "invalid_json", "top_level_list", "knots_list", "manifolds_string",
        "exponent_not_integer", "coefficient_not_integer", "builtin_name", "param_builtin_name",
        "keyword_name", "knot_constructor_name"])
def test_bad_catalog_file_refused(tmp_path, capsys, content, code):
    path = tmp_path / "cat.json"
    if content is not None:
        path.write_text(content)
    exit_code, data = run_json(capsys, ["eval", "S4", "--catalog", str(path)])
    assert exit_code == code
    assert data["error"]["type"] == ("syntax" if code == 2 else "guard")


# ----- refusals pinned by exit code, error type, requirement and message -----

FAMILY = ["family", "--construction"]
E8 = ["lattice", "--fixture", "e8"]

# (argv, catalog file content or None, exit code, type, requirement, message, position)
REFUSALS = {
    "lattice_fixture_foo": (["lattice", "--fixture", "foo"], None, 2, "syntax", None,
                            "unknown fixture 'foo'; use e8 or diag:N", None),
    "lattice_no_input": (["lattice"], None, 2, "syntax", None,
                         "provide exactly one of --gram or --fixture", None),
    "lattice_gram_and_fixture": (["lattice", "--gram", "[[-1]]", "--fixture", "e8"], None, 2,
                                 "syntax", None, "provide exactly one of --gram or --fixture",
                                 None),
    "lattice_gram_unclosed": (["lattice", "--gram", "[["], None, 2, "syntax", None,
                              "--gram is not valid JSON: Expecting value: line 1 column 3 "
                              "(char 2)", None),
    "lattice_bound_0": (E8 + ["--bound", "0"], None, 1, "guard", "bound >= 1",
                        "search bound must be at least 1", None),
    "lattice_depth_0": (E8 + ["--depth", "0"], None, 1, "guard", "depth >= 1",
                        "search depth must be at least 1", None),
    "family_size_0": (FAMILY + ["k3", "--k", "2", "--l", "2", "--size", "0"], None, 1, "guard",
                      "size >= 1", "a family needs at least one member", None),
    "family_k3_n_0": (FAMILY + ["k3", "--k", "2", "--l", "2", "--size", "1", "--n", "0"], None,
                      1, "guard", "n >= 1", "the elliptic index parameter must be at least 1",
                      None),
    "family_s2xs2_n_0": (FAMILY + ["s2xs2", "--k", "2", "--l", "2", "--size", "1", "--n", "0"],
                         None, 1, "guard", "n >= 1",
                         "the elliptic index parameter must be at least 1", None),
    "family_cp2_n_prime_1": (FAMILY + ["cp2", "--k", "2", "--l", "2", "--size", "1",
                                       "--n-prime", "1"], None, 1, "guard", "n' >= 2",
                             "the elliptic index must be at least 2", None),
    "family_cp2_m_prime_0": (FAMILY + ["cp2", "--k", "2", "--l", "2", "--size", "1",
                                       "--m-prime", "0"], None, 1, "guard", "m' >= 1",
                             "at least one blowup is required", None),
    "family_s2xs2_m_0": (FAMILY + ["s2xs2", "--k", "2", "--l", "2", "--size", "1", "--m", "0"],
                         None, 1, "guard", "m >= 1", "the base needs at least one S2xS2 summand",
                         None),
    "family_l_1": (FAMILY + ["k3", "--k", "2", "--l", "1", "--size", "1"], None, 1, "guard",
                   "order l >= 2", "the fundamental group must be nontrivial (order l >= 2)",
                   None),
    "fixedpoints_k_0": (["fixedpoints", "--k", "0"], None, 1, "guard", "k >= 1",
                        "the cyclic order must be at least 1", None),
    "eval_hat_1": (["eval", "hat(1)"], None, 1, "guard", "order l >= 2",
                   "the fundamental group must be nontrivial (order l >= 2)", None),
    "eval_blowup_0": (["eval", "blowup(E(2),0)"], None, 1, "guard", "m >= 1",
                      "blowup count must be at least 1", None),
    "eval_S4_called": (["eval", "S4(1)"], None, 2, "syntax", None, "S4 takes no arguments", 0),
    "eval_E_bare": (["eval", "E"], None, 2, "syntax", None, "E takes 1 argument(s)", 0),
    "eval_torus_one_argument": (["eval", "knot_surgery(E(2), torus(2))"], None, 2, "syntax",
                                None, "torus takes 2 argument(s)", 19),
    "eval_named_knot_called": (["eval", "knot_surgery(E(2), trefoil(1))"], None, 2, "syntax",
                               None, "named knot 'trefoil' takes no arguments", 19),
    "eval_unknot_called": (["eval", "knot_surgery(E(2), unknot(1))"], None, 2, "syntax", None,
                           "unknot takes no arguments", 19),
    "eval_unknown_knot": (["eval", "knot_surgery(E(2), unknt)"], None, 2, "syntax", None,
                          "unknown knot 'unknt'; did you mean ['unknot']?", 19),
    # refused where the knot is named, before the 20000 copies are summed
    "eval_unknown_knot_after_a_large_base": (
        ["eval", "knot_surgery(knot_surgery(E(20000), family(1,1)), trefol)"], None, 2,
        "syntax", None, "unknown knot 'trefol'; did you mean ['trefoil']?", 50),
    "catalog_entry_not_a_string": (["eval", "S4"], '{"manifolds": {"X": 1}}', 1, "guard", None,
                                   "manifold entry 'X' must be an expression string", None),
    "catalog_entry_called": (["eval", "X(1)"], '{"manifolds": {"X": "K3"}}', 2, "syntax", None,
                             "catalog entry X takes no arguments", 0),
    "catalog_knot_called": (["eval", "S4"], '{"knots": {"K": "trefoil(1)"}}', 2, "syntax",
                            None, "named knot 'trefoil' takes no arguments", 0),
    "catalog_knot_unknown": (["eval", "S4"], '{"knots": {"K": "trefol"}}', 2, "syntax", None,
                             "unknown knot 'trefol'; did you mean ['trefoil']?", 0),
    # the whole catalog is checked when it loads, before the 20000 copies are summed
    "catalog_entry_error_before_a_large_base": (
        ["eval", "knot_surgery(knot_surgery(E(20000), family(1,1)), unknot) # X"],
        '{"manifolds": {"X": "S4 # Kk3"}}', 2, "syntax", None,
        "in catalog entry X: unknown manifold 'Kk3'; did you mean ['K3']?", 5),
    "catalog_cycle": (["eval", "S4"], '{"manifolds": {"X": "Y", "Y": "X"}}', 1, "guard", None,
                      "catalog entries form a cycle: X -> Y -> X", None),
    "catalog_unused_entry_broken": (["eval", "S4"], '{"manifolds": {"X": "K3", "B": "S4 #"}}',
                                    2, "syntax", None, "in catalog entry B: expected a manifold "
                                    "name but found 'end of input'", 4),
    "catalog_entry_too_deep": (["eval", "S4"], json.dumps({"manifolds": {"X": "~" * 100 + "K3"}}),
                               2, "syntax", None,
                               "in catalog entry X: nesting deeper than 100 levels", 99),
    "catalog_manifold_name_unspelled": (["eval", "S4"], '{"manifolds": {"a b": "K3"}}', 1,
                                        "guard", None,
                                        "catalog entry name 'a b' is not a name of the grammar",
                                        None),
    "catalog_knot_name_unspelled": (["eval", "S4"], '{"knots": {"2x": "unknot"}}', 1, "guard",
                                    None, "catalog entry name '2x' is not a name of the grammar",
                                    None),
}


@pytest.mark.parametrize("argv, catalog, code, kind, requirement, message, position",
                         REFUSALS.values(), ids=REFUSALS)
def test_refusal_table(tmp_path, capsys, monkeypatch, argv, catalog, code, kind, requirement,
                       message, position):
    """A syntax error (exit 2) names its position and is refused before anything is
    evaluated, knot surgery included; its suggestions are the names its message lists."""
    if catalog is not None:
        path = tmp_path / "cat.json"
        path.write_text(catalog)
        argv = argv + ["--catalog", str(path)]
    surgery, surgeries = expressions.knot_surgery, []
    monkeypatch.setattr(expressions, "knot_surgery",
                        lambda *args: surgeries.append(args) or surgery(*args))
    start = time.perf_counter()
    exit_code, data = run_json(capsys, argv)
    elapsed = time.perf_counter() - start
    error = data["error"]
    assert (exit_code, error["type"], error.get("requirement"), error["message"],
            error.get("position")) == (code, kind, requirement, message, position)
    if code == 2:
        hints = message.partition("did you mean ")[2].rstrip("?")
        assert error["suggestions"] == ast.literal_eval(hints or "[]")
        assert elapsed < 0.1, f"{argv[:2]} took {elapsed:.2f}s"
        assert surgeries == []


def test_empty_fixture_is_refused_as_unknown():
    """--fixture "" is a fixture name, not a missing one: a syntax error on stdout."""
    proc = subprocess.run([sys.executable, "-m", "swcalc.cli", "lattice", "--fixture", ""],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "")
    error = json.loads(proc.stdout)["error"]
    assert (error["type"], error["message"]) == ("syntax", "unknown fixture ''; use e8 or diag:N")


# ----- deep nesting, each run a fresh process -----

def _chain_argv(tmp_path, length: int, tildes: int) -> list[str]:
    """eval X0 over a catalog chain X0 -> X1 -> ... -> X<length-1> -> K3,
    each entry with ``tildes`` '~' before the next."""
    entries = {f"X{i}": "~" * tildes + f"X{i + 1}" for i in range(length - 1)}
    entries[f"X{length - 1}"] = "~" * tildes + "K3"
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"manifolds": entries}))
    return ["eval", "X0", "--catalog", str(path)]


# a tuple argv is the (length, tildes) of a catalog chain
@pytest.mark.parametrize("argv, code, position", [
    (["eval", "~" * 1202 + "K3"], 2, 100),
    (["eval", "blowup(" * 400 + "K3" + ",1)" * 400], 2, 700),
    (["eval", "~" * 900 + "K3"], 2, 100),
    ((1500, 0), 2, 0),
    ((20, 100), 2, 99),
], ids=["reverse_1202", "blowup_400", "reverse_900", "catalog_chain_1500",
        "catalog_chain_20x100"])
def test_deep_nesting_is_refused_fast(tmp_path, argv, code, position):
    if isinstance(argv, tuple):
        argv = _chain_argv(tmp_path, *argv)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "swcalc.cli", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (code, "")
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == ("syntax" if code == 2 else "guard")
    assert error.get("position") == position
    assert elapsed < 1.0, f"{argv[:2]} took {elapsed:.2f}s"


# ----- hostile-input contract: large inputs answer fast, each run a fresh process -----

K = 10**6
BIG = 99999999999999999999  # above sys.maxsize


@pytest.mark.parametrize("argv", [
    ["family", "--construction", "k3", "--k", str(K), "--l", "2", "--size", "1"],
    ["eval", "100000*S4"],
    ["family", "--construction", "k3", "--k", str(BIG), "--l", "2", "--size", "1"],
    ["bf", f"{BIG}*E(2) # hat(2)", "--k", str(BIG)],
], ids=["family_k_1e6", "eval_100000_S4", "family_k_1e20", "bf_k_1e20"])
def test_large_multiples_answer_within_budget(argv):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "swcalc.cli", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=5)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    assert elapsed < 5.0, f"{argv[:2]} took {elapsed:.2f}s"
    data = json.loads(proc.stdout)
    if argv[0] == "family":
        k = int(argv[4])  # 2*k copies of E(2) (b2+ 3, b2- 19) and one S2xS2
        assert data["target"] == {
            "expression": f"{2 * k}*E(2) # 1*S2xS2",
            "fingerprint": [True, 3 * 2 * k + 1, 19 * 2 * k + 1, "even"],
            "dissolved": {"status": "dissolved", "display": f"1*(S2xS2) # {2 * k}*K3",
                          "parity": "even", "n": 1, "m": 2 * k, "orientation": 1,
                          "rule_trace": []}}
        assert data["covering_consistent"] is True
    elif argv[0] == "bf":
        assert data["input"] == f"BFG({BIG}*E(2) # hat(S1xRP3), k={BIG})"
        assert (data["normal_form"], data["verdict"]) == ("BF(E(2))", "nontrivial")
    else:
        assert data["label"] == " # ".join(["S4"] * 100000)
        assert data["dissolution"]["rule_trace"] == ["trivial_summand: dropped S4"] * 100000
        assert data["fingerprint"] == {"simply_connected": True, "b2_plus": 0, "b2_minus": 0,
                                       "parity": "even"}


@pytest.mark.parametrize("argv", [
    ["eval", f"{BIG}*S4"],
    ["eval", f"E(2) # {BIG}*CP2bar"],
    ["family", "--construction", "cp2", "--k", str(BIG), "--l", "2", "--size", "1"],
    ["family", "--construction", "k3", "--k", "2", "--l", "1000000000000000000000000000057",
     "--size", "1"],
], ids=["eval_big_S4", "eval_big_CP2bar", "family_cp2_big_k", "family_k3_big_l"])
def test_counts_past_sys_maxsize_are_refused(argv):
    """A sum's label, a dissolution trace or the torsion tails that would be
    longer than Python can index is refused by a guard, not by a traceback."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "swcalc.cli", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (1, "")
    error = json.loads(proc.stdout)["error"]
    assert (error["type"], error["requirement"]) == ("guard", "count <= sys.maxsize")
    assert elapsed < 1.0, f"{argv[:2]} took {elapsed:.2f}s"


@pytest.mark.parametrize("argv, code", [
    (["bf", "2*E(200000) # hat(2)", "--k", "2"], 0),
    (["eval", "E(20000)"], 1),
    (["eval", "knot_surgery(E(20000), family(1,1))"], 1),
], ids=["bf_E200000", "eval_E20000", "eval_knot_surgery_E20000"])
def test_power_factors_answer_within_budget(argv, code):
    """E(n) keeps (T - T^-1)^(n-2) as a power: bf reads its mod-2 count in
    closed form, and eval refuses a coefficient that str could not print, in
    the power or in a core that knot surgery expanded."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "swcalc.cli", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (code, "")
    assert elapsed < 1.0, f"{argv[:2]} took {elapsed:.2f}s"
    data = json.loads(proc.stdout)
    if code:
        assert data["error"]["type"] == "guard"
        assert data["error"]["requirement"] == "within budget"
    else:
        assert (data["normal_form"], data["verdict"]) == ("BF(E(200000))", "nontrivial")


def test_e4000_prints_every_coefficient(capsys):
    """C(3998, 1999) has 1,202 digits, inside the 4,300-digit limit."""
    assert run_command(["eval", "E(4000)"]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) == 3507522
    assert json.loads(out)["mod2_basic_classes"] == 2 ** (3998).bit_count()


# Library fixed_subtorus on cycle type (2,3,5,7,11,13): n = 41, least period 30,030.
LONG_PERIOD = """\
import math
from swcalc.fixedpoint import TorusAutomorphism, fixed_subtorus
cycles, perm = (2, 3, 5, 7, 11, 13), []
for c in cycles:
    perm += [len(perm) + (i + 1) % c for i in range(c)]
matrix = tuple(tuple(int(perm[j] == i) for j in range(41)) for i in range(41))
print(fixed_subtorus(TorusAutomorphism(matrix, math.lcm(*cycles))).dimension)
"""


def test_long_period_fixed_subtorus_answers_within_budget():
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", LONG_PERIOD], env=_src_env(),
                          capture_output=True, text=True, timeout=5)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "6\n")
    assert elapsed < 1.0, f"the n = 41 fixed subtorus took {elapsed:.2f}s"


@pytest.mark.parametrize("depth, budget", [(18, 5.0), (22, 1.0)], ids=["depth_18", "depth_22"])
def test_doubling_catalog_chain_is_refused_within_budget(tmp_path, depth, budget):
    """Y_i = Y_{i+1} # Y_{i+1} over ``depth`` levels holds 2^depth copies of K3:
    each entry is evaluated once per level and its form is one run, so the
    report guard refuses it fast."""
    entries = {f"Y{i}": f"Y{i + 1} # Y{i + 1}" for i in range(depth)}
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps({"manifolds": {**entries, f"Y{depth}": "K3"}}))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "swcalc.cli", "eval", "Y0", "--catalog",
                           str(path)], env=_src_env(), capture_output=True, text=True,
                          timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (1, "")
    assert elapsed < budget, f"the doubling chain took {elapsed:.2f}s"
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "guard"
    assert error["requirement"] == "at most 1000 tracked classes"
    assert f"{2**depth}x{2**depth} intersection form" in error["message"]


def test_four_million_copies_are_refused_within_budget():
    """4,000,000 copies of E(2) are one run: the report guard refuses the
    dense form before a name is written."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "swcalc.cli", "eval", "4000000*E(2)"],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (1, "")
    assert elapsed < 1.0, f"4000000*E(2) took {elapsed:.2f}s"
    error = json.loads(proc.stdout)["error"]
    assert (error["type"], error["requirement"]) == ("guard", "at most 1000 tracked classes")
