import json
import string
from dataclasses import replace
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcalc import expressions
from swcalc.errors import ExprSyntaxError, GuardViolation
from swcalc.expressions import (Blowup, Builtin, Catalog, ConnSum, KnotRef,
                                KnotSurgery, LogTransform, Reverse,
                                MAX_NESTING, eval_expr, parse, render)
from swcalc.manifold import homeo_type, mod2_basic_class_count
from swcalc.surgery import connected_sum_all, dissolve

from oracles import dissolve_flat, eval_by_copies, laurent_coeffs, outcome, scan


def test_parse_sum_with_multiplicity():
    tree = parse("2*E(2) # S2xS2")
    assert tree == ConnSum(((2, Builtin("E", 2)), (1, Builtin("S2xS2"))))
    # only a single term of count 1 is a bare atom, and equal terms stay apart
    assert parse("1*K3") == Builtin("K3")
    assert parse("3*E(2)") == ConnSum(((3, Builtin("E", 2)),))
    assert parse("E(2) # 1*E(2) # 2*E(2)") == ConnSum(
        ((1, Builtin("E", 2)), (1, Builtin("E", 2)), (2, Builtin("E", 2))))
    assert render(parse("1*K3 # 2*E(2)")) == "K3 # 2*E(2)"


def test_parse_knot_surgery_node():
    tree = parse("knot_surgery(E(2), torus(2,3))")
    assert tree == KnotSurgery(Builtin("E", 2), KnotRef("torus", (2, 3)))


def test_parse_whitespace_insensitive():
    assert parse(" 2 * E( 2 )#S2xS2 ") == parse("2*E(2) # S2xS2")


def test_parse_e1_ok_eval_guarded():
    tree = parse("E(1)")
    with pytest.raises(GuardViolation) as err:
        eval_expr(tree)
    assert err.value.requirement == "b2+ > 1"


def test_parse_reverse_and_nested():
    tree = parse("~K3 # blowup(E(2),2)")
    assert tree == ConnSum(((1, Reverse(Builtin("K3"))), (1, Blowup(Builtin("E", 2), 2))))


def test_parse_logtx():
    assert parse("logtx(2,3)") == LogTransform(2, 3)


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("E(2) # # S2xS2")
    assert err.value.position == 7


def test_parse_unknown_name_suggests():
    with pytest.raises(ExprSyntaxError) as err:
        parse("S2xS1")
    assert "S2xS2" in err.value.suggestions


def test_parse_unknown_knot_suggests():
    with pytest.raises(ExprSyntaxError) as err:
        parse("knot_surgery(E(2), torsu(2,3))")
    assert "torus" in err.value.suggestions
    assert err.value.position == 19


def test_eval_unknown_knot_in_a_built_tree_is_a_guard():
    """A tree built by hand skips the parser's name check; the evaluator refuses
    an unknown knot as it refuses an unknown manifold."""
    with pytest.raises(GuardViolation, match="unknown knot 'trefol'"):
        eval_expr(KnotSurgery(Builtin("E", 2), KnotRef("trefol")))
    with pytest.raises(GuardViolation, match="unknown manifold 'X'"):
        eval_expr(Builtin("X"))


def test_parse_zero_multiplicity_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("0*E(2)")


def test_parse_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse("E(2) )")


# ASCII word characters, the six symbols and whitespace, plus a superscript
# digit, a fraction, a Roman numeral, two Arabic-Indic digits, an accented
# letter, two more whitespace characters and a digit outside the basic plane
_TOKEN_ALPHABET = (st.sampled_from(string.ascii_letters + string.digits + "_#*(),~ \t\n")
                   | st.sampled_from("²½Ⅻ٣٠é\x1c\xa0\U0001d7ce"))


def _tokens(text):
    return [(t.kind, t.text, t.pos) for t in expressions._tokenize(text)]


def _result(read, text):
    """What ``read`` makes of the text, or its syntax error's message and position."""
    try:
        return read(text)
    except ExprSyntaxError as err:
        return str(err), err.position


@settings(max_examples=500, deadline=None)
@given(st.text(_TOKEN_ALPHABET, max_size=20))
def test_tokenize_matches_the_character_loop(text):
    assert _result(_tokens, text) == _result(scan, text)


@pytest.mark.parametrize("text, expected", [
    ("E(٣)", Builtin("E", 3)),
    ("E(2)²", ("unexpected character '²'", 4)),
    ("²*K3", ("unexpected character '²'", 0)),
    ("E(½)", ("unexpected character '½'", 2)),
])
def test_parse_follows_the_readme_digit_rules(text, expected):
    """An INT is a run of Nd digits, so E(٣) is E(3); ² and ½ are no digits and
    start no NAME, so each is refused at its position."""
    assert _result(parse, text) == expected


# ----- evaluation -----

def test_eval_family_target():
    m = eval_expr(parse("4*E(2) # 1*S2xS2"))
    h = homeo_type(m)
    assert (h.parity, h.n, h.m) == ("even", 1, 4)


def test_eval_blowup_count():
    m = eval_expr(parse("blowup(E(2),2)"))
    assert mod2_basic_class_count(m) == 4


def test_eval_s4():
    assert eval_expr(parse("S4")).chi == 2


def test_eval_knot_surgery_with_named_knot():
    m = eval_expr(parse("knot_surgery(E(2), trefoil)"))
    assert mod2_basic_class_count(m) == 3


def test_eval_hat_atom():
    m = eval_expr(parse("hat(2)"))
    assert m.chi == 2 and m.torsion_h1 == (2,)


def test_eval_permutation_invariance():
    exprs = ["E(3) # S2xS2 # CP2", "CP2 # E(3) # S2xS2", "S2xS2 # CP2 # E(3)"]
    results = [eval_expr(parse(s)) for s in exprs]
    fps = {m.fingerprint for m in results}
    assert len(fps) == 1
    counts = {mod2_basic_class_count(m) for m in results}
    assert len(counts) == 1


# ----- rendering round trip -----

names = st.sampled_from(["S4", "CP2", "CP2bar", "S2xS2", "K3", "S1xS3"])
knotrefs = st.one_of(
    st.just(KnotRef("unknot")),
    st.builds(KnotRef, st.just("torus"), st.just((2, 3))),
    st.builds(KnotRef, st.just("family"),
              st.tuples(st.integers(1, 3), st.integers(1, 3))),
)
leaf_atoms = st.one_of(
    st.builds(Builtin, names, st.none()),
    st.builds(Builtin, st.just("E"), st.integers(2, 5)),
    st.builds(Builtin, st.just("hat"), st.integers(2, 5)),
    st.builds(LogTransform, st.sampled_from([2, 4]), st.integers(1, 4)),
)


@st.composite
def atom_trees(draw, depth):
    # shapes the grammar allows inside an atom position
    choices = ["leaf"] if depth >= 2 else ["leaf", "reverse", "blowup", "knot"]
    kind = draw(st.sampled_from(choices))
    if kind == "leaf":
        return draw(leaf_atoms)
    if kind == "reverse":
        return Reverse(draw(atom_trees(depth + 1)))
    if kind == "blowup":
        return Blowup(draw(expr_trees(depth + 1)), draw(st.integers(1, 3)))
    return KnotSurgery(draw(expr_trees(depth + 1)), draw(knotrefs))


@st.composite
def term_trees(draw, depth):
    atom = draw(atom_trees(depth))
    return (draw(st.integers(2, 4)) if draw(st.booleans()) else 1), atom


@st.composite
def expr_trees(draw, depth=0):
    count = draw(st.integers(1, 3)) if depth < 2 else 1
    terms = [draw(term_trees(depth)) for _ in range(count)]
    return terms[0][1] if count == 1 and terms[0][0] == 1 else ConnSum(tuple(terms))


@settings(max_examples=150)
@given(expr_trees())
def test_render_parse_round_trip(tree):
    text = render(tree)
    once = parse(text)
    assert parse(render(once)) == once


@settings(max_examples=150, deadline=None)
@given(expr_trees())
def test_eval_matches_the_copy_by_copy_fold(tree):
    """``eval_expr`` against every ``n*X`` written out as n copies folded one
    binary sum at a time: the same report, homeomorphism type and dissolution,
    or the same refusal."""
    d, ref = outcome(eval_expr, tree), outcome(eval_by_copies, tree)
    if isinstance(d, tuple) or isinstance(ref, tuple):
        assert d == ref
        return
    assert d.to_json_dict() == ref.to_json_dict()
    if d.simply_connected:
        assert outcome(homeo_type, d) == outcome(homeo_type, ref)
        assert dissolve([d]) == dissolve_flat([ref])


@st.composite
def catalog_trees(draw):
    """A drawn tree, and the same tree with drawn subtrees, nested ones included,
    moved into catalog entries N0, N1, ...: (tree, tree naming them, entries)."""
    entries = {}

    def move(e):
        if isinstance(e, ConnSum):
            e = ConnSum(tuple((count, move(f)) for count, f in e.runs))
        elif isinstance(e, (KnotSurgery, Blowup, Reverse)):
            e = replace(e, expr=move(e.expr))
        if not draw(st.booleans()):
            return e
        entries[f"N{len(entries)}"] = render(e)
        return Builtin(f"N{len(entries) - 1}")

    tree = draw(expr_trees())
    return tree, move(tree), entries


@settings(max_examples=200, deadline=None)
@given(catalog_trees())
def test_catalog_entries_evaluate_as_their_text_inline(tmp_path_factory, drawn):
    """Evaluating through a loaded catalog gives the inline tree's report, or its
    refusal."""
    tree, named, entries = drawn
    path = tmp_path_factory.getbasetemp() / "generated_catalog.json"
    path.write_text(json.dumps({"manifolds": entries}))
    catalog = Catalog.load(path)
    d = outcome(eval_expr, parse(render(named), catalog), catalog)
    ref = outcome(eval_expr, tree)
    if isinstance(d, tuple) or isinstance(ref, tuple):
        assert d == ref
    else:
        assert d.to_json_dict() == ref.to_json_dict()


@st.composite
def polynomial_trees(draw, depth=0):
    """E(n) or a log transform under knot surgeries and blowups, maybe summed with
    CP2bar or S4: trees with a known polynomial, which ``expr_trees`` rarely draws."""
    if depth == 2 or draw(st.booleans()):
        tree = draw(st.one_of(st.builds(Builtin, st.just("E"), st.integers(2, 5)),
                              st.builds(LogTransform, st.sampled_from([2, 4]),
                                        st.integers(1, 4))))
    elif draw(st.booleans()):
        tree = Blowup(draw(polynomial_trees(depth + 1)), draw(st.integers(1, 3)))
    else:
        tree = KnotSurgery(draw(polynomial_trees(depth + 1)), draw(knotrefs))
    if depth or draw(st.booleans()):
        return tree
    return ConnSum(((1, tree), (draw(st.integers(1, 2)),
                                Builtin(draw(st.sampled_from(["CP2bar", "S4"]))))))


@settings(max_examples=120, deadline=None)
@given(st.one_of(polynomial_trees(), expr_trees()))
def test_known_polynomials_obey_the_theorems(tree):
    """Each known expansion against the integers of the printed Gram matrix G:
    SW(-c) = (-1)^((chi + sigma)/4) SW(c); for simple type every c.c = 2 chi + 3 sigma;
    c.T = 0 for the torus T; and the mod-2 count is the number of odd coefficients."""
    d = outcome(eval_expr, tree)
    if isinstance(d, tuple) or not d.sw.is_known:
        return
    report = d.to_json_dict()
    gram, chi, sigma = report["intersection"]["gram"], report["chi"], report["sigma"]
    terms = d.sw.poly.expand().terms
    assert (chi + sigma) % 4 == 0
    sign = (-1) ** ((chi + sigma) // 4)
    for c, coeff in terms.items():
        assert terms.get(tuple(-x for x in c)) == sign * coeff
        gc = [sum(map(mul, row, c)) for row in gram]
        if d.simple_type:
            assert sum(map(mul, c, gc)) == 2 * chi + 3 * sigma
        if d.torus_index is not None:
            assert gc[d.torus_index] == 0
    assert mod2_basic_class_count(d) == sum(coeff & 1 for coeff in terms.values())


# ----- catalog files -----

def test_catalog_file_round_trip(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({
        "knots": {
            "t25": "torus(2,5)",
            "fig8": {"coeffs": {"-1": -1, "0": 3, "1": -1}},
        },
        "manifolds": {"X": "knot_surgery(E(2), t25)"},
    }))
    catalog = Catalog.load(path)
    assert laurent_coeffs(catalog.knots["t25"].poly) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    assert laurent_coeffs(catalog.knots["fig8"].poly) == {-1: -1, 0: 3, 1: -1}
    m = eval_expr(parse("X # S2xS2", catalog), catalog)
    assert m.b2_plus == 4


def test_catalog_self_reference_rejected(tmp_path):
    """A catalog that refers to itself is refused when it loads."""
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"manifolds": {"X": "X # S4"}}))
    with pytest.raises(GuardViolation, match="^catalog entries form a cycle: X -> X$"):
        Catalog.load(path)


def test_catalog_entries_evaluate_once_per_catalog(tmp_path, monkeypatch):
    """A doubling chain Y_i = Y_{i+1} # Y_{i+1} parses each entry's text once,
    when it loads, and sums each entry once however often it is named or
    evaluated, not once per reference (2^12 - 1 sums)."""
    entries = {f"Y{i}": f"Y{i + 1} # Y{i + 1}" for i in range(12)}
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps({"manifolds": {**entries, "Y12": "K3"}}))
    sources = [*entries.values(), "K3"]
    tokenize, texts, sums = expressions._tokenize, [], []
    monkeypatch.setattr(expressions, "_tokenize",
                        lambda text: texts.append(text) or tokenize(text))
    catalog = Catalog.load(path)
    assert sorted(text for text in texts if text in sources) == sorted(sources)
    tree = parse("Y0", catalog)
    texts.clear()
    monkeypatch.setattr(expressions, "connected_sum_all",
                        lambda parts, counts: sums.append(1) or connected_sum_all(parts, counts))
    assert eval_expr(tree, catalog).b2_plus == eval_expr(tree, catalog).b2_plus == 3 * 2**12
    assert (texts, len(sums)) == ([], 12)


@pytest.mark.parametrize("text, position", [("Y # " + "~" * 97 + "Y", 101),
                                            ("~" * 97 + "Y # Y", 97)],
                         ids=["level_0_first", "level_97_first"])
def test_entry_refusal_does_not_depend_on_order(tmp_path, text, position):
    """Y opens four levels, itself and its three '~': it parses at depth 96 and is
    refused where it is named at depth 97, in either order."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"manifolds": {"Y": "~~~K3"}}))
    catalog = Catalog.load(path)
    assert eval_expr(parse("~" * 96 + "Y # Y", catalog), catalog).chi == 46
    with pytest.raises(ExprSyntaxError, match="^nesting deeper than 100 levels$") as err:
        parse(text, catalog)
    assert err.value.position == position


def test_catalog_may_override_trefoil(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"knots": {"trefoil": "torus(2,5)"}}))
    poly = Catalog.load(path).knots["trefoil"].poly
    assert laurent_coeffs(poly) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}


def test_default_catalog_has_trefoil():
    catalog = Catalog()
    assert "trefoil" in catalog.knots
    assert laurent_coeffs(catalog.knots["unknot"].poly) == {0: 1}


def test_catalog_builds_no_knot(monkeypatch):
    """The named knots are built once, not for every catalog."""
    built = []
    for name in ("unknot", "torus_knot", "alexander_family"):
        monkeypatch.setattr(expressions, name, lambda *args, name=name: built.append(name))
    Catalog()
    assert built == []


def test_catalog_redefining_trefoil_leaves_fresh_catalogs_unchanged(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"knots": {"trefoil": "torus(2,5)"}}))
    Catalog.load(path)
    assert laurent_coeffs(Catalog().knots["trefoil"].poly) == {1: 1, 0: -1, -1: 1}


# ----- nesting bound -----

@pytest.mark.parametrize("opener, closer", [
    ("~", ""), ("knot_surgery(", ", unknot)"), ("blowup(", ",1)")],
    ids=["reverse", "knot_surgery", "blowup"])
def test_nesting_bound_is_exact(opener, closer):
    """MAX_NESTING levels parse and evaluate; one more is refused at the
    token that opens it."""
    deepest = opener * MAX_NESTING + "K3" + closer * MAX_NESTING
    assert eval_expr(parse(deepest)).b2_plus == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse(opener * (MAX_NESTING + 1) + "K3" + closer * (MAX_NESTING + 1))
    assert err.value.position == len(opener) * MAX_NESTING


def test_nesting_counts_every_kind_and_ignores_closed_levels():
    half = MAX_NESTING // 2
    mixed = "~" * half + "blowup(" * half + "K3" + ",1)" * half
    assert eval_expr(parse(mixed)).b2_plus == 3
    with pytest.raises(ExprSyntaxError):
        parse("~" + mixed)
    # closed levels do not count, and logtx( is no level
    wide = " # ".join([mixed] * 3 + ["~" * MAX_NESTING + "logtx(2,1)"])
    assert parse(wide).runs[-1] == (1, parse("~" * MAX_NESTING + "logtx(2,1)"))


def _catalog_chain(tmp_path, tildes) -> Catalog:
    """Entries X0 -> X1 -> ... -> K3, entry i with tildes[i] '~' before the next."""
    names = [f"X{i}" for i in range(len(tildes))] + ["K3"]
    entries = {name: "~" * t + after for name, t, after in zip(names, tildes, names[1:])}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"manifolds": entries}))
    return Catalog.load(path)


def test_catalog_chain_bound_is_exact(tmp_path):
    """A chain of 100 entries loads and evaluates; one of 101 is refused when it
    loads, where the 100th entry names the 101st."""
    catalog = _catalog_chain(tmp_path, [0] * MAX_NESTING)
    assert eval_expr(parse("X0", catalog), catalog).chi == 24
    with pytest.raises(ExprSyntaxError) as err:
        _catalog_chain(tmp_path, [0] * (MAX_NESTING + 1))
    assert (str(err.value), err.value.position) == (
        "in catalog entry X99: nesting deeper than 100 levels", 0)


@pytest.mark.parametrize("tildes, levels", [((49, 49), 100), ((49, 50), 101),
                                            ((99,), 100), ((100,), 101)],
                         ids=["49+49", "49+50", "99", "100"])
def test_levels_add_up_across_catalog_entries(tmp_path, tildes, levels):
    """Each entry on the path is one level and each of its '~' one more, so
    entries that each parse within the bound can still pass it together: the
    catalog is refused when it loads, at the last entry's last '~'."""
    assert len(tildes) + sum(tildes) == levels
    if levels <= MAX_NESTING:
        catalog = _catalog_chain(tmp_path, tildes)
        assert eval_expr(parse("X0", catalog), catalog).chi == 24
    else:
        with pytest.raises(ExprSyntaxError) as err:
            _catalog_chain(tmp_path, tildes)
        assert (str(err.value), err.value.position) == (
            f"in catalog entry X{len(tildes) - 1}: nesting deeper than 100 levels",
            tildes[-1] - 1)
