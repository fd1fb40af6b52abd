import contextlib
import io
import itertools
import json
import math
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataclasses import replace

from swcalc import surgery
from swcalc.cli import run_command
from swcalc.equivariant import exotic_family, hat_s1_l
from swcalc.errors import GuardViolation
from swcalc.expressions import Catalog, eval_expr, parse, render
from swcalc.groupring import FgAbelianGroup, GroupRingElement, laurent
from swcalc.knot import AlexanderPoly, alexander_family, torus_knot, unknot
from swcalc.manifold import (HomeoType, IntersectionData, ManifoldDescriptor, SWInfo, builtin,
                             homeo_type, mod2_basic_class_count, reverse_orientation)
from swcalc.surgery import (_standard_kind, blowup, connected_sum, connected_sum_all,
                            dissolve, knot_surgery, log_transform)

from oracles import class_square, dissolve_flat, fold_sum, laurent_coeffs, signed_binomial


def expand_mod2(descriptor):
    """Independent expansion oracle: multiset of exponent vectors with odd
    multiplicity, computed from scratch."""
    poly = descriptor.sw.poly.expand()
    counts = {}
    # the polynomial is torsion-free, so a key is its free exponent vector
    for free, coeff in poly.terms.items():
        counts[free] = counts.get(free, 0) + coeff
    return {k for k, v in counts.items() if v % 2}


# ----- connected sum -----

def test_chi_additivity_example():
    e2 = builtin("E", 2)
    assert connected_sum(e2, e2).chi == 46


def test_sum_of_positive_b2plus_kills_sw():
    e2 = builtin("E", 2)
    m = connected_sum(e2, e2)
    assert m.sw.is_zero


def test_sum_parities():
    e2 = builtin("E", 2)
    assert connected_sum(e2, builtin("S2xS2")).spin
    assert not connected_sum(e2, builtin("CP2bar")).spin


def test_sum_with_trivial_summand_is_identity():
    e3 = builtin("E", 3)
    m = connected_sum(e3, builtin("S4"))
    assert m.sw == e3.sw
    assert m.fingerprint == e3.fingerprint


def test_sum_with_cp2bar_delegates_to_blowup():
    m = connected_sum(builtin("E", 2), builtin("CP2bar"))
    assert mod2_basic_class_count(m) == 2
    assert m.b2_minus == 20
    m2 = connected_sum(builtin("CP2bar"), builtin("E", 2))
    assert mod2_basic_class_count(m2) == 2


@settings(max_examples=40)
@given(st.lists(st.sampled_from(["S4", "CP2", "CP2bar", "S2xS2", "K3", "S1xS3"]),
                min_size=1, max_size=5))
def test_chi_additivity_property(names):
    factors = [builtin(n) for n in names]
    total = connected_sum_all(factors)
    assert total.chi == sum(f.chi for f in factors) - 2 * (len(factors) - 1)
    assert total.b2_plus == sum(f.b2_plus for f in factors)
    assert total.b2_minus == sum(f.b2_minus for f in factors)


# ----- blowup -----

def test_blowup_e2_twice():
    m = blowup(builtin("E", 2), 2)
    assert m.sw_render() == ("E1^-1*E2^-1 + E1^-1*E2 + E1*E2^-1 + E1*E2")
    assert mod2_basic_class_count(m) == 4
    assert not m.spin
    assert m.chi == 26 and m.sigma == -18


def test_blowup_e3_once():
    m = blowup(builtin("E", 3), 1)
    assert mod2_basic_class_count(m) == 4
    assert expand_mod2(m) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_blowup_class_squares():
    m = blowup(builtin("E", 2), 2)
    target = 2 * m.chi + 3 * m.sigma
    assert target == -2
    for free in m.sw.poly.expand().free_exponents():
        assert class_square(m.intersection, free) == target


def test_blowup_propagates_unknown():
    m = blowup(builtin("S2xS2"), 1)
    assert m.sw.status == "unknown"
    assert m.b2_minus == 2


@pytest.mark.parametrize("base, simple_type", [
    (builtin("S4"), True),
    (connected_sum(builtin("E", 2), builtin("E", 2)), None)])
def test_blowup_keeps_a_known_zero_and_its_simple_type(base, simple_type):
    m = blowup(base, 1)
    assert m.sw.status == "zero" and m.simple_type is simple_type
    assert mod2_basic_class_count(m) == 0


def test_empty_sum_is_s4():
    assert connected_sum_all([]) == builtin("S4")


def test_iterated_blowup_names_fresh():
    m = blowup(blowup(builtin("E", 2), 1), 1)
    assert m.intersection.tracked_basis == ("T", "E1", "E2")


def test_blowup_of_a_sum_names_fresh_from_its_runs():
    m = blowup(connected_sum_all([blowup(builtin("E", 2), 1)], [3]), 1)
    assert m.intersection.tracked_basis == ("T", "E1", "T_2", "E1_2", "T_3", "E1_3", "E2")


def test_blowup_of_a_large_sum_does_not_write_out_its_names():
    s = connected_sum_all([builtin("E", 2)], [10**6])
    start = time.perf_counter()
    m = blowup(s, 1)
    assert time.perf_counter() - start < 0.1
    assert m.intersection.runs[-1] == (("E1",), (((-1,),),), 1)
    assert m.intersection.rank == 10**6 + 1


def embed_and_multiply_blowup(a, m):
    """The polynomial of blowup(a, m) as a's polynomial embedded into the
    larger group and multiplied by each E_j + E_j^-1 in turn."""
    poly = a.sw.poly.expand()
    n_old = poly.ambient.free_rank
    g = FgAbelianGroup(n_old + m)
    poly = poly.embed(g, free_map=tuple(range(n_old)))
    for j in range(m):
        unit = tuple(1 if t == n_old + j else 0 for t in range(n_old + m))
        poly = poly * (GroupRingElement.monomial(g, unit)
                       + GroupRingElement.monomial(g, tuple(-x for x in unit)))
    return poly


@pytest.mark.parametrize("m", range(1, 8))
def test_blowup_matches_embed_and_multiply(m):
    pool = [builtin("E", 2), builtin("E", 3), builtin("E", 4),
            knot_surgery(builtin("E", 3), torus_knot(2, 5)), blowup(builtin("E", 3), 2)]
    for a in pool:
        assert blowup(a, m).sw.poly.expand() == embed_and_multiply_blowup(a, m)


def test_forty_blowups_of_e2_stay_factored():
    m = blowup(builtin("E", 2), 40)
    assert mod2_basic_class_count(m) == 2 ** 40
    assert m.simple_type is True
    assert m.sw.poly.blowups == 40 and m.sw.poly.core == builtin("E", 2).sw.poly.expand()
    verdict = dissolve([m, builtin("CP2")])
    assert verdict.status == "dissolved"
    assert verdict.form.display() == "4*CP2 # 59*CP2bar"


# ----- knot surgery -----

def test_knot_surgery_trefoil():
    m = knot_surgery(builtin("E", 2), torus_knot(2, 3))
    assert laurent_coeffs(m.sw.poly.expand()) == {2: 1, 0: -1, -2: 1}
    assert mod2_basic_class_count(m) == 3


def test_knot_surgery_unknot_is_identity_on_sw():
    m = knot_surgery(builtin("E", 2), unknot())
    assert m.sw.poly.expand() == builtin("E", 2).sw.poly.expand()


def test_knot_surgery_family_counts():
    for d in (1, 2, 3):
        m = knot_surgery(builtin("E", 2), alexander_family(d, 1))
        assert mod2_basic_class_count(m) == 4 * d + 1


def test_knot_surgery_preserves_fingerprint():
    e2 = builtin("E", 2)
    for knot in (torus_knot(2, 3), alexander_family(2, 1)):
        m = knot_surgery(e2, knot)
        assert m.fingerprint == e2.fingerprint
        assert m.torsion_h1 == e2.torsion_h1
        assert m.b1 == e2.b1


def test_knot_surgery_requires_torus():
    with pytest.raises(GuardViolation) as err:
        knot_surgery(builtin("S2xS2"), torus_knot(2, 3))
    assert "torus" in str(err.value)


def test_knot_surgery_requires_known_sw():
    stabilized = connected_sum(builtin("E", 2), builtin("E", 2))
    with pytest.raises(GuardViolation):
        knot_surgery(stabilized, torus_knot(2, 3))


def test_knot_surgery_composition_is_multiplicative():
    e2 = builtin("E", 2)
    k1 = torus_knot(2, 3)
    k2 = alexander_family(1, 1)
    twice = knot_surgery(knot_surgery(e2, k1), k2)
    product = knot_surgery(e2, AlexanderPoly(k1.poly * k2.poly))
    assert twice.sw.poly.expand() == product.sw.poly.expand()


def test_knot_surgery_on_blowup():
    base = blowup(builtin("E", 2), 1)
    m = knot_surgery(base, alexander_family(1, 2))
    assert mod2_basic_class_count(m) == 5 * 2


def test_knot_surgery_past_the_digit_limit_refuses_only_the_print():
    """The print check sits in the renderer: past a lowered digit limit, knot
    surgery on E(n) still multiplies the power out and counts its mod-2
    classes, and only the texts are refused."""
    limit, n = 640, 2200  # C(2198, 1099) has 660 digits
    assert math.comb(n - 2, (n - 2) // 2) >= 10 ** limit
    expected = knot_surgery(builtin("E", n), alexander_family(1, 1))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        base = builtin("E", n)
        member = knot_surgery(base, alexander_family(1, 1))
        assert member == expected
        assert mod2_basic_class_count(member) == mod2_basic_class_count(expected) > 0
        for descriptor in (base, member):
            with pytest.raises(GuardViolation) as err:
                descriptor.sw.poly.render()
            assert err.value.requirement == "within budget"
    finally:
        sys.set_int_max_str_digits(old)
    assert expected.sw_render().startswith("T^")


# ----- logarithmic transform -----

def test_log_transform_small_cases():
    assert laurent_coeffs(log_transform(2, 3).sw.poly.expand()) == {2: 1, 0: 1, -2: 1}
    assert laurent_coeffs(log_transform(2, 1).sw.poly.expand()) == {0: 1}
    m = log_transform(4, 2)
    assert mod2_basic_class_count(m) == 4


def test_log_transform_counts_match_multiplicity():
    for r in range(1, 26):
        assert mod2_basic_class_count(log_transform(2, r)) == r


def test_log_transform_fingerprint():
    m = log_transform(2, 7)
    assert m.fingerprint == builtin("E", 2).fingerprint
    assert m.torus_index == 0


def test_log_transform_matches_summed_comb():
    g = FgAbelianGroup(1)
    for two_n in (2, 4, 6):
        for r in range(1, 61):
            comb = GroupRingElement.zero(g)
            for j in range(r):
                comb = comb + GroupRingElement.monomial(g, (r - 1 - 2 * j,))
            expected = signed_binomial(two_n - 2, r) * comb
            assert log_transform(two_n, r).sw.poly.expand() == expected


def test_log_transform_guards():
    with pytest.raises(GuardViolation):
        log_transform(3, 2)
    with pytest.raises(GuardViolation):
        log_transform(2, 0)


# ----- dissolution -----

def test_standard_kind_of_each_piece():
    k3 = builtin("E", 2)
    assert _standard_kind(builtin("K3")) == _standard_kind(k3) == "K3"
    assert _standard_kind(replace(k3, sw=SWInfo.known(-k3.sw.poly.expand()))) == "K3"
    surgered = knot_surgery(k3, torus_knot(2, 3))
    assert surgered.fingerprint == k3.fingerprint
    assert _standard_kind(surgered) is None
    # one monomial away from the identity is not the K3 polynomial
    assert _standard_kind(replace(k3, sw=SWInfo.known(laurent({2: 1})))) is None
    assert _standard_kind(log_transform(2, 3)) is None
    for name in ("S4", "CP2", "CP2bar", "S2xS2"):
        assert _standard_kind(builtin(name)) == name
    for d in (builtin("E", 3), blowup(k3, 1), builtin("S1xS3")):
        assert _standard_kind(d) is None


def test_dissolve_elliptic_stabilization():
    v = dissolve([builtin("E", 2), builtin("S2xS2")])
    assert v.form == HomeoType("even", 1, 1, 1)
    exotic = dissolve([log_transform(2, 3), builtin("S2xS2")])
    assert exotic.form == HomeoType("even", 1, 1, 1)
    assert any("elliptic_stabilization" in r for r in exotic.rule_trace)


def test_dissolve_cp2_rule():
    v = dissolve([builtin("E", 2), builtin("CP2")])
    assert v.form == HomeoType("odd", 4, 19, 1)


def test_dissolve_four_e2():
    v = dissolve([builtin("E", 2)] * 4 + [builtin("S2xS2")])
    assert v.form == HomeoType("even", 1, 4, 1)


def test_dissolve_long_sum_without_recursion():
    # a 1200-fold sum once raised RecursionError after half a minute
    v = dissolve([connected_sum_all([builtin("E", 2)] * 1200)])
    assert v.status == "dissolved"
    assert v.form == HomeoType("even", 0, 1200, 1)


def test_dissolve_knot_surgered_factors():
    m = knot_surgery(builtin("E", 2), alexander_family(1, 1))
    v = dissolve([m] * 4 + [builtin("S2xS2")])
    assert v.form == HomeoType("even", 1, 4, 1)


def test_dissolve_knot_surgered_with_cp2_only_is_unknown():
    m = knot_surgery(builtin("E", 2), alexander_family(1, 1))
    v = dissolve([m, builtin("CP2")])
    assert v.status == "unknown"


def test_dissolve_standard_pieces_only():
    v = dissolve([builtin("S2xS2")] * 3)
    assert v.form == HomeoType("even", 3, 0, 1)


def test_dissolve_mixed_parity_normalizes():
    v = dissolve([builtin("S2xS2"), builtin("CP2")])
    assert v.form == HomeoType("odd", 2, 1, 1)


def test_dissolve_k3_with_only_antiblowups_is_stuck():
    v = dissolve([builtin("K3"), builtin("CP2bar")])
    assert v.status == "unknown"


def test_dissolve_empty_is_trivial():
    v = dissolve([builtin("S4")])
    assert v.form == HomeoType("even", 0, 0, 1)


def test_dissolve_blown_up_elliptic_chain():
    base = blowup(builtin("E", 2), 1)
    v = dissolve([base] * 4 + [builtin("S2xS2")])
    assert v.form == HomeoType("odd", 13, 81, 1)


def test_dissolve_requires_simply_connected():
    with pytest.raises(GuardViolation):
        dissolve([builtin("S1xS3")])


def test_dissolve_non_elliptic_nonstandard_is_unknown():
    v = dissolve([reverse_orientation(builtin("E", 3))])
    assert v.status == "unknown"


def test_dissolve_preserves_fingerprint_data():
    factors = [builtin("E", 3), builtin("S2xS2"), builtin("CP2bar")]
    v = dissolve(factors)
    assert v.status == "dissolved"
    assert v.form.parity == "odd"
    assert v.form.n == sum(f.b2_plus for f in factors)
    assert v.form.m == sum(f.b2_minus for f in factors)


# ----- order independence -----

TREFOIL = torus_knot(2, 3)
POOL = (builtin("E", 2), builtin("E", 3), builtin("K3"),
        knot_surgery(builtin("E", 2), TREFOIL), knot_surgery(builtin("E", 3), TREFOIL),
        blowup(builtin("E", 2), 1), builtin("CP2"), builtin("CP2bar"),
        builtin("S2xS2"))
pool_sums = st.lists(st.sampled_from(POOL), min_size=2, max_size=5)


@settings(max_examples=200, deadline=None)
@given(pool_sums, st.data())
def test_dissolve_verdict_ignores_factor_order(factors, data):
    permuted = data.draw(st.permutations(factors))
    v, w = dissolve(factors), dissolve(permuted)
    assert (v.status, v.form) == (w.status, w.form)


# summands of b2+ = 0 that are not absorbed, beside the pool
ORDER_POOL = POOL + (builtin("S4"), builtin("S1xS3"), hat_s1_l([2], 2).descriptor,
                     reverse_orientation(builtin("CP2")))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(ORDER_POOL), min_size=2, max_size=4))
@example([builtin("E", 2), builtin("E", 2), builtin("CP2bar")])
def test_sum_polynomial_ignores_summand_order(factors):
    """Every order of the summands gives one status and one mod-2 count."""
    answers = {(m.sw.status, mod2_basic_class_count(m))
               for m in map(connected_sum_all, itertools.permutations(factors))}
    assert len(answers) == 1


@settings(max_examples=200, deadline=None)
@given(pool_sums)
def test_dissolved_form_is_homeo_type_of_sum(factors):
    v = dissolve(factors)
    if v.status == "dissolved":
        assert v.form == homeo_type(connected_sum_all(factors))


def test_dissolve_uses_later_factor_first():
    ks = knot_surgery(builtin("E", 2), TREFOIL)
    v = dissolve([ks, builtin("E", 3), builtin("CP2")])
    assert v.status == "dissolved"
    assert v.form.display() == "9*CP2 # 48*CP2bar"


def test_dissolve_pool_count():
    multisets = [m for n in range(2, 6)
                 for m in itertools.combinations_with_replacement(POOL, n)]
    assert len(multisets) == 1992
    assert sum(dissolve(m).status == "dissolved" for m in multisets) == 1129


# ----- runs of equal summands against the copy-by-copy oracle -----

RUN_POOL = ("E(2)", "E(3)", "K3", "S4", "CP2", "CP2bar", "S2xS2", "hat(2)",
            "knot_surgery(E(2),trefoil)", "blowup(E(2),1)")
RUN_DESCRIPTORS = {text: eval_expr(parse(text)) for text in RUN_POOL}


def _verdict(factors, dissolver):
    try:
        return dissolver(factors).to_json_dict()
    except GuardViolation:
        return "refused"


def _eval_bytes(text: str, *options: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(["eval", text, *options]) == 0
    return out.getvalue()


def _as_runs(copies: list[str]) -> list[str]:
    """Each run of equal adjacent copies written as n*X."""
    return [f"{len(list(group))}*{text}" for text, group in itertools.groupby(copies)]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(RUN_POOL), st.integers(1, 6), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
# seed 5 leaves the CP2 copies first, so the homeomorphism type displays as
# the compact expression itself
@example({"CP2": 2, "CP2bar": 2}, random.Random(5))
def test_runs_match_the_copy_by_copy_fold(multiplicities, rng):
    copies = [text for text, n in multiplicities.items() for _ in range(n)]
    rng.shuffle(copies)
    factors = [RUN_DESCRIPTORS[text] for text in copies]
    runs, oracle = connected_sum_all(factors), fold_sum(factors)
    assert runs.to_json_dict() == oracle.to_json_dict()
    assert runs == oracle and hash(runs) == hash(oracle)
    assert _verdict([runs], dissolve) == _verdict([oracle], dissolve_flat) \
        == _verdict(factors, dissolve)
    # the CLI prints every run written as n*X, and one run split as a*X # b*X,
    # as it prints the spelled-out sum, but for the "expression" line itself
    cuts = [j for j in range(1, len(copies)) if copies[j - 1] == copies[j]]
    cut = rng.choice(cuts) if cuts else len(copies)
    spelled = " # ".join(copies)
    for compact in (" # ".join(_as_runs(copies)),
                    " # ".join(_as_runs(copies[:cut]) + _as_runs(copies[cut:]))):
        printed = [f'"expression": {json.dumps(render(parse(text)))}'
                   for text in (compact, spelled)]
        assert _eval_bytes(compact).replace(*printed) == _eval_bytes(spelled)


def test_a_catalog_sum_prints_as_its_spelled_out_sum(tmp_path):
    """A summand that is itself a sum names its copies from its leaves' base
    names, so a catalog sum prints what the spelled-out sum prints."""
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"manifolds": {"X": "E(2) # E(2)"}}))
    for compact, spelled in (("K3 # X", "K3 # E(2) # E(2)"), ("X # X", "4*E(2)")):
        printed = [f'"expression": {json.dumps(render(parse(text, Catalog.load(path))))}'
                   for text in (compact, spelled)]
        assert _eval_bytes(compact, "--catalog", str(path)).replace(*printed) \
            == _eval_bytes(spelled)
    twice = json.loads(_eval_bytes("blowup(E(2) # E(2),1) # blowup(E(2) # E(2),1)"))
    assert twice["intersection"]["tracked_basis"] == ["T", "T_2", "E1", "T_3", "T_4", "E1_2"]


def test_dissolve_classifies_each_run_once(monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        return _standard_kind(d)

    monkeypatch.setattr(surgery, "_standard_kind", counted)
    total = connected_sum_all([builtin("E", 2)] * 100_000 + [builtin("S2xS2")])
    assert dissolve([total]).form == HomeoType("even", 1, 100_000)
    assert len(calls) == 2


def test_family_target_of_a_large_k_is_read_from_runs():
    report = exotic_family("k3_knot", hat_s1_l([2], 2, k=100_000), 1)
    assert report["target"]["fingerprint"] == [True, 600001, 3800001, "even"]
    assert report["target"]["dissolved"]["display"] == "1*(S2xS2) # 200000*K3"
    assert report["covering_consistent"] is True


@pytest.mark.parametrize("texts, counts", [
    (("knot_surgery(E(2),trefoil)", "E(3)", "CP2"), (2, 3, 1)),
    (("knot_surgery(E(2),trefoil)", "CP2", "E(3)", "CP2bar"), (3, 2, 4, 1)),
    (("blowup(E(2),1)", "S2xS2", "K3", "CP2"), (5, 2, 3, 1)),
], ids=["cp2_rule_behind_a_knot_factor", "swap_first", "odd_stabilization"])
def test_dissolve_counts_stand_for_copies(texts, counts):
    factors = [RUN_DESCRIPTORS.get(text) or eval_expr(parse(text)) for text in texts]
    flat = [f for f, n in zip(factors, counts) for _ in range(n)]
    assert dissolve(factors, counts) == dissolve_flat(flat) == dissolve(flat)
    assert connected_sum_all(factors, counts).to_json_dict() == fold_sum(flat).to_json_dict()


def test_counts_below_one_are_refused():
    for build in (connected_sum_all, dissolve):
        with pytest.raises(GuardViolation):
            build([builtin("E", 2), builtin("S2xS2")], [2, 0])


def test_runs_of_a_known_summand_of_b2plus_zero():
    """A known summand of simple type with b2+ = 0 is absorbed by the blowup
    rule once the sum before it has CP2bar's fingerprint, so its copies are
    summed one at a time until then."""
    even = ManifoldDescriptor("A", True, 0, 0, 8, (), True, SWInfo.unknown(),
                              IntersectionData(minus_count=8))
    odd = ManifoldDescriptor("X", True, 0, 0, 4, (), False, SWInfo.known(laurent({0: 1})),
                             IntersectionData.leaf(("U",), (((-1,),),), minus_count=3),
                             simple_type=True)
    factors = [even, odd, odd, odd]
    runs, oracle = connected_sum_all(factors), fold_sum(factors)
    assert runs.to_json_dict() == oracle.to_json_dict()
    assert runs.sw.is_known
