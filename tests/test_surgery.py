import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from swcalc.errors import GuardViolation
from swcalc.groupring import FgAbelianGroup, GroupRingElement, laurent, laurent_coeffs
from swcalc.knot import alexander_family, torus_knot, unknot
from swcalc.manifold import SWInfo, builtin, homeo_type, mod2_basic_class_count
from swcalc.surgery import (_standard_kind, blowup, connected_sum, connected_sum_all,
                            dissolve, knot_surgery, log_transform,
                            stabilization_equivalence)


def expand_mod2(descriptor):
    """Independent expansion oracle: multiset of exponent vectors with odd
    multiplicity, computed from scratch."""
    poly = descriptor.sw.poly
    counts = {}
    for elem, coeff in poly.terms.items():
        counts[elem.free] = counts.get(elem.free, 0) + coeff
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
    for elem in m.sw.poly.support():
        exps = dict(zip(m.intersection.tracked_basis, elem.free))
        assert m.intersection.square(exps) == target


def test_blowup_propagates_unknown():
    m = blowup(builtin("S2xS2"), 1)
    assert m.sw.status == "unknown"
    assert m.b2_minus == 2


def test_iterated_blowup_names_fresh():
    m = blowup(blowup(builtin("E", 2), 1), 1)
    assert m.intersection.tracked_basis == ("T", "E1", "E2")


def embed_and_multiply_blowup(a, m):
    """The polynomial of blowup(a, m) as a's polynomial embedded into the
    larger group and multiplied by each E_j + E_j^-1 in turn."""
    n_old = a.sw.poly.ambient.free_rank
    g = FgAbelianGroup(n_old + m)
    poly = a.sw.poly.embed(g, free_map=tuple(range(n_old)))
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
        assert blowup(a, m).sw.poly == embed_and_multiply_blowup(a, m)


# ----- knot surgery -----

def test_knot_surgery_trefoil():
    m = knot_surgery(builtin("E", 2), torus_knot(2, 3))
    assert laurent_coeffs(m.sw.poly) == {2: 1, 0: -1, -2: 1}
    assert mod2_basic_class_count(m) == 3


def test_knot_surgery_unknot_is_identity_on_sw():
    m = knot_surgery(builtin("E", 2), unknot())
    assert m.sw.poly == builtin("E", 2).sw.poly


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
    product = knot_surgery(e2, k1 * k2)
    assert twice.sw.poly == product.sw.poly


def test_knot_surgery_on_blowup():
    base = blowup(builtin("E", 2), 1)
    m = knot_surgery(base, alexander_family(1, 2))
    assert mod2_basic_class_count(m) == 5 * 2


# ----- logarithmic transform -----

def test_log_transform_small_cases():
    assert laurent_coeffs(log_transform(2, 3).sw.poly) == {2: 1, 0: 1, -2: 1}
    assert laurent_coeffs(log_transform(2, 1).sw.poly) == {0: 1}
    m = log_transform(4, 2)
    assert mod2_basic_class_count(m) == 4


def test_log_transform_counts_match_multiplicity():
    for r in range(1, 26):
        assert mod2_basic_class_count(log_transform(2, r)) == r


def test_log_transform_fingerprint():
    m = log_transform(2, 7)
    assert m.fingerprint == builtin("E", 2).fingerprint
    assert m.torus_class == "T"


def test_log_transform_matches_summed_comb():
    g = FgAbelianGroup(1)
    for two_n in (2, 4, 6):
        for r in range(1, 61):
            t_r = GroupRingElement.monomial(g, (r,))
            t_mr = GroupRingElement.monomial(g, (-r,))
            comb = GroupRingElement.zero(g)
            for j in range(r):
                comb = comb + GroupRingElement.monomial(g, (r - 1 - 2 * j,))
            expected = (t_r - t_mr) ** (two_n - 2) * comb
            assert log_transform(two_n, r).sw.poly == expected


def test_log_transform_guards():
    with pytest.raises(GuardViolation):
        log_transform(3, 2)
    with pytest.raises(GuardViolation):
        log_transform(2, 0)


# ----- stabilization equivalence -----

def test_stabilization_record():
    e2 = builtin("E", 2)
    m = knot_surgery(e2, torus_knot(2, 3))
    record = stabilization_equivalence(m, e2)
    assert record.kind == "one_stabilization"
    assert record.knot == "torus(2,3)"
    assert record.fingerprint == e2.fingerprint


def test_stabilization_identity():
    e2 = builtin("E", 2)
    assert stabilization_equivalence(e2, e2).kind == "identity"


def test_stabilization_fingerprint_mismatch():
    m = knot_surgery(builtin("E", 2), torus_knot(2, 3))
    with pytest.raises(GuardViolation) as err:
        stabilization_equivalence(m, builtin("E", 3))
    assert "fingerprint" in str(err.value).lower()


def test_stabilization_missing_lineage():
    e2 = builtin("E", 2)
    lt = log_transform(2, 3)
    with pytest.raises(GuardViolation):
        stabilization_equivalence(lt, e2)


# ----- dissolution -----

def test_standard_kind_of_each_piece():
    k3 = builtin("E", 2)
    assert _standard_kind(builtin("K3")) == _standard_kind(k3) == "K3"
    assert _standard_kind(replace(k3, sw=SWInfo.known(-k3.sw.poly))) == "K3"
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
    assert v.canonical_counts == ("even", 1, 1, 1)
    exotic = dissolve([log_transform(2, 3), builtin("S2xS2")])
    assert exotic.canonical_counts == ("even", 1, 1, 1)
    assert any("elliptic_stabilization" in r for r in exotic.rule_trace)


def test_dissolve_cp2_rule():
    v = dissolve([builtin("E", 2), builtin("CP2")])
    assert v.canonical_counts == ("odd", 4, 19, 1)


def test_dissolve_four_e2():
    v = dissolve([builtin("E", 2)] * 4 + [builtin("S2xS2")])
    assert v.canonical_counts == ("even", 1, 4, 1)


def test_dissolve_long_sum_without_recursion():
    # a 1200-fold sum once raised RecursionError after half a minute
    v = dissolve([connected_sum_all([builtin("E", 2)] * 1200)])
    assert v.status == "dissolved"
    assert v.canonical_counts == ("even", 0, 1200, 1)


def test_dissolve_knot_surgered_factors():
    m = knot_surgery(builtin("E", 2), alexander_family(1, 1))
    v = dissolve([m] * 4 + [builtin("S2xS2")])
    assert v.canonical_counts == ("even", 1, 4, 1)


def test_dissolve_knot_surgered_with_cp2_only_is_unknown():
    m = knot_surgery(builtin("E", 2), alexander_family(1, 1))
    v = dissolve([m, builtin("CP2")])
    assert v.status == "unknown"


def test_dissolve_standard_pieces_only():
    v = dissolve([builtin("S2xS2")] * 3)
    assert v.canonical_counts == ("even", 3, 0, 1)


def test_dissolve_mixed_parity_normalizes():
    v = dissolve([builtin("S2xS2"), builtin("CP2")])
    assert v.canonical_counts == ("odd", 2, 1, 1)


def test_dissolve_k3_with_only_antiblowups_is_stuck():
    v = dissolve([builtin("K3"), builtin("CP2bar")])
    assert v.status == "unknown"


def test_dissolve_empty_is_trivial():
    v = dissolve([builtin("S4")])
    assert v.canonical_counts == ("even", 0, 0, 1)


def test_dissolve_blown_up_elliptic_chain():
    base = blowup(builtin("E", 2), 1)
    v = dissolve([base] * 4 + [builtin("S2xS2")])
    assert v.canonical_counts == ("odd", 13, 81, 1)


def test_dissolve_requires_simply_connected():
    with pytest.raises(GuardViolation):
        dissolve([builtin("S1xS3")])


def test_dissolve_non_elliptic_nonstandard_is_unknown():
    from swcalc.manifold import reverse_orientation
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
    assert (v.status, v.canonical_counts) == (w.status, w.canonical_counts)


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
