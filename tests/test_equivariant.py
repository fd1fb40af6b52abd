import contextlib
import io
import itertools
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcalc.cli import run_command
from swcalc.equivariant import (BINARY_ICOSAHEDRAL, BINARY_OCTAHEDRAL,
                                BINARY_TETRAHEDRAL, NCatalogEntry, bf_simplify,
                                covering_consistency, cyclic_space_form,
                                exotic_family, gmonopole_polynomial, hat_s1_l,
                                match_space_form, n_catalog, quaternionic_space_form,
                                space_form_candidates)
from swcalc.errors import GuardViolation
from swcalc.groupring import FactoredElement, FgAbelianGroup, GroupRingElement, TermRenderer
from swcalc.knot import AlexanderPoly, alexander_family, torus_knot
from swcalc.manifold import (IntersectionData, ManifoldDescriptor, SWInfo, builtin,
                             mod2_basic_class_count, reverse_orientation)
from swcalc.surgery import blowup, connected_sum, knot_surgery, log_transform

from oracles import (class_square, covering_by_identities, knot_family_members, outcome,
                     signed_binomial, substitute_power)


# ----- space forms and hat entries -----

def test_hat_rp3():
    entry = hat_s1_l([2], 2, k=2)
    d = entry.descriptor
    assert d.chi == 2 and d.b1 == 0 and d.b2 == 0 and d.spin
    assert d.torsion_h1 == (2,)
    assert math.prod(entry.descriptor.torsion_h1) == 2
    assert entry.descriptor.b2_plus == 0
    assert entry.h_order == 2 and entry.space_form == cyclic_space_form(2)


def test_hat_lens5():
    entry = hat_s1_l([5], 5, k=2)
    assert math.prod(entry.descriptor.torsion_h1) == 5
    assert entry.h_order == 5


def test_hat_refuses_trivial_group():
    with pytest.raises(GuardViolation) as err:
        hat_s1_l([], 1)
    assert "l >= 2" in str(err.value)


def test_hat_whitelist_mismatch():
    with pytest.raises(GuardViolation) as err:
        hat_s1_l([3], 4)
    assert "candidates" in str(err.value)


def test_hat_refuses_groups_off_the_whitelist():
    # H1 of the group's order makes the group abelian: Z2 + Z2, Z4 + Z2 and
    # Z2 + Z6 have three elements of order 2, so none acts freely on S^3
    # (Milnor 1957; Z2 + Z2 is H1 of Q8, of order 8), and no group of order 4
    # has H1 = Z3
    for h1_orders, order in (([3], 4), ([2, 2], 4), ([4, 2], 8), ([2, 6], 12)):
        with pytest.raises(GuardViolation) as err:
            hat_s1_l(h1_orders, order)
        assert err.value.requirement == "whitelisted spherical space form"


@pytest.mark.parametrize("h1_orders", ([2, 3], [3, 2], [1, 6]))
def test_hat_reads_h1_in_any_spelling(h1_orders):
    """Z2 + Z3 is Z6: the whitelist compares invariant factors."""
    assert hat_s1_l(h1_orders, 6) == hat_s1_l([6], 6)
    assert match_space_form(6, h1_orders) == cyclic_space_form(6)


@pytest.mark.parametrize("build", [lambda: hat_s1_l([], 0), lambda: space_form_candidates(1),
                                   lambda: match_space_form(1, []), lambda: cyclic_space_form(-3)],
                         ids=["hat_0", "candidates_1", "match_1", "cyclic_-3"])
def test_space_form_order_is_refused_below_2(build):
    """H must be nontrivial: one guard, in ``cyclic_space_form``, refuses each route."""
    with pytest.raises(GuardViolation) as err:
        build()
    assert (str(err.value), err.value.requirement) == \
        ("the fundamental group must be nontrivial (order l >= 2)", "order l >= 2")


def test_space_form_families():
    assert match_space_form(8, [2, 2]).label == "Q8"
    assert match_space_form(12, [4]).label == "Q12"
    assert match_space_form(24, [3]) == BINARY_TETRAHEDRAL
    assert match_space_form(48, [2]) == BINARY_OCTAHEDRAL
    assert match_space_form(120, []) == BINARY_ICOSAHEDRAL
    assert match_space_form(7, [7]).label == "Z7"
    assert match_space_form(6, [5]) is None
    assert quaternionic_space_form(3).h1_orders == (4,)


# ----- catalog -----

def test_catalog_s4():
    entry = n_catalog("S4", k=3)
    assert entry.descriptor.b2_plus == 0
    assert entry.descriptor.b1 == 0


def test_catalog_cp2bar_certified():
    entry = n_catalog("CP2bar", k=2)
    assert entry.descriptor.b2_minus == 1
    # the class of square -1 is the whole form: no tracked block to search
    assert entry.descriptor.intersection.tracked_basis == ()


def test_catalog_builds_only_simply_connected_kinds():
    for kind in ("HatS1L", "S1xLensSum", "Extended"):
        with pytest.raises(GuardViolation) as err:
            n_catalog(kind)
        assert "unknown catalog kind" in str(err.value)


def test_entry_refuses_positive_b2plus():
    with pytest.raises(GuardViolation) as err:
        NCatalogEntry(builtin("S2xS2"), 2)
    assert err.value.requirement == "b2+(N) = 0"


def test_entry_refuses_order_below_two():
    with pytest.raises(GuardViolation) as err:
        NCatalogEntry(builtin("S4"), 1)
    assert err.value.requirement == "k >= 2"


# ----- transfer polynomial -----

def test_gmonopole_knot_surgered_e2():
    m = knot_surgery(builtin("E", 2), torus_knot(2, 3))
    hat = hat_s1_l([2], 2, k=2)
    poly = gmonopole_polynomial(m, hat)
    assert poly.monomial_count() == 6
    assert poly.render(("T",)) == "T^-2 + T^-2*a + 1 + a + T^2 + T^2*a"


def test_gmonopole_trivial_torsion():
    poly = gmonopole_polynomial(builtin("E", 2), n_catalog("S4", k=3))
    assert poly.monomial_count() == 1


def test_gmonopole_known_zero():
    m = connected_sum(builtin("E", 2), builtin("E", 2))
    hat = hat_s1_l([2], 2, k=2)
    assert gmonopole_polynomial(m, hat).monomial_count() == 0


def test_gmonopole_requires_b2plus_above_one():
    hat = hat_s1_l([2], 2, k=2)
    with pytest.raises(GuardViolation) as err:
        gmonopole_polynomial(builtin("S2xS2"), hat)
    assert "b2+" in str(err.value)


def test_gmonopole_refuses_unknown_polynomial():
    m = reverse_orientation(builtin("E", 3))
    assert m.b2_plus == 29 and m.sw.status == "unknown"
    with pytest.raises(GuardViolation) as err:
        gmonopole_polynomial(m, hat_s1_l([2], 2))
    assert err.value.requirement == "SW polynomial known or known zero"


def test_gmonopole_count_factorization():
    hats = [hat_s1_l([2], 2, k=2), hat_s1_l([5], 5, k=2),
            hat_s1_l([2, 2], 8, k=2), n_catalog("S4", k=2),
            n_catalog("CP2bar", k=2)]
    manifolds = [builtin("E", 2), builtin("E", 3),
                 knot_surgery(builtin("E", 2), alexander_family(2, 1)),
                 blowup(builtin("E", 2), 1)]
    for m, entry in itertools.product(manifolds, hats):
        poly = gmonopole_polynomial(m, entry)
        assert poly.monomial_count() == \
            mod2_basic_class_count(m) * math.prod(entry.descriptor.torsion_h1)


def convolution_transfer(poly, entry):
    """The transfer of a polynomial written out: the generic product of its
    embedded mod-2 reduction with the sum of all torsion classes, reduced
    mod 2 again."""
    base = poly.mod2()
    target = FgAbelianGroup(base.ambient.free_rank, entry.descriptor.torsion_h1)
    zeros = (0,) * target.free_rank
    total = GroupRingElement(target, {
        zeros + combo: 1
        for combo in itertools.product(*(range(o) for o in target.torsion_orders))})
    return (base.embed(target) * total).mod2()


def torsion_entry(orders):
    """A summand with H_1 of the given orders, built directly: no whitelisted
    space form has them, and the transfer reads only the torsion."""
    descriptor = ManifoldDescriptor(f"N{list(orders)}", False, 0, 0, 0, orders, True,
                                    SWInfo.unknown(), IntersectionData())
    return NCatalogEntry(descriptor, 2)


TRANSFER_ENTRIES = {
    (): n_catalog("S4", k=2),
    (2,): hat_s1_l([2], 2, k=2),
    (3,): hat_s1_l([3], 3, k=2),
    (4,): hat_s1_l([4], 4, k=2),
    (2, 2): hat_s1_l([2, 2], 8, k=2),
    (2, 4): torsion_entry((2, 4)),
}
TRANSFER_BASES = [builtin("E", 2), builtin("E", 3), builtin("E", 4),
                  blowup(builtin("E", 2), 1), blowup(builtin("E", 3), 2)]


@st.composite
def knot_surgered_members(draw):
    m = draw(st.sampled_from(TRANSFER_BASES))
    for _ in range(draw(st.integers(1, 2))):
        knot = draw(st.one_of(
            st.builds(alexander_family, st.integers(1, 6), st.integers(1, 4)),
            st.builds(torus_knot, st.just(2), st.sampled_from([3, 5, 7]))))
        m = knot_surgery(m, knot)
    return m


@settings(max_examples=60, deadline=None)
@given(knot_surgered_members(), st.sampled_from(sorted(TRANSFER_ENTRIES)))
def test_gmonopole_matches_convolution_transfer(m, orders):
    entry = TRANSFER_ENTRIES[orders]
    assert entry.descriptor.torsion_h1 == orders
    assert gmonopole_polynomial(m, entry).expand() == \
        convolution_transfer(m.sw.poly.expand(), entry)


# ----- the factored form against its expansion -----

FACTORED_ENTRIES = {
    (): n_catalog("S4", k=2),
    (2,): hat_s1_l([2], 2, k=2),
    (3,): hat_s1_l([3], 3, k=2),
    (4,): hat_s1_l([4], 4, k=2),
    (2, 2): hat_s1_l([2, 2], 8, k=2),
    (2, 6): torsion_entry((2, 6)),
}


@st.composite
def factored_members(draw):
    """A member built from E(2), E(3) or E(4) by knot surgeries and at most 8
    blowups in any order, with its polynomial rebuilt by ring products."""
    n = draw(st.sampled_from([2, 3, 4]))
    member, oracle = builtin("E", n), signed_binomial(n - 2, 1)
    for _ in range(draw(st.integers(0, 3))):
        blowups = 8 - (len(member.intersection.tracked_basis) - 1)
        if blowups and draw(st.booleans()):
            m = draw(st.integers(1, blowups))
            member = blowup(member, m)
            r = oracle.ambient.free_rank
            g = FgAbelianGroup(r + m)
            oracle = oracle.embed(g)
            for j in range(r, r + m):
                unit = tuple(int(i == j) for i in range(r + m))
                oracle = oracle * (GroupRingElement.monomial(g, unit)
                                   + GroupRingElement.monomial(g, tuple(-x for x in unit)))
        else:
            knot = draw(st.one_of(
                st.builds(alexander_family, st.integers(1, 4), st.integers(1, 3)),
                st.builds(torus_knot, st.just(2), st.sampled_from([3, 5]))))
            member = knot_surgery(member, knot)
            oracle = oracle * substitute_power(knot.poly, 2).embed(oracle.ambient)
    return member, oracle


@st.composite
def factored_elements(draw):
    """A factored element with 0-3 blowups, torsion (), (2,), (3,) or (2, 2), a
    power of exponent 0-6, over Z or F2, with its expansion by ring products."""
    rank, step, e = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(0, 6))
    slot, blowups = draw(st.integers(0, rank - 1)), draw(st.integers(0, 3))
    torsion, mod2 = draw(st.sampled_from([(), (2,), (3,), (2, 2)])), draw(st.booleans())
    low = draw(st.integers(-3, 3))  # the core spans less than 2*step at the slot
    keys = st.tuples(*[st.integers(low, low + 2 * step - 1) if i == slot else
                       st.integers(-2, 2) for i in range(rank)])
    core = GroupRingElement(FgAbelianGroup(rank),
                            draw(st.dictionaries(keys, st.integers(-3, 3), max_size=4)))
    g, n = FgAbelianGroup(rank + blowups, torsion), rank + blowups + len(torsion)
    oracle = core.embed(g) * signed_binomial(e, step).embed(g, (slot,))
    for j in range(rank, rank + blowups):
        unit = tuple(int(i == j) for i in range(n))
        oracle = oracle * GroupRingElement(g, {unit: 1, tuple(-x for x in unit): 1})
    oracle = oracle * GroupRingElement(g, {(0,) * (n - len(torsion)) + residue: 1
                                           for residue in itertools.product(*map(range, torsion))})
    # over F2 the core is given reduced, like the transfer's
    return (FactoredElement(core.mod2() if mod2 else core, (step, e, slot), blowups, torsion,
                            mod2), oracle.mod2() if mod2 else oracle)


@settings(max_examples=40, deadline=None)
@given(factored_members(), st.sampled_from(sorted(FACTORED_ENTRIES)), factored_elements(),
       st.data())
def test_factored_form_matches_expansion(case, orders, element, data):
    poly, oracle = element
    for factored, expansion in ((poly, oracle), (poly.over_f2(), oracle.mod2())):
        assert factored.expand() == expansion
        assert factored.monomial_count() == expansion.monomial_count()
        assert factored.render() == expansion.render()
        names = ([f"x{i}" for i in range(factored.ambient.free_rank)],
                 [f"g{i}" for i in range(factored.ambient.torsion_rank)])
        assert factored.render(*names) == expansion.render(*names)

    member, expansion = case
    sw = member.sw.poly
    assert sw.expand() == expansion
    assert sw.monomial_count() == expansion.monomial_count()
    assert sw.over_f2().expand() == expansion.mod2()
    assert mod2_basic_class_count(member) == expansion.mod2().monomial_count()
    names = member.intersection.tracked_basis
    for free_names in (None, names):
        assert sw.render(free_names) == expansion.render(free_names)
    short = names[:data.draw(st.integers(0, len(names) - 1))]
    for whole in (sw, expansion):  # a short tuple would drop the exponents it leaves unnamed
        with pytest.raises(ValueError):
            whole.render(short)

    entry = FACTORED_ENTRIES[orders]
    transfer = gmonopole_polynomial(member, entry)
    oracle = convolution_transfer(expansion, entry)
    assert transfer.expand() == oracle
    assert transfer.monomial_count() == oracle.monomial_count()
    assert transfer.monomial_count() == \
        mod2_basic_class_count(member) * math.prod(entry.descriptor.torsion_h1)
    torsion_names = [f"g{i}" for i in range(len(entry.descriptor.torsion_h1))]
    for free_names, torsion_names in ((None, None), (names, None), (names, torsion_names)):
        assert transfer.render(free_names, torsion_names) == \
            oracle.render(free_names, torsion_names)


@settings(max_examples=40, deadline=None)
@given(factored_members(), st.integers(-2, 2))
def test_simple_type_verdict_on_the_core_matches_expansion(case, torus_square):
    """With the torus square changed, the descriptor accepts simple type
    exactly when every expanded monomial has square 2*chi + 3*sigma."""
    member, expansion = case
    inter = member.intersection
    form = IntersectionData.leaf(inter.tracked_basis, (((torus_square,),),) + inter.blocks[1:],
                                 inter.h_count, inter.plus_count, inter.minus_count)
    target = 2 * member.chi + 3 * member.sigma
    expanded = all(class_square(form, v) == target for v in expansion.free_exponents())
    try:
        replace(member, intersection=form)
    except ValueError:
        assert not expanded
    else:
        assert expanded


# ----- stable class -----

def test_bf_chain_to_single_atom():
    for k in range(2, 6):
        hat = hat_s1_l([2], 2, k=k)
        result = bf_simplify(hat, builtin("E", 2))
        assert list(result) == ["input", "normal_form", "verdict", "trace"]
        assert result["normal_form"] == "BF(E(2))"
        assert result["verdict"] == "nontrivial"


def test_bf_s4_is_identity():
    result = bf_simplify(n_catalog("CP2bar"), builtin("S4"))
    assert result["normal_form"] == "Id"
    assert result["verdict"] == "nontrivial"
    assert "identity_class: BF(S4) -> Id" in result["trace"]


def test_bf_unknown_flag_gives_unknown_verdict():
    result = bf_simplify(n_catalog("S4"), builtin("S2xS2"))
    assert result["normal_form"] == "BF(S2xS2)"
    assert result["verdict"] == "unknown"


def _bf_report(expression: str, k: int) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(["bf", expression, "--k", str(k)])
    return code, out.getvalue()


def test_bf_report_ignores_summand_order():
    for k in range(2, 6):
        orders = [f"{k}*E(2) # hat(2)", f"hat(2) # {k}*E(2)",
                  "E(2) # hat(2)" + " # E(2)" * (k - 1)]
        reports = {_bf_report(expression, k) for expression in orders}
        assert len(reports) == 1
        assert reports.pop()[0] == 0


# ----- covering consistency -----

def test_covering_consistency_grid():
    orders = {2: [2], 3: [3], 4: [4]}
    for k in (2, 3, 4):
        for l in (2, 3, 4):
            assert covering_consistency(hat_s1_l(orders[l], l, k=k))


def test_covering_consistency_whitelist_families():
    cases = [([2], 2), ([5], 5), ([2, 2], 8), ([4], 12), ([3], 24),
             ([2], 48), ([], 120)]
    for h1, order in cases:
        hat = hat_s1_l(h1, order, k=2)
        assert covering_consistency(hat)


def test_covering_consistency_lens3_numbers():
    hat = hat_s1_l([3], 3, k=2)
    assert covering_consistency(hat)


def test_covering_rejects_degenerate():
    for kind in ("S4", "CP2bar"):
        assert n_catalog(kind, k=2).space_form is None and n_catalog(kind, k=2).h_order == 1
        with pytest.raises(GuardViolation) as err:
            covering_consistency(n_catalog(kind, k=2))
        assert err.value.requirement == "hat summand"


_COVERING_ENTRIES = (
    [hat_s1_l([l], l, k=k) for l in range(2, 9) for k in (2, 3, 4)]
    + [hat_s1_l([2, 2], 8, k=k) for k in (2, 3, 4)]
    # chi = 2, 0 and 3 over a hat entry's space form, and the refused kinds
    + [NCatalogEntry(builtin(name), k, cyclic_space_form(l))
       for name in ("S4", "S1xS3", "CP2bar") for k, l in ((2, 2), (3, 5))]
    + [n_catalog(kind, k=2) for kind in ("S4", "CP2bar")])


@st.composite
def covering_bases(draw):
    """E(n), perhaps knot-surgered, then blown up, then summed with a builtin."""
    m = builtin("E", draw(st.integers(2, 4)))
    if draw(st.booleans()):
        m = knot_surgery(m, alexander_family(draw(st.integers(1, 2)), 2))
    if draw(st.booleans()):
        m = blowup(m, draw(st.integers(1, 2)))
    if draw(st.booleans()):
        m = connected_sum(m, builtin(draw(st.sampled_from(["K3", "S2xS2", "CP2bar", "S1xS3"]))))
    return m


@settings(max_examples=40, deadline=None)
@given(covering_bases())
def test_covering_consistency_reads_chi_of_n(m):
    """chi(N) = 2 alone decides what the three numbers of the cover decide, for
    every M: the two sides agree, refusals included, on every entry."""
    assert [outcome(covering_consistency, entry) for entry in _COVERING_ENTRIES] == \
        [outcome(covering_by_identities, m, entry) for entry in _COVERING_ENTRIES]


# ----- families -----

def assert_members_render_alone(report, base, spacing, k):
    """Each member's text, built by extension from the one before, equals the
    member's transfer rendered on its own."""
    hat = hat_s1_l([report["l"]], report["l"], k=k)
    for d, mb in enumerate(report["members"], 1):
        member = knot_surgery(base, alexander_family(d, spacing))
        fresh = gmonopole_polynomial(member, hat).render(member.intersection.tracked_basis)
        assert mb["gmonopole_mod2"] == fresh


def dissolved_counts(report):
    """(parity, n, m, orientation) of the report's dissolved target."""
    dissolved = report["target"]["dissolved"]
    return tuple(dissolved[key] for key in ("parity", "n", "m", "orientation"))


def test_k3_family_small():
    report = exotic_family("k3_knot", hat_s1_l([2], 2, k=2), 3, n=1)
    assert report["counts"] == [10, 18, 26]
    assert_members_render_alone(report, builtin("E", 2), 2, 2)
    assert report["verdict"] == "smoothly_distinct"
    assert dissolved_counts(report) == ("even", 1, 4, 1)
    assert report["covering_consistent"]
    assert len({tuple(mb["fingerprint"]) for mb in report["members"]}) == 1


def test_k3_family_counts_increase_with_d():
    for n in (1, 2, 3):
        report = exotic_family("k3_knot", hat_s1_l([2], 2, k=2), 4, n=n)
        counts = report["counts"]
        assert counts == sorted(counts)
        assert len(set(counts)) == len(counts)


def test_cp2_family_target_and_counts():
    report = exotic_family("cp2_knot", hat_s1_l([2], 2, k=2), 2, n_prime=2, m_prime=1)
    assert report["counts"] == [20, 36]
    assert_members_render_alone(report, blowup(builtin("E", 2), 1), 2, 2)
    assert dissolved_counts(report) == ("odd", 13, 81, 1)
    assert report["verdict"] == "smoothly_distinct"


def test_s2xs2_family_lower_bounds():
    report = exotic_family("s2xs2_hkw", hat_s1_l([2], 2, k=2), 3, m=2, n=1)
    assert report["counts"] == [2, 4, 6]
    assert all(mb["count_basis"] == "lower_bound" for mb in report["members"])
    assert dissolved_counts(report) == ("even", 9, 0, 1)


def comb(r):
    """T^(r-1) + T^(r-3) + ... + T^(1-r)."""
    return GroupRingElement(FgAbelianGroup(1), {(e,): 1 for e in range(r - 1, -r, -2)})


def test_elliptic_power_matches_the_binomial_row():
    """count(E(n) mod 2) = 2^popcount(n - 2), and the transfer's Lucas
    product is the binomial row mod 2."""
    hat = hat_s1_l([3], 3, k=2)
    for n in range(2, 300):
        row, e = signed_binomial(n - 2, 1), builtin("E", n)
        assert mod2_basic_class_count(e) == row.mod2().monomial_count() == 2 ** (n - 2).bit_count()
        transfer = gmonopole_polynomial(e, hat)
        assert transfer.expand() == convolution_transfer(row, hat)
        assert transfer.monomial_count() == 3 * 2 ** (n - 2).bit_count()


def test_log_transform_power_matches_the_binomial_row():
    """count(logtx(2n, r) mod 2) = r * 2^popcount(2n - 2), by the row times the comb."""
    hat = hat_s1_l([2], 2, k=2)
    for n, r in itertools.product(range(1, 12), range(1, 30)):
        poly, m = signed_binomial(2 * n - 2, r) * comb(r), log_transform(2 * n, r)
        closed = r * 2 ** (2 * n - 2).bit_count()
        assert mod2_basic_class_count(m) == poly.mod2().monomial_count() == closed
        transfer = gmonopole_polynomial(m, hat)
        assert transfer.expand() == convolution_transfer(poly, hat)
        assert transfer.monomial_count() == 2 * closed


@pytest.mark.parametrize("l", (2, 3, 4, 5))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_s2xs2_family_counts_match_each_member_transfer(n, l):
    """Member r's count, r times E(2n)'s transfer count, is the count of
    logtx(2n, r)'s own transfer written out."""
    size, hat = 12, hat_s1_l([l], l, k=3)
    report = exotic_family("s2xs2_hkw", hat_s1_l([l], l, k=3), size, n=n)
    assert report["counts"] == [
        gmonopole_polynomial(log_transform(2 * n, r), hat).expand().monomial_count()
        for r in range(1, size + 1)]
    assert [mb["label"] for mb in report["members"]] == [
        f"fiber-sum carrying logtx({2 * n},{r})" for r in range(1, size + 1)]


def family_refusal(*argv):
    """(exit code, error) of ``swcalc family`` with these flags."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(["family", "--construction", "k3", *argv, "--size", "1"])
    return code, json.loads(out.getvalue())["error"]


def test_family_rejects_small_l():
    """The entry's builder refuses l = 1, as it does for ``bf`` and ``hat(1)``."""
    code, error = family_refusal("--k", "2", "--l", "1")
    assert code == 1 and error["requirement"] == "order l >= 2"
    assert error["message"] == "the fundamental group must be nontrivial (order l >= 2)"


def test_family_rejects_small_k():
    code, error = family_refusal("--k", "1", "--l", "2")
    assert code == 1 and error["requirement"] == "k >= 2"


@pytest.mark.parametrize("kind", ("S4", "CP2bar"))
def test_family_refuses_an_entry_that_is_not_a_hat_summand(kind):
    """The covering check runs first and refuses it: no member is built."""
    with pytest.raises(GuardViolation) as err:
        exotic_family("k3_knot", n_catalog(kind, k=2), 1)
    assert err.value.requirement == "hat summand"


KNOT_BASES = [("k3_knot", {"n": n}) for n in (1, 2, 3)] + [
    ("cp2_knot", {"n_prime": a, "m_prime": b}) for a in range(2, 6) for b in (1, 2, 3)]


def knot_base(construction, params):
    """(M, spacing) of a knot construction."""
    if construction == "k3_knot":
        return builtin("E", 2 * params["n"]), 2 * params["n"]
    return blowup(builtin("E", params["n_prime"]), params["m_prime"]), params["n_prime"]


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("l", (2, 3, 4, 5))
@pytest.mark.parametrize("construction, params", KNOT_BASES,
                         ids=[f"{c}-{'-'.join(map(str, p.values()))}" for c, p in KNOT_BASES])
def test_knot_family_members_match_one_surgery_per_member(construction, params, l, k):
    """The texts built by extension and the closed-form counts give every member
    of a 60-member family, and so of every shorter one, as its own knot surgery
    and transfer do."""
    report = exotic_family(construction, hat_s1_l((l,), l, k), 60, **params)
    assert report["members"] == knot_family_members(
        *knot_base(construction, params), hat_s1_l((l,), l, k), 60)


@pytest.mark.parametrize("m", (2, 3))
@pytest.mark.parametrize("construction, params", [
    ("k3_knot", {"n": 1}), ("cp2_knot", {"n_prime": 3, "m_prime": 2})])
def test_knot_family_members_match_the_oracle_over_quaternion_groups(construction, params, m):
    """H = Q8 has H1 = Z2 + Z2, so every term carries two torsion tails a1 and
    a2; H = Q12 has H1 = Z4, one tail of order 4."""
    sf = quaternionic_space_form(m)
    report = exotic_family(construction, hat_s1_l(sf.h1_orders, sf.order, 2), 24, **params)
    assert report["members"] == knot_family_members(
        *knot_base(construction, params), hat_s1_l(sf.h1_orders, sf.order, 2), 24)
    assert ("a2" in report["members"][0]["gmonopole_mod2"]) == (m == 2)


def test_knot_family_members_build_no_alexander_polynomial(monkeypatch):
    """A member's label is written from (d, spacing): the closed form the
    members are built from is pinned once, in ``test_knot``."""
    built, check = [], AlexanderPoly.__post_init__
    monkeypatch.setattr(AlexanderPoly, "__post_init__",
                        lambda self: built.append(self.name) or check(self))
    exotic_family("cp2_knot", hat_s1_l([3], 3, k=2), 5, n_prime=3)
    exotic_family("k3_knot", hat_s1_l([2], 2, k=3), 5, n=2)
    assert built == []


def test_knot_family_members_render_no_member(monkeypatch):
    """Member d's text wraps member d-1's, so no member's whole support is
    sorted and rendered again."""
    rendered, render = [], TermRenderer.render
    monkeypatch.setattr(TermRenderer, "render",
                        lambda self: rendered.append(self.element) or render(self))
    exotic_family("cp2_knot", hat_s1_l([3], 3, k=2), 5, n_prime=3)
    exotic_family("k3_knot", hat_s1_l([2], 2, k=3), 5, n=2)
    assert rendered == []


def test_family_with_quaternion_group():
    sf = quaternionic_space_form(2)
    hat = hat_s1_l(sf.h1_orders, sf.order, k=2)
    assert hat.space_form == sf
    report = exotic_family("k3_knot", hat, 2, n=1)
    assert (report["k"], report["l"], report["space_form"]) == (2, 8, "Q8")
    assert report["counts"] == [5 * 4, 9 * 4]
    assert report["verdict"] == "smoothly_distinct"


@pytest.mark.parametrize("argv, kwargs", [
    (["--construction", "k3", "--k", "2", "--l", "3", "--size", "3"],
     {"construction": "k3_knot", "k": 2, "l": 3, "size": 3}),
    (["--construction", "cp2", "--k", "3", "--l", "2", "--size", "2", "--n-prime", "3"],
     {"construction": "cp2_knot", "k": 3, "l": 2, "size": 2, "n_prime": 3}),
    (["--construction", "s2xs2", "--k", "2", "--l", "2", "--size", "3", "--m", "2"],
     {"construction": "s2xs2_hkw", "k": 2, "l": 2, "size": 3, "m": 2}),
], ids=["k3", "cp2", "s2xs2"])
def test_family_command_prints_the_library_report(argv, kwargs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(["family", *argv]) == 0
    k, l = kwargs.pop("k"), kwargs.pop("l")
    report = exotic_family(hat=hat_s1_l([l], l, k=k), **kwargs)
    printed = json.loads(out.getvalue())
    assert printed == {"schema": "swcalc/1", **report}
    assert list(printed) == ["schema", *report]
