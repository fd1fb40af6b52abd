import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcalc.equivariant import (BINARY_ICOSAHEDRAL, BINARY_OCTAHEDRAL,
                                BINARY_TETRAHEDRAL, UNDETERMINED, BFAtom,
                                BFGAtom, EvalRequest, IdAtom,
                                NCatalogEntry, Smash, bf_atom,
                                bf_simplify, bfg_connected_sum,
                                covering_consistency, cyclic_space_form,
                                exotic_family, gmono_eval,
                                gmonopole_polynomial, hat_s1_l, match_space_form,
                                n_catalog, quaternionic_space_form,
                                _certify_max_square)
from swcalc.errors import GuardViolation
from swcalc.groupring import FgAbelianGroup, GroupRingElement
from swcalc.knot import alexander_family, torus_knot
from swcalc.lattice import QuadraticForm, e8_form, spinc_with_max_square
from swcalc.manifold import (IntersectionData, ManifoldDescriptor, SWInfo, builtin,
                             mod2_basic_class_count, reverse_orientation)
from swcalc.surgery import blowup, connected_sum, connected_sum_all, knot_surgery


# ----- space forms and hat entries -----

def test_hat_rp3():
    entry = hat_s1_l([2], 2, k=2)
    d = entry.descriptor
    assert d.chi == 2 and d.b1 == 0 and d.b2 == 0 and d.spin
    assert d.torsion_h1 == (2,)
    assert entry.spinc_count == 2
    assert entry.descriptor.b2_plus == 0
    assert "universal cover: 1*(S2xS2)" in entry.notes


def test_hat_lens5():
    entry = hat_s1_l([5], 5, k=2)
    assert entry.spinc_count == 5
    assert any("4*(S2xS2)" in note for note in entry.notes)


def test_hat_refuses_trivial_group():
    with pytest.raises(GuardViolation) as err:
        hat_s1_l([], 1)
    assert "l >= 2" in str(err.value)


def test_hat_whitelist_mismatch():
    with pytest.raises(GuardViolation) as err:
        hat_s1_l([3], 4)
    assert "candidates" in str(err.value)


def test_hat_refuses_groups_off_the_whitelist():
    # H1 of the group's order makes the group abelian: Z4 + Z2 and Z2 + Z6
    # have three elements of order 2, so neither acts freely on S^3
    # (Milnor 1957), and no group of order 4 has H1 = Z3
    for h1_orders, order in (([3], 4), ([4, 2], 8), ([2, 6], 12)):
        with pytest.raises(GuardViolation) as err:
            hat_s1_l(h1_orders, order)
        assert err.value.requirement == "whitelisted spherical space form"


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
    assert entry.nu == 0


def test_catalog_cp2bar_certified():
    entry = n_catalog("CP2bar", k=2)
    assert entry.descriptor.b2_minus == 1
    assert any("diag(-1)" in note for note in entry.notes)


def test_catalog_lens_sum_has_invariant_circle():
    entry = n_catalog("S1xLensSum", k=2, orders=[2, 3])
    assert entry.nu == 1
    assert entry.descriptor.b1 == 1
    assert entry.descriptor.torsion_h1 == (2, 3)
    assert entry.descriptor.chi == 0


def test_catalog_extended_example():
    base = hat_s1_l([2], 2, k=2)
    entry = n_catalog("Extended", k=2, base=base, z=builtin("CP2bar"), l=2)
    assert entry.descriptor.b2_minus == 4
    assert entry.descriptor.b2_plus == 0


def test_entry_refuses_positive_b2plus():
    with pytest.raises(GuardViolation) as err:
        NCatalogEntry(builtin("S2xS2"), 2, "S4")
    assert err.value.requirement == "b2+(N) = 0"


def test_entry_refuses_order_below_two():
    with pytest.raises(GuardViolation) as err:
        NCatalogEntry(builtin("S4"), 1, "S4")
    assert err.value.requirement == "k >= 2"


def test_catalog_extended_rejects_positive_b2plus():
    base = hat_s1_l([2], 2, k=2)
    with pytest.raises(GuardViolation):
        n_catalog("Extended", k=2, base=base, z=builtin("S2xS2"), l=1)


def test_catalog_extended_accepts_long_antiblowup_sums():
    base = n_catalog("S4")
    for copies in (9, 20):
        z = connected_sum_all([builtin("CP2bar")] * copies)
        entry = n_catalog("Extended", base=base, z=z, l=1)
        assert entry.descriptor.b2_minus == 2 * copies
        assert (entry.k, entry.nu, entry.h_order) == (base.k, base.nu, base.h_order)


def test_catalog_extended_refuses_tracked_rank_above_search_limit():
    with pytest.raises(GuardViolation) as err:
        n_catalog("Extended", base=n_catalog("S4"), z=blowup(builtin("S4"), 9), l=1)
    assert err.value.requirement == "rank <= 8"


def full_form_certified(z, depth):
    """The maximal-square search on the whole form, tracked Gram plus
    diag(-1)^minus_count, assembled densely."""
    inter = z.intersection
    n = len(inter.tracked_basis)
    size = n + inter.minus_count
    rows = tuple(tuple(inter.gram[i][j] if i < n and j < n else -1 if i == j else 0
                       for j in range(size)) for i in range(size))
    return spinc_with_max_square(QuadraticForm(rows), depth) is not None


def tracked_block_certified(z, depth):
    try:
        _certify_max_square(z, depth)
    except GuardViolation:
        return False
    return True


def test_certify_max_square_matches_full_form():
    e8_piece = ManifoldDescriptor(
        "Z_E8", True, 0, 0, 8, (), True, SWInfo.unknown(),
        IntersectionData(tuple(f"x{i}" for i in range(8)), (e8_form().gram,)),
        admits_psc=True)
    pool = [e8_piece]
    for r in range(9):
        for s in range(9 - r):
            pieces = ([blowup(builtin("S4"), r)] if r else []) + [builtin("CP2bar")] * s
            pool.append(connected_sum_all(pieces))
    verdicts = set()
    for z in pool:
        for depth in (1, 2):
            verdict = tracked_block_certified(z, depth)
            assert verdict == full_form_certified(z, depth), z.label
            verdicts.add(verdict)
    assert verdicts == {True, False}


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
    assert gmonopole_polynomial(m, hat).is_zero()


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


def test_gmonopole_redirects_when_nu_positive():
    entry = n_catalog("S1xLensSum", k=2, orders=[2])
    with pytest.raises(GuardViolation) as err:
        gmonopole_polynomial(builtin("E", 2), entry)
    assert "gmono_eval" in str(err.value)


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
            mod2_basic_class_count(m) * entry.spinc_count


def convolution_transfer(m, entry):
    """The transfer as the generic product of the embedded mod-2 polynomial
    with the sum of all torsion classes, reduced mod 2 again."""
    base = m.sw.poly.mod2()
    target = FgAbelianGroup(base.ambient.free_rank, entry.descriptor.torsion_h1)
    zeros = (0,) * target.free_rank
    total = GroupRingElement(target, [
        (target.element(zeros, combo), 1)
        for combo in itertools.product(*(range(o) for o in target.torsion_orders))])
    return (base.embed(target) * total).mod2()


def torsion_entry(orders):
    """A summand with H_1 of the given orders, built directly: no whitelisted
    space form has them, and the transfer reads only the torsion."""
    descriptor = ManifoldDescriptor(f"N{list(orders)}", False, 0, 0, 0, orders, True,
                                    SWInfo.unknown(), IntersectionData())
    return NCatalogEntry(descriptor, 2, "HatS1L")


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
    assert gmonopole_polynomial(m, entry).expand() == convolution_transfer(m, entry)


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
    member = builtin("E", draw(st.sampled_from([2, 3, 4])))
    oracle = member.sw.poly
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
            oracle = oracle * knot.poly.substitute_power(2).embed(oracle.ambient)
    return member, oracle


@settings(max_examples=40, deadline=None)
@given(factored_members(), st.sampled_from(sorted(FACTORED_ENTRIES)), st.data())
def test_factored_form_matches_expansion(case, orders, data):
    member, expansion = case
    sw = member.sw.factored()
    assert member.sw.poly == expansion
    assert sw.monomial_count() == expansion.monomial_count()
    assert mod2_basic_class_count(member) == expansion.mod2().monomial_count()
    names = member.intersection.tracked_basis
    short = names[:data.draw(st.integers(0, len(names) - 1))]
    for free_names in (None, names, short):
        assert sw.render(free_names) == expansion.render(free_names)

    entry = FACTORED_ENTRIES[orders]
    transfer = gmonopole_polynomial(member, entry)
    oracle = convolution_transfer(member, entry)
    assert transfer.expand() == oracle
    assert transfer.monomial_count() == oracle.monomial_count()
    assert transfer.monomial_count() == mod2_basic_class_count(member) * entry.spinc_count
    for free_names, torsion_names in ((None, None), (names, None), (short, None),
                                      (names, ("g",))):
        assert transfer.render(free_names, torsion_names) == \
            oracle.render(free_names, torsion_names)


@settings(max_examples=40, deadline=None)
@given(factored_members(), st.integers(-2, 2))
def test_simple_type_verdict_on_the_core_matches_expansion(case, torus_square):
    """With the torus square changed, the descriptor accepts simple type
    exactly when every expanded monomial has square 2*chi + 3*sigma."""
    member, expansion = case
    inter = member.intersection
    form = replace(inter, blocks=(((torus_square,),),) + inter.blocks[1:])
    target = 2 * member.chi + 3 * member.sigma
    expanded = all(form.vector_square(v) == target for v in expansion.free_exponents())
    try:
        replace(member, intersection=form)
    except ValueError:
        assert not expanded
    else:
        assert expanded


# ----- single evaluations -----

def test_gmono_eval_e3_fiber_class():
    entry = n_catalog("S4", k=2)
    out = gmono_eval(builtin("E", 3), entry, EvalRequest(spinc_class={"T": 1}))
    assert out == 1


def test_gmono_eval_on_blowups_matches_expansion():
    entry = n_catalog("S4", k=2)
    compared = 0
    for m in (1, 2, 4):
        d = blowup(builtin("E", 3), m)
        tracked = d.intersection.tracked_basis
        for free in itertools.product(range(-2, 3), repeat=1 + m):
            request = EvalRequest(spinc_class=dict(zip(tracked, free)))
            try:
                out = gmono_eval(d, entry, request)
            except GuardViolation:  # not characteristic
                continue
            if out is not UNDETERMINED:
                elem = d.sw.poly.ambient.element(free)
                assert out == d.sw.poly.coefficient(elem) % 2, free
                compared += 1
    assert compared > 100
    forty = blowup(builtin("E", 2), 40)
    signs = {f"E{i}": (-1) ** i for i in range(1, 41)}
    assert gmono_eval(forty, entry, EvalRequest(spinc_class=signs)) == 1


def test_gmono_eval_undetermined_without_invariant_forms():
    entry = n_catalog("S1xLensSum", k=2, orders=[2])
    out = gmono_eval(builtin("E", 2), entry, EvalRequest())
    assert out is UNDETERMINED


def test_gmono_eval_nu_positive_with_forms():
    entry = n_catalog("S1xLensSum", k=2, orders=[2])
    out = gmono_eval(builtin("E", 2), entry,
                     EvalRequest(include_invariant_forms=True))
    assert out == 1


def test_gmono_eval_missing_class_is_zero():
    entry = n_catalog("S4", k=2)
    out = gmono_eval(builtin("E", 3), entry, EvalRequest(spinc_class={"T": 3}))
    assert out == 0


def test_gmono_eval_u_power_undetermined():
    entry = n_catalog("S4", k=2)
    out = gmono_eval(builtin("E", 2), entry, EvalRequest(u_power=1))
    assert out is UNDETERMINED


def test_gmono_eval_one_forms_unsupported():
    entry = n_catalog("S4", k=2)
    out = gmono_eval(builtin("E", 2), entry, EvalRequest(one_forms=("c",)))
    assert out is UNDETERMINED


def test_gmono_eval_known_zero():
    entry = n_catalog("S4", k=2)
    m = connected_sum(builtin("E", 2), builtin("E", 2))
    assert gmono_eval(m, entry, EvalRequest()) == 0


# ----- stable-class rewriting -----

def test_bf_chain_to_single_atom():
    for k in range(2, 6):
        hat = hat_s1_l([2], 2, k=k)
        expr = bfg_connected_sum(builtin("E", 2), k, hat)
        result = bf_simplify(expr)
        assert result.expr == BFAtom("E(2)", True)
        assert result.verdict == "nontrivial"


def test_bf_s4_is_identity():
    result = bf_simplify(bf_atom(builtin("S4")))
    assert isinstance(result.expr, IdAtom)
    assert result.verdict == "nontrivial"


def test_bf_smash_of_identities():
    result = bf_simplify(Smash((IdAtom(), IdAtom())))
    assert isinstance(result.expr, IdAtom)


def test_bf_unknown_flag_gives_unknown_verdict():
    result = bf_simplify(bf_atom(builtin("S2xS2")))
    assert result.verdict == "unknown"


def test_bf_smash_of_two_atoms_is_unknown():
    expr = Smash((bf_atom(builtin("E", 2)), bf_atom(builtin("E", 3))))
    result = bf_simplify(expr)
    assert result.verdict == "unknown"
    assert isinstance(result.expr, Smash)


def test_bf_idempotent_and_confluent():
    hat = hat_s1_l([2], 2, k=2)
    atoms = [bf_atom(builtin("E", 2)), IdAtom(), BFGAtom(hat),
             bf_atom(builtin("E", 3)), bf_atom(builtin("S4"))]
    rng = random.Random(7)
    normals = set()
    for _ in range(100):
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        out = bf_simplify(Smash(tuple(shuffled)))
        normals.add(out.expr)
        again = bf_simplify(out.expr)
        assert again.expr == out.expr
    assert len(normals) == 1


def test_bfg_requires_k_copies():
    hat = hat_s1_l([2], 2, k=2)
    with pytest.raises(GuardViolation):
        bfg_connected_sum(builtin("E", 2), 3, hat)


# ----- covering consistency -----

def test_covering_consistency_grid():
    orders = {2: [2], 3: [3], 4: [4]}
    for k in (2, 3, 4):
        for l in (2, 3, 4):
            hat = hat_s1_l(orders[l], l, k=k)
            for m in (builtin("E", 2), builtin("E", 3)):
                assert covering_consistency(m, hat)


def test_covering_consistency_whitelist_families():
    cases = [([2], 2), ([5], 5), ([2, 2], 8), ([4], 12), ([3], 24),
             ([2], 48), ([], 120)]
    for h1, order in cases:
        hat = hat_s1_l(h1, order, k=2)
        assert covering_consistency(builtin("E", 2), hat)


def test_covering_consistency_lens3_numbers():
    hat = hat_s1_l([3], 3, k=2)
    assert covering_consistency(builtin("E", 2), hat)


def test_covering_rejects_degenerate():
    with pytest.raises(GuardViolation):
        covering_consistency(builtin("E", 2), n_catalog("S4", k=2))


# ----- families -----

def assert_members_render_alone(report, base, spacing, k):
    """A family renders its members through one shared renderer; each text
    equals the member's transfer rendered on its own."""
    hat = hat_s1_l([report.l], report.l, k=k)
    for d, mb in enumerate(report.members, 1):
        member = knot_surgery(base, alexander_family(d, spacing))
        fresh = gmonopole_polynomial(member, hat).render(member.intersection.tracked_basis)
        assert mb.gmono_rendered == fresh


def test_k3_family_small():
    report = exotic_family("k3_knot", k=2, l=2, size=3, n=1)
    assert report.counts == [10, 18, 26]
    assert_members_render_alone(report, builtin("E", 2), 2, 2)
    assert report.verdict == "smoothly_distinct"
    assert report.target_dissolution.canonical_counts == ("even", 1, 4, 1)
    assert report.covering_consistent
    assert len({mb.fingerprint for mb in report.members}) == 1


def test_k3_family_counts_increase_with_d():
    for n in (1, 2, 3):
        report = exotic_family("k3_knot", k=2, l=2, size=4, n=n)
        counts = report.counts
        assert counts == sorted(counts)
        assert len(set(counts)) == len(counts)


def test_cp2_family_target_and_counts():
    report = exotic_family("cp2_knot", k=2, l=2, size=2, n_prime=2, m_prime=1)
    assert report.counts == [20, 36]
    assert_members_render_alone(report, blowup(builtin("E", 2), 1), 2, 2)
    assert report.target_dissolution.canonical_counts == ("odd", 13, 81, 1)
    assert report.verdict == "smoothly_distinct"


def test_s2xs2_family_lower_bounds():
    report = exotic_family("s2xs2_hkw", k=2, l=2, size=3, m=2, n=1)
    assert report.counts == [2, 4, 6]
    assert all(mb.count_basis == "lower_bound" for mb in report.members)
    assert report.target_dissolution.canonical_counts == ("even", 9, 0, 1)


def test_family_rejects_small_l():
    with pytest.raises(GuardViolation) as err:
        exotic_family("k3_knot", k=2, l=1, size=1)
    assert err.value.requirement == "order l >= 2"


def test_family_rejects_small_k():
    with pytest.raises(GuardViolation):
        exotic_family("k3_knot", k=1, l=2, size=1)


def test_family_with_quaternion_group():
    sf = quaternionic_space_form(2)
    report = exotic_family("k3_knot", k=2, l=8, size=2, n=1, space_form=sf)
    assert report.counts == [5 * 4, 9 * 4]
    assert report.verdict == "smoothly_distinct"
