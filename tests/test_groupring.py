import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcalc.errors import AmbientMismatchError, GuardViolation, UnsupportedOperation
from swcalc.groupring import (FactoredElement, FgAbelianGroup, GroupRingElement,
                              TermRenderer, invariant_factors, laurent)

from oracles import laurent_coeffs, ring_power, signed_binomial, substitute_power

Z = FgAbelianGroup(1)
Z_MOD2 = FgAbelianGroup(0, (2,))
MIXED = FgAbelianGroup(1, (2,))


def split(p, key):
    """(free exponents, torsion exponents) of a key of p's ambient group."""
    r = p.ambient.free_rank
    return key[:r], key[r:]


def brute_convolution(a, b):
    """Independent product oracle: coefficient of each monomial summed
    over all pairs of source monomials."""
    targets = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            (fa, ta), (fb, tb) = split(a, ea), split(b, eb)
            free = tuple(x + y for x, y in zip(fa, fb))
            tors = tuple((x + y) % o for x, y, o in zip(ta, tb, a.ambient.torsion_orders))
            targets[(free, tors)] = None
    out = {}
    for free, tors in targets:
        total = 0
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                (fa, ta), (fb, tb) = split(a, ea), split(b, eb)
                f2 = tuple(x + y for x, y in zip(fa, fb))
                t2 = tuple((x + y) % o for x, y, o in zip(ta, tb, a.ambient.torsion_orders))
                if (f2, t2) == (free, tors):
                    total += ca * cb
        if total:
            out[(free, tors)] = total
    return out


def as_plain(p):
    return {split(p, key): c for key, c in p.terms.items()}


# ----- constructors and canonicalization -----

def test_torsion_orders_sorted_and_validated():
    g = FgAbelianGroup(0, (5, 2, 3))
    assert g.torsion_orders == (2, 3, 5)
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(-1)


@pytest.mark.parametrize("build", [
    lambda: laurent({1.5: 2.7}),
    lambda: laurent({"3": 1}),
    lambda: laurent({1: True}),
    lambda: GroupRingElement(FgAbelianGroup(1), {(True,): 1}),
    lambda: GroupRingElement(Z_MOD2, {(1,): 1.0}),
    lambda: FgAbelianGroup(0, (2.0,)),
    lambda: FgAbelianGroup(True),
], ids=["float_laurent", "str_exponent", "bool_coefficient", "bool_exponent",
        "float_coefficient", "float_order", "bool_rank"])
def test_non_integer_input_is_refused(build):
    """As the lattice layer does, the group ring refuses what is not an int, bools
    included, and converts nothing."""
    with pytest.raises(ValueError, match="integers"):
        build()


def test_residues_canonicalized():
    assert GroupRingElement.monomial(Z_MOD2, (7,)).terms == {(1,): 1}
    p = GroupRingElement.monomial(Z_MOD2, (3,))
    assert p.terms.get((1,), 0) == 1
    # keys that reduce to one residue add up, and a sum of zero drops out
    assert GroupRingElement(MIXED, {(2, 1): 2, (2, 3): 3, (0, 0): 1, (0, -2): -1}).terms \
        == {(2, 1): 5}


def test_zero_coefficients_dropped():
    p = GroupRingElement(Z, {(1,): 1, (0,): 0})
    assert p.monomial_count() == 1


@pytest.mark.parametrize("group, key", [(MIXED, ()), (MIXED, (1,)), (MIXED, (0, 0, 1)),
                                        (Z, (1, 0))])
def test_key_of_wrong_length_refused(group, key):
    with pytest.raises(AmbientMismatchError):
        GroupRingElement(group, {key: 1})
    with pytest.raises(AmbientMismatchError):
        GroupRingElement.monomial(group, key)


# ----- addition -----

def test_add_cancellation():
    a = laurent({1: 1, 0: 1})
    b = laurent({0: -1, -1: 1})
    assert laurent_coeffs(a + b) == {1: 1, -1: 1}


def test_add_identity():
    x = laurent({3: 2, -1: 5})
    assert x + GroupRingElement.zero(Z) == x


def test_add_torsion_coefficients():
    alpha = GroupRingElement.monomial(Z_MOD2, (1,))
    total = alpha + alpha
    assert total.terms.get((1,), 0) == 2


@pytest.mark.parametrize("group", [FgAbelianGroup(2), Z_MOD2, FgAbelianGroup(1, (2, 3))])
def test_integer_addition(group):
    one = GroupRingElement.one(group)
    key = (1,) * (group.free_rank + group.torsion_rank)
    p = GroupRingElement.monomial(group, key) + one
    assert p + 1 == 1 + p == p + one
    assert p - 1 == GroupRingElement.monomial(group, key)
    assert 1 - p == -p + one
    assert (p + 0).terms == p.terms
    assert (one - 1).terms == {}


def test_integer_addition_laurent():
    p = laurent({1: 1, -1: 1})
    assert laurent_coeffs(p + 1) == laurent_coeffs(1 + p) == {1: 1, 0: 1, -1: 1}
    assert laurent_coeffs(p - 1) == {1: 1, 0: -1, -1: 1}
    assert laurent_coeffs(1 - p) == {1: -1, 0: 1, -1: -1}


def test_add_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        laurent({0: 1}) + GroupRingElement.one(Z_MOD2)


# ----- multiplication -----

def test_mul_difference_of_squares():
    p = laurent({1: 1, -1: 1}) * laurent({1: 1, -1: -1})
    assert laurent_coeffs(p) == {2: 1, -2: -1}


def test_mul_order_two_torsion():
    alpha = GroupRingElement.monomial(Z_MOD2, (1,))
    assert alpha * alpha == GroupRingElement.one(Z_MOD2)


def test_mul_expansion_against_oracle():
    a = laurent({2: 1, 0: -2, -2: 1})
    b = laurent({1: 1, -1: 1})
    expected = brute_convolution(a, b)
    assert as_plain(a * b) == expected
    assert laurent_coeffs(a * b) == {3: 1, 1: -1, -1: -1, -3: 1}


# ----- mod2 -----

def test_mod2_parity():
    p = laurent({1: 2, 0: -3})
    assert laurent_coeffs(p.mod2()) == {0: 1}


def test_mod2_even_middle():
    p = laurent({4: 1, 0: -2, -4: 1})
    assert laurent_coeffs(p.mod2()) == {4: 1, -4: 1}


def test_mod2_zero():
    assert GroupRingElement.zero(Z).mod2().terms == {}


# ----- monomial count -----

def test_monomial_count():
    assert laurent({2: 1, 0: 1, -2: 1}).monomial_count() == 3
    assert GroupRingElement.zero(Z).monomial_count() == 0
    one_plus_alpha = GroupRingElement.one(Z_MOD2) + \
        GroupRingElement.monomial(Z_MOD2, (1,))
    assert one_plus_alpha.monomial_count() == 2


# ----- substitute_power -----

def test_substitute_power_doubling():
    p = laurent({1: 1, 0: -1, -1: 1})
    assert laurent_coeffs(substitute_power(p, 2)) == {2: 1, 0: -1, -2: 1}


def test_substitute_power_identity():
    p = laurent({5: 3, -2: 1})
    assert substitute_power(p, 1) == p


def test_substitute_power_collapse():
    p = laurent({1: 1, -1: 1})
    assert laurent_coeffs(substitute_power(p, 0)) == {0: 2}


def test_substitute_power_needs_rank_one():
    with pytest.raises(UnsupportedOperation):
        substitute_power(GroupRingElement.one(MIXED), 2)


# ----- embed -----

def test_embed_into_torsion_extension():
    p = laurent({2: 1, 0: 1})
    q = p.embed(MIXED)
    assert q.monomial_count() == 2
    assert q.terms.get((2, 0), 0) == 1


def test_embed_zero():
    assert laurent({}).embed(MIXED).terms == {}


def test_embed_preserves_count():
    sw_e3 = laurent({1: 1, -1: -1})
    target = FgAbelianGroup(3, (2, 4))
    assert sw_e3.embed(target, free_map=(2,)).monomial_count() == 2


def test_embed_order_mismatch_rejected():
    p = GroupRingElement.one(Z_MOD2)
    with pytest.raises(AmbientMismatchError):
        p.embed(FgAbelianGroup(0, (3,)), torsion_map=(0,))


def test_embed_duplicate_target_rejected():
    p = GroupRingElement.one(FgAbelianGroup(2))
    with pytest.raises(AmbientMismatchError):
        p.embed(FgAbelianGroup(2), free_map=(0, 0))


# ----- rendering -----

def test_render_canonical_order():
    p = laurent({2: 1, 0: 1, -2: 1})
    assert p.render() == "T^-2 + 1 + T^2"


def test_render_signs_and_scalars():
    p = laurent({1: -1, 0: 2})
    assert p.render() == "2 - T"
    assert GroupRingElement.zero(Z).render() == "0"
    # a factored element's scalar leads the term of each tail
    factored = FactoredElement(laurent({1: 2}), blowups=1)
    assert (factored.ambient, factored.tails) == (FgAbelianGroup(2), ((-1,), (1,)))
    assert TermRenderer(factored).render() == factored.render() == "2*T1*T2^-1 + 2*T1*T2"


def test_render_torsion_names():
    p = GroupRingElement.one(MIXED) + GroupRingElement.monomial(MIXED, (1, 1))
    assert p.render(("T",), ("a",)) == "1 + T*a"


# ----- algebraic laws on small random elements -----

small_groups = st.sampled_from([
    FgAbelianGroup(1),
    FgAbelianGroup(2),
    FgAbelianGroup(0, (2,)),
    FgAbelianGroup(1, (3,)),
    FgAbelianGroup(1, (2, 4)),
])


@st.composite
def ring_elements(draw, group=None):
    g = group if group is not None else draw(small_groups)
    size = draw(st.integers(0, 4))
    terms = {}
    for _ in range(size):
        free = tuple(draw(st.integers(-3, 3)) for _ in range(g.free_rank))
        tors = tuple(draw(st.integers(0, o - 1)) for o in g.torsion_orders)
        terms[free + tors] = draw(st.integers(-4, 4).filter(lambda c: c != 0))
    return GroupRingElement(g, terms)


@st.composite
def element_triples(draw):
    g = draw(small_groups)
    return (draw(ring_elements(group=g)), draw(ring_elements(group=g)),
            draw(ring_elements(group=g)))


@settings(max_examples=150)
@given(element_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=150)
@given(element_triples())
def test_mod2_is_multiplicative(triple):
    a, b, _ = triple
    assert (a * b).mod2() == (a.mod2() * b.mod2()).mod2()


@settings(max_examples=100)
@given(ring_elements(group=Z), st.integers(-3, 3).filter(lambda s: s != 0))
def test_substitute_power_preserves_coefficient_multiset(p, s):
    before = sorted(p.terms.values())
    after = sorted(substitute_power(p, s).terms.values())
    assert before == after


@settings(max_examples=100)
@given(ring_elements(group=Z))
def test_embed_preserves_monomial_count_property(p):
    target = FgAbelianGroup(2, (2,))
    assert p.embed(target, free_map=(1,)).monomial_count() == p.monomial_count()


# ----- every operation returns a canonical element -----

def assert_canonical(p):
    """``p`` is exactly what the checked constructor makes of its terms."""
    rebuilt = GroupRingElement(p.ambient, p.terms)
    assert rebuilt == p
    assert rebuilt.terms == p.terms
    assert 0 not in p.terms.values()
    g = p.ambient
    for key in p.terms:
        free, torsion = split(p, key)
        assert len(free) == g.free_rank
        assert len(torsion) == g.torsion_rank
        assert all(0 <= e < o for e, o in zip(torsion, g.torsion_orders))


@settings(max_examples=100)
@given(element_triples(), st.integers(-3, 3), st.integers(0, 3))
def test_ring_operations_stay_canonical(triple, n, power):
    a, b, _ = triple
    for result in (a + b, a - b, -a, a * b, a * n, n * a, ring_power(a, power),
                   a + n, n + a, a - n, n - a, a.mod2()):
        assert_canonical(result)
    assert a + n == a + n * GroupRingElement.one(a.ambient)
    assert n - a == n * GroupRingElement.one(a.ambient) - a


@settings(max_examples=100)
@given(st.data())
def test_embed_stays_canonical(data):
    p = data.draw(ring_elements())
    g = p.ambient
    target = FgAbelianGroup(g.free_rank + 1, g.torsion_orders + (7,))
    free_map = tuple(data.draw(st.permutations(range(target.free_rank))))[:g.free_rank]
    q = p.embed(target, free_map=free_map)
    assert_canonical(q)
    assert q.monomial_count() == p.monomial_count()


@settings(max_examples=100)
@given(ring_elements(group=Z), st.integers(-3, 3))
def test_substitute_power_stays_canonical(p, s):
    assert_canonical(substitute_power(p, s))


# ----- the one-pass product with a substituted Laurent polynomial -----

@settings(max_examples=200)
@given(st.data(), st.integers(-2, 2))
def test_mul_laurent_matches_substitute_embed_product(data, step):
    """Step 0 sends every term of q to the constant, so terms cancel."""
    g = data.draw(st.sampled_from([FgAbelianGroup(1), FgAbelianGroup(2), FgAbelianGroup(1, (3,)),
                                   FgAbelianGroup(2, (2, 4)), FgAbelianGroup(3, (2,))]))
    p, q = data.draw(ring_elements(group=g)), data.draw(ring_elements(group=Z))
    slot = data.draw(st.integers(0, g.free_rank - 1))
    product = p.mul_laurent(q, slot, step)
    assert product == p * substitute_power(q, step).embed(g, free_map=(slot,))
    assert_canonical(product)


def test_mul_laurent_cancels_and_refuses():
    g = FgAbelianGroup(2, (3,))
    p = GroupRingElement.monomial(g, (1, -1, 2), coeff=3)
    assert p.mul_laurent(laurent({1: 1, -1: -1}), 1, 0).terms == {}
    for factor in (GroupRingElement.one(MIXED), GroupRingElement.one(FgAbelianGroup(2))):
        with pytest.raises(UnsupportedOperation):
            p.mul_laurent(factor, 0, 2)
    for slot in (-1, 2):
        with pytest.raises(AmbientMismatchError):
            p.mul_laurent(laurent({1: 1}), slot, 2)


# ----- invariant factors -----

@pytest.mark.parametrize("orders, factors", [
    ([], ()), ([1], ()), ([6], (6,)), ([2, 3], (6,)), ([3, 2], (6,)), ([1, 6], (6,)),
    ([2, 2], (2, 2)), ([4, 2], (2, 4)), ([6, 4], (2, 12)), ([2, 3, 4], (2, 12)),
    ([-3], (3,)), ([0, 5], (5, 0))])
def test_invariant_factors(orders, factors):
    """Z/-3 is Z/3, and Z/0 is Z, which every factor divides."""
    assert invariant_factors(orders) == factors


@given(st.lists(st.integers(1, 12), max_size=4))
def test_invariant_factors_keep_the_group(orders):
    """A finite abelian group is fixed by how many x have q*x = 0 for each prime
    power q, and that count for the sum of the Z/o is the product of gcd(q, o)."""
    factors = invariant_factors(orders)
    assert 1 not in factors and all(b % a == 0 for a, b in zip(factors, factors[1:]))
    for q in (2, 4, 8, 3, 9, 5, 7, 11):
        assert math.prod(math.gcd(q, o) for o in factors) == \
            math.prod(math.gcd(q, o) for o in orders)


# ----- rendering against the per-monomial renderer -----

def reference_render(p, free_names=None, torsion_names=None):
    """The renderer that builds every factor string for every monomial."""
    g = p.ambient
    if free_names is None:
        free_names = ("T",) if g.free_rank == 1 else tuple(
            f"T{i + 1}" for i in range(g.free_rank))
    if torsion_names is None:
        torsion_names = ("a",) if g.torsion_rank == 1 else tuple(
            f"a{i + 1}" for i in range(g.torsion_rank))
    terms = p.terms
    if not terms:
        return "0"
    out = []
    for key in sorted(terms):
        coeff = terms[key]
        free, torsion = split(p, key)
        factors = [name if e == 1 else f"{name}^{e}" for name, e in
                   list(zip(free_names, free)) + list(zip(torsion_names, torsion))
                   if e]
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = f"{abs(coeff)}*{'*'.join(factors)}"
        if out:
            out.append(f" - {body}" if coeff < 0 else f" + {body}")
        else:
            out.append(f"-{body}" if coeff < 0 else body)
    return "".join(out)


@st.composite
def render_cases(draw):
    g = FgAbelianGroup(draw(st.integers(0, 3)),
                       tuple(draw(st.lists(st.integers(2, 5), max_size=2))))
    elements = []
    for _ in range(draw(st.integers(1, 3))):
        # a later element keeps some terms of the one before, as family members do
        kept = elements[-1].terms.items() if elements else ()
        terms = {elem: c for elem, c in kept if draw(st.booleans())}
        for _ in range(draw(st.integers(0, 12))):
            free = tuple(draw(st.integers(-2, 2)) for _ in range(g.free_rank))
            tors = tuple(draw(st.integers(0, o - 1)) for o in g.torsion_orders)
            terms[free + tors] = draw(st.integers(-5, 5).filter(bool))
        elements.append(GroupRingElement(g, terms))
    # None is the default
    free_names = draw(st.sampled_from([None, tuple(f"x{i}" for i in range(g.free_rank))]))
    torsion_names = draw(st.sampled_from([None, tuple(f"g{i}" for i in range(g.torsion_rank))]))
    return elements, free_names, torsion_names


@settings(max_examples=300)
@given(render_cases())
def test_render_matches_per_monomial_renderer(case):
    """Each element rendered on its own."""
    elements, free_names, torsion_names = case
    for p in elements:
        assert p.render(free_names, torsion_names) == \
            reference_render(p, free_names, torsion_names)


def test_renderer_refuses_too_few_names():
    """A short tuple would leave exponents unnamed: t and t*u would both print as t."""
    p = GroupRingElement(FgAbelianGroup(2), {(1, 0): 1, (1, 1): 1})
    assert p.render(("t", "u")) == p.render(("t", "u", "v")) == "t + t*u"
    short = [(p, ("t",), None),
             (GroupRingElement(FgAbelianGroup(0, (2, 3)), {(1, 2): 1}), None, ("g",)),
             (FactoredElement(laurent({0: 1}), blowups=1, torsion=(2,)), ("T",), None)]
    for element, free_names, torsion_names in short:
        with pytest.raises(ValueError):
            element.render(free_names, torsion_names)
        with pytest.raises(ValueError):
            TermRenderer(element, free_names, torsion_names)


def test_factored_element_refuses_a_core_that_overlaps_its_power():
    """T^-1 + T spans 2 at the slot, so (T^-1 + T)(T - T^-1) would merge the
    copies of the core: 4 factored terms against an expansion of 2."""
    with pytest.raises(ValueError):
        FactoredElement(laurent({-1: 1, 1: 1}), (1, 1, 0))
    assert FactoredElement(laurent({-1: 1, 1: 1}), (2, 1, 0)).monomial_count() == 4


@pytest.mark.parametrize("torsion", ((1,), (0,), (2, 1)))
def test_factored_element_refuses_a_trivial_torsion_order(torsion):
    with pytest.raises(ValueError):
        FactoredElement(laurent({0: 1}), torsion=torsion)


def test_factored_element_keeps_its_ambients_torsion_order():
    """(3, 2) is read as its ambient's (2, 3): a1 has order 2 in either."""
    swapped, canonical = (FactoredElement(laurent({0: 1, 1: 1}), blowups=1, torsion=t)
                          for t in ((3, 2), (2, 3)))
    assert swapped == canonical and swapped.torsion == (2, 3)
    assert swapped.expand() == canonical.expand()
    assert swapped.render() == canonical.render()
    assert swapped.monomial_count() == swapped.expand().monomial_count() == 24


def test_power_refused_exactly_past_the_digit_limit():
    """Over Z the power is written out only while C(m, m//2), its largest
    coefficient, prints within the integer string conversion limit."""
    limit = 640
    first = next(m for m in range(3 * limit, 4 * limit) if math.comb(m, m // 2) >= 10 ** limit)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for m in (first - 1, first):
            power = FactoredElement(laurent({0: 1}), (1, m, 0))
            if m < first:
                assert power.render().startswith(("T^", "-T^"))
            else:
                with pytest.raises(GuardViolation) as err:
                    power.render()
                assert err.value.requirement == "within budget"
            # over F2 every coefficient is 1, so nothing is refused
            assert FactoredElement(laurent({0: 1}), (1, m, 0), mod2=True).expand() == \
                signed_binomial(m, 1).mod2()
        with pytest.raises(GuardViolation):
            FactoredElement(laurent({0: 1}), (1, 4 * limit + 1, 0)).render()
        # a core past the limit is refused before any term is formatted
        assert laurent({0: 10 ** limit - 1, 1: 1}).render().endswith(" + T")
        for core in (laurent({0: 1, 1: -10 ** limit}), laurent({1: 10 ** limit})):
            with pytest.raises(GuardViolation) as err:
                FactoredElement(core, blowups=1).render()
            assert err.value.requirement == "within budget"
    finally:
        sys.set_int_max_str_digits(old)
