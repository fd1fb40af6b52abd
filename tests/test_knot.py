import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcalc.errors import GuardViolation, UnsupportedOperation
from swcalc.groupring import FgAbelianGroup, GroupRingElement, laurent
from swcalc.knot import AlexanderPoly, alexander_family, torus_knot, unknot, validate

from oracles import laurent_coeffs


def sympy_torus_oracle(p, q):
    """Independent construction by symbolic exact division."""
    import sympy

    t = sympy.symbols("t")
    num = sympy.Poly((t ** (p * q) - 1) * (t - 1), t)
    den = sympy.Poly((t ** p - 1) * (t ** q - 1), t)
    quo, rem = sympy.div(num, den, t)
    assert rem == 0
    shift = (p - 1) * (q - 1) // 2
    coeffs = {}
    for (exp,), coeff in sympy.Poly(quo, t).terms():
        coeffs[int(exp) - shift] = int(coeff)
    return coeffs


def test_trefoil_frozen_value():
    assert laurent_coeffs(torus_knot(2, 3).poly) == {1: 1, 0: -1, -1: 1}


def test_cinquefoil_frozen_value():
    assert laurent_coeffs(torus_knot(2, 5).poly) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5)])
def test_torus_knot_matches_division_oracle(p, q):
    assert laurent_coeffs(torus_knot(p, q).poly) == sympy_torus_oracle(p, q)


def test_torus_knot_normalized_at_one():
    assert torus_knot(2, 3).poly.evaluate_at_one() == 1


def test_torus_knot_symmetric_in_p_q():
    for p, q in [(2, 3), (3, 5), (2, 7)]:
        assert torus_knot(p, q).poly == torus_knot(q, p).poly


def test_torus_knot_rejects_non_coprime():
    with pytest.raises(GuardViolation):
        torus_knot(2, 4)
    with pytest.raises(GuardViolation):
        torus_knot(1, 5)


def test_family_displayed_polynomial():
    assert laurent_coeffs(alexander_family(1, 1).poly) == {0: 1, 1: -1, -1: -1, 2: 1, -2: 1}


def test_family_value_at_one():
    assert alexander_family(1, 1).poly.evaluate_at_one() == 1


def test_family_term_count():
    assert alexander_family(2, 1).poly.monomial_count() == 9


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(1, 5))
def test_family_shape(d, n):
    fam = alexander_family(d, n)
    coeffs = laurent_coeffs(fam.poly)
    assert len(coeffs) == 4 * d + 1
    assert all(abs(c) == 1 for c in coeffs.values())
    assert fam.poly.evaluate_at_one() == 1


@pytest.mark.parametrize("n", (1, 2, 5))
def test_family_closed_form_update(n):
    """Delta_d - Delta_{d-1} = t^{+-2dn} - t^{+-(2d-1)n} with Delta_0 = 1, the
    update the knot-family members are built from, and every Delta_d has 4d+1
    terms, is symmetric and has Delta(1) = 1."""
    prev = {0: 1}
    for d in range(1, 301):
        fam = alexander_family(d, n)
        coeffs = laurent_coeffs(fam.poly)
        assert len(coeffs) == 4 * d + 1 and fam.poly.evaluate_at_one() == 1
        assert all(coeffs.get(-e) == c for e, c in coeffs.items())
        diff = {e: coeffs.get(e, 0) - prev.get(e, 0) for e in coeffs.keys() | prev.keys()}
        near, far = (2 * d - 1) * n, 2 * d * n
        assert {e: c for e, c in diff.items() if c} == {far: 1, -far: 1, near: -1, -near: -1}
        prev = coeffs


@pytest.mark.parametrize("ambient", (FgAbelianGroup(2), FgAbelianGroup(1, (2,))))
def test_alexander_poly_needs_a_single_variable_laurent_polynomial(ambient):
    with pytest.raises(UnsupportedOperation):
        AlexanderPoly(GroupRingElement.one(ambient))


def test_family_rejects_bad_params():
    with pytest.raises(GuardViolation):
        alexander_family(0, 1)
    with pytest.raises(GuardViolation):
        alexander_family(1, 0)


def test_validate_accepts_trefoil_shape():
    out = validate(laurent({1: 1, 0: -1, -1: 1}))
    assert laurent_coeffs(out.poly) == {1: 1, 0: -1, -1: 1}


def test_validate_rejects_asymmetric():
    with pytest.raises(GuardViolation):
        validate(laurent({1: 1, 0: 1}))


@pytest.mark.parametrize("coeffs, message, requirement", [
    ({2: 1, 0: -1, -1: 1}, "must be symmetric", "symmetrized Alexander polynomial"),
    ({2: -1, 0: 1, -1: -1}, "must be symmetric", "symmetrized Alexander polynomial"),
    ({1: 1, 0: 1}, "evaluates to 2 at t = 1", "Delta(1) = +-1"),
])
def test_validate_messages(coeffs, message, requirement):
    """Delta(1) = +-1 is checked first; symmetry is AlexanderPoly's check."""
    with pytest.raises(GuardViolation, match=message) as err:
        validate(laurent(coeffs))
    assert err.value.requirement == requirement


def test_validate_normalizes_sign():
    out = validate(laurent({1: -1, 0: 1, -1: -1}))
    assert out.poly.evaluate_at_one() == 1
    assert laurent_coeffs(out.poly) == {1: 1, 0: -1, -1: 1}


def test_validate_rejects_wrong_value_at_one():
    with pytest.raises(GuardViolation):
        validate(laurent({1: 1, 0: 1, -1: 1}))


def test_unknot_is_constant_one():
    assert laurent_coeffs(unknot().poly) == {0: 1}


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4)])
def test_constructors_pass_validate_unchanged(p, q):
    knot = torus_knot(p, q)
    assert validate(knot.poly).poly == knot.poly


def test_family_passes_validate_unchanged():
    fam = alexander_family(3, 2)
    assert validate(fam.poly).poly == fam.poly


def test_product_of_knots_is_a_knot():
    prod = AlexanderPoly(torus_knot(2, 3).poly * alexander_family(1, 1).poly)
    assert prod.poly.evaluate_at_one() == 1
    coeffs = laurent_coeffs(prod.poly)
    assert all(coeffs[-e] == c for e, c in coeffs.items())


def test_torus_knot_times_denominator_is_numerator():
    """Delta (t^p - 1)(t^q - 1) = (t^pq - 1)(t - 1), shifted by the centring,
    by group-ring multiplication."""
    for p in range(2, 31):
        for q in range(p + 1, 31):
            if math.gcd(p, q) != 1:
                continue
            shift = laurent({-((p - 1) * (q - 1) // 2): 1})
            lhs = torus_knot(p, q).poly * laurent({p: 1, 0: -1}) * laurent({q: 1, 0: -1})
            assert lhs == shift * laurent({p * q: 1, 0: -1}) * laurent({1: 1, 0: -1})
