import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcalc.errors import GuardViolation
from swcalc.groupring import FgAbelianGroup, GroupRingElement, laurent
from swcalc.manifold import (Fingerprint, IntersectionData, ManifoldDescriptor,
                             SWInfo, _signed_binomial, builtin, expected_sw_dimension,
                             homeo_type, mod2_basic_class_count, reverse_orientation)
from swcalc.surgery import connected_sum, connected_sum_all


def test_e2_characteristic_numbers():
    e2 = builtin("E", 2)
    assert (e2.b2_plus, e2.b2_minus) == (3, 19)
    assert e2.spin
    assert e2.sigma == -16
    assert e2.chi == 24
    assert e2.sw_render() == "1"


def test_e3_polynomial_and_count():
    e3 = builtin("E", 3)
    assert e3.sw_render() == "-T^-1 + T"
    assert mod2_basic_class_count(e3) == 2
    assert not e3.spin
    assert e3.sigma == -24
    assert e3.chi == 36


def test_s4():
    s4 = builtin("S4")
    assert s4.chi == 2
    assert s4.sigma == 0
    assert s4.sw.is_zero
    assert mod2_basic_class_count(s4) == 0


def test_cp2bar():
    c = builtin("CP2bar")
    assert c.b2_minus == 1 and c.b2_plus == 0
    assert "admits_psc" in c.capabilities


def test_e1_refused():
    with pytest.raises(GuardViolation) as err:
        builtin("E", 1)
    assert "b2+" in str(err.value)


def test_k3_is_the_index_two_surface():
    k3 = builtin("K3")
    e2 = builtin("E", 2)
    assert k3.fingerprint == e2.fingerprint
    assert k3.sw == e2.sw


def test_s1xs3():
    m = builtin("S1xS3")
    assert m.b1 == 1 and m.chi == 0 and m.spin


def test_unknown_builtin():
    with pytest.raises(GuardViolation):
        builtin("T4")


def test_euler_and_signature_consistency():
    for name, n in [("S4", None), ("CP2", None), ("CP2bar", None),
                    ("S2xS2", None), ("K3", None), ("S1xS3", None),
                    ("E", 2), ("E", 3), ("E", 5)]:
        m = builtin(name, n)
        assert m.chi == 2 - 2 * m.b1 + m.b2_plus + m.b2_minus
        assert m.sigma == m.b2_plus - m.b2_minus
        assert m.intersection.dimension == m.b2


# ----- homeomorphism classification -----

def test_homeo_e2_is_k3():
    h = homeo_type(builtin("E", 2))
    assert (h.parity, h.n, h.m) == ("even", 0, 1)


def test_homeo_cp2_sum():
    m = connected_sum(builtin("CP2"), builtin("CP2bar"))
    h = homeo_type(m)
    assert (h.parity, h.n, h.m) == ("odd", 1, 1)


def test_homeo_e2_stabilized():
    m = connected_sum(builtin("E", 2), builtin("S2xS2"))
    h = homeo_type(m)
    assert (h.parity, h.n, h.m) == ("even", 1, 1)


def test_homeo_reversed_orientation():
    h = homeo_type(reverse_orientation(builtin("K3")))
    assert (h.parity, h.n, h.m, h.orientation) == ("even", 0, 1, -1)


def test_homeo_requires_simply_connected():
    with pytest.raises(GuardViolation):
        homeo_type(builtin("S1xS3"))


def test_homeo_factor_permutation_invariance():
    e3 = builtin("E", 3)
    s2 = builtin("S2xS2")
    cp = builtin("CP2")
    left = connected_sum(connected_sum(e3, s2), cp)
    right = connected_sum(cp, connected_sum(s2, e3))
    assert homeo_type(left) == homeo_type(right)


def test_homeo_spin_bad_signature_rejected():
    bad = ManifoldDescriptor(
        "X", True, 0, 1, 9, (), True, SWInfo.unknown(),
        IntersectionData(h_count=1, minus_count=8))
    with pytest.raises(GuardViolation):
        homeo_type(bad)


@st.composite
def dissolvable_fingerprints(draw):
    """Fingerprints of n*CP2 # m*CP2bar and of +-(n*(S2xS2) # m*K3)."""
    n, m = draw(st.integers(0, 60)), draw(st.integers(0, 10))
    if draw(st.booleans()):
        return Fingerprint(True, n, m, "odd")
    plus, minus = n + 3 * m, n + 19 * m
    if draw(st.booleans()):
        plus, minus = minus, plus
    return Fingerprint(True, plus, minus, "even")


@settings(max_examples=200, deadline=None)
@given(dissolvable_fingerprints())
def test_homeo_type_fingerprint_round_trip(fp):
    assert homeo_type(fp).fingerprint == fp


# ----- expected dimension -----

def test_expected_dimension_e2():
    assert expected_sw_dimension(builtin("E", 2), {}) == 0


def test_expected_dimension_s4():
    assert expected_sw_dimension(builtin("S4"), {}) == -1


def test_expected_dimension_e3_double_fiber():
    assert expected_sw_dimension(builtin("E", 3), {"T": 2}) == 0


def test_expected_dimension_non_integral():
    cp2 = builtin("CP2")
    with pytest.raises(GuardViolation) as err:
        expected_sw_dimension(cp2, {})
    assert "characteristic" in str(err.value)


# ----- counts -----

def test_mod2_count_connected_sum_vanishing():
    m = connected_sum(builtin("E", 2), builtin("E", 2))
    assert mod2_basic_class_count(m) == 0


def test_mod2_count_unknown():
    assert mod2_basic_class_count(builtin("S2xS2")) is None


def test_simple_type_square_enforced():
    g = FgAbelianGroup(1)
    bad_poly = GroupRingElement.monomial(g, (1,))
    with pytest.raises(ValueError):
        ManifoldDescriptor(
            "X", True, 0, 3, 19, (), True, SWInfo.known(bad_poly),
            IntersectionData(("T",), (((1,),),), h_count=10, minus_count=1),
            simple_type=True)


def test_reverse_swaps_betti_and_forgets_sw():
    m = reverse_orientation(builtin("E", 3))
    assert (m.b2_plus, m.b2_minus) == (29, 5)
    assert m.sw.status == "unknown"
    assert m.intersection.gram == ((0,),)


def test_json_shape():
    d = builtin("E", 2).to_json_dict()
    assert d["mod2_basic_classes"] == 1
    assert d["sw"]["status"] == "known"
    assert d["fingerprint"]["parity"] == "even"


@pytest.mark.parametrize("step", [1, 2, 3])
def test_signed_binomial_is_the_power(step):
    base = laurent({step: 1, -step: -1})
    for m in range(41):
        assert _signed_binomial(m, step) == base ** m


def test_equality_of_long_sums_ignores_lineage():
    left = connected_sum_all([builtin("E", 2)] * 300)
    right = connected_sum_all([builtin("E", 2)] * 300)
    assert left == right
    assert hash(left) == hash(right)


# ----- block-diagonal tracked form -----

@st.composite
def symmetric_blocks(draw):
    k = draw(st.integers(1, 3))
    entries = {(i, j): draw(st.integers(-3, 3)) for i in range(k) for j in range(i + 1)}
    return tuple(tuple(entries[max(i, j), min(i, j)] for j in range(k))
                 for i in range(k))


def _greedy_names(pieces):
    taken, out = set(), []
    for names in pieces:
        for name in names:
            candidate, i = name, 2
            while candidate in taken:
                candidate, i = f"{name}_{i}", i + 1
            taken.add(candidate)
            out.append(candidate)
    return tuple(out)


@settings(max_examples=100)
@given(st.lists(symmetric_blocks(), max_size=6), st.data())
def test_block_sum_matches_dense_form(blocks, data):
    pieces = [tuple(data.draw(st.sampled_from(["T", "T_2", "E1"]))
                    + ("" if j == 0 else f"_{j + 1}") for j in range(len(b)))
              for b in blocks]
    forms = [IntersectionData(names, (b,)) for names, b in zip(pieces, blocks)]
    total = IntersectionData()
    for form in forms:
        total = total.direct_sum(form)
    n = sum(len(b) for b in blocks)
    dense = [[0] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            dense[start + i][start:start + len(b)] = row
        start += len(b)
    assert total.gram == tuple(map(tuple, dense))
    assert total.tracked_basis == _greedy_names(pieces)
    vec = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    expected = sum(vec[i] * dense[i][j] * vec[j] for i in range(n) for j in range(n))
    assert total.square(dict(zip(total.tracked_basis, vec))) == expected
    assert total.vector_square(vec) == expected


def test_block_must_be_symmetric():
    with pytest.raises(ValueError):
        IntersectionData(("a", "b"), (((0, 1), (2, 0)),))


def test_blocks_must_cover_the_basis():
    with pytest.raises(ValueError):
        IntersectionData(("a", "b"), (((0,),),))


def test_reused_summand_gets_its_own_names():
    form = IntersectionData(("T",), (((0,),),))
    first = form.direct_sum(form).direct_sum(form)
    again = form.direct_sum(form)
    assert first.tracked_basis == ("T", "T_2", "T_3")
    assert again.tracked_basis == ("T", "T_2")
    assert again.direct_sum(IntersectionData(("T_3",), (((1,),),))).tracked_basis \
        == ("T", "T_2", "T_3")
