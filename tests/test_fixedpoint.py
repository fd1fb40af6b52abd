import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcalc.errors import GuardViolation
from swcalc.fixedpoint import (TorusAutomorphism, _averaging, _kernel, fixed_subtorus,
                               invariant_locus, solve_fixed_points)

from oracles import (angles, apply_generator, fixed_points_by_fractions, normalize,
                     period_walk)


def satisfies_congruences(j, row):
    """Independent check of the chained shift congruences mod 1 at theta = j/k."""
    k = len(row)
    theta = Fraction(j, k)
    angles_ = angles(row, k)
    eqs = [(0 - (angles_[0] + theta)) % 1 == 0]
    for i in range(k - 1):
        eqs.append((angles_[i] - (angles_[i + 1] + theta)) % 1 == 0)
    return all(eqs)


def test_solutions_k3():
    sols = solve_fixed_points(3)
    assert [j for j, _ in sols] == [0, 1, 2]
    assert angles(sols[1][1], 3) == (Fraction(2, 3), Fraction(1, 3), Fraction(0))
    assert sols[1] == (1, (2, 1, 0))


def test_solution_k1():
    sols = solve_fixed_points(1)
    assert len(sols) == 1
    assert angles(sols[0][1], 1) == (Fraction(0),)


def test_solutions_k2():
    sols = solve_fixed_points(2)
    assert [angles(row, 2) for _, row in sols] == [
        (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0))]


def test_counts_up_to_fifty():
    for k in range(1, 51):
        assert len(solve_fixed_points(k)) == k
        assert len(invariant_locus(k)) == 1


def test_solutions_satisfy_congruences():
    for k in range(1, 13):
        for j, row in solve_fixed_points(k):
            assert satisfies_congruences(j, row)


def test_invariant_locus_is_theta_zero():
    locus = invariant_locus(5)
    assert len(locus) == 1
    assert locus[0][0] == 0


def test_invariant_locus_strict_subset():
    for k in range(2, 13):
        assert len(invariant_locus(k)) < len(solve_fixed_points(k))


def test_locus_ratio():
    for k in range(1, 13):
        assert len(invariant_locus(k)) / len(solve_fixed_points(k)) == 1 / k


# ----- generator action (the oracle in tests/oracles.py) -----

def test_fixed_tuple_is_fixed_up_to_gauge():
    j, row = solve_fixed_points(3)[1]
    assert apply_generator(row, 3, Fraction(j, 3)) == row


def test_identity_on_zero_tuple():
    zero = (0,) * 4
    assert apply_generator(zero, 4, 0) == zero


def test_generator_permutes_fixed_set():
    for k in range(1, 13):
        fixed = {row for _, row in solve_fixed_points(k)}
        for j, row in solve_fixed_points(k):
            assert apply_generator(row, k, Fraction(j, k)) in fixed
        assert {apply_generator(row, k, 0) for row in fixed} == fixed


def test_normalize_reduces_mod_one():
    out = normalize([Fraction(5, 4), Fraction(1, 2)], 4)
    assert out == (3, 0)
    assert angles(out, 4) == (Fraction(3, 4), Fraction(0))


# ----- torus automorphisms -----

def test_identity_automorphism():
    aut = TorusAutomorphism(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1)
    out = fixed_subtorus(aut)
    assert out.dimension == 3
    assert out.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_cyclic_permutation_matrix():
    for k in (2, 3, 5):
        rows = tuple(tuple(1 if j == (i + 1) % k else 0 for j in range(k))
                     for i in range(k))
        out = fixed_subtorus(TorusAutomorphism(rows, k))
        assert out.dimension == 1
        assert out.basis == ((1,) * k,)


def test_minus_identity():
    aut = TorusAutomorphism(((-1, 0), (0, -1)), 2)
    assert fixed_subtorus(aut).dimension == 0


def test_block_mix():
    rows = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    out = fixed_subtorus(TorusAutomorphism(rows, 2))
    assert out.dimension == 2


def test_wrong_order_rejected():
    with pytest.raises(GuardViolation):
        TorusAutomorphism(((0, 1), (1, 0)), 3)


@pytest.mark.parametrize("order", [2.0, "2", True, None, 0])
def test_non_integer_order_rejected(order):
    with pytest.raises(ValueError, match="order must be a positive integer"):
        TorusAutomorphism(((0, 1), (1, 0)), order)


@pytest.mark.parametrize("matrix", [((1.0,),), ((True,),), (("1",),),
                                    ((1, 0), (0, 1.5))])
def test_non_integer_matrix_rejected(matrix):
    with pytest.raises(ValueError):
        TorusAutomorphism(matrix, 1)


def test_averages_over_least_period():
    start = time.perf_counter()
    out = fixed_subtorus(TorusAutomorphism(((1,),), 10 ** 7))
    assert (out.dimension, out.basis) == (1, ((1,),))
    assert time.perf_counter() - start < 2.0


def sympy_fixed_subtorus(matrix):
    """Independent kernel of D - I by sympy, normalized as the library does:
    primitive integer vectors whose first nonzero entry is positive."""
    import sympy

    n = len(matrix)
    basis = []
    for vec in (sympy.Matrix(matrix) - sympy.eye(n)).nullspace():
        lcm = math.lcm(*(int(x.q) for x in vec))
        ints = [int(x * lcm) for x in vec]
        g = math.gcd(*ints)
        ints = [x // g for x in ints]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        basis.append(tuple(ints))
    return len(basis), tuple(basis)


# Finite-order blocks with their orders: +-1, rotations of order 4, 3 and
# 6, and the swap of two coordinates.
BLOCKS = [(((1,),), 1), (((-1,),), 2), (((0, -1), (1, 0)), 4),
          (((0, -1), (1, -1)), 3), (((1, -1), (1, 0)), 6), (((0, 1), (1, 0)), 2)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=4), st.data())
def test_fixed_subtorus_matches_sympy(blocks, data):
    n = sum(len(b) for b, _ in blocks)
    block = [[0] * n for _ in range(n)]
    offset = 0
    for b, _ in blocks:
        for i, row in enumerate(b):
            block[offset + i][offset:offset + len(b)] = row
        offset += len(b)
    # conjugate by a signed permutation P: D = P B P^-1, P e_j = s_j e_perm[j]
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            matrix[perm[i]][perm[j]] = signs[i] * signs[j] * block[i][j]
    # then by transvections E = I + c e_a e_b^T, D -> E D E^-1, so that D - I
    # has pivots other than +-1 and rows whose entries share a factor
    moves = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         st.sampled_from((-2, -1, 1, 2))), max_size=n))
    for a, b, c in moves:
        if a != b:
            for row in matrix:  # right by E^-1: column b -= c * column a
                row[b] -= c * row[a]
            matrix[a] = [x + c * y for x, y in zip(matrix[a], matrix[b])]
    order = math.lcm(*(o for _, o in blocks))
    out = fixed_subtorus(TorusAutomorphism(tuple(map(tuple, matrix)), order))
    assert (out.dimension, out.basis) == sympy_fixed_subtorus(matrix)


def test_fixed_subtorus_of_a_unimodular_conjugate():
    """D = P (I_2 + rotation of order 4) P^-1 for a P of determinant 1.  The
    third row of D - I is 2 (1, -3, 1, -2), and both pivots of its integer
    echelon are -2."""
    d = ((3, -4, 1, -4), (2, -5, 2, -4), (2, -6, 3, -4), (0, 2, -1, 1))
    out = fixed_subtorus(TorusAutomorphism(d, 4))
    assert (out.dimension, out.basis) == (2, ((1, 1, 2, 0), (2, 0, 0, 1)))
    assert (out.dimension, out.basis) == sympy_fixed_subtorus(d)
    for v in out.basis:
        assert tuple(sum(x * y for x, y in zip(row, v)) for row in d) == v


# ----- the averaging projector against the period walk (tests/oracles.py) -----

def cycle_matrix(cycles):
    """The permutation matrix with the given cycle lengths on consecutive indices."""
    perm, start = [], 0
    for c in cycles:
        perm += [start + (i + 1) % c for i in range(c)]
        start += c
    return tuple(tuple(int(perm[j] == i) for j in range(start)) for i in range(start))


def assert_projector_is_the_walk(d):
    """fixed_subtorus's checked c and P' against the walk's S and m: cS = mP'."""
    s, m = period_walk(d)
    a = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(d)]
    kernel = _kernel(a)
    if not kernel:  # no fixed vector: the walk averages every vector to 0
        assert not any(map(any, s))
        return
    c, p = _averaging(d, kernel, _kernel(list(zip(*a))))
    assert [[c * x for x in row] for row in s] == [[m * x for x in row] for row in p]


# The largest least periods of permutations of 19, 23, 25 and 29 points
# (Landau's function), with smaller types of the same shape.
@pytest.mark.parametrize("cycles", [(1,), (1, 1), (2,), (2, 3), (1, 2, 2), (3, 4, 5),
                                    (3, 4, 5, 7), (3, 5, 7, 8), (4, 5, 7, 9), (5, 7, 8, 9)])
def test_projector_is_the_period_walk_on_cycle_types(cycles):
    assert_projector_is_the_walk(cycle_matrix(cycles))


def _conjugate_by_signed_permutation(draw, block):
    """P B P^-1 for a drawn signed permutation P, P e_j = s_j e_perm[j]."""
    n = len(block)
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            matrix[perm[i]][perm[j]] = signs[i] * signs[j] * block[i][j]
    return matrix


@st.composite
def finite_order_matrices(draw, first=st.sampled_from(BLOCKS)):
    """A block sum of ``first`` and up to three BLOCKS conjugated by a signed
    permutation and then by transvections, as in test_fixed_subtorus_matches_sympy."""
    blocks = [draw(first)] + draw(st.lists(st.sampled_from(BLOCKS), max_size=3))
    n = sum(len(b) for b, _ in blocks)
    block = [[0] * n for _ in range(n)]
    offset = 0
    for b, _ in blocks:
        for i, row in enumerate(b):
            block[offset + i][offset:offset + len(b)] = row
        offset += len(b)
    matrix = _conjugate_by_signed_permutation(draw, block)
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.sampled_from((-2, -1, 1, 2))), max_size=n))
    for a, b, c in moves:
        if a != b:
            for row in matrix:
                row[b] -= c * row[a]
            matrix[a] = [x + c * y for x, y in zip(matrix[a], matrix[b])]
    return tuple(map(tuple, matrix))


@settings(max_examples=100, deadline=None)
@given(finite_order_matrices())
def test_projector_is_the_period_walk_on_conjugates(d):
    assert_projector_is_the_walk(d)


@st.composite
def fixed_vector_not_orthogonal(draw):
    """P D P^-1 for D = [[1, x], [0, C]], C of finite order and not I (its
    first block is not the 1x1 identity), x = t * row r of C - I with t != 0,
    and P a signed permutation.  With S the sum of C^i for i < m = order(C),
    x S = t e_r^T (C^m - I) = 0, so D^m = I; e_0 is fixed, and
    e_0^T (D - I) = (0, x) != 0.  P is orthogonal, so K^T (D - I) != 0 holds
    for the conjugate too, while its fixed vector moves off index 0."""
    c = draw(finite_order_matrices(st.sampled_from(BLOCKS[1:])))
    a = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(c)]
    r = draw(st.sampled_from([i for i, row in enumerate(a) if any(row)]))
    t = draw(st.sampled_from((-2, -1, 1, 2)))
    d = [[1, *(t * x for x in a[r])]] + [[0, *row] for row in c]
    return tuple(map(tuple, _conjugate_by_signed_permutation(draw, d)))


@settings(max_examples=50, deadline=None)
@given(fixed_vector_not_orthogonal())
def test_orthogonal_projector_is_refused(d):
    """With L = K^T, P' = c K (K^T K)^-1 K^T is the orthogonal projector onto
    ker(D - I): idempotent and fixed by D, but P'D = P' fails as soon as
    K^T (D - I) is not 0, as it is not for these D."""
    a = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(d)]
    kernel = _kernel(a)
    assert any(sum(v[i] * a[i][j] for i in range(len(d))) for v in kernel
               for j in range(len(d)))
    with pytest.raises(AssertionError, match=r"vanish on im\(D - I\)"):
        _averaging(d, kernel, kernel)


def test_solutions_match_closed_form_and_locus_is_theta_zero():
    """Row j is the residues ((k-1-i) j mod k)_i over k: read as angles n/k,
    it is the Fraction formula's tuple at theta = j/k.  The formula's angles
    are compared as numerators over k, so no Fraction is built per entry."""
    for k in range(1, 201):
        sols = solve_fixed_points(k)
        assert [j for j, _ in sols] == list(range(k))
        over_k = [(theta.numerator * (k // theta.denominator),
                   tuple(a.numerator * (k // a.denominator) for a in point))
                  for theta, point in fixed_points_by_fractions(k)]
        assert [(j, row) for j, row in sols] == over_k
        assert invariant_locus(k) == sols[:1]


def test_invariant_locus_guard():
    for k in (0, -2):
        with pytest.raises(GuardViolation):
            invariant_locus(k)


def test_fixed_tuples_equal_checked_construction():
    """Every row is in gauge normal form: a tuple of k ints n in [0, k), the
    numerators of angles n/k, with the last angle pinned to 0."""
    for k in range(1, 201):
        for j, row in solve_fixed_points(k) + invariant_locus(k):
            assert type(j) is int and 0 <= j < k
            assert type(row) is tuple and len(row) == k
            assert all(type(n) is int and 0 <= n < k for n in row)
            assert row[-1] == 0
