import gc
import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swcalc import lattice
from swcalc.cli import run_command
from swcalc.errors import GuardViolation
from swcalc.lattice import (QuadraticForm, _square_minus_one,
                            characteristic_count, characteristic_vectors,
                            diagonal_form, diagonalize, e8_form,
                            max_characteristic_square, spinc_from_basis)


def is_characteristic(q, c):
    return all((q.pairing(c, basis) - q.evaluate(basis)) % 2 == 0
               for basis in identity_rows(q.rank))


def identity_rows(n):
    return [[1 if j == i else 0 for j in range(n)] for i in range(n)]


# ----- form validation -----

def test_form_validation():
    with pytest.raises(ValueError):
        QuadraticForm(((1,),))  # positive definite
    with pytest.raises(ValueError):
        QuadraticForm(((-2,),))  # not unimodular
    with pytest.raises(ValueError):
        QuadraticForm(((-1, 1), (0, -1)))  # not symmetric
    assert QuadraticForm(()).rank == 0


def test_form_validation_messages():
    cases = [(((0, -1, 0), (-1, 0, 0), (0, 0, -1)), "negative definite"),  # row swap
             (((-1, 0), (0, 1)), "negative definite"),
             (((-1, -1), (-1, -1)), "unimodular"),  # singular
             (((0, 1), (1, 0)), "negative definite"),
             (((-1.0,),), "integers"), (((False,),), "integers")]
    for gram, message in cases:
        with pytest.raises(ValueError, match=message):
            QuadraticForm(gram)


def test_lattice_job_eliminates_once(monkeypatch, capsys):
    """Validation, the characteristic search and the diagonalization of a
    form share one Bareiss elimination."""
    calls = []
    real = lattice._bareiss
    monkeypatch.setattr(lattice, "_bareiss", lambda gram: calls.append(gram) or real(gram))
    assert run_command(["lattice", "--fixture", "e8", "--bound", "1"]) == 0
    assert len(calls) == 1


def test_form_equality_hash_and_repr_see_only_the_gram():
    q, r = e8_form(), e8_form()
    assert q == r and hash(q) == hash(r)
    assert repr(q) == f"QuadraticForm(gram={q.gram!r})"
    assert q != diagonal_form(8)


def test_e8_fixture_is_even_unimodular_definite():
    q = e8_form()
    assert q.rank == 8
    assert all(q.gram[i][i] == -2 for i in range(8))


# ----- characteristic vectors -----

def test_rank_one_odd_multiples():
    vecs = characteristic_vectors(diagonal_form(1), 3)
    assert sorted(vecs) == [(-3,), (-1,), (1,), (3,)]


def test_rank_two_units():
    vecs = characteristic_vectors(diagonal_form(2), 1)
    assert sorted(vecs) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_e8_contains_zero():
    vecs = characteristic_vectors(e8_form(), 1)
    assert (0,) * 8 in vecs


def test_characteristic_closed_under_negation():
    for q, bound in [(diagonal_form(3), 2), (e8_form(), 1),
                     (QuadraticForm(((-2, 1), (1, -1))), 2)]:
        vecs = set(characteristic_vectors(q, bound))
        assert {tuple(-x for x in v) for v in vecs} == vecs


def test_even_form_contains_zero_always():
    for q in (e8_form(),):
        assert (0,) * q.rank in characteristic_vectors(q, 1)


def test_characteristic_condition_verified():
    q = QuadraticForm(((-2, 1), (1, -1)))
    for c in characteristic_vectors(q, 2):
        assert is_characteristic(q, c)


# ----- max characteristic square -----

def test_max_square_diag3():
    r = max_characteristic_square(diagonal_form(3), 1)
    assert (r.value, r.achiever, r.bound_limited) == (-3, (1, 1, 1), False)


def test_max_square_rank1():
    r = max_characteristic_square(diagonal_form(1), 3)
    assert (r.value, r.achiever, r.bound_limited) == (-1, (1,), False)


def test_max_square_e8_flags_the_even_gap():
    r = max_characteristic_square(e8_form(), 2)
    assert r.value == 0
    assert r.achiever == (0,) * 8
    assert r.bound_limited


def test_max_square_diagonals_up_to_six():
    for rank in range(1, 7):
        r = max_characteristic_square(diagonal_form(rank), 1)
        assert r.value == -rank
        assert r.achiever == (1,) * rank
        assert not r.bound_limited


def test_max_square_rank_zero():
    r = max_characteristic_square(QuadraticForm(()), 1)
    assert (r.value, r.achiever, r.bound_limited) == (0, (), False)


# ----- diagonalization -----

def test_diagonalize_diag_is_identityish():
    basis = diagonalize(diagonal_form(2), 1)
    assert basis == ((1, 0), (0, 1))


def test_diagonalize_nontrivial_form():
    q = QuadraticForm(((-2, 1), (1, -1)))
    basis = diagonalize(q, 3)
    assert basis is not None
    for i, v in enumerate(basis):
        for j, w in enumerate(basis):
            assert q.pairing(v, w) == (-1 if i == j else 0)


def test_diagonalize_e8_not_found():
    assert diagonalize(e8_form(), 2) is None


def test_diagonalize_rank_guard():
    big = diagonal_form(9)
    with pytest.raises(GuardViolation):
        diagonalize(big, 1)


@pytest.mark.parametrize("search", [
    lambda q: max_characteristic_square(q, 3),
    lambda q: _square_minus_one(q, 2),
], ids=["max_characteristic_square", "square_minus_one"])
@pytest.mark.parametrize("q", [e8_form(), diagonal_form(5)], ids=["e8", "diag5"])
def test_searches_leave_no_reference_cycles(search, q):
    gc.collect()
    search(q)
    assert gc.collect() == 0


# ----- maximal-square class -----

def spinc_in_box(q, bound):
    """The class of square -rank that the CLI prints: the sum of the
    diagonalizing basis found inside the box."""
    return spinc_from_basis(q, diagonalize(q, bound))


def test_spinc_diag2():
    q = diagonal_form(2)
    out = spinc_in_box(q, 2)
    assert out == (1, 1)
    assert q.evaluate(out) == -2


def test_spinc_diag1():
    assert spinc_in_box(diagonal_form(1), 1) == (1,)


def test_spinc_rank0():
    q = QuadraticForm(())
    out = spinc_in_box(q, 1)
    assert out == ()
    assert q.evaluate(out) == 0


def test_spinc_nontrivial_form_is_characteristic():
    q = QuadraticForm(((-2, 1), (1, -1)))
    out = spinc_in_box(q, 3)
    assert q.evaluate(out) == -2
    assert is_characteristic(q, out)


def test_spinc_e8_not_found():
    assert spinc_in_box(e8_form(), 2) is None
    assert spinc_from_basis(e8_form(), None) is None


# ----- equivalence with brute force over the full box -----

def square(gram, v):
    n = len(v)
    return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def full_box(rank, bound):
    """Every vector of [-bound, bound]^rank, descending lexicographically."""
    return itertools.product(range(bound, -bound - 1, -1), repeat=rank)


def brute_characteristic(gram, bound):
    n = len(gram)
    return [c for c in full_box(n, bound)
            if all((sum(gram[i][j] * c[j] for j in range(n)) - gram[i][i]) % 2 == 0
                   for i in range(n))]


def brute_diagonalize(gram, depth):
    """The first-fit depth-first search over the box's square -1 vectors."""
    n = len(gram)
    cands = [v for v in full_box(n, depth) if square(gram, v) == -1]
    chosen = []

    def pair(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(n) for j in range(n))

    def extend(start):
        if len(chosen) == n:
            return True
        for idx in range(start, len(cands)):
            if all(pair(cands[idx], cands[c]) == 0 for c in chosen):
                chosen.append(idx)
                if extend(idx + 1):
                    return True
                chosen.pop()
        return False

    return tuple(cands[i] for i in chosen) if extend(0) else None


@st.composite
def minus_u_ut(draw, max_rank):
    """-U U^T for a random unimodular U: elementary row operations, then
    a random row order and signs."""
    n = draw(st.integers(1, max_rank))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                                      st.sampled_from((-1, 1))), max_size=2 * n))
        for i, shift, c in ops:
            j = (i + shift) % n
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    u = draw(st.permutations(u))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    u = [[s * a for a in row] for s, row in zip(signs, u)]
    return tuple(tuple(-sum(u[i][t] * u[j][t] for t in range(n)) for j in range(n))
                 for i in range(n))


def seeded_minus_u_ut(seed, n):
    rng = random.Random(seed)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        (i, j), c = rng.sample(range(n), 2), rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return tuple(tuple(-sum(u[i][t] * u[j][t] for t in range(n)) for j in range(n))
                 for i in range(n))


def e8_plus_diag(k):
    e8 = e8_form().gram
    n = 8 + k
    return tuple(tuple(e8[i][j] if i < 8 and j < 8 else -(i == j) for j in range(n))
                 for i in range(n))


def assert_matches_brute_force(gram, bound):
    q = QuadraticForm(gram)
    expected = brute_characteristic(gram, bound)
    assert characteristic_vectors(q, bound) == expected
    best = max(square(gram, c) for c in expected)
    first = next(c for c in expected if square(gram, c) == best)
    r = max_characteristic_square(q, bound)
    assert (r.value, r.achiever, r.bound_limited) == (best, first, best != -q.rank)


@settings(max_examples=60, deadline=None)
@given(minus_u_ut(5), st.integers(1, 3))
def test_characteristic_enumeration_matches_full_box(gram, bound):
    assert_matches_brute_force(gram, bound)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_e8_plus_diag_matches_full_box(k):
    assert_matches_brute_force(e8_plus_diag(k), 1)


@settings(max_examples=60, deadline=None)
@given(minus_u_ut(4), st.integers(1, 2))
@example(e8_plus_diag(0), 1)
@example(diagonal_form(8).gram, 1)
@example(seeded_minus_u_ut(1, 5), 2)
@example(seeded_minus_u_ut(2, 6), 2)
@example(seeded_minus_u_ut(2, 7), 2)
@example(seeded_minus_u_ut(3, 7), 2)
@example(seeded_minus_u_ut(1, 8), 1)
def test_diagonalize_matches_box_search(gram, depth):
    assert diagonalize(QuadraticForm(gram), depth) == brute_diagonalize(gram, depth)


def fraction_verdict(gram):
    """Gaussian elimination over Q on -gram, swapping rows only at a zero
    pivot: the validation message a form should get, None if admissible."""
    n = len(gram)
    rows = [[Fraction(-x) for x in row] for row in gram]
    swapped = False
    for k in range(n):
        if rows[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if pivot is None:
                return "form must be unimodular"
            rows[k], rows[pivot] = rows[pivot], rows[k]
            swapped = True
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    pivots = [rows[k][k] for k in range(n)]
    prod = 1
    for d in pivots:
        prod *= d
    if abs(prod) != 1:
        return "form must be unimodular"
    if swapped or any(d <= 0 for d in pivots):
        return "form must be negative definite"
    return None


@st.composite
def symmetric_matrices(draw, max_rank):
    """Small symmetric integer matrices; zero diagonal entries are common,
    so many need a row swap."""
    n = draw(st.integers(1, max_rank))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-2, 1))
    return tuple(map(tuple, gram))


@settings(max_examples=300, deadline=None)
@given(st.one_of(symmetric_matrices(6), minus_u_ut(6)))
def test_validation_matches_fraction_elimination(gram):
    expected = fraction_verdict(gram)
    if expected is None:
        assert QuadraticForm(gram).gram == gram
    else:
        with pytest.raises(ValueError, match=f"^{expected}$"):
            QuadraticForm(gram)


@pytest.mark.parametrize("q", [diagonal_form(8), e8_form(),
                               QuadraticForm(seeded_minus_u_ut(1, 8)),
                               QuadraticForm(seeded_minus_u_ut(2, 8))],
                         ids=["diag8", "e8", "unimodular1", "unimodular2"])
def test_max_square_matches_enumeration_at_default_bound(q):
    chars = characteristic_vectors(q, 3)
    assert characteristic_count(q, 3) == len(chars)
    first = max(chars, key=q.evaluate)
    r = max_characteristic_square(q, 3)
    assert (r.value, r.achiever) == (q.evaluate(first), first)


@settings(max_examples=60, deadline=None)
@given(minus_u_ut(5), st.integers(1, 3))
def test_square_minus_one_matches_box_filter(gram, depth):
    expected = [v for v in full_box(len(gram), depth) if square(gram, v) == -1]
    assert _square_minus_one(QuadraticForm(gram), depth) == expected


# ----- command line: golden answers and the work guard -----

def run_lattice(capsys, *args):
    start = time.perf_counter()
    code = run_command(["lattice", *args])
    elapsed = time.perf_counter() - start
    return code, json.loads(capsys.readouterr().out), elapsed


def test_cli_e8_default_bound(capsys):
    code, data, _ = run_lattice(capsys, "--fixture", "e8")
    assert code == 0
    assert data["characteristic_vectors"]["count"] == 6561
    assert data["max_characteristic_square"]["value"] == 0
    assert data["max_characteristic_square"]["bound_limited"] is True


def test_cli_diag8_default_bound(capsys):
    code, data, _ = run_lattice(capsys, "--fixture", "diag:8")
    assert code == 0
    assert data["characteristic_vectors"]["count"] == 65536
    assert data["max_characteristic_square"]["value"] == -8


@pytest.mark.parametrize("args", [("--fixture", "diag:11"),
                                  ("--fixture", "diag:16", "--bound", "1")])
def test_cli_work_guard_refuses_fast(capsys, args):
    code, data, elapsed = run_lattice(capsys, *args)
    assert code == 1
    assert data["error"]["requirement"] == "desk-scale enumeration"
    assert elapsed < 1.0


@pytest.mark.parametrize("args", [("--fixture", "diag:14", "--bound", "1"),
                                  ("--fixture", "diag:7", "--bound", "4")])
def test_cli_work_guard_accepts(capsys, args):
    code, _, _ = run_lattice(capsys, *args)
    assert code == 0


def test_cli_huge_depth_is_fast(capsys):
    code, data, elapsed = run_lattice(capsys, "--fixture", "diag:2", "--depth", "1000000")
    assert code == 0
    assert data["diagonalize"]["basis"] == [[1, 0], [0, 1]]
    assert elapsed < 1.0


def test_cli_diag8_is_fast(capsys):
    start = time.perf_counter()
    for _ in range(10):
        assert run_command(["lattice", "--fixture", "diag:8"]) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


@pytest.mark.parametrize("limit,listed", [(8, True), (7, False)])
def test_cli_lists_vectors_up_to_the_limit(capsys, limit, listed):
    code, data, _ = run_lattice(capsys, "--fixture", "diag:3", "--bound", "1",
                                "--list-limit", str(limit))
    assert code == 0
    chars = data["characteristic_vectors"]
    assert chars["count"] == 8
    assert (chars["vectors"] == [list(v) for v in itertools.product((1, -1), repeat=3)]
            if listed else chars["vectors"] is None)
