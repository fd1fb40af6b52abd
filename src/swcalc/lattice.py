"""Negative definite unimodular integral forms.

Characteristic-vector enumeration over a coordinate box, maximization of
the characteristic square (the realizability bound c.c <= -rank), and a
desk-scale search for an orthogonal basis of square -1 vectors.  The
even rank-8 form ships as a fixture: it has no square -1 vectors and its
characteristic maximum is 0 rather than -8, which is exactly the pattern
that cannot occur as the intersection form of a smooth manifold of this
kind.  All arithmetic is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import mul
from typing import Sequence

from .errors import GuardViolation

# Refuse a characteristic enumeration when count * rank^2 exceeds this: it sizes
# the box of characteristic vectors that the pruned search and the listing may visit.
MAX_ENUMERATION_WORK = 6_000_000

# Largest rank that ``diagonalize`` searches: the square -1 search visits up
# to (2*depth+1)^rank nodes with no node budget.
DIAGONALIZE_MAX_RANK = 8


def _bareiss(gram) -> tuple[list[list[int]], bool]:
    """Fraction-free (Bareiss) elimination of -gram, swapping rows only at a
    zero pivot; returns the rows, leading principal minors p_j on the diagonal
    (a singular form stops at a zero one), and whether a swap happened."""
    n = len(gram)
    rows = [[-x for x in row] for row in gram]
    swapped = False
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if pivot is None:
                break
            rows[k], rows[pivot] = rows[pivot], rows[k]
            swapped = True
        p, top = rows[k][k], rows[k][k + 1:]
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(a * p - f * b) // prev for a, b in zip(row[k + 1:], top)]
        prev = p
    return rows, swapped


@dataclass(frozen=True)
class QuadraticForm:
    """Unimodular negative definite symmetric integer matrix.

    Rank 0 (the empty form) is allowed so that the b2 = 0 case of the
    maximal-square construction goes through trivially.
    """

    gram: tuple[tuple[int, ...], ...]
    # Kept from validation: (W, [(w_j, p_j, m_j)]) with -v.v * W = sum_j w_j
    # (p_j v_j + s_j)^2, s_j = m_j.v[j+1:], w_j = W / (p_{j-1} p_j), p_{-1} = 1,
    # W their lcm; and the parity of each coordinate of a characteristic vector.
    _squares: tuple = field(init=False, compare=False, repr=False)
    _parity: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        gram = tuple(tuple(row) for row in self.gram)
        if any(type(x) is not int for row in gram for x in row):
            raise ValueError("gram entries must be integers")
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
            raise ValueError("gram matrix must be symmetric")
        rows, swapped = _bareiss(gram)
        minors = [rows[k][k] for k in range(n)]
        if 0 in minors or n and abs(minors[-1]) != 1:
            raise ValueError("form must be unimodular")
        if swapped or any(p <= 0 for p in minors):
            raise ValueError("form must be negative definite")
        pairs = [a * b for a, b in zip([1] + minors, minors)]
        scale = math.lcm(*pairs)
        object.__setattr__(self, "_squares", (scale, [
            (scale // pair, rows[j][j], rows[j][j + 1:]) for j, pair in enumerate(pairs)]))
        # A unimodular form is invertible mod 2, so the characteristic vectors
        # are one parity class w + 2Z^n: gram.w = diag(gram) mod 2 is solved
        # over GF(2), one bitmask per equation with the right-hand side in bit n.
        eqs = [sum((x & 1) << j for j, x in enumerate(row)) | (row[i] & 1) << n
               for i, row in enumerate(gram)]
        for col in range(n):
            pivot = next(r for r in range(col, n) if eqs[r] >> col & 1)
            eqs[col], eqs[pivot] = eqs[pivot], eqs[col]
            for r in range(n):
                if r != col and eqs[r] >> col & 1:
                    eqs[r] ^= eqs[col]
        object.__setattr__(self, "_parity", tuple(eq >> n & 1 for eq in eqs))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def evaluate(self, v: Sequence[int]) -> int:
        return self.pairing(v, v)

    def pairing(self, v: Sequence[int], w: Sequence[int]) -> int:
        return sum(x * sum(map(mul, row, w)) for x, row in zip(v, self.gram))


def diagonal_form(rank: int) -> QuadraticForm:
    """diag(-1, ..., -1) of the given rank."""
    return QuadraticForm(tuple(
        tuple(-1 if i == j else 0 for j in range(rank)) for i in range(rank)))


def e8_form() -> QuadraticForm:
    """The negative definite even rank-8 form (negated Cartan matrix)."""
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)}
    gram = [[0] * 8 for _ in range(8)]
    for i in range(8):
        gram[i][i] = -2
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return QuadraticForm(tuple(tuple(r) for r in gram))


def _parity_axes(q: QuadraticForm, bound: int) -> list[range]:
    """Per-axis ranges of the characteristic vectors in [-bound, bound]^rank,
    each descending."""
    if bound < 1:
        raise GuardViolation("search bound must be at least 1", requirement="bound >= 1")
    n = q.rank
    axes = [range(bound - (bound - w) % 2, -bound - 1, -2) for w in q._parity]
    count = math.prod(map(len, axes))
    if count * n * n > MAX_ENUMERATION_WORK:
        raise GuardViolation(
            f"{count} characteristic vectors of rank {n} exceed the desk-scale limit",
            requirement="desk-scale enumeration")
    return axes


def characteristic_count(q: QuadraticForm, bound: int) -> int:
    """The number of characteristic vectors in the box, without listing them."""
    return math.prod(map(len, _parity_axes(q, bound)))


def characteristic_vectors(q: QuadraticForm, bound: int) -> list[tuple[int, ...]]:
    """All c in the box with c.x = x.x mod 2 for every basis vector x."""
    return list(product(*_parity_axes(q, bound)))


@dataclass(frozen=True)
class MaxSquareResult:
    value: int
    achiever: tuple[int, ...]
    bound_limited: bool


def max_characteristic_square(q: QuadraticForm, bound: int) -> MaxSquareResult:
    """Maximum of c.c over characteristic vectors in the box.

    The achiever is the first maximum in descending lexicographic order.
    ``bound_limited`` is set when the diagonal certificate -rank is not
    attained, signalling either a too-small box or a form with no
    orthogonal square -1 basis.

    Schnorr-Euchner: -c.c * W is minimized coordinate by coordinate, last to
    first, trying each axis by |p_j x + s_j| and cutting a branch once it
    exceeds the best complete sum; ties are explored.
    """
    axes = _parity_axes(q, bound)
    scale, terms = q._squares
    best = [math.inf, ()]
    _closest_step(terms, axes, [0] * q.rank, q.rank - 1, 0, best)
    value = -best[0] // scale  # best[0] = -c.c * W
    return MaxSquareResult(value, best[1], value != -q.rank)


def _closest_step(terms, axes, v: list[int], j: int, used: int, best: list) -> None:
    """Search coordinates j..0 given v[j+1:] and its partial sum ``used``."""
    if j < 0:
        # reaching a leaf means used <= best[0]
        if used < best[0] or tuple(v) > best[1]:
            best[:] = used, tuple(v)
        return
    w, p, m = terms[j]
    s = sum(map(mul, m, v[j + 1:]))
    for x in sorted(axes[j], key=lambda x: abs(p * x + s)):
        part = used + w * (p * x + s) ** 2
        if part > best[0]:
            break
        v[j] = x
        _closest_step(terms, axes, v, j - 1, part, best)


def _square_minus_one(q: QuadraticForm, depth: int) -> list[tuple[int, ...]]:
    """All v with v.v = -1 and every |v_i| <= depth, descending
    lexicographically.  Fincke-Pohst on the completed squares, last
    coordinate first: each term w_j (p_j v_j + s_j)^2 must fit in W - used."""
    scale, terms = q._squares
    found = []
    _fincke_pohst_step(terms, scale, depth, [0] * q.rank, q.rank - 1, 0, found)
    return sorted(found, reverse=True)


def _fincke_pohst_step(terms, scale: int, depth: int, v: list[int], j: int,
                       used: int, found: list) -> None:
    """Search coordinates j..0 given v[j+1:] and its partial sum ``used``."""
    if j < 0:
        if used == scale:
            found.append(tuple(v))
        return
    w, p, m = terms[j]
    s = sum(map(mul, m, v[j + 1:]))
    t = math.isqrt((scale - used) // w)
    for x in range(max(-((s + t) // p), -depth), min((t - s) // p, depth) + 1):
        v[j] = x
        _fincke_pohst_step(terms, scale, depth, v, j - 1,
                           used + w * (p * x + s) ** 2, found)


def diagonalize(q: QuadraticForm, depth: int) -> tuple[tuple[int, ...], ...] | None:
    """Find a basis in which the form is exactly diag(-1, ..., -1).

    In a definite lattice two square -1 vectors v, w have |v.w| <= 1, with
    equality only for w = +-v, so the square -1 vectors are +-e_1, ..., +-e_k
    for pairwise orthogonal e_i, and the form is diagonal iff k = rank.
    Vectors are drawn from the coordinate box of the given depth; when it
    holds 2*rank of them, the first rank in descending order are the e_i
    with positive leading coordinate.  None means the form is not diagonal
    or not every square -1 vector lies in the box.
    """
    # Lifting the rank guard would turn the CLI's "skipped" answers into searches.
    if q.rank > DIAGONALIZE_MAX_RANK:
        raise GuardViolation(
            f"diagonalization search is limited to rank <= {DIAGONALIZE_MAX_RANK}",
            requirement=f"rank <= {DIAGONALIZE_MAX_RANK}")
    if depth < 1:
        raise GuardViolation("search depth must be at least 1", requirement="depth >= 1")
    candidates = _square_minus_one(q, depth)
    if len(candidates) != 2 * q.rank:
        return None
    basis = tuple(candidates[:q.rank])
    for i, v in enumerate(basis):
        for j, w in enumerate(basis):
            expected = -1 if i == j else 0
            if q.pairing(v, w) != expected:
                raise AssertionError("diagonalization postcondition failed")
    return basis


def spinc_from_basis(q: QuadraticForm,
                     basis: tuple[tuple[int, ...], ...] | None) -> tuple[int, ...] | None:
    """Characteristic vector of square -rank from a diagonalizing basis: the
    sum of the basis vectors (the all-ones vector in the new basis), certified
    characteristic; None when there is no basis."""
    if basis is None:
        return None
    vector = tuple(sum(v[i] for v in basis) for i in range(q.rank))
    if q.evaluate(vector) != -q.rank:
        raise AssertionError("sum of a diag(-1) basis must have square -rank")
    # characteristic: (G.c)_i = G_ii (mod 2) for every i
    if any((sum(map(mul, row, vector)) - row[i]) % 2 for i, row in enumerate(q.gram)):
        raise AssertionError("constructed vector is not characteristic")
    return vector
