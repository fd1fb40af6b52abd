"""Finite combinatorial model of the cyclic fixed-point analysis.

Approximate solutions on a k-fold connected sum are tuples of gauge
angles, one per summand, taken modulo a single overall rotation.  The
cyclic generator shifts the tuple; a fixed tuple exists for each k-th
root of unity, and the gauge-invariant locus is the single component at
angle zero.  Angles are exact: integer numerators over the order k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import GuardViolation


def solve_fixed_points(k: int) -> list[tuple[int, tuple[int, ...]]]:
    """The k fixed tuples of the cyclic shift as (j, row) pairs, one per
    angle theta = j/k.  Each row is a tuple in gauge normal form: the k
    numerators n in [0, k) of its angles n/k, the last one 0.

    The congruences 0 = t1 + theta, t1 = t2 + theta, ..., t_{k-1} = theta
    force theta to be a k-th division point and determine the tuple
    ((k-1)theta, (k-2)theta, ..., theta, 0) modulo 1, whose numerators over k
    are the residues ((k-1-i)j mod k)_i.  Row 0 is the invariant locus.
    """
    rows = invariant_locus(k)
    # read backwards from (k-1)j in steps of j, k residue cycles give row j
    cycle = tuple(range(k)) * k
    return rows + [(j, cycle[(k - 1) * j::-j]) for j in range(1, k)]


def invariant_locus(k: int) -> list[tuple[int, tuple[int, ...]]]:
    """The subset of fixed tuples whose gauge orbit contains invariant
    representatives, i.e. exactly the theta = 0 component."""
    if k < 1:
        raise GuardViolation("the cyclic order must be at least 1", requirement="k >= 1")
    return [(0, (0,) * k)]


@dataclass(frozen=True)
class TorusAutomorphism:
    """Integer matrix of finite order acting on a torus H^1 lattice."""

    matrix: tuple[tuple[int, ...], ...]
    order: int

    def __post_init__(self):
        matrix = tuple(tuple(row) for row in self.matrix)
        if any(type(x) is not int for row in matrix for x in row):
            raise ValueError("matrix entries must be integers")
        object.__setattr__(self, "matrix", matrix)
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("matrix must be square")
        if type(self.order) is not int or self.order < 1:
            raise ValueError("order must be a positive integer")
        if _mat_pow(matrix, self.order) != _identity(n):
            raise GuardViolation(
                f"matrix to the power {self.order} is not the identity",
                requirement="finite order action")


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _mat_pow(m, e: int):
    n = len(m)
    out = _identity(n)
    base = m
    while e:
        if e & 1:
            out = _mat_mul(out, base)
        base = _mat_mul(base, base)
        e >>= 1
    return out


@dataclass(frozen=True)
class FixedSubtorus:
    dimension: int
    basis: tuple[tuple[int, ...], ...]


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over Z of the first len(rows)
    columns, each row divided by its content: the rows and the pivot columns."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(m)):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        top = m[pivot]
        g = math.gcd(*top)
        if g > 1:
            top = [x // g for x in top]
        m[r], m[pivot] = top, m[r]
        p = top[col]
        for i, row in enumerate(m):
            c = row[col]
            if i != r and c:
                row = [p * x - c * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return m, pivots


def _kernel(rows) -> list[tuple[int, ...]]:
    """Rational kernel of a square integer matrix: one primitive vector per
    free column of its echelon, the first nonzero entry positive."""
    echelon, pivots = _echelon(rows)
    basis = []
    for col in (c for c in range(len(rows)) if c not in pivots):
        # x_col = 1 and x_p = -row[col] / row[p], times the least common
        # denominator, which leaves the vector primitive
        lcm = math.lcm(*(row[p] // math.gcd(row[p], row[col]) for row, p in zip(echelon, pivots)))
        ints = [0] * len(rows)
        ints[col] = lcm
        for row, p in zip(echelon, pivots):
            ints[p] = -row[col] * lcm // row[p]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        basis.append(tuple(ints))
    return basis


def _averaging(d, kernel, left) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """c and P' = c K (LK)^-1 L, integral, for K the columns ``kernel`` and
    L the rows ``left``, checked to be c times the averaging projector.

    [LK | I] is brought to [diag(p) | R] by one elimination, so c = lcm(p)
    makes c (LK)^-1 = diag(c/p) R integral.  The checks P'^2 = cP', DP' = P',
    P'D = P' and rank P' = len(kernel) make P'/c the projector onto ker(D - I)
    along im(D - I), which for finite-order D is S/m, S = sum_{i<m} D^i.
    """
    r = len(kernel)
    lk = [[sum(map(mul, row, v)) for v in kernel] for row in left]
    rows, pivots = _echelon([row + [int(i == j) for j in range(r)] for i, row in enumerate(lk)])
    if len(pivots) < r:
        raise AssertionError("LK is singular: ker(D - I) meets im(D - I)")
    c = math.lcm(*(row[i] for i, row in enumerate(rows)))
    inverse = [[x * (c // row[i]) for x in row[r:]] for i, row in enumerate(rows)]
    p = _mat_mul(tuple(zip(*kernel)), _mat_mul(inverse, left))
    if _mat_mul(p, p) != tuple(tuple(c * x for x in row) for row in p):
        raise AssertionError("averaging operator is not idempotent")
    if _mat_mul(d, p) != p:
        raise AssertionError("averaging operator does not land in the fixed space")
    if _mat_mul(p, d) != p:
        raise AssertionError("averaging operator does not vanish on im(D - I)")
    if sum(row[i] for i, row in enumerate(p)) != c * r:  # an idempotent's rank is its trace
        raise AssertionError("averaging image does not match the fixed space")
    return c, p


def fixed_subtorus(aut: TorusAutomorphism) -> FixedSubtorus:
    """Rational fixed subtorus of a finite-order torus automorphism.

    Computes ker(D - I) by fraction-free elimination over Z, one primitive
    vector per free column, and checks the averaging projector onto it, the
    algebraic content of averaging solutions onto the invariant locus, in
    closed form: with K that basis and L the same basis of ker (D - I)^T,
    P' = c K (LK)^-1 L must satisfy P'^2 = cP' (idempotent), DP' = P' (it
    lands in the fixed space), P'D = P' (it kills im(D - I)) and
    rank P' = the number of free columns (it fills the fixed space).
    """
    a = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(aut.matrix)]
    kernel = _kernel(a)
    if kernel:
        _averaging(aut.matrix, kernel, _kernel(list(zip(*a))))
    return FixedSubtorus(len(kernel), tuple(kernel))
