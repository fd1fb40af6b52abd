"""Finite combinatorial model of the cyclic fixed-point analysis.

Approximate solutions on a k-fold connected sum are tuples of gauge
angles, one per summand, taken modulo a single overall rotation.  The
cyclic generator shifts the tuple; a fixed tuple exists for each k-th
root of unity, and the gauge-invariant locus is the single component at
angle zero.  All angles are exact rationals modulo 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .errors import GuardViolation


@dataclass(frozen=True)
class AngleTuple:
    """Gauge normal form: k angles in [0,1) with the last pinned to 0."""

    angles: tuple[Fraction, ...]

    def __post_init__(self):
        angles = tuple(Fraction(a) for a in self.angles)
        if not angles:
            raise ValueError("an angle tuple needs at least one entry")
        if any(not 0 <= a < 1 for a in angles):
            raise ValueError("angles must be reduced to [0,1)")
        if angles[-1] != 0:
            raise ValueError("normal form requires the last angle to be 0")
        object.__setattr__(self, "angles", angles)

    @classmethod
    def _wrap(cls, angles: tuple[Fraction, ...]) -> "AngleTuple":
        """Trusted constructor: ``angles`` are ``Fraction``s already in normal form."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "angles", angles)
        return obj


def solve_fixed_points(k: int) -> list[tuple[Fraction, AngleTuple]]:
    """The k fixed tuples of the cyclic shift, one per angle theta = j/k.

    The congruences 0 = t1 + theta, t1 = t2 + theta, ..., t_{k-1} = theta
    force theta to be a k-th division point and determine the tuple
    ((k-1)theta, (k-2)theta, ..., theta, 0) modulo 1.
    """
    if k < 1:
        raise GuardViolation("the cyclic order must be at least 1", requirement="k >= 1")
    points = [Fraction(m, k) for m in range(k)]
    return [(points[j], AngleTuple._wrap(tuple(points[(k - 1 - i) * j % k] for i in range(k))))
            for j in range(k)]


def invariant_locus(k: int) -> list[tuple[Fraction, AngleTuple]]:
    """The subset of fixed tuples whose gauge orbit contains invariant
    representatives, i.e. exactly the theta = 0 component."""
    if k < 1:
        raise GuardViolation("the cyclic order must be at least 1", requirement="k >= 1")
    return [(Fraction(0), AngleTuple._wrap((Fraction(0),) * k))]


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
        if self.order < 1:
            raise ValueError("order must be positive")
        if _mat_pow(matrix, self.order) != _identity(n):
            raise GuardViolation(
                f"matrix to the power {self.order} is not the identity",
                requirement="finite order action")

    @property
    def dimension(self) -> int:
        return len(self.matrix)


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
    """Fraction-free Gauss-Jordan elimination over Z of a square matrix, each
    row divided by its content: the rows and the pivot columns."""
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


def fixed_subtorus(aut: TorusAutomorphism) -> FixedSubtorus:
    """Rational fixed subtorus of a finite-order torus automorphism.

    Computes ker(D - I) by fraction-free elimination over Z, one primitive
    vector per free column, and checks the averaging operator S = sum_{i<m} D^i
    over the least period m, the algebraic content of averaging solutions onto
    the invariant locus: S^2 = mS (S/m is idempotent), DS = S (it lands in the
    fixed space) and rank S = the number of free columns (it fills it).
    """
    n = aut.dimension
    d = aut.matrix
    echelon, pivots = _echelon([[x - (i == j) for j, x in enumerate(row)]
                                for i, row in enumerate(d)])
    free = [c for c in range(n) if c not in pivots]

    identity = _identity(n)
    s, power, period = identity, d, 1
    while power != identity:
        s = tuple(tuple(map(add, a, b)) for a, b in zip(s, power))
        power = _mat_mul(power, d)
        period += 1
    if _mat_mul(s, s) != tuple(tuple(period * x for x in row) for row in s):
        raise AssertionError("averaging operator is not idempotent")
    if _mat_mul(d, s) != s:
        raise AssertionError("averaging operator does not land in the fixed space")
    if len(_echelon(s)[1]) != len(free):
        raise AssertionError("averaging image does not match the fixed space")

    basis = []
    for col in free:
        # x_col = 1 and x_p = -row[col] / row[p], times the least common
        # denominator, which leaves the vector primitive
        lcm = math.lcm(*(row[p] // math.gcd(row[p], row[col]) for row, p in zip(echelon, pivots)))
        ints = [0] * n
        ints[col] = lcm
        for row, p in zip(echelon, pivots):
            ints[p] = -row[col] * lcm // row[p]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        basis.append(tuple(ints))
    return FixedSubtorus(len(free), tuple(basis))
