"""Symmetrized Alexander polynomials used as knot-surgery coefficients.

A knot enters the calculator only through its symmetrized Alexander
polynomial, so this module is the whole knot interface: exact torus-knot
polynomials, the alternating family with prescribed exponent spacing,
and a validator for user-supplied coefficient lists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import GuardViolation, UnsupportedOperation
from .groupring import RANK1, GroupRingElement, laurent


@dataclass(frozen=True)
class AlexanderPoly:
    """Symmetric Laurent polynomial with value 1 at t = 1."""

    poly: GroupRingElement
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.poly.ambient != RANK1:
            raise UnsupportedOperation("element is not a single-variable Laurent polynomial")
        terms, total = self.poly._terms, 0
        for (e,), c in terms.items():
            if terms.get((-e,)) != c:
                raise GuardViolation(
                    "Alexander polynomial must be symmetric under t -> 1/t",
                    requirement="symmetrized Alexander polynomial")
            total += c
        if total != 1:
            raise GuardViolation(
                "Alexander polynomial must evaluate to 1 at t = 1",
                requirement="Delta(1) = 1 normalization")

    def label(self) -> str:
        return self.name if self.name is not None else self.poly.render(("t",))

    def render(self) -> str:
        return self.poly.render(("t",))

    def __repr__(self):
        return f"AlexanderPoly({self.render()!r}, name={self.name!r})"


def unknot() -> AlexanderPoly:
    """The trivial knot: constant polynomial 1, identity for knot surgery."""
    return AlexanderPoly(laurent({0: 1}), name="unknot")


def torus_knot(p: int, q: int) -> AlexanderPoly:
    """Alexander polynomial of the (p,q) torus knot, from its semigroup.

    Every s in S = <p, q> is a*p + b*q with 0 <= b < p in exactly one way,
    so sum_{s in S} t^s = (1 - t^{pq}) / ((1 - t^p)(1 - t^q)), and (1 - t)
    times it is Delta.  Every s >= c = (p-1)(q-1) lies in S, so
    Delta = t^c + (1 - t) * sum_{s in S, s < c} t^s, centered by c/2.
    """
    if p < 2 or q < 2:
        raise GuardViolation("torus knot parameters must both be at least 2",
                             requirement="p, q >= 2")
    if math.gcd(p, q) != 1:
        raise GuardViolation(f"torus knot parameters must be coprime, got ({p},{q})",
                             requirement="gcd(p,q) = 1")
    c = (p - 1) * (q - 1)
    delta = {c: 1}
    for b in range(p):
        for s in range(b * q, c, p):
            delta[s] = delta.get(s, 0) + 1
            delta[s + 1] = delta.get(s + 1, 0) - 1
    return AlexanderPoly(laurent({e - c // 2: x for e, x in delta.items()}),
                         name=f"torus({p},{q})")


def alexander_family(d: int, n: int) -> AlexanderPoly:
    """Alternating family 1 + sum_{j=1}^{2d} (-1)^j (t^{jn} + t^{-jn}).

    Has exactly 4d+1 terms, all coefficients +-1, and value 1 at t = 1.
    The spacing parameter n keeps the exponents in distinct blocks after
    the t -> t^2 substitution used by knot surgery.
    """
    if d < 1 or n < 1:
        raise GuardViolation("family parameters must satisfy d >= 1 and n >= 1",
                             requirement="d >= 1, n >= 1")
    terms = {(j * n,): 1 - 2 * (j & 1) for j in range(-2 * d, 2 * d + 1)}
    return AlexanderPoly(GroupRingElement._wrap(RANK1, terms), name=f"family({d},{n})")


def validate(p: GroupRingElement, name: str | None = None) -> AlexanderPoly:
    """Accept a rank-1 Laurent polynomial as an Alexander polynomial.

    Requires symmetry and value +-1 at t = 1; a value of -1 is fixed by
    negating, since all downstream verdicts are insensitive to the sign.
    """
    total = p.evaluate_at_one()
    if abs(total) != 1:
        raise GuardViolation(f"polynomial evaluates to {total} at t = 1, expected +-1",
                             requirement="Delta(1) = +-1")
    return AlexanderPoly(p if total == 1 else -p, name=name)
