"""Reference computations shared by the tests, written with nothing of
swcalc beyond ring constructors and products, the stored Gram matrix and
the angle tuple."""
from fractions import Fraction

from swcalc.errors import UnsupportedOperation
from swcalc.fixedpoint import AngleTuple
from swcalc.groupring import GroupRingElement


def ring_power(p: GroupRingElement, n: int) -> GroupRingElement:
    """p^n for n >= 0 by repeated squaring."""
    result = GroupRingElement.one(p.ambient)
    while n:
        if n & 1:
            result = result * p
        p = p * p if n > 1 else p
        n >>= 1
    return result


def substitute_power(p: GroupRingElement, s: int) -> GroupRingElement:
    """p(t^s): the single free generator t of a Laurent polynomial becomes
    t^s, so s = 0 collapses every monomial onto the constant term.  The
    reference for ``GroupRingElement.mul_laurent``."""
    if p.ambient.free_rank != 1 or p.ambient.torsion_orders:
        raise UnsupportedOperation(
            "substitute_power needs a rank-1 torsion-free ambient group")
    terms: dict[tuple[int], int] = {}
    for (e,), c in p.terms.items():
        terms[(s * e,)] = terms.get((s * e,), 0) + c
    return GroupRingElement(p.ambient, terms)


def class_square(intersection, vec) -> int:
    """Self-intersection of a coefficient vector over the tracked basis."""
    gram = intersection.gram
    return sum(vec[i] * row[j] * vec[j] for i, row in enumerate(gram)
               for j in range(len(vec)))


def normalize(raw) -> AngleTuple:
    """Quotient by the overall rotation: subtract the last entry, reduce mod 1."""
    raw = [Fraction(a) for a in raw]
    return AngleTuple(tuple((a - raw[-1]) % 1 for a in raw))


def apply_generator(t: AngleTuple, gauge) -> AngleTuple:
    """One application of the cyclic generator followed by a global rotation.

    A lift of the generator also rotates each summand by a constant, the
    constants summing to 0 mod 1; each is trivial near the gluing necks, so
    a global gauge transformation cancels all of them and only the cyclic
    shift survives in the normal form.
    """
    shifted = (t.angles[-1],) + t.angles[:-1]
    return normalize([(a + Fraction(gauge)) % 1 for a in shifted])
