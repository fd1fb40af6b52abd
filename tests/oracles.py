"""Reference computations shared by the tests, written with nothing of
swcalc beyond ring products and the stored Gram matrix."""
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


def class_square(intersection, vec) -> int:
    """Self-intersection of a coefficient vector over the tracked basis."""
    gram = intersection.gram
    return sum(vec[i] * row[j] * vec[j] for i, row in enumerate(gram)
               for j in range(len(vec)))
