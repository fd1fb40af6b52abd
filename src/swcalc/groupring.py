"""Exact arithmetic in integral group rings of finitely generated abelian groups.

Every polynomial invariant in this package (Seiberg-Witten polynomials,
Alexander polynomials, equivariant transfer sums) is a finite formal
Z-linear combination of elements of a finitely generated abelian group,
multiplied by convolution.  Coefficients are arbitrary-precision Python
integers; torsion exponents are kept as canonical residues at all times,
so equality of elements is structural.
"""
from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, product, repeat
from math import comb, gcd, prod
from operator import add, mod
from typing import Iterator, Mapping

from .errors import AmbientMismatchError, GuardViolation, UnsupportedOperation


@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^free_rank plus one cyclic factor per entry of torsion_orders.

    Torsion orders are stored sorted ascending; two groups are equal
    exactly when their presentations agree.
    """

    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if not {int}.issuperset(map(type, (self.free_rank, *self.torsion_orders))):
            raise ValueError("free_rank and torsion orders must be integers")
        if self.free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        orders = tuple(sorted(self.torsion_orders))
        if any(o < 2 for o in orders):
            raise ValueError("every torsion order must be at least 2")
        object.__setattr__(self, "torsion_orders", orders)

    @property
    def torsion_rank(self) -> int:
        return len(self.torsion_orders)


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime b > 1 of which every number > 1 is a product, found by gcds alone:
    a b sharing g > 1 with x gives way to g, b/g and x/g, which lowers the product."""
    base, pending = [], [x for x in numbers if x > 1]
    while pending:
        x = pending.pop()
        b = next((b for b in base if gcd(b, x) > 1), None)
        if b is None:
            base.append(x)
        else:
            base.remove(b)
            g = gcd(b, x)
            pending += [y for y in (g, b // g, x // g) if y > 1]
    return base


def _valuation(x: int, b: int) -> int:
    e = 0
    while x % b == 0:
        x, e = x // b, e + 1
    return e


def invariant_factors(orders) -> tuple[int, ...]:
    """The invariant factors d1 | d2 | ... of the sum of the Z/o over ``orders``; 1s drop
    out and an o = 0, a copy of Z, comes last.  Over a coprime base of the orders, the
    i-th largest factor is the product of each base's i-th largest power in an order,
    so the work is near-linear in the orders and never factors one."""
    orders = tuple(orders)
    if not {int}.issuperset(map(type, orders)):
        raise ValueError("orders must be integers")
    counts = Counter(map(abs, orders))
    zeros = counts.pop(0, 0)
    powers = [sorted(chain.from_iterable(repeat(b ** _valuation(o, b), c)
                                         for o, c in counts.items()), reverse=True)
              for b in _coprime_base(counts)]
    return tuple(f for f in map(prod, zip(*powers)) if f > 1)[::-1] + (0,) * zeros


def _accumulate(out: dict, items) -> dict:
    """Add (key, coeff) pairs into ``out``, dropping keys that reach zero."""
    for key, coeff in items:
        new = out.get(key, 0) + coeff
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def _unprintable(c: int, shift: int = 0) -> bool:
    """Whether c * 2^shift >= 10^limit: too long for ``str``.  Below 3*limit bits, never."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and c.bit_length() + shift > 3 * limit and c >= -(-10 ** limit >> shift)


def _factors_text(names: tuple[str, ...], exponents: tuple[int, ...]) -> str:
    return "*".join([n if e == 1 else f"{n}^{e}" for n, e in zip(names, exponents) if e])


class TermRenderer:
    """Text of an element: a ``GroupRingElement``, or a ``FactoredElement``'s core
    times the sum of its tails.

    Core keys have one length, so the sorted expansion is each sorted core term
    times each tail, and a term's text, led by its separator, is a piece of the
    whole: ``shifted_text`` writes such pieces for a mod-2 core moved at slot 0."""

    def __init__(self, element: "GroupRingElement | FactoredElement",
                 free_names: tuple[str, ...] | None = None,
                 torsion_names: tuple[str, ...] | None = None):
        n, t = element.ambient.free_rank, element.ambient.torsion_rank
        if free_names is None:
            free_names = ("T",) if n == 1 else tuple(f"T{i + 1}" for i in range(n))
        if torsion_names is None:
            torsion_names = ("a",) if t == 1 else tuple(f"a{i + 1}" for i in range(t))
        if len(free_names) < n or len(torsion_names) < t:
            raise ValueError(f"{len(free_names)} free and {len(torsion_names)} torsion names "
                             f"cannot name a group of rank ({n},{t})")
        self._names = tuple(free_names[:n]) + tuple(torsion_names)
        self.element = element
        core_rank, tails = (element.core.ambient.free_rank, element.tails) \
            if isinstance(element, FactoredElement) else (n, ((),))
        self._tail_texts = [_factors_text(self._names[core_rank:], tail) for tail in tails]

    def _text(self, key: tuple[int, ...], coeff: int) -> str:
        text, c = _factors_text(self._names, key), abs(coeff)
        head = "" if c == 1 else f"{c}*"
        lead = f"{head}{text}*" if text else head
        alone = head + text if text else str(c)
        sep = " - " if coeff < 0 else " + "
        return sep + sep.join([lead + tail if tail else alone for tail in self._tail_texts])

    def shifted_text(self, keys, shifts) -> str:
        """The terms of coefficient 1 at the sorted core ``keys`` moved at slot 0 by
        each of ``shifts`` in turn, each led by " + ": a run of a mod-2 render's text."""
        return "".join([self._text((key[0] + s,) + key[1:], 1) for s in shifts for key in keys])

    def render(self) -> str:
        """The element's text.  Over Z it is refused when a coefficient is too long
        to print: first the power's largest, C(m, m//2) between 2^m/(m+1) and 2^m,
        before the power is expanded, then the expanded core's."""
        element = self.element
        factored = isinstance(element, FactoredElement)
        signed = not (factored and element.mod2)
        if factored and signed:
            step, m, _ = element.power
            if _unprintable(1, m) and (
                    _unprintable(1, m - (m + 1).bit_length()) or _unprintable(comb(m, m // 2))):
                raise GuardViolation(f"(T^{step} - T^-{step})^{m} has a coefficient too long "
                                     "to print", requirement="within budget")
        core = element.powered_core() if factored else element
        if not core._terms:
            return "0"
        if signed and _unprintable(max(map(abs, core._terms.values()))):
            raise GuardViolation("a coefficient is too long to print", requirement="within budget")
        out = [self._text(*term) for term in sorted(core._terms.items())]
        out[0] = out[0][3:] if out[0][1] == "+" else "-" + out[0][3:]
        return "".join(out)


class GroupRingElement:
    """Immutable element of Z[A] for a finitely generated abelian A.

    Terms map flat exponent tuples (free exponents, then torsion residues)
    to nonzero ints; the free rank is fixed per ambient group, so sorted keys
    order the free exponents first, then the torsion.  Only the public
    constructors check input, and they refuse an exponent or coefficient not an int.
    """

    __slots__ = ("ambient", "_terms")

    def __init__(self, ambient: FgAbelianGroup, terms: Mapping[tuple[int, ...], int]):
        """Canonicalize ``terms``: reduce torsion exponents to residues, add the
        coefficients of keys that reduce alike and drop zeros."""
        r, orders = ambient.free_rank, ambient.torsion_orders
        if not {int}.issuperset(map(type, chain(terms.values(), chain.from_iterable(terms)))):
            raise ValueError("exponents and coefficients must be integers")
        if lengths := set(map(len, terms)) - {r + len(orders)}:
            raise AmbientMismatchError(f"exponent vectors of length {sorted(lengths)} do not "
                                       f"match a group of rank ({r},{len(orders)})")
        # without torsion no two keys reduce alike, so only the zeros drop out
        canonical = _accumulate({}, ((key[:r] + tuple(map(mod, key[r:], orders)), coeff)
                                     for key, coeff in terms.items())) if orders else \
            {key: coeff for key, coeff in terms.items() if coeff}
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_terms", canonical)

    @classmethod
    def _wrap(cls, ambient: FgAbelianGroup, terms: dict) -> "GroupRingElement":
        """Trusted constructor: ``terms`` already has canonical keys and no zeros."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ambient", ambient)
        object.__setattr__(obj, "_terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    # ----- constructors -----

    @classmethod
    def zero(cls, ambient: FgAbelianGroup) -> "GroupRingElement":
        return cls(ambient, {})

    @classmethod
    def one(cls, ambient: FgAbelianGroup) -> "GroupRingElement":
        return cls(ambient, {(0,) * (ambient.free_rank + ambient.torsion_rank): 1})

    @classmethod
    def monomial(cls, ambient: FgAbelianGroup, key: tuple[int, ...],
                 coeff: int = 1) -> "GroupRingElement":
        return cls(ambient, {key: coeff})

    # ----- basic queries -----

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """A copy of the canonical exponent tuple -> coefficient map."""
        return dict(self._terms)

    def monomial_count(self) -> int:
        """Number of stored monomials (after canonicalization)."""
        return len(self._terms)

    def evaluate_at_one(self) -> int:
        """Sum of all coefficients, i.e. image under A -> 1."""
        return sum(self._terms.values())

    def free_exponents(self) -> Iterator[tuple[int, ...]]:
        """Free exponent vector of every stored monomial, in storage order."""
        r = self.ambient.free_rank
        return (key[:r] for key in self._terms)

    # ----- ring operations -----

    def _check_ambient(self, other: "GroupRingElement"):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"operands live in different groups: {self.ambient} vs {other.ambient}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.one(self.ambient) * other
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_ambient(other)
        return self._wrap(self.ambient, _accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(self.ambient, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, GroupRingElement)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self.ambient,
                              {k: c * other for k, c in self._terms.items()} if other else {})
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_ambient(other)
        products: dict[tuple[int, ...], int] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                key = tuple(map(add, ka, kb))
                products[key] = products.get(key, 0) + ca * cb
        # the constructor reduces the torsion residues, merges keys and drops zeros
        return GroupRingElement(self.ambient, products)

    __rmul__ = __mul__

    def mul_laurent(self, q: "GroupRingElement", slot: int, step: int) -> "GroupRingElement":
        """``self`` times q(T^step), with T the free generator ``slot``, in one
        pass: a shifted copy of ``self`` per term of the Laurent polynomial q."""
        if q.ambient.free_rank != 1 or q.ambient.torsion_orders:
            raise UnsupportedOperation("the factor must be a rank-1 torsion-free polynomial")
        if not 0 <= slot < self.ambient.free_rank:
            raise AmbientMismatchError("free generator outside the ambient group")
        out: dict[tuple[int, ...], int] = {}
        for key, c in self._terms.items():
            head, at, tail = key[:slot], key[slot], key[slot + 1:]
            _accumulate(out, ((head + (at + step * e,) + tail, c * cq)
                              for (e,), cq in q._terms.items()))
        return self._wrap(self.ambient, out)

    def mul_power(self, step: int, exponent: int, slot: int,
                  mod2: bool = False) -> "GroupRingElement":
        """``self`` times (T^step - T^-step)^exponent, T the free generator ``slot``:
        the signed binomial row, or over F2 the Lucas product of the
        T^(step*2^b) + T^-(step*2^b) over the bits b of the exponent."""
        if not exponent:
            return self
        if mod2:  # one term per choice of signs of the bits, so no two terms meet
            row = dict.fromkeys(map(sum, product(*[
                (1 << b, -1 << b) for b in range(exponent.bit_length()) if exponent >> b & 1])), 1)
        else:
            row, c = {}, 1
            for j in range(exponent + 1):
                row[exponent - 2 * j] = -c if j & 1 else c
                c = c * (exponent - j) // (j + 1)
        return self.mul_laurent(laurent(row), slot, step)

    # ----- reductions and reindexings -----

    def mod2(self) -> "GroupRingElement":
        """Reduce every coefficient to {0,1}; monomials with even coefficient drop out."""
        return self._wrap(self.ambient, {k: 1 for k, c in self._terms.items() if c & 1})

    def embed(self, target: FgAbelianGroup,
              free_map: tuple[int, ...] | None = None,
              torsion_map: tuple[int, ...] | None = None) -> "GroupRingElement":
        """Reindex into a larger group along an injection of generators.

        ``free_map[i]`` is the target free index of source free generator
        i; similarly for ``torsion_map``, where the cyclic orders must
        agree.  Defaults map generator i to target generator i.
        """
        src = self.ambient
        free_map = tuple(range(src.free_rank) if free_map is None else free_map)
        torsion_map = tuple(range(src.torsion_rank) if torsion_map is None else torsion_map)
        if len(free_map) != src.free_rank or len(torsion_map) != src.torsion_rank:
            raise AmbientMismatchError("injection must cover every source generator")
        if len(set(free_map)) != len(free_map) or len(set(torsion_map)) != len(torsion_map):
            raise AmbientMismatchError("injection must send generators to distinct targets")
        if any(not 0 <= j < target.free_rank for j in free_map):
            raise AmbientMismatchError("free generator mapped outside the target group")
        for i, j in enumerate(torsion_map):
            if not 0 <= j < target.torsion_rank:
                raise AmbientMismatchError("torsion generator mapped outside the target group")
            if target.torsion_orders[j] != src.torsion_orders[i]:
                raise AmbientMismatchError(
                    f"torsion generator of order {src.torsion_orders[i]} cannot map to "
                    f"one of order {target.torsion_orders[j]}")
        # source slot feeding each target slot; -1 reads the 0 appended below
        slots = [-1] * (target.free_rank + target.torsion_rank)
        for i, j in enumerate(free_map):
            slots[j] = i
        for i, j in enumerate(torsion_map):
            slots[target.free_rank + j] = src.free_rank + i
        return self._wrap(target, {tuple(map((key + (0,)).__getitem__, slots)): c
                                   for key, c in self._terms.items()})

    # ----- comparison, hashing, rendering -----

    def _key(self):
        return (self.ambient, tuple(sorted(self._terms.items())))

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def render(self, free_names: tuple[str, ...] | None = None,
               torsion_names: tuple[str, ...] | None = None) -> str:
        """Canonical text form, monomials sorted by exponent vector."""
        return TermRenderer(self, free_names, torsion_names).render()

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"GroupRingElement({self.ambient}, {self.render()!r})"


@dataclass(frozen=True)
class FactoredElement:
    """``core`` times (T^step - T^-step)^exponent at the core's free generator
    ``slot``, ``power = (step, exponent, slot)``, times prod (E_i + E_i^-1) over
    ``blowups`` fresh free generators, times the sum of the elements of the
    cyclic groups of orders ``torsion``; over F2 when ``mod2``.

    The core is torsion-free and spans less than 2*step at the slot.  A tail, a
    sign vector of the E_i and then a residue, holds the exponents past the
    core's, so each (core, power, tail) term gives its own monomial."""

    core: GroupRingElement
    power: tuple[int, int, int] = (1, 0, 0)
    blowups: int = 0
    torsion: tuple[int, ...] = ()
    mod2: bool = False

    def __post_init__(self):  # the ambient's normal form: sorted, every order >= 2
        object.__setattr__(self, "torsion", self.ambient.torsion_orders)
        step, e, slot = self.power  # so that the power's copies of the core never meet
        at = [key[slot] for key in self.core.free_exponents()] if e else ()
        if self.core.ambient.torsion_orders or e and (
                step < 1 or e < 0 or at and max(at) - min(at) >= 2 * step):
            raise ValueError("a factored element needs a torsion-free core; a power, "
                             "step >= 1 and a core spanning less than 2*step")

    @cached_property
    def ambient(self) -> FgAbelianGroup:
        return FgAbelianGroup(self.core.ambient.free_rank + self.blowups, self.torsion)

    @cached_property
    def tails(self) -> tuple[tuple[int, ...], ...]:  # sorted and distinct
        if (n := prod(self.torsion) << self.blowups) > sys.maxsize:
            raise GuardViolation(f"{n} tails are more than Python can index",
                                 requirement="count <= sys.maxsize")
        residues = list(product(*map(range, self.torsion)))
        return tuple(s + r for s in product((-1, 1), repeat=self.blowups) for r in residues)

    def monomial_count(self) -> int:
        m = self.power[1]  # the power has 2^popcount(m) terms over F2, m + 1 over Z
        return self.core.monomial_count() * prod(self.torsion) * (
            1 << m.bit_count() if self.mod2 else m + 1) << self.blowups

    def over_f2(self) -> "FactoredElement":
        """The reduction mod 2: the core's odd terms times the power over F2."""
        return replace(self, core=self.core.mod2(), mod2=True)

    def powered_core(self) -> GroupRingElement:
        """The core times the power: the one expansion of the power."""
        return self.core.mul_power(*self.power, self.mod2)

    def expand(self) -> GroupRingElement:
        return GroupRingElement._wrap(self.ambient, {
            key + tail: c for key, c in self.powered_core()._terms.items() for tail in self.tails})

    def render(self, free_names: tuple[str, ...] | None = None,
               torsion_names: tuple[str, ...] | None = None) -> str:
        """The expansion's ``GroupRingElement.render``, built without expanding the tails."""
        return TermRenderer(self, free_names, torsion_names).render()


RANK1 = FgAbelianGroup(1)


def laurent(coeffs: Mapping[int, int]) -> GroupRingElement:
    """Single-variable Laurent polynomial from an exponent -> coefficient map."""
    return GroupRingElement(RANK1, {(e,): c for e, c in coeffs.items()})

