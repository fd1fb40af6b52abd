"""Descriptors for closed oriented smooth 4-manifolds.

A descriptor is an algebraic-topological fingerprint (Betti numbers,
parity, torsion) together with bookkeeping for the Seiberg-Witten
polynomial: which classes of the free part of H_2 carry exponents, their
intersection numbers, and a tri-state record of the polynomial itself.
Nothing here computes homology; descriptors are built from a table of
standard manifolds and transformed by the surgery module.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate, chain
from typing import NamedTuple, Sequence

from .errors import GuardViolation
from .groupring import FactoredElement, GroupRingElement, laurent

SW_KNOWN = "known"
SW_ZERO = "zero"
SW_UNKNOWN = "unknown"

# largest tracked basis whose dense Gram matrix a JSON report will print
JSON_MAX_TRACKED = 1000


@dataclass(frozen=True)
class SWInfo:
    """Tri-state Seiberg-Witten polynomial: known, identically zero, or unknown.

    Unknown propagates through every operation rather than being guessed;
    the product formulas cover specific constructions only.  A known one is
    the factored ``poly``: a core times its power times prod (E_i + E_i^-1)
    over the last ``blowups`` tracked classes, with no torsion, over Z.
    """

    status: str
    poly: FactoredElement | None = None

    @classmethod
    def known(cls, core: GroupRingElement, blowups: int = 0, power=(1, 0, 0)) -> "SWInfo":
        return cls(SW_KNOWN, FactoredElement(core, power, blowups))

    @classmethod
    def zero(cls) -> "SWInfo":
        return cls(SW_ZERO, None)

    @classmethod
    def unknown(cls) -> "SWInfo":
        return cls(SW_UNKNOWN, None)

    @property
    def is_known(self) -> bool:
        return self.status == SW_KNOWN

    @property
    def is_zero(self) -> bool:
        return self.status == SW_ZERO


Block = tuple[tuple[int, ...], ...]


def _square_entries(blocks: Sequence[Block]) -> list[tuple[int, int, int]]:
    """(i, j, g) per nonzero Gram entry of the block sum, i <= j, g doubled off the diagonal."""
    starts = accumulate(map(len, blocks), initial=0)
    return [(s + i, s + j, x if i == j else 2 * x) for s, block in zip(starts, blocks)
            for i, row in enumerate(block) for j, x in enumerate(row[i:], i) if x]


def _square(entries: Sequence[tuple[int, int, int]], vec: Sequence[int]) -> int:
    return sum([g * vec[i] * vec[j] for i, j, g in entries]) if entries else 0


@dataclass(frozen=True, eq=False)
class IntersectionData:
    """Free part of the intersection form, split for bookkeeping.

    The tracked generators may appear as exponents of Seiberg-Witten
    monomials.  Their Gram matrix is block diagonal, kept as ``runs`` of
    (base names, blocks, copies): a leaf is one run of one copy, and a
    connected sum appends its summands' runs, so k copies of a summand
    cost one run.  ``tracked_basis``, ``blocks`` and ``gram`` write the
    copies out when they are read; a clash of a base name x takes the
    first free name of x_2, x_3, ...  The remaining dimensions are
    counted as standard summands (hyperbolic planes and diagonal
    (+1)/(-1) entries) that no monomial references.  Two forms are equal
    when their written-out forms are.
    """

    runs: tuple[tuple[tuple[str, ...], tuple[Block, ...], int], ...] = ()
    h_count: int = 0
    plus_count: int = 0
    minus_count: int = 0
    rank: int = field(init=False, repr=False)  # the tracked classes, counted when made

    def __post_init__(self):
        if min(self.h_count, self.plus_count, self.minus_count, 0) < 0:
            raise ValueError("summand counts must be nonnegative")
        object.__setattr__(self, "rank", sum([len(names) * c for names, _, c in self.runs]))

    @classmethod
    def leaf(cls, tracked_basis: tuple[str, ...], blocks: tuple[Block, ...], h_count: int = 0,
             plus_count: int = 0, minus_count: int = 0) -> "IntersectionData":
        """One copy of the distinct named classes with these Gram blocks,
        checked here once: a sum of checked runs is checked."""
        if not sum(map(len, blocks)) == len(tracked_basis) == len(set(tracked_basis)):
            raise ValueError("gram blocks must cover the tracked basis, its names distinct")
        for block in set(blocks):
            n = len(block)
            if any(len(row) != n for row in block) or \
                    any(block[i][j] != block[j][i] for i in range(n) for j in range(i)):
                raise ValueError("gram block must be square and symmetric")
        return cls(((tracked_basis, blocks, 1),), h_count, plus_count, minus_count)

    def __eq__(self, other):
        return isinstance(other, IntersectionData) and self._counts() == other._counts() and (
            self.runs == other.runs
            or (self.tracked_basis, self.blocks) == (other.tracked_basis, other.blocks))

    def __hash__(self):
        return hash(self._counts())

    def _counts(self) -> tuple[int, int, int, int]:
        return self.rank, self.h_count, self.plus_count, self.minus_count

    @property
    def dimension(self) -> int:
        return self.rank + 2 * self.h_count + self.plus_count + self.minus_count

    @property
    def tracked_basis(self) -> tuple[str, ...]:
        taken: dict[str, None] = {}  # the names so far, in basis order
        next_suffix: dict[str, int] = {}  # name -> i with name_2..name_{i-1} taken
        for name in self._base_names():
            candidate, i = name, next_suffix.get(name, 2)
            while candidate in taken:
                candidate, i = f"{name}_{i}", i + 1
            next_suffix[name] = i
            taken[candidate] = None
        return tuple(taken)

    def _base_names(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(names * c for names, _, c in self.runs))

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(chain.from_iterable(blocks * c for _, blocks, c in self.runs))

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense tracked Gram matrix, built anew on each call; its zero rows
        are one tuple."""
        rows: list[tuple[int, ...]] = []
        zero = (0,) * self.rank
        for block in self.blocks:
            at = len(rows)
            rows.extend(zero[:at] + tuple(row) + zero[at + len(block):] if any(row) else zero
                        for row in block)
        return tuple(rows)

    def direct_sum(self, other: "IntersectionData", count: int = 1) -> "IntersectionData":
        """Orthogonal sum with ``count`` copies of ``other``, as runs.

        The copies are one run: other's run, or its written-out base names
        and blocks when it has several; a run with the names and blocks of
        self's last run extends it.  A sum of checked forms is checked.
        """
        head, runs = self.runs, other.runs
        if count > 1 and runs:
            names, blocks, c = runs[0] if len(runs) == 1 else \
                (other._base_names(), other.blocks, 1)
            runs = ((names, blocks, c * count),)
        if head and runs and head[-1][:2] == runs[0][:2]:
            head, runs = head[:-1], ((*runs[0][:2], head[-1][2] + runs[0][2]),) + runs[1:]
        return IntersectionData(head + runs, self.h_count + count * other.h_count,
                                self.plus_count + count * other.plus_count,
                                self.minus_count + count * other.minus_count)


class Fingerprint(NamedTuple):
    """Homeomorphism fingerprint used for 'topologically equivalent' checks."""

    simply_connected: bool
    b2_plus: int
    b2_minus: int
    parity: str  # "even" for spin, "odd" otherwise


@dataclass(frozen=True)
class HomeoType:
    """Canonical dissolved form of a simply connected manifold.

    Odd forms are n*CP2 # m*CP2bar; even forms are n*(S2xS2) # m*K3,
    orientation-reversed when the signature is positive.
    """

    parity: str  # "odd" or "even"
    n: int
    m: int
    orientation: int = 1

    def display(self) -> str:
        if self.parity == "odd":
            return f"{self.n}*CP2 # {self.m}*CP2bar"
        body = f"{self.n}*(S2xS2) # {self.m}*K3"
        return body if self.orientation > 0 else f"-({body})"

    @property
    def fingerprint(self) -> Fingerprint:
        if self.parity == "odd":
            return Fingerprint(True, self.n, self.m, "odd")
        plus, minus = self.n + 3 * self.m, self.n + 19 * self.m
        if self.orientation < 0:
            plus, minus = minus, plus
        return Fingerprint(True, plus, minus, "even")

    def to_json_dict(self) -> dict:
        return {"parity": self.parity, "n": self.n, "m": self.m,
                "orientation": self.orientation, "display": self.display()}


@dataclass(frozen=True)
class ManifoldDescriptor:
    label: str
    simply_connected: bool
    b1: int
    b2_plus: int
    b2_minus: int
    torsion_h1: tuple[int, ...]
    spin: bool
    sw: SWInfo
    intersection: IntersectionData
    simple_type: bool | None = None
    admits_psc: bool = False
    torus_index: int | None = None  # position of the square-zero torus in the tracked basis
    elliptic_class: bool = False
    # (step, parents, argument); a connected sum's parents are (leaf, multiplicity) runs
    derived_from: tuple[str, tuple, str] | None = \
        field(default=None, repr=False, compare=False)
    provenance: tuple[str, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if self.simply_connected and (self.b1 != 0 or self.torsion_h1):
            raise ValueError("a simply connected manifold has trivial H_1")
        if self.intersection.dimension != self.b2:
            raise ValueError(
                f"intersection data accounts for {self.intersection.dimension} "
                f"dimensions but b2 = {self.b2}")
        if self.torus_index is not None and not 0 <= self.torus_index < self.intersection.rank:
            raise ValueError("torus class must be a tracked generator")
        if self.sw.is_known:
            poly, m, blocks = self.sw.poly, self.sw.poly.blowups, self.intersection.blocks
            if poly.core.ambient.free_rank + m != self.intersection.rank \
                    or poly.torsion or blocks[len(blocks) - m:] != (((-1,),),) * m:
                raise ValueError("SW polynomial must live over the tracked basis, "
                                 "its exceptional classes last")
            if self.simple_type:
                # each E_i is orthogonal to the rest with square -1, so only the
                # blocks of the core coordinates reach a core monomial
                target = 2 * self.chi + 3 * self.sigma
                entries = _square_entries(blocks[:len(blocks) - m])
                # with no such entry every square is 0: one zero vector stands for all
                vecs = poly.powered_core().free_exponents() if entries else \
                    [(0,) * poly.core.ambient.free_rank][:poly.core.monomial_count()]
                if any(_square(entries, vec) != target + m for vec in vecs):
                    raise ValueError(
                        "simple type requires every monomial square to equal "
                        f"2*chi + 3*sigma = {target}")

    # ----- derived numbers -----

    @property
    def b2(self) -> int:
        return self.b2_plus + self.b2_minus

    @property
    def chi(self) -> int:
        return 2 - 2 * self.b1 + self.b2

    @property
    def sigma(self) -> int:
        return self.b2_plus - self.b2_minus

    @property
    def parity(self) -> str:
        return "even" if self.spin else "odd"

    @property
    def fingerprint(self) -> Fingerprint:
        return Fingerprint(self.simply_connected, self.b2_plus,
                           self.b2_minus, self.parity)

    @property
    def capabilities(self) -> frozenset[str]:
        caps = set()
        if self.admits_psc:
            caps.add("admits_psc")
        if self.torus_index is not None:
            caps.add("has_swappable_torus")
        return frozenset(caps)

    def sw_render(self) -> str | None:
        if not self.sw.is_known:
            return None
        return self.sw.poly.render(self.intersection.tracked_basis or None)

    def to_json_dict(self) -> dict:
        n = self.intersection.rank
        if n > JSON_MAX_TRACKED:
            raise GuardViolation(
                f"the report would print a dense {n}x{n} intersection form; "
                f"JSON reports allow at most {JSON_MAX_TRACKED} tracked classes",
                requirement=f"at most {JSON_MAX_TRACKED} tracked classes")
        gram = self.intersection.gram
        # one list per row object: the zero rows, one tuple, become one list printed once
        rows = {id(row): list(row) for row in {id(row): row for row in gram}.values()}
        return {
            "label": self.label,
            "simply_connected": self.simply_connected,
            "b1": self.b1,
            "b2_plus": self.b2_plus,
            "b2_minus": self.b2_minus,
            "chi": self.chi,
            "sigma": self.sigma,
            "spin": self.spin,
            "torsion_h1": list(self.torsion_h1),
            "simple_type": self.simple_type,
            "capabilities": sorted(self.capabilities),
            "sw": {"status": self.sw.status, "poly": self.sw_render()},
            "mod2_basic_classes": mod2_basic_class_count(self),
            "intersection": {
                "tracked_basis": list(self.intersection.tracked_basis),
                "gram": [rows[id(row)] for row in gram],
                "hyperbolic": self.intersection.h_count,
                "plus_ones": self.intersection.plus_count,
                "minus_ones": self.intersection.minus_count,
            },
            "fingerprint": self.fingerprint._asdict(),
            "provenance": list(self.provenance),
        }


# ----- standard manifolds -----

def _elliptic_surface(n: int, label: str | None = None) -> ManifoldDescriptor:
    # b2+ = 2n-1, b2- = 10n-1, sigma = -8n, chi = 12n; fiber class T has square 0
    return ManifoldDescriptor(
        label=label or f"E({n})",
        simply_connected=True,
        b1=0,
        b2_plus=2 * n - 1,
        b2_minus=10 * n - 1,
        torsion_h1=(),
        spin=(n % 2 == 0),
        sw=SWInfo.known(laurent({0: 1}), power=(1, n - 2, 0)),
        intersection=IntersectionData.leaf(("T",), (((0,),),),
                                           h_count=6 * n - 2, minus_count=1),
        simple_type=True,
        admits_psc=False,
        torus_index=0,
        elliptic_class=True,
    )


def builtin(name: str, n: int | None = None) -> ManifoldDescriptor:
    """Descriptor for a standard manifold by name.

    Supported names: S4, CP2, CP2bar, S2xS2, K3, S1xS3, each one shared
    value, and E with its index as the second argument (index at least 2).
    """
    if name == "E":
        if n is None:
            raise GuardViolation("E requires an index argument, e.g. E(2)")
        if n == 1:
            raise GuardViolation(
                "E(1) is refused: b2+ = 1 sits in the wall-crossing regime, "
                "invariants here require b2+ > 1",
                requirement="b2+ > 1")
        if n < 1:
            raise GuardViolation("elliptic surface index must be at least 2",
                                 requirement="n >= 2")
        return _elliptic_surface(n)
    if n is not None:
        raise GuardViolation(f"{name} takes no argument")
    if name not in _FIXED_BUILTINS:
        raise GuardViolation(f"unknown builtin manifold {name!r}")
    return _FIXED_BUILTINS[name]


# immutable, so one value of each is shared by every reader
_FIXED_BUILTINS = {
    "S4": ManifoldDescriptor("S4", True, 0, 0, 0, (), True, SWInfo.zero(),
                             IntersectionData(), simple_type=True, admits_psc=True),
    "CP2": ManifoldDescriptor("CP2", True, 0, 1, 0, (), False, SWInfo.unknown(),
                              IntersectionData(plus_count=1), admits_psc=True),
    "CP2bar": ManifoldDescriptor("CP2bar", True, 0, 0, 1, (), False, SWInfo.unknown(),
                                 IntersectionData(minus_count=1), admits_psc=True),
    "S2xS2": ManifoldDescriptor("S2xS2", True, 0, 1, 1, (), True, SWInfo.unknown(),
                                IntersectionData(h_count=1), admits_psc=True),
    "K3": _elliptic_surface(2, label="K3"),
    "S1xS3": ManifoldDescriptor("S1xS3", False, 1, 0, 0, (), True, SWInfo.unknown(),
                                IntersectionData(), admits_psc=True),
}
BUILTIN_NAMES = tuple(_FIXED_BUILTINS)


# ----- derived operations -----

def homeo_type(m: ManifoldDescriptor | Fingerprint) -> HomeoType:
    """Canonical dissolved form classifying the homeomorphism type.

    Odd forms split as b2+ copies of CP2 plus b2- copies of CP2bar.  Even
    forms split into S2xS2 and K3 pieces, reversing orientation when the
    signature is positive.  Accepts a descriptor or its fingerprint.
    """
    fp = m if isinstance(m, Fingerprint) else m.fingerprint
    if not fp.simply_connected:
        raise GuardViolation("homeomorphism classification needs a simply "
                             "connected manifold",
                             requirement="simply connected")
    if fp.parity == "odd":
        return HomeoType("odd", fp.b2_plus, fp.b2_minus)
    sigma = fp.b2_plus - fp.b2_minus
    if sigma % 16 != 0:
        raise GuardViolation(
            f"spin form with signature {sigma} is not representable in dissolved form",
            requirement="sigma divisible by 16 for spin forms")
    k3 = abs(sigma) // 16
    s2 = min(fp.b2_plus, fp.b2_minus) - 3 * k3
    if s2 < 0:
        raise GuardViolation(
            f"{getattr(m, 'label', fp)} is not representable in dissolved form",
            requirement="nonnegative S2xS2 count")
    return HomeoType("even", s2, k3, 1 if sigma <= 0 else -1)


def sum_fingerprint(runs: Sequence[tuple[ManifoldDescriptor, int]]) -> Fingerprint:
    """The fingerprint of the sum of the (summand, copies) runs."""
    return Fingerprint(
        all(f.simply_connected for f, _ in runs),
        sum(c * f.b2_plus for f, c in runs),
        sum(c * f.b2_minus for f, c in runs),
        "even" if all(f.spin for f, _ in runs) else "odd",
    )


def mod2_basic_class_count(m: ManifoldDescriptor) -> int | None:
    """Number of monomials of the mod-2 polynomial, or None when unknown."""
    if m.sw.is_zero:
        return 0
    if m.sw.is_known:
        return m.sw.poly.over_f2().monomial_count()
    return None


def reverse_orientation(m: ManifoldDescriptor) -> ManifoldDescriptor:
    """Label-level orientation reversal; the reversed polynomial is not inferred."""
    inter = m.intersection
    reversed_inter = replace(
        inter,
        runs=tuple((names, tuple(tuple(tuple(-x for x in row) for row in block)
                                 for block in blocks), c) for names, blocks, c in inter.runs),
        plus_count=inter.minus_count,
        minus_count=inter.plus_count,
    )
    return replace(
        m,
        label=f"~{m.label}",
        b2_plus=m.b2_minus,
        b2_minus=m.b2_plus,
        sw=SWInfo.unknown(),
        intersection=reversed_inter,
        simple_type=None,
        elliptic_class=False,
        derived_from=("reverse", (m,), ""),
        provenance=m.provenance + (f"reverse: swapped b2+ and b2- of {m.label}",),
    )
