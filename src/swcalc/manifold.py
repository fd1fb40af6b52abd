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
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .errors import GuardViolation
from .groupring import GroupElement, GroupRingElement, laurent

SW_KNOWN = "known"
SW_ZERO = "zero"
SW_UNKNOWN = "unknown"

# largest tracked basis whose dense Gram matrix a JSON report will print
JSON_MAX_TRACKED = 1000


@dataclass(frozen=True)
class SWInfo:
    """Tri-state Seiberg-Witten polynomial: known, identically zero, or unknown.

    Unknown propagates through every operation rather than being guessed;
    the product formulas cover specific constructions only.
    """

    status: str
    poly: GroupRingElement | None = None

    @classmethod
    def known(cls, poly: GroupRingElement) -> "SWInfo":
        return cls(SW_KNOWN, poly)

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


@dataclass(frozen=True)
class IntersectionData:
    """Free part of the intersection form, split for bookkeeping.

    ``tracked_basis`` names the generators that may appear as exponents
    of Seiberg-Witten monomials.  Their Gram matrix is block diagonal:
    ``blocks`` holds its square symmetric diagonal blocks in basis order,
    and ``gram`` builds the dense matrix on demand.  The remaining
    dimensions are counted as standard summands (hyperbolic planes and
    diagonal (+1)/(-1) entries) that no monomial references.
    """

    tracked_basis: tuple[str, ...] = ()
    blocks: tuple[Block, ...] = ()
    h_count: int = 0
    plus_count: int = 0
    minus_count: int = 0

    def __post_init__(self):
        if sum(map(len, self.blocks)) != len(self.tracked_basis):
            raise ValueError("gram blocks must cover the tracked basis")
        for block in self.blocks:
            n = len(block)
            if any(len(row) != n for row in block):
                raise ValueError("gram block must be square")
            if any(block[i][j] != block[j][i] for i in range(n) for j in range(i)):
                raise ValueError("gram matrix must be symmetric")
        if min(self.h_count, self.plus_count, self.minus_count, 0) < 0:
            raise ValueError("summand counts must be nonnegative")

    @property
    def dimension(self) -> int:
        return (len(self.tracked_basis) + 2 * self.h_count
                + self.plus_count + self.minus_count)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense tracked Gram matrix, built anew on each call."""
        n = len(self.tracked_basis)
        rows = []
        for block in self.blocks:
            left = (0,) * len(rows)
            right = (0,) * (n - len(rows) - len(block))
            rows.extend(left + tuple(row) + right for row in block)
        return tuple(rows)

    def square(self, exponents: Mapping[str, int]) -> int:
        """Self-intersection of an integer combination of tracked classes."""
        idx = {name: i for i, name in enumerate(self.tracked_basis)}
        vec = [0] * len(self.tracked_basis)
        for name, e in exponents.items():
            if name not in idx:
                raise GuardViolation(f"class {name!r} is not a tracked generator",
                                     requirement="gram data available for the class")
            vec[idx[name]] = e
        return self.vector_square(vec)

    def vector_square(self, vec: Sequence[int]) -> int:
        """Self-intersection of a coefficient vector in basis order."""
        total = 0
        start = 0
        for block in self.blocks:
            end = start + len(block)
            v = vec[start:end]
            for x, row in zip(v, block):
                if x:
                    total += x * sum(map(mul, row, v))
            start = end
        return total

    def direct_sum(self, other: "IntersectionData") -> "IntersectionData":
        """Orthogonal sum, renaming the classes of ``other`` that clash.

        A clashing name x becomes the first free one of x_2, x_3, ...  Both
        forms were checked when they were made, and a block sum of checked
        blocks is checked, so the sum is assembled without a further
        check.  Names are looked up in a table that a chain of sums shares,
        so a sum costs the two concatenations plus O(1) amortized per class
        of ``other``.
        """
        table = self.__dict__.get("_names")
        if table is None:
            table = self.__dict__.setdefault("_names", _NameTable(self.tracked_basis))
        if not table.claim(len(self.tracked_basis)):
            table = _NameTable(self.tracked_basis)
        out = object.__new__(IntersectionData)
        out.__dict__.update(
            tracked_basis=self.tracked_basis + table.add(other.tracked_basis),
            blocks=self.blocks + other.blocks,
            h_count=self.h_count + other.h_count,
            plus_count=self.plus_count + other.plus_count,
            minus_count=self.minus_count + other.minus_count,
            _names=table,
        )
        return out


class _NameTable:
    """The tracked names along one chain of direct sums.

    Every form of the chain holds the table, but only its last form may
    read or extend it: the first sum taken from a given rank claims that
    rank, and a later sum from the same rank starts a table of its own.
    The claim is one ``dict.setdefault``, which is atomic.
    """

    def __init__(self, names: tuple[str, ...]):
        self.taken = set(names)
        self.next_suffix: dict[str, int] = {}  # name -> i with name_2..name_{i-1} taken
        self.claims: dict[int, object] = {}

    def claim(self, rank: int) -> bool:
        token = object()
        return self.claims.setdefault(rank, token) is token

    def add(self, names: tuple[str, ...]) -> tuple[str, ...]:
        out = []
        for name in names:
            candidate = name
            if candidate in self.taken:
                i = self.next_suffix.get(name, 2)
                candidate = f"{name}_{i}"
                while candidate in self.taken:
                    i += 1
                    candidate = f"{name}_{i}"
                self.next_suffix[name] = i + 1
            self.taken.add(candidate)
            out.append(candidate)
        return tuple(out)


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
    torus_class: str | None = None
    elliptic_class: bool = False
    derived_from: tuple[str, tuple["ManifoldDescriptor", ...], str] | None = \
        field(default=None, repr=False, compare=False)
    provenance: tuple[str, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if self.simply_connected and (self.b1 != 0 or self.torsion_h1):
            raise ValueError("a simply connected manifold has trivial H_1")
        if self.intersection.dimension != self.b2:
            raise ValueError(
                f"intersection data accounts for {self.intersection.dimension} "
                f"dimensions but b2 = {self.b2}")
        if self.torus_class is not None and \
                self.torus_class not in self.intersection.tracked_basis:
            raise ValueError("torus class must be a tracked generator")
        if self.sw.is_known:
            g = self.sw.poly.ambient
            if g.free_rank != len(self.intersection.tracked_basis) or g.torsion_orders:
                raise ValueError("SW polynomial must live over the tracked basis")
            if self.simple_type:
                target = 2 * self.chi + 3 * self.sigma
                square = self.intersection.vector_square
                if any(square(vec) != target for vec in self.sw.poly.free_exponents()):
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
        if self.torus_class is not None:
            caps.add("has_swappable_torus")
        return frozenset(caps)

    def sw_render(self) -> str | None:
        if not self.sw.is_known:
            return None
        return self.sw.poly.render(self.intersection.tracked_basis or None)

    def to_json_dict(self) -> dict:
        n = len(self.intersection.tracked_basis)
        if n > JSON_MAX_TRACKED:
            raise GuardViolation(
                f"the report would print a dense {n}x{n} intersection form; "
                f"JSON reports allow at most {JSON_MAX_TRACKED} tracked classes",
                requirement=f"at most {JSON_MAX_TRACKED} tracked classes")
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
                "gram": [list(r) for r in self.intersection.gram],
                "hyperbolic": self.intersection.h_count,
                "plus_ones": self.intersection.plus_count,
                "minus_ones": self.intersection.minus_count,
            },
            "fingerprint": self.fingerprint._asdict(),
            "provenance": list(self.provenance),
        }


# ----- standard manifolds -----

def _signed_binomial(m: int, step: int) -> GroupRingElement:
    """(T^step - T^-step)^m, written as its row: (-1)^j C(m, j) T^(step(m-2j))."""
    row, c = {}, 1
    for j in range(m + 1):
        row[step * (m - 2 * j)] = -c if j & 1 else c
        c = c * (m - j) // (j + 1)
    return laurent(row)


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
        sw=SWInfo.known(_signed_binomial(n - 2, 1)),
        intersection=IntersectionData(("T",), (((0,),),),
                                      h_count=6 * n - 2, minus_count=1),
        simple_type=True,
        admits_psc=False,
        torus_class="T",
        elliptic_class=True,
    )


def builtin(name: str, n: int | None = None) -> ManifoldDescriptor:
    """Descriptor for a standard manifold by name.

    Supported names: S4, CP2, CP2bar, S2xS2, K3, S1xS3, and E with its
    index as the second argument (index at least 2).
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
    if name == "S4":
        return ManifoldDescriptor(
            "S4", True, 0, 0, 0, (), True, SWInfo.zero(),
            IntersectionData(), simple_type=True, admits_psc=True)
    if name == "CP2":
        return ManifoldDescriptor(
            "CP2", True, 0, 1, 0, (), False, SWInfo.unknown(),
            IntersectionData(plus_count=1), admits_psc=True)
    if name == "CP2bar":
        return ManifoldDescriptor(
            "CP2bar", True, 0, 0, 1, (), False, SWInfo.unknown(),
            IntersectionData(minus_count=1), admits_psc=True)
    if name == "S2xS2":
        return ManifoldDescriptor(
            "S2xS2", True, 0, 1, 1, (), True, SWInfo.unknown(),
            IntersectionData(h_count=1), admits_psc=True)
    if name == "K3":
        return _elliptic_surface(2, label="K3")
    if name == "S1xS3":
        return ManifoldDescriptor(
            "S1xS3", False, 1, 0, 0, (), True, SWInfo.unknown(),
            IntersectionData(), admits_psc=True)
    raise GuardViolation(f"unknown builtin manifold {name!r}")


BUILTIN_NAMES = ("S4", "CP2", "CP2bar", "S2xS2", "K3", "S1xS3")


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
    if sigma <= 0:
        k3 = -sigma // 16
        s2 = fp.b2_plus - 3 * k3
        orientation = 1
    else:
        k3 = sigma // 16
        s2 = fp.b2_minus - 3 * k3
        orientation = -1
    if s2 < 0:
        raise GuardViolation(
            f"{getattr(m, 'label', fp)} is not representable in dissolved form",
            requirement="nonnegative S2xS2 count")
    return HomeoType("even", s2, k3, orientation)


def expected_sw_dimension(m: ManifoldDescriptor,
                          c: Mapping[str, int] | GroupElement) -> int:
    """Expected moduli dimension (c.c - 2*chi - 3*sigma)/4 for a class c."""
    if isinstance(c, GroupElement):
        exps = dict(zip(m.intersection.tracked_basis, c.free))
    else:
        exps = dict(c)
    square = m.intersection.square(exps)
    num = square - 2 * m.chi - 3 * m.sigma
    if num % 4 != 0:
        raise GuardViolation(
            f"square {square} gives a non-integral dimension: "
            "not a characteristic class for this form",
            requirement="characteristic class")
    return num // 4


def mod2_basic_class_count(m: ManifoldDescriptor) -> int | None:
    """Number of monomials of the mod-2 polynomial, or None when unknown."""
    if m.sw.is_zero:
        return 0
    if m.sw.is_known:
        return m.sw.poly.mod2().monomial_count()
    return None


def reverse_orientation(m: ManifoldDescriptor) -> ManifoldDescriptor:
    """Label-level orientation reversal; the reversed polynomial is not inferred."""
    inter = m.intersection
    reversed_inter = IntersectionData(
        inter.tracked_basis,
        tuple(tuple(tuple(-x for x in row) for row in block)
              for block in inter.blocks),
        h_count=inter.h_count,
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
