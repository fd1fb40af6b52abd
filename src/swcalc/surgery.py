"""Surgery calculus on manifold descriptors.

Connected sum, blowup, knot surgery along a square-zero torus,
logarithmic transform, stabilization equivalence records, and the
dissolution rewrite system that normalizes connected sums of elliptic
pieces into standard summands.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from itertools import product
from typing import Sequence

from .errors import GuardViolation
from .groupring import FgAbelianGroup, GroupRingElement, laurent
from .knot import AlexanderPoly
from .manifold import (Fingerprint, HomeoType, IntersectionData,
                       ManifoldDescriptor, SWInfo, _signed_binomial, builtin, homeo_type)


# ----- connected sum -----

def _is_standard_s4(d: ManifoldDescriptor) -> bool:
    return d.fingerprint == (True, 0, 0, "even")


def _pure_antiblowup_count(d: ManifoldDescriptor) -> int:
    """m when d has the fingerprint of m copies of CP2bar, else 0."""
    fp = d.fingerprint
    if fp.simply_connected and fp.b2_plus == 0 and fp.b2_minus >= 1 \
            and fp.parity == "odd":
        return fp.b2_minus
    return 0


def connected_sum(a: ManifoldDescriptor, b: ManifoldDescriptor) -> ManifoldDescriptor:
    """Connected sum with the standard bookkeeping.

    Betti numbers and torsion add, parity is the logical and, and the
    Euler characteristic drops by 2.  The polynomial is known only in
    three situations: a trivial summand, a summand of CP2bar pieces
    absorbed by the blowup formula, and the vanishing rule when both
    sides have positive b2+.  Every result, absorbed or not, records the
    summands of both sides as one flat lineage.
    """
    lineage = ("connected_sum", _sum_leaves(a) + _sum_leaves(b), "")
    label = f"{a.label} # {b.label}"
    for x, y in ((a, b), (b, a)):
        if _is_standard_s4(x):
            return replace(y, label=label, derived_from=lineage,
                           provenance=y.provenance +
                           ("connected_sum: summand with trivial fingerprint absorbed",))
    for x, y in ((b, a), (a, b)):
        m = _pure_antiblowup_count(x)
        if m and y.sw.is_known and y.simple_type:
            return replace(blowup(y, m), label=label, derived_from=lineage)

    inter = a.intersection.direct_sum(b.intersection)
    if a.b2_plus > 0 and b.b2_plus > 0:
        sw = SWInfo.zero()
        note = "connected_sum: both summands have b2+ > 0, polynomial vanishes"
    else:
        sw = SWInfo.unknown()
        note = "connected_sum: polynomial not determined by the product rules"

    torus = a.torus_class
    if torus is None and b.torus_class is not None:
        renamed_b = inter.tracked_basis[len(a.intersection.tracked_basis):]
        torus = renamed_b[b.intersection.tracked_basis.index(b.torus_class)]

    return ManifoldDescriptor(
        label=label,
        simply_connected=a.simply_connected and b.simply_connected,
        b1=a.b1 + b.b1,
        b2_plus=a.b2_plus + b.b2_plus,
        b2_minus=a.b2_minus + b.b2_minus,
        torsion_h1=tuple(sorted(a.torsion_h1 + b.torsion_h1)),
        spin=a.spin and b.spin,
        sw=sw,
        intersection=inter,
        simple_type=None,
        admits_psc=a.admits_psc and b.admits_psc,
        torus_class=torus,
        elliptic_class=False,
        derived_from=lineage,
        provenance=(note,),
    )


def connected_sum_all(factors: Sequence[ManifoldDescriptor]) -> ManifoldDescriptor:
    if not factors:
        return builtin("S4")
    out = factors[0]
    for f in factors[1:]:
        out = connected_sum(out, f)
    return out


# ----- blowup -----

def blowup(a: ManifoldDescriptor, m: int) -> ManifoldDescriptor:
    """Blow up m times: b2- grows by m and the form gains m (-1)-classes.

    When the polynomial is known and the manifold is of simple type it is
    multiplied by prod_i (E_i + E_i^{-1}); an unknown polynomial stays
    unknown while the topology is still performed.
    """
    if m < 1:
        raise GuardViolation("blowup count must be at least 1", requirement="m >= 1")
    tracked = a.intersection.tracked_basis
    existing = set(tracked)
    new_names = []
    i = 1
    while len(new_names) < m:
        cand = f"E{i}"
        if cand not in existing:
            new_names.append(cand)
            existing.add(cand)
        i += 1
    new_names = tuple(new_names)

    inter = IntersectionData(
        tracked + new_names, a.intersection.blocks + (((-1,),),) * m,
        h_count=a.intersection.h_count,
        plus_count=a.intersection.plus_count,
        minus_count=a.intersection.minus_count,
    )

    if a.sw.is_known and a.simple_type:
        # the E_i are new generators, so the product is every key followed
        # by every sign vector, each keeping its coefficient
        signs = list(product((1, -1), repeat=m))
        sw = SWInfo.known(GroupRingElement._wrap(FgAbelianGroup(len(tracked) + m), {
            key + sign: c for key, c in a.sw.poly._terms.items() for sign in signs}))
        simple_type = True
    elif a.sw.is_zero:
        sw = SWInfo.zero()
        simple_type = a.simple_type
    else:
        sw = SWInfo.unknown()
        simple_type = None

    return ManifoldDescriptor(
        label=f"blowup({a.label},{m})",
        simply_connected=a.simply_connected,
        b1=a.b1,
        b2_plus=a.b2_plus,
        b2_minus=a.b2_minus + m,
        torsion_h1=a.torsion_h1,
        spin=False,
        sw=sw,
        intersection=inter,
        simple_type=simple_type,
        admits_psc=a.admits_psc,
        torus_class=a.torus_class,
        elliptic_class=a.elliptic_class,
        derived_from=("blowup", (a,), str(m)),
        provenance=a.provenance + (f"blowup: {m} exceptional classes appended",),
    )


# ----- knot surgery -----

def knot_surgery(a: ManifoldDescriptor, k: AlexanderPoly) -> ManifoldDescriptor:
    """Knot surgery along the distinguished square-zero torus.

    The homeomorphism fingerprint is unchanged and the polynomial is
    multiplied by Delta_K evaluated at the square of the torus class.
    """
    if a.torus_class is None:
        raise GuardViolation(
            f"{a.label} carries no distinguished torus with square 0 and simply "
            "connected complement; knot surgery is refused",
            requirement="c-embedded torus T with T.T = 0 and pi_1(X - T) = 0")
    if not a.sw.is_known:
        raise GuardViolation(
            f"knot surgery on {a.label} needs a known polynomial",
            requirement="SW polynomial known")
    tracked = a.intersection.tracked_basis
    g = a.sw.poly.ambient
    torus_index = tracked.index(a.torus_class)
    scaled = k.poly.substitute_power(2)
    factor = scaled.embed(g, free_map=(torus_index,))
    poly = a.sw.poly * factor
    return replace(
        a,
        label=f"knot_surgery({a.label}, {k.label()})",
        sw=SWInfo.known(poly),
        derived_from=("knot_surgery", (a,), k.label()),
        provenance=a.provenance +
        (f"knot_surgery: polynomial multiplied by Delta({k.label()}) at T^2",),
    )


# ----- logarithmic transform -----

def log_transform(two_n: int, r: int) -> ManifoldDescriptor:
    """Multiplicity-r logarithmic transform of the index-2n elliptic surface.

    Returns a descriptor with the fingerprint of E(2n) and polynomial
    (T^r - T^-r)^(2n-2) * (T^(r-1) + T^(r-3) + ... + T^(1-r)).
    """
    if two_n < 2 or two_n % 2 != 0:
        raise GuardViolation("first argument must be an even integer >= 2",
                             requirement="even index 2n >= 2")
    if r < 1:
        raise GuardViolation("multiplicity must be at least 1", requirement="r >= 1")
    base = builtin("E", two_n)
    comb = laurent(dict.fromkeys(range(r - 1, -r, -2), 1))
    poly = _signed_binomial(two_n - 2, r) * comb
    return replace(
        base,
        label=f"logtx({two_n},{r})",
        sw=SWInfo.known(poly),
        derived_from=("log_transform", (base,), f"r={r}"),
        provenance=(f"log_transform: multiplicity {r} on E({two_n})",
                    "assumes the companion fibered torus in a disjoint nucleus "
                    "survives, so the torus capability is kept"),
    )


# ----- stabilization equivalence -----

@dataclass(frozen=True)
class EquivalenceRecord:
    """Evidence that two descriptors become diffeomorphic after one
    S2xS2 stabilization."""

    kind: str  # "identity" or "one_stabilization"
    left: str
    right: str
    knot: str | None
    fingerprint: Fingerprint
    statement: str

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "left": self.left,
            "right": self.right,
            "knot": self.knot,
            "fingerprint": list(self.fingerprint),
            "statement": self.statement,
        }


def stabilization_equivalence(a_k: ManifoldDescriptor,
                              a: ManifoldDescriptor) -> EquivalenceRecord:
    """Record that a_k # S2xS2 is diffeomorphic to a # S2xS2.

    Valid when a_k arose from a by knot surgery (one stabilization
    dissolves the knotting) or trivially when the descriptors agree.
    """
    if a_k == a:
        return EquivalenceRecord(
            "identity", a_k.label, a.label, None, a.fingerprint,
            f"{a_k.label} = {a.label}")
    if a_k.fingerprint != a.fingerprint:
        raise GuardViolation(
            f"fingerprints differ: {a_k.fingerprint} vs {a.fingerprint}; "
            "the manifolds are not homeomorphic",
            requirement="equal homeomorphism fingerprints")
    lineage = a_k.derived_from
    if lineage is None or lineage[0] != "knot_surgery" or lineage[1][0] != a:
        raise GuardViolation(
            f"{a_k.label} does not record a knot surgery pedigree from {a.label}",
            requirement="knot surgery lineage")
    return EquivalenceRecord(
        "one_stabilization", a_k.label, a.label, lineage[2], a.fingerprint,
        f"{a_k.label} # S2xS2 = {a.label} # S2xS2")


# ----- dissolution rewrite system -----

@dataclass(frozen=True)
class DissolutionVerdict:
    """Result of rewriting a connected sum into standard pieces: the
    dissolved form, or None when no rule fits."""

    form: HomeoType | None
    rule_trace: tuple[str, ...]

    @property
    def status(self) -> str:
        return "unknown" if self.form is None else "dissolved"

    @property
    def canonical_counts(self):
        return astuple(self.form) if self.form else (None, None, None, 1)

    def to_json_dict(self) -> dict:
        form = self.form.to_json_dict() if self.form else \
            {"parity": None, "n": None, "m": None, "orientation": 1, "display": None}
        # swcalc/1 field order: status and display first, rule_trace last
        return {"status": self.status, "display": form["display"], **form,
                "rule_trace": list(self.rule_trace)}


_STANDARD_FPS = {
    (True, 0, 0, "even"): "S4",
    (True, 1, 0, "odd"): "CP2",
    (True, 0, 1, "odd"): "CP2bar",
    (True, 1, 1, "even"): "S2xS2",
}


def _standard_kind(d: ManifoldDescriptor) -> str | None:
    fp = d.fingerprint
    if (kind := _STANDARD_FPS.get(fp)) is not None:
        return kind
    # the polynomial is torsion-free, so its one free vector is the whole key
    if fp == (True, 3, 19, "even") and d.sw.is_known \
            and d.sw.poly.monomial_count() == 1 \
            and not any(next(d.sw.poly.free_exponents())) \
            and abs(d.sw.poly.evaluate_at_one()) == 1:
        return "K3"
    return None


def _knot_derived(d: ManifoldDescriptor) -> bool:
    seen = [d]
    while seen:
        cur = seen.pop()
        lineage = cur.derived_from
        if lineage is None:
            continue
        if lineage[0] == "knot_surgery":
            return True
        seen.extend(lineage[1])
    return False


def _sum_fingerprint(factors: Sequence[ManifoldDescriptor]) -> Fingerprint:
    return Fingerprint(
        all(f.simply_connected for f in factors),
        sum(f.b2_plus for f in factors),
        sum(f.b2_minus for f in factors),
        "even" if all(f.spin for f in factors) else "odd",
    )


def _sum_leaves(d: ManifoldDescriptor) -> tuple[ManifoldDescriptor, ...]:
    """The summands of a descriptor built as a connected sum, else d alone."""
    if d.derived_from is not None and d.derived_from[0] == "connected_sum":
        return d.derived_from[1]
    return (d,)


def dissolve(factors: Sequence[ManifoldDescriptor]) -> DissolutionVerdict:
    """Normalize a connected sum of descriptors into standard pieces.

    Three rewrite rules are applied until only standard pieces remain:
    an elliptic-type factor absorbs one S2xS2 summand and splits into the
    dissolved pieces of the stabilized sum; an elliptic-type factor that
    is not knot-derived does the same with a CP2 summand; and one S2xS2
    trades for CP2 # CP2bar whenever the rest of the sum is odd.  Each
    step rewrites the first pending factor that some rule fits, so the
    verdict does not depend on the order of the factors.  Each rule
    strictly reduces the number of non-standard factors, so the system
    terminates; if no rule fits any factor the verdict is unknown rather
    than guessed.
    """
    factors = [leaf for f in factors for leaf in _sum_leaves(f)]
    for f in factors:
        if not f.simply_connected:
            raise GuardViolation(
                f"dissolution needs simply connected factors, got {f.label}",
                requirement="simply connected factors")

    trace: list[str] = []
    std: dict[str, int] = {"CP2": 0, "CP2bar": 0, "S2xS2": 0, "K3": 0}
    pending: list[ManifoldDescriptor] = []
    for f in factors:
        kind = _standard_kind(f)
        if kind == "S4":
            trace.append(f"trivial_summand: dropped {f.label}")
        elif kind is not None:
            std[kind] += 1
        else:
            pending.append(f)

    while pending:
        s2, cp2, cp2bar = std["S2xS2"], std["CP2"], std["CP2bar"]
        # the swap needs an odd factor in the complement of the pair
        swap = not s2 and cp2 and cp2bar and (
            cp2 >= 2 or cp2bar >= 2 or any(not g.spin for g in pending))
        i = next((i for i, f in enumerate(pending) if f.elliptic_class and (
            s2 or swap or cp2 and not _knot_derived(f))), None)
        if i is None:
            f = pending[0]
            trace.append(f"stuck: no stabilizing summand available for {f.label}"
                         if f.elliptic_class else
                         f"stuck: {f.label} is not covered by the dissolution rules")
            return DissolutionVerdict(None, tuple(trace))
        f = pending[i]
        summand = "S2xS2" if s2 else "CP2" if cp2 and not _knot_derived(f) else None
        if summand is None:
            # enables the stabilization rule for f on the next step
            std["CP2"] -= 1
            std["CP2bar"] -= 1
            std["S2xS2"] += 1
            trace.append("parity_swap: CP2 # CP2bar rewritten to S2xS2")
            continue
        del pending[i]
        std[summand] -= 1
        form = homeo_type(_sum_fingerprint([f, builtin(summand)]))
        pieces = ("CP2", "CP2bar") if form.parity == "odd" else ("S2xS2", "K3")
        std[pieces[0]] += form.n
        std[pieces[1]] += form.m
        rule = "elliptic_stabilization" if s2 else "cp2_dissolution"
        trace.append(f"{rule}: {f.label} # {summand} rewritten to standard pieces")

    # only standard pieces remain; normalize mixed parities
    if (std["CP2"] or std["CP2bar"]) and (std["S2xS2"] or std["K3"]):
        while std["S2xS2"]:
            std["S2xS2"] -= 1
            std["CP2"] += 1
            std["CP2bar"] += 1
            trace.append("parity_swap: S2xS2 rewritten to CP2 # CP2bar")
        while std["K3"] and std["CP2"]:
            std["K3"] -= 1
            std["CP2"] += 3
            std["CP2bar"] += 19
            trace.append("cp2_dissolution: K3 # CP2 rewritten to 4*CP2 # 19*CP2bar")
        if std["K3"]:
            trace.append("stuck: K3 summand with no CP2 available")
            return DissolutionVerdict(None, tuple(trace))

    if std["CP2"] or std["CP2bar"]:
        form = HomeoType("odd", std["CP2"], std["CP2bar"])
    else:
        form = HomeoType("even", std["S2xS2"], std["K3"])
    expected = homeo_type(_sum_fingerprint(factors))
    if form != expected:
        raise AssertionError(
            f"dissolution changed the homeomorphism type: {expected} -> {form}")
    return DissolutionVerdict(form, tuple(trace))
