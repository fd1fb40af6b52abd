"""Surgery calculus on manifold descriptors.

Connected sum, blowup, knot surgery along a square-zero torus,
logarithmic transform, and the dissolution rewrite system that normalizes
connected sums of elliptic pieces into standard summands.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from itertools import chain, count, filterfalse, islice, repeat
from typing import Sequence

from .errors import GuardViolation
from .groupring import invariant_factors, laurent
from .knot import AlexanderPoly
from .manifold import (HomeoType, IntersectionData, ManifoldDescriptor, SWInfo, builtin,
                       homeo_type, sum_fingerprint)


# ----- connected sum -----

_S4 = builtin("S4").fingerprint  # the fingerprint of a trivial summand
_ABSORBED = "connected_sum: summand with trivial fingerprint absorbed"
_BLOWN_UP = "blowup: {} exceptional classes appended"


def _per_copy(seq, c: int):
    """``seq * c``, refused when it would hold more items than Python can index."""
    if len(seq) * c > sys.maxsize:
        raise GuardViolation(f"a per-copy sequence of {len(seq) * c} items is longer than "
                             "Python can index", requirement="count <= sys.maxsize")
    return seq * c


def _pure_antiblowup_count(d: ManifoldDescriptor) -> int:
    """m when d has the fingerprint of m copies of CP2bar, else 0."""
    fp = d.fingerprint
    return fp.b2_minus if fp.simply_connected and not fp.b2_plus and fp.parity == "odd" else 0


def _merged(runs) -> list[tuple[ManifoldDescriptor, int]]:
    """Runs with adjacent interchangeable summands (equal, with equal records) merged."""
    out = []
    for f, c in runs:
        if c < 1:
            raise GuardViolation(f"{c} copies of {f.label} requested", requirement="count >= 1")
        g = out[-1][0] if out else None
        if g is not None and g == f \
                and (g.provenance, g.derived_from) == (f.provenance, f.derived_from):
            out[-1] = (g, out[-1][1] + c)
        else:
            out.append((f, c))
    return out


def _lineage(runs) -> tuple[str, tuple[tuple[ManifoldDescriptor, int], ...], str]:
    """The record of the sum of the runs: the runs of its leaves, a sum's from its record."""
    leaves = []
    for f, c in runs:
        own = f.derived_from[1] if (f.derived_from or "_")[0] == "connected_sum" else ((f, 1),)
        leaves += ((own[0][0], own[0][1] * c),) if len(own) == 1 else _per_copy(own, c)
    return ("connected_sum", tuple(_merged(leaves)), "")


def connected_sum(a: ManifoldDescriptor, b: ManifoldDescriptor) -> ManifoldDescriptor:
    """Connected sum with the standard bookkeeping.

    Betti numbers and torsion add, parity is the logical and, and the
    Euler characteristic drops by 2.  The polynomial is known only in
    three situations: a trivial summand, a summand of CP2bar pieces
    absorbed by the blowup formula, and the vanishing rule when the sum
    splits into two parts of positive b2+.  Every result, absorbed or
    not, records the leaves of both sides as (leaf, multiplicity) runs.
    """
    return connected_sum_all((a, b))


def connected_sum_all(factors: Sequence[ManifoldDescriptor],
                      counts: Sequence[int] | None = None) -> ManifoldDescriptor:
    """The sum of counts[i] >= 1 copies of factors[i] (one each by default),
    folded from the left by ``connected_sum``'s rules, one run of equal
    summands at a time; the label is joined once."""
    runs = _merged(zip(factors, counts or repeat(1)))
    if not runs:
        return builtin("S4")
    label = " # ".join(chain.from_iterable(_per_copy([f.label], c) for f, c in runs))
    lineage = _lineage(runs)
    out = runs[0][0]
    for i, (f, c) in enumerate(runs):  # the first copy starts the sum
        out = _sum_onto(out, f, c - (i == 0), label, lineage)
    return out


def _sum_onto(a: ManifoldDescriptor, b: ManifoldDescriptor, c: int, label: str,
              lineage: tuple) -> ManifoldDescriptor:
    """c copies of b summed onto a one at a time by ``connected_sum``'s rules,
    labelled and recorded as given; a rule that fires again on every later
    copy takes all of them in one step."""
    while c:
        if a.fingerprint == _S4:
            a = replace(b, label=label, derived_from=lineage,
                        provenance=b.provenance + (_ABSORBED,))
            c = 0 if b.fingerprint == _S4 else c - 1  # b's record for every copy of S4
        elif b.fingerprint == _S4:
            return replace(a, label=label, derived_from=lineage,
                           provenance=a.provenance + (_ABSORBED,) * c)
        elif (m := _pure_antiblowup_count(b)) and a.sw.is_known and a.simple_type:
            # a blowup stays known and of simple type, so every copy is absorbed
            return replace(blowup(a, m * c), label=label, derived_from=lineage,
                           provenance=a.provenance + (_BLOWN_UP.format(m),) * c)
        elif (m := _pure_antiblowup_count(a)) and b.sw.is_known and b.simple_type:
            a, c = replace(blowup(b, m), label=label, derived_from=lineage), c - 1
        else:
            # the sum is never known again, so only a known b of simple type with
            # b2+ = 0 can be absorbed later, by a sum of CP2bar fingerprint
            n = c if b.b2_plus or not (b.sw.is_known and b.simple_type) else 1
            a, c = _unabsorbed_sum(a, b, n, label, lineage), c - n
    return a


def _unabsorbed_sum(a: ManifoldDescriptor, b: ManifoldDescriptor, n: int, label: str,
                    lineage: tuple) -> ManifoldDescriptor:
    """n copies of b summed onto a when no absorption rule fires."""
    inter = a.intersection.direct_sum(b.intersection, n)
    # a zero polynomial with b2+ > 0 comes only from this rule, so that side
    # already splits into two parts of positive b2+, and the sum still does;
    # so do two copies of b when b2+(b) > 0
    if b.b2_plus > 0 and (a.b2_plus > 0 or n > 1) or any(
            x.sw.is_zero and x.b2_plus > 0 for x in (a, b)):
        sw = SWInfo.zero()
        note = "connected_sum: both summands have b2+ > 0, polynomial vanishes"
    else:
        sw = SWInfo.unknown()
        note = "connected_sum: polynomial not determined by the product rules"

    torus = a.torus_index
    if torus is None and b.torus_index is not None:
        torus = a.intersection.rank + b.torus_index

    return ManifoldDescriptor(
        label=label,
        simply_connected=a.simply_connected and b.simply_connected,
        b1=a.b1 + n * b.b1,
        b2_plus=a.b2_plus + n * b.b2_plus,
        b2_minus=a.b2_minus + n * b.b2_minus,
        torsion_h1=invariant_factors(a.torsion_h1 + b.torsion_h1 * n),
        spin=a.spin and b.spin,
        sw=sw,
        intersection=inter,
        simple_type=None,
        admits_psc=a.admits_psc and b.admits_psc,
        torus_index=torus,
        elliptic_class=False,
        derived_from=lineage,
        provenance=(note,),
    )


# ----- blowup -----

def blowup(a: ManifoldDescriptor, m: int) -> ManifoldDescriptor:
    """Blow up m times: b2- grows by m and the form gains m (-1)-classes.

    When the polynomial is known and the manifold is of simple type it is
    multiplied by prod_i (E_i + E_i^{-1}), kept as a count of exceptional
    classes beside the core; an unknown polynomial stays unknown while the
    topology is still performed.
    """
    if m < 1:
        raise GuardViolation("blowup count must be at least 1", requirement="m >= 1")
    # the first m of E1, E2, ... not among the base names (a renamed class holds "_")
    used = set(chain.from_iterable(names for names, _, _ in a.intersection.runs))
    new_names = tuple(islice(filterfalse(used.__contains__, map("E{}".format, count(1))), m))
    inter = a.intersection.direct_sum(IntersectionData.leaf(new_names, (((-1,),),) * m))

    if a.sw.is_known and a.simple_type:
        sw = SWInfo.known(a.sw.poly.core, a.sw.poly.blowups + m, a.sw.poly.power)
        simple_type = True
    elif a.sw.is_zero:
        sw = SWInfo.zero()
        simple_type = a.simple_type
    else:
        sw = SWInfo.unknown()
        simple_type = None

    return replace(
        a,
        label=f"blowup({a.label},{m})",
        b2_minus=a.b2_minus + m,
        spin=False,
        sw=sw,
        intersection=inter,
        simple_type=simple_type,
        derived_from=("blowup", (a,), str(m)),
        provenance=a.provenance + (_BLOWN_UP.format(m),),
    )


# ----- knot surgery -----

def knot_surgery(a: ManifoldDescriptor, k: AlexanderPoly) -> ManifoldDescriptor:
    """Knot surgery along the distinguished square-zero torus.

    The homeomorphism fingerprint is unchanged and the polynomial is
    multiplied by Delta_K evaluated at the square of the torus class.
    """
    if a.torus_index is None:
        raise GuardViolation(
            f"{a.label} carries no distinguished torus with square 0 and simply "
            "connected complement; knot surgery is refused",
            requirement="c-embedded torus T with T.T = 0 and pi_1(X - T) = 0")
    if not a.sw.is_known:
        raise GuardViolation(
            f"knot surgery on {a.label} needs a known polynomial",
            requirement="SW polynomial known")
    # Delta_K spreads the core along the torus, so the power is multiplied in first
    core = a.sw.poly.powered_core()
    return replace(
        a,
        label=f"knot_surgery({a.label}, {k.label()})",
        sw=SWInfo.known(core.mul_laurent(k.poly, a.torus_index, 2), a.sw.poly.blowups),
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
    return replace(
        base,
        label=f"logtx({two_n},{r})",
        sw=SWInfo.known(comb, power=(r, two_n - 2, 0)),
        derived_from=("log_transform", (base,), f"r={r}"),
        provenance=(f"log_transform: multiplicity {r} on E({two_n})",
                    "assumes the companion fibered torus in a disjoint nucleus "
                    "survives, so the torus capability is kept"),
    )


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

    def to_json_dict(self) -> dict:
        form = self.form.to_json_dict() if self.form else \
            {"parity": None, "n": None, "m": None, "orientation": 1, "display": None}
        # swcalc/1 field order: status and display first, rule_trace last
        return {"status": self.status, "display": form["display"], **form,
                "rule_trace": list(self.rule_trace)}


_STANDARD_FPS = {builtin(kind).fingerprint: kind for kind in ("S4", "CP2", "CP2bar", "S2xS2")}
_K3 = builtin("K3").fingerprint


def _standard_kind(d: ManifoldDescriptor) -> str | None:
    fp = d.fingerprint
    if (kind := _STANDARD_FPS.get(fp)) is not None:
        return kind
    # the polynomial is torsion-free, so its one free vector is the whole key
    if fp == _K3 and d.sw.is_known and d.sw.poly.monomial_count() == 1 \
            and not any(next(d.sw.poly.core.free_exponents())) \
            and abs(d.sw.poly.core.evaluate_at_one()) == 1:
        return "K3"
    return None


def _knot_derived(d: ManifoldDescriptor) -> bool:
    seen = [d]
    while seen:
        lineage = seen.pop().derived_from
        if lineage is None:
            continue
        if lineage[0] == "knot_surgery":
            return True
        # a sum records (leaf, multiplicity) runs, every other step its parents
        seen.extend(p[0] if lineage[0] == "connected_sum" else p for p in lineage[1])
    return False


def dissolve(factors: Sequence[ManifoldDescriptor],
             counts: Sequence[int] | None = None) -> DissolutionVerdict:
    """Normalize a connected sum of descriptors into standard pieces.

    counts[i] >= 1 copies of factors[i] are summed (one each by default),
    a sum standing for its leaf runs.  Three rewrite rules are applied
    until only standard pieces remain: an elliptic-type factor absorbs
    one S2xS2 summand and splits into the dissolved pieces of the
    stabilized sum; an elliptic-type factor that is not knot-derived does
    the same with a CP2 summand; and one S2xS2 trades for CP2 # CP2bar
    whenever the rest of the sum is odd.  Each step rewrites the first
    pending factor that some rule fits, so the verdict does not depend on
    the order of the factors.  Each rule strictly reduces the number of
    non-standard factors, so the system terminates; if no rule fits any
    factor the verdict is unknown rather than guessed.  A rule takes in
    one step, with one trace line per copy, every copy of a leaf run that
    it would take one by one.
    """
    runs = _lineage(zip(factors, counts or repeat(1)))[1]
    for f, _ in runs:
        if not f.simply_connected:
            raise GuardViolation(
                f"dissolution needs simply connected factors, got {f.label}",
                requirement="simply connected factors")

    trace: list[str] = []
    std: dict[str, int] = {"CP2": 0, "CP2bar": 0, "S2xS2": 0, "K3": 0}
    pending: list[list] = []  # [factor, copies, knot-derived]
    for f, c in runs:
        kind = _standard_kind(f)
        if kind == "S4":
            trace += _per_copy([f"trivial_summand: dropped {f.label}"], c)
        elif kind is not None:
            std[kind] += c
        else:
            pending.append([f, c, f.elliptic_class and _knot_derived(f)])

    while pending:
        s2, cp2, cp2bar = std["S2xS2"], std["CP2"], std["CP2bar"]
        # the swap needs an odd factor in the complement of the pair
        swap = not s2 and cp2 and cp2bar and (
            cp2 >= 2 or cp2bar >= 2 or any(not g.spin for g, _, _ in pending))
        i = next((i for i, (f, _, knot) in enumerate(pending) if f.elliptic_class and (
            s2 or swap or cp2 and not knot)), None)
        if i is None:
            f = pending[0][0]
            trace.append(f"stuck: no stabilizing summand available for {f.label}"
                         if f.elliptic_class else
                         f"stuck: {f.label} is not covered by the dissolution rules")
            return DissolutionVerdict(None, tuple(trace))
        f, c, knot = pending[i]
        summand = "S2xS2" if s2 else "CP2" if cp2 and not knot else None
        if summand is None:
            # enables the stabilization rule for f on the next step
            std["CP2"] -= 1
            std["CP2bar"] -= 1
            std["S2xS2"] += 1
            trace.append("parity_swap: CP2 # CP2bar rewritten to S2xS2")
            continue
        form = homeo_type(sum_fingerprint(((f, 1), (builtin(summand), 1))))
        pieces = ("CP2", "CP2bar") if form.parity == "odd" else ("S2xS2", "K3")
        # the copies this rule takes before the choice can change: S2xS2 must
        # stay available, and CP2 may enable the swap for an earlier factor
        t = (c if form.parity == "even" and form.n else min(c, s2)) if s2 else \
            1 if any(g.elliptic_class for g, _, _ in pending[:i]) else c
        pending[i][1] -= t
        if not pending[i][1]:
            del pending[i]
        std[summand] -= t
        std[pieces[0]] += t * form.n
        std[pieces[1]] += t * form.m
        rule = "elliptic_stabilization" if s2 else "cp2_dissolution"
        trace += _per_copy([f"{rule}: {f.label} # {summand} rewritten to standard pieces"], t)

    # only standard pieces remain; normalize mixed parities
    if (std["CP2"] or std["CP2bar"]) and (std["S2xS2"] or std["K3"]):
        t = std["S2xS2"]
        std.update(S2xS2=0, CP2=std["CP2"] + t, CP2bar=std["CP2bar"] + t)
        trace += _per_copy(["parity_swap: S2xS2 rewritten to CP2 # CP2bar"], t)
        t = std["K3"] if std["CP2"] else 0  # each rewrite leaves more CP2
        std.update(K3=std["K3"] - t, CP2=std["CP2"] + 3 * t, CP2bar=std["CP2bar"] + 19 * t)
        trace += _per_copy(["cp2_dissolution: K3 # CP2 rewritten to 4*CP2 # 19*CP2bar"], t)
        if std["K3"]:
            trace.append("stuck: K3 summand with no CP2 available")
            return DissolutionVerdict(None, tuple(trace))

    if std["CP2"] or std["CP2bar"]:
        form = HomeoType("odd", std["CP2"], std["CP2bar"])
    else:
        form = HomeoType("even", std["S2xS2"], std["K3"])
    expected = homeo_type(sum_fingerprint(runs))
    if form != expected:
        raise AssertionError(
            f"dissolution changed the homeomorphism type: {expected} -> {form}")
    return DissolutionVerdict(form, tuple(trace))
