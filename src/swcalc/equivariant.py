"""Equivariant machinery: summand catalog, transfer formula, the stable
class of a k-fold sum, and the exotic-action family generator.

A catalog entry is a closed 4-manifold N with b2+ = 0 and b1 = 0 that
carries a cyclic action with a free orbit, an invariant positive scalar
curvature metric, and an equivariant Spin-c structure of maximal square:
S4, CP2bar, or the hat summand of S1 x L for a spherical space form L.
Gluing k copies of M to N along a free orbit transfers the mod-2
polynomial of M, multiplied by the sum over the torsion classes of N.
Counting monomials of the transferred polynomials separates smooth
structures and hence group actions on a common stabilized sum.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import GuardViolation, UnsupportedOperation
from .groupring import (FactoredElement, FgAbelianGroup, GroupRingElement, TermRenderer,
                        invariant_factors)
from .manifold import (IntersectionData, ManifoldDescriptor, SWInfo, builtin,
                       mod2_basic_class_count, sum_fingerprint)
from .surgery import blowup, connected_sum_all, dissolve


def _copies(k: int, label: str) -> str:
    """``k*X`` for k copies of X, a sum's label in parentheses."""
    return f"{k}*({label})" if " # " in label else f"{k}*{label}"


# ----- spherical space forms -----

@dataclass(frozen=True)
class SpaceForm:
    """A finite group acting freely on the 3-sphere, known by family.

    Only the order and the abelianization (``h1_orders``, invariant factors)
    enter any computation here; realizability of the action is geometric
    input, so the families are whitelisted and any other group is refused.
    """

    label: str
    order: int
    h1_orders: tuple[int, ...]
    quotient_label: str


def cyclic_space_form(order: int) -> SpaceForm:
    if order < 2:
        raise GuardViolation("the fundamental group must be nontrivial (order l >= 2)",
                             requirement="order l >= 2")
    quotient = "RP3" if order == 2 else f"L({order},1)"
    return SpaceForm(f"Z{order}", order, (order,), quotient)


def quaternionic_space_form(m: int) -> SpaceForm:
    """Binary dihedral group of order 4m, m >= 2."""
    if m < 2:
        raise GuardViolation("binary dihedral parameter must be at least 2",
                             requirement="m >= 2")
    h1 = (2, 2) if m % 2 == 0 else (4,)
    return SpaceForm(f"Q{4 * m}", 4 * m, h1, f"S3/Q{4 * m}")


BINARY_TETRAHEDRAL = SpaceForm("2T", 24, (3,), "S3/2T")
BINARY_OCTAHEDRAL = SpaceForm("2O", 48, (2,), "S3/2O")
BINARY_ICOSAHEDRAL = SpaceForm("2I", 120, (), "S3/2I")

_EXCEPTIONAL_FORMS = (BINARY_TETRAHEDRAL, BINARY_OCTAHEDRAL, BINARY_ICOSAHEDRAL)


def space_form_candidates(order: int) -> list[SpaceForm]:
    out = [cyclic_space_form(order)]
    if order % 4 == 0 and order >= 8:
        out.append(quaternionic_space_form(order // 4))
    return out + [sf for sf in _EXCEPTIONAL_FORMS if sf.order == order]


def match_space_form(order: int, h1_orders: Sequence[int]) -> SpaceForm | None:
    """The whitelisted group of this order with H1 = sum of the Z/o over ``h1_orders``."""
    wanted = invariant_factors(h1_orders)
    return next((sf for sf in space_form_candidates(order) if sf.h1_orders == wanted), None)


# ----- catalog entries -----

@dataclass(frozen=True)
class NCatalogEntry:
    """A summand N with its cyclic order k action: all the transfer reads.

    The free orbit, the invariant psc metric and the maximal-square Spin-c
    structure are geometric input that each catalog construction provides,
    so none is stored: the entry checks b2+(N) = 0.  Every kind has b1 = 0,
    so no 1-form is invariant and the transfer applies.
    """

    descriptor: ManifoldDescriptor
    k: int
    space_form: SpaceForm | None = None   # H = pi_1(L) of a hat summand

    @property
    def h_order(self) -> int:
        """|H| of a hat summand, 1 for S4 and CP2bar."""
        return self.space_form.order if self.space_form else 1

    def __post_init__(self):
        if self.k < 2:
            raise GuardViolation("the cyclic order must be at least 2",
                                 requirement="k >= 2")
        if self.descriptor.b2_plus != 0:
            raise GuardViolation(
                f"{self.descriptor.label} has b2+ = {self.descriptor.b2_plus}",
                requirement="b2+(N) = 0")


def hat_s1_l(h1_orders: Sequence[int], pi1_order: int, k: int = 2) -> NCatalogEntry:
    """Surgery on S1 x L along a circle factor, L a space-form quotient.

    The result is a rational homology 4-sphere with chi = 2 whose second
    cohomology is the torsion group H_1(L); every Spin-c structure is
    torsion, so the maximal-square condition is automatic.  The universal
    cover is |pi_1(L)| - 1 copies of S2xS2.
    """
    sf = match_space_form(pi1_order, h1_orders)
    if sf is None:
        candidates = [f"{c.label} with H1 {list(c.h1_orders)}"
                      for c in space_form_candidates(pi1_order)]
        raise GuardViolation(
            f"no whitelisted space-form group of order {pi1_order} has "
            f"H1 of orders {sorted(h1_orders)}; known candidates: {candidates}",
            requirement="whitelisted spherical space form")
    descriptor = ManifoldDescriptor(
        label=f"hat(S1x{sf.quotient_label})",
        simply_connected=False,
        b1=0,
        b2_plus=0,
        b2_minus=0,
        torsion_h1=sf.h1_orders,
        spin=True,
        sw=SWInfo.unknown(),
        intersection=IntersectionData(),
        admits_psc=True,
    )
    return NCatalogEntry(descriptor, k, sf)


def n_catalog(kind: str, k: int = 2) -> NCatalogEntry:
    """The simply connected summands S4 (rotation with free generic orbits)
    and CP2bar (weighted projective rotation, whose class of square -1 has
    maximal square); ``hat_s1_l`` builds the hat summands."""
    if kind not in ("S4", "CP2bar"):
        raise GuardViolation(f"unknown catalog kind {kind!r}")
    return NCatalogEntry(builtin(kind), k)


# ----- transfer of the mod-2 polynomial -----

def gmonopole_polynomial(m: ManifoldDescriptor, n_entry: NCatalogEntry) -> FactoredElement:
    """Mod-2 equivariant polynomial of k copies of M glued to N.

    This is the mod-2 polynomial of M, in the group ring of H_2(M) plus the
    torsion classes of N, times the sum of all torsion classes: M's factored
    polynomial over F2 with N's torsion orders.  ``expand()`` writes it out.
    """
    if m.b2_plus <= 1:
        raise GuardViolation(
            f"{m.label} has b2+ = {m.b2_plus}; the transfer needs b2+ > 1",
            requirement="b2+(M) > 1")
    if m.sw.status == "unknown":
        raise GuardViolation(
            f"the polynomial of {m.label} is unknown; nothing to transfer",
            requirement="SW polynomial known or known zero")
    poly = m.sw.poly if m.sw.is_known else FactoredElement(
        GroupRingElement.zero(FgAbelianGroup(m.intersection.rank)))
    return replace(poly.over_f2(), torsion=n_entry.descriptor.torsion_h1)


# ----- stable class -----

def bf_simplify(n_entry: NCatalogEntry, m: ManifoldDescriptor | None = None) -> dict:
    """The ``bf`` report of BFG(N), or of BFG(k*M # N) when M is given, k the entry's.

    The class of a k-fold sum splits off the plain class of the repeated
    summand, BFG(k*M # N) = BF(M) ^ BFG(N), and the equivariant class of a
    catalog summand alone is the identity (no catalog summand has invariant
    1-forms).  The verdict is nontrivial when the result is Id, or BF(M)
    with a nonzero mod-2 polynomial, and unknown otherwise.
    """
    k, n_label = n_entry.k, n_entry.descriptor.label
    n_class = f"BFG({n_label}, k={k})"
    trace: list[str] = []
    if m is None:
        source, normal, verdict = n_class, "Id", "nontrivial"
    else:
        source = f"BFG({_copies(k, m.label)} # {n_label}, k={k})"
        trace.append(f"sum_splitting: {source} -> BF({m.label}) ^ {n_class}")
        if m.fingerprint == builtin("S4").fingerprint:  # X # S4 is X
            trace.append(f"identity_class: BF({m.label}) -> Id")
            normal, verdict = "Id", "nontrivial"
        else:
            normal = f"BF({m.label})"
            verdict = "nontrivial" if mod2_basic_class_count(m) else "unknown"
    trace.append(f"identity_class: {n_class} -> Id")
    return {"input": source, "normal_form": normal, "verdict": verdict, "trace": trace}


# ----- covering check -----

def covering_consistency(n_entry: NCatalogEntry) -> bool:
    """Euler-characteristic and fingerprint consistency of the l-fold cover.

    The stabilized sum of k*l copies of M is an l-fold cover of k copies
    of M glued to the hat summand N, and the universal cover of N is l-1
    copies of S2xS2; k and l = |pi_1| are the entry's.  For every M, k and
    l, chi(cover) - l*chi(k*M # N) = l*(2 - chi(N)), chi((l-1)*S2xS2) = 2l,
    and (l-1)*S2xS2 has the fingerprint (True, l-1, l-1, even), so the
    cover is consistent exactly when chi(N) = 2.
    """
    if n_entry.h_order < 2:
        raise GuardViolation("the covering check applies to hat-type entries",
                             requirement="hat summand")
    return n_entry.descriptor.chi == 2


# ----- family generator -----

def exotic_family(construction: str, hat: NCatalogEntry, size: int,
                  n: int = 1, n_prime: int = 2, m_prime: int = 1, m: int = 1) -> dict:
    """The ``family`` report: group actions separated by monomial counts.

    Members are exotic smooth structures on a common base M; the actions
    of Z_k x H, the hat entry's k and space form H of order l, live on k*l
    copies of M summed with l-1 copies of S2xS2, and are distinguished by
    the monomial counts of the transferred mod-2 polynomials.  Constructions:

    - ``k3_knot``: M = E(2n), members by knot surgery with the alternating
      family of spacing 2n.
    - ``cp2_knot``: M = E(n') blown up m' times, members by knot surgery
      with spacing n'.
    - ``s2xs2_hkw``: M = m copies of S2xS2, members carried count-only via
      logarithmic transforms of E(2n); the counts are lower bounds by
      construction.
    """
    if size < 1:
        raise GuardViolation("a family needs at least one member",
                             requirement="size >= 1")
    if construction == "k3_knot":
        if n < 1:
            raise GuardViolation("the elliptic index parameter must be at least 1",
                                 requirement="n >= 1")
        base, spacing = builtin("E", 2 * n), 2 * n
    elif construction == "cp2_knot":
        if n_prime < 2:
            raise GuardViolation("the elliptic index must be at least 2",
                                 requirement="n' >= 2")
        if m_prime < 1:
            raise GuardViolation("at least one blowup is required",
                                 requirement="m' >= 1")
        base, spacing = blowup(builtin("E", n_prime), m_prime), n_prime
    elif construction == "s2xs2_hkw":
        if m < 1:
            raise GuardViolation("the base needs at least one S2xS2 summand",
                                 requirement="m >= 1")
        if n < 1:
            raise GuardViolation("the elliptic index parameter must be at least 1",
                                 requirement="n >= 1")
        base, spacing = connected_sum_all([builtin("S2xS2")], [m]), None
    else:
        raise GuardViolation(f"unknown construction {construction!r}")
    covering = covering_consistency(hat)  # refuses an entry that is not a hat summand
    k, l = hat.k, hat.h_order

    if spacing:
        # member 0 is M itself (Delta_0 = 1): it supplies the ambient, tails and names
        poly = gmonopole_polynomial(base, hat)
        step, count = 2 * spacing, poly.monomial_count()
        keys = sorted(poly.powered_core().terms)  # M's mod-2 core, its power expanded
        if base.torus_index != 0 or not keys or \
                keys[-1][0] - keys[0][0] >= step:
            raise UnsupportedOperation("a knot family needs T at slot 0 and a nonzero mod-2 "
                                       "core of M spanning less than the step at T")
        renderer = TermRenderer(poly, base.intersection.tracked_basis or None)
        text = renderer.shifted_text(keys, (0,))[3:]  # each run starts with its " + "
        members = []
        for d in range(1, size + 1):
            # Delta_d - Delta_{d-1} = t^{+-2dn} - t^{+-(2d-1)n}: over F2, member d is member
            # d-1 plus M's core shifted at T by +-(2d-1) and +-2d steps.  T leads the sort and
            # the core spans less than a step, so two copies sort below member d-1, two above.
            near, far = (2 * d - 1) * step, 2 * d * step
            text = "".join([renderer.shifted_text(keys, (-far, -near))[3:], " + ", text,
                            renderer.shifted_text(keys, (near, far))])
            members.append({"label": f"knot_surgery({base.label}, family({d},{spacing}))",
                            "monomials": (4 * d + 1) * count, "count_basis": "exact",
                            "fingerprint": list(base.fingerprint),
                            "gmonopole_mod2": text})
    else:
        # logtx(2n, r) is r terms spanning 2r - 2 times E(2n)'s power at step r, whose
        # mod-2 exponents lie at least 2r apart: its transfer is r copies of E(2n)'s
        count = gmonopole_polynomial(builtin("E", 2 * n), hat).monomial_count()
        members = [{"label": f"fiber-sum carrying logtx({2 * n},{r})", "monomials": r * count,
                    "count_basis": "lower_bound", "fingerprint": list(base.fingerprint),
                    "gmonopole_mod2": None} for r in range(1, size + 1)]

    target = [(base, k * l), (builtin("S2xS2"), l - 1)]
    counts = [mb["monomials"] for mb in members]
    distinct = len(set(counts)) == len(counts)  # every member has base's fingerprint
    return {
        "construction": construction,
        "k": k,
        "l": l,
        "space_form": hat.space_form.label,
        "target": {
            "expression": " # ".join(_copies(c, f.label) for f, c in target),
            "fingerprint": list(sum_fingerprint(target)),
            "dissolved": dissolve(*zip(*target)).to_json_dict(),
        },
        "members": members,
        "counts": counts,
        "verdict": "smoothly_distinct" if distinct else "inconclusive",
        "covering_consistent": covering,
    }
