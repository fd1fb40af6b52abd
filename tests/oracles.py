"""Reference computations shared by the tests, written with nothing of
swcalc beyond ring constructors and products, the stored Gram matrix, the
binary connected sum, the classification of one summand, one knot surgery,
transfer and render per knot-family member, the builtins and the one-step
constructions (hat, log transform, blowup, knot surgery, reversal) of an
expression's nodes, and the syntax error type."""
from fractions import Fraction

from swcalc.equivariant import gmonopole_polynomial, hat_s1_l
from swcalc.errors import ExprSyntaxError, GuardViolation, UnsupportedOperation
from swcalc.expressions import Blowup, Builtin, ConnSum, KnotSurgery, LogTransform, Reverse
from swcalc.groupring import GroupRingElement, laurent
from swcalc.knot import alexander_family, torus_knot, unknot
from swcalc.manifold import Fingerprint, HomeoType, builtin, homeo_type, reverse_orientation
from swcalc.surgery import (DissolutionVerdict, _knot_derived, _standard_kind, blowup,
                            connected_sum, knot_surgery, log_transform)


def outcome(step, *args):
    """``step(*args)``, or the message and requirement of its refusal, so that
    a computation and its reference can be compared refusals included."""
    try:
        return step(*args)
    except GuardViolation as err:
        return str(err), err.requirement


def laurent_coeffs(p: GroupRingElement) -> dict[int, int]:
    """The exponent -> coefficient map of a rank-1 torsion-free element."""
    g = p.ambient
    if g.free_rank != 1 or g.torsion_orders:
        raise UnsupportedOperation("element is not a single-variable Laurent polynomial")
    return {e: c for (e,), c in p.terms.items()}


def ring_power(p: GroupRingElement, n: int) -> GroupRingElement:
    """p^n for n >= 0 by repeated squaring."""
    result = GroupRingElement.one(p.ambient)
    while n:
        if n & 1:
            result = result * p
        p = p * p if n > 1 else p
        n >>= 1
    return result


def signed_binomial(m: int, step: int) -> GroupRingElement:
    """(T^step - T^-step)^m, written as its row: (-1)^j C(m, j) T^(step(m-2j)).
    The reference for the expansion of a power factor."""
    row, c = {}, 1
    for j in range(m + 1):
        row[step * (m - 2 * j)] = -c if j & 1 else c
        c = c * (m - j) // (j + 1)
    return laurent(row)


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


# ----- the fixed-point model, in exact rationals -----

def angles(row: tuple[int, ...], k: int) -> tuple[Fraction, ...]:
    """The angles n/k of a row of numerators as exact rationals in [0,1)."""
    return tuple(Fraction(n, k) for n in row)


def normalize(raw, k: int) -> tuple[int, ...]:
    """Quotient by the overall rotation: subtract the last entry, reduce mod 1,
    and write the angles as numerators over the denominator k."""
    raw = [Fraction(a) for a in raw]
    scaled = [(a - raw[-1]) % 1 * k for a in raw]
    assert all(x.denominator == 1 for x in scaled), "an angle is not a multiple of 1/k"
    return tuple(int(x) for x in scaled)


def apply_generator(row: tuple[int, ...], k: int, gauge) -> tuple[int, ...]:
    """One application of the cyclic generator followed by a global rotation.

    A lift of the generator also rotates each summand by a constant, the
    constants summing to 0 mod 1; each is trivial near the gluing necks, so
    a global gauge transformation cancels all of them and only the cyclic
    shift survives in the normal form.
    """
    a = angles(row, k)
    shifted = (a[-1],) + a[:-1]
    return normalize([(x + Fraction(gauge)) % 1 for x in shifted], k)


def fixed_points_by_fractions(k: int) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """The fixed tuples as (theta, angles), theta = j/k and the tuple
    ((k-1-i) theta mod 1)_i, each angle one of the k division points: the
    reference for ``solve_fixed_points``'s residue rows."""
    points = [Fraction(m, k) for m in range(k)]
    return [(points[j], tuple(points[(k - 1 - i) * j % k] for i in range(k)))
            for j in range(k)]


def period_walk(d) -> tuple[list[list[int]], int]:
    """S = sum_{i<m} D^i and the least period m of D, walked one power at a
    time: the reference for ``fixed_subtorus``'s averaging projector.  Each
    step multiplies by D through D's nonzero entries, column by column."""
    n = len(d)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    columns = [[(i, d[i][j]) for i in range(n) if d[i][j]] for j in range(n)]
    s, power, m = [row[:] for row in identity], [list(row) for row in d], 1
    while power != identity:
        s = [[x + y for x, y in zip(a, b)] for a, b in zip(s, power)]
        power = [[sum(row[i] * x for i, x in col) for col in columns] for row in power]
        m += 1
    return s, m


# ----- knot-family members, each built from nothing -----

def knot_family_members(base, spacing: int, hat, size: int) -> list[dict]:
    """The member dicts of ``exotic_family``'s knot constructions, each member
    by its own knot surgery, transfer and render: the reference for the texts
    built by extension and the counts in closed form."""
    members = []
    for d in range(1, size + 1):
        member = knot_surgery(base, alexander_family(d, spacing))
        poly = gmonopole_polynomial(member, hat)
        members.append({"label": member.label, "monomials": poly.monomial_count(),
                        "count_basis": "exact", "fingerprint": list(member.fingerprint),
                        "gmonopole_mod2": poly.render(member.intersection.tracked_basis or None)})
    return members


# ----- connected sums, one copy at a time -----

def fold_sum(factors):
    """The connected sum folded from the left, one binary sum per copy: the
    reference for ``connected_sum_all``'s runs."""
    if not factors:
        return builtin("S4")
    out = factors[0]
    for f in factors[1:]:
        out = connected_sum(out, f)
    return out


def flat_leaves(factors):
    """The summands of each factor, one entry per copy: a sum's lineage runs
    written out, any other factor itself."""
    leaves = []
    for f in factors:
        lineage = f.derived_from
        if lineage is not None and lineage[0] == "connected_sum":
            leaves += [leaf for leaf, copies in lineage[1] for _ in range(copies)]
        else:
            leaves.append(f)
    return leaves


def _fingerprint(factors) -> Fingerprint:
    return Fingerprint(all(f.simply_connected for f in factors),
                       sum(f.b2_plus for f in factors), sum(f.b2_minus for f in factors),
                       "even" if all(f.spin for f in factors) else "odd")


def covering_by_identities(m, n_entry) -> bool:
    """The three numbers of the l-fold cover of k*M # N, compared one by one:
    chi(k*l*M # (l-1)*S2xS2) = l*chi(k*M # N), chi((l-1)*S2xS2) = l*chi(N),
    and (l-1)*S2xS2 has the fingerprint of l-1 hyperbolic planes.  The
    reference for ``covering_consistency``, which reads chi(N) alone."""
    if n_entry.h_order < 2:
        raise GuardViolation("the covering check applies to hat-type entries",
                             requirement="hat summand")
    k, l, n = n_entry.k, n_entry.h_order, n_entry.descriptor

    def chi(factors):  # each sum removes two 4-balls
        return sum(f.chi for f in factors) - 2 * (len(factors) - 1)

    hat_cover = [builtin("S2xS2")] * (l - 1)
    return (chi([m] * (k * l) + hat_cover) == l * chi([m] * k + [n])
            and chi(hat_cover) == l * n.chi
            and _fingerprint(hat_cover) == Fingerprint(True, l - 1, l - 1, "even"))


def dissolve_flat(factors) -> DissolutionVerdict:
    """The dissolution rewrite system applied one copy at a time to the flat
    list of summands: the reference for ``dissolve``'s runs."""
    factors = flat_leaves(factors)
    if not all(f.simply_connected for f in factors):
        raise GuardViolation("dissolution needs simply connected factors")
    trace = []
    std = {"CP2": 0, "CP2bar": 0, "S2xS2": 0, "K3": 0}
    pending = []
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
            std["CP2"] -= 1
            std["CP2bar"] -= 1
            std["S2xS2"] += 1
            trace.append("parity_swap: CP2 # CP2bar rewritten to S2xS2")
            continue
        del pending[i]
        std[summand] -= 1
        form = homeo_type(_fingerprint([f, builtin(summand)]))
        pieces = ("CP2", "CP2bar") if form.parity == "odd" else ("S2xS2", "K3")
        std[pieces[0]] += form.n
        std[pieces[1]] += form.m
        rule = "elliptic_stabilization" if s2 else "cp2_dissolution"
        trace.append(f"{rule}: {f.label} # {summand} rewritten to standard pieces")
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
    assert form == homeo_type(_fingerprint(factors))
    return DissolutionVerdict(form, tuple(trace))


# ----- expressions, one copy at a time -----

_KNOTS = {"unknot": unknot, "torus": torus_knot, "family": alexander_family}


def eval_by_copies(e):
    """An expression tree without catalog names, each ``n*X`` evaluated as n
    separate copies of X folded by ``fold_sum``, every other node by its one
    step on the inner value: the reference for ``eval_expr``'s runs."""
    if isinstance(e, Builtin):
        return hat_s1_l([e.arg], e.arg).descriptor if e.name == "hat" else \
            builtin(e.name, e.arg)
    if isinstance(e, ConnSum):
        return fold_sum([eval_by_copies(atom) for count, atom in e.runs for _ in range(count)])
    if isinstance(e, KnotSurgery):
        return knot_surgery(eval_by_copies(e.expr), _KNOTS[e.knot.name](*e.knot.args))
    if isinstance(e, LogTransform):
        return log_transform(e.two_n, e.r)
    if isinstance(e, Blowup):
        return blowup(eval_by_copies(e.expr), e.m)
    if isinstance(e, Reverse):
        return reverse_orientation(eval_by_copies(e.expr))
    raise TypeError(f"not an expression node: {e!r}")


# ----- expression tokens, one character at a time -----

def scan(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) tokens of an expression, read one character
    at a time: the reference for ``expressions._tokenize``."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "#*(),~":
            out.append((c, c, i))
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", position=i)
    out.append(("EOF", "", n))
    return out
