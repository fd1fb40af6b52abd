"""Expected results from closed forms computed here; swcalc is never called.

``check(job, payload)`` raises ``Mismatch`` when an answer disagrees with
the reference.  An honest ``unknown`` dissolution verdict and an unfound
diagonalization are answers, not mismatches: the harness counts them in
the decided and found ratios instead.

The closed forms:

- ``family`` counts are (4d+1)*l for k3, 2(4d+1)*l for cp2 (m' = 1) and r*l
  for s2xs2; the target is k*l copies of the base plus l-1 copies of S2xS2.
- Betti numbers add under ``#``; a dissolved verdict equals the normal form
  of the summed b2+, b2- and parity.
- The mod-2 count of E(n) is 2^popcount(n-2) (Lucas), a blowup doubles it
  per exceptional class, and knot surgery multiplies by Delta_K(T^2), whose
  mod-2 product is formed here over GF(2) with integers as bit vectors.
- A unimodular form is invertible mod 2, so its characteristic vectors are
  one parity class w + 2Z^n.  In the box [-b, b]^n there are
  prod_i (2*ceil(b/2) if w_i odd else 2*floor(b/2)+1) of them: for
  diag(-1)^n that is (2*ceil(b/2))^n, for E8 (2*floor(b/2)+1)^8.  The
  maximal square is -n for diag(-1)^n, 0 for E8 and -k for E8 + diag(-1)^k;
  for the seeded forms -U U^T it is found by enumerating the parity class.
- ``fixedpoints --k`` gives the k tuples ((k-1-i)j/k mod 1)_i and one
  invariant component; the fixed subtorus of a permutation matrix has one
  dimension per cycle.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from workloads import Job, e8_plus_diag


class Mismatch(Exception):
    """An answer that disagrees with the reference."""


def _expect(actual, expected, what: str):
    if actual != expected:
        raise Mismatch(f"{what}: got {actual!r}, expected {expected!r}")


# ----- GF(2) polynomials as Python ints -----

def _gf2_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _gf2_div_exact(num: int, den: int) -> int:
    quot = 0
    shift = den.bit_length() - 1
    while num:
        top = num.bit_length() - 1
        if top < shift:
            raise ArithmeticError("division over GF(2) is not exact")
        quot |= 1 << (top - shift)
        num ^= den << (top - shift)
    return quot


def torus_alexander_mod2(p: int, q: int) -> int:
    """Delta_{p,q} = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) mod 2."""
    num = _gf2_mul((1 << (p * q)) | 1, 0b11)
    den = _gf2_mul((1 << p) | 1, (1 << q) | 1)
    return _gf2_div_exact(num, den)


def _elliptic_mod2(n: int) -> int:
    """(T - 1/T)^(n-2) mod 2, up to a shift: (1 + t)^(n-2)."""
    out = 1
    for _ in range(n - 2):
        out = _gf2_mul(out, 0b11)
    return out


# ----- manifold atoms -----

def atom_topology(atom) -> tuple[int, int, bool, int | None]:
    """(b2+, b2-, spin, mod-2 basic class count or None) of one factor."""
    kind = atom[0]
    if kind == "E":
        n = atom[1]
        return 2 * n - 1, 10 * n - 1, n % 2 == 0, 2 ** bin(n - 2).count("1")
    if kind == "knot":
        n, p, q = atom[1:]
        # Delta(T^2) spreads the bits evenly, which keeps the count
        count = bin(_gf2_mul(_elliptic_mod2(n), torus_alexander_mod2(p, q))).count("1")
        return 2 * n - 1, 10 * n - 1, n % 2 == 0, count
    if kind == "blowup":
        n, m = atom[1:]
        return 2 * n - 1, 10 * n - 1 + m, False, 2 ** (bin(n - 2).count("1") + m)
    return {"CP2": (1, 0, False, None), "CP2bar": (0, 1, False, None),
            "S2xS2": (1, 1, True, None)}[kind]


def normal_form(b2_plus: int, b2_minus: int, spin: bool) -> tuple[str, int, int]:
    """(parity, n, m): n*CP2 # m*CP2bar, or n*(S2xS2) # m*K3 when even."""
    if not spin:
        return "odd", b2_plus, b2_minus
    k3 = (b2_minus - b2_plus) // 16
    return "even", b2_plus - 3 * k3, k3


def _check_verdict(verdict: dict, expected: tuple[str, int, int], what: str):
    if verdict["status"] == "unknown":
        return
    _expect(verdict["status"], "dissolved", f"{what} status")
    _expect((verdict["parity"], verdict["n"], verdict["m"]), expected, what)


def _check_eval(params: dict, out: dict):
    tops = [atom_topology(a) for a in params["atoms"]]
    b2p = sum(t[0] for t in tops)
    b2m = sum(t[1] for t in tops)
    spin = all(t[2] for t in tops)
    parity = "even" if spin else "odd"
    for key, value in (("simply_connected", True), ("b1", 0), ("b2_plus", b2p),
                       ("b2_minus", b2m), ("chi", 2 + b2p + b2m),
                       ("sigma", b2p - b2m), ("spin", spin), ("torsion_h1", [])):
        _expect(out[key], value, key)
    _expect(out["fingerprint"], {"simply_connected": True, "b2_plus": b2p,
                                 "b2_minus": b2m, "parity": parity}, "fingerprint")
    nf = normal_form(b2p, b2m, spin)
    ht = out["homeo_type"]
    _expect((ht["parity"], ht["n"], ht["m"]), nf, "homeo_type")
    if len(tops) == 1:
        _expect(out["sw"]["status"], "known", "sw status")
        _expect(out["mod2_basic_classes"], tops[0][3], "mod2_basic_classes")
    else:
        _check_verdict(out["dissolution"], nf, "dissolution")
    n = params.get("sweep")
    if n is not None:
        inter = out["intersection"]
        _expect(len(inter["tracked_basis"]), n, "tracked rank")
        _expect(inter["gram"], [[0] * n for _ in range(n)], "gram")
        _expect((inter["hyperbolic"], inter["plus_ones"], inter["minus_ones"]),
                (10 * n + 1, 0, n), "standard summands")
        _expect((out["sw"]["status"], out["mod2_basic_classes"]), ("zero", 0), "sw")


_FAMILY_BASE = {  # construction -> (name, base b2+, b2-, spin, count basis)
    "k3": ("k3_knot", 3, 19, True, "exact"),
    "cp2": ("cp2_knot", 3, 20, False, "exact"),
    "s2xs2": ("s2xs2_hkw", 1, 1, True, "lower_bound"),
}


def family_counts(construction: str, l: int, size: int) -> list[int]:
    if construction == "k3":
        return [(4 * d + 1) * l for d in range(1, size + 1)]
    if construction == "cp2":
        return [2 * (4 * d + 1) * l for d in range(1, size + 1)]
    return [r * l for r in range(1, size + 1)]


def _check_family(params: dict, out: dict):
    c, k, l, size = params["construction"], params["k"], params["l"], params["size"]
    name, bp, bm, spin, basis = _FAMILY_BASE[c]
    parity = "even" if spin else "odd"
    counts = family_counts(c, l, size)
    _expect((out["construction"], out["k"], out["l"], out["space_form"]),
            (name, k, l, f"Z{l}"), "family header")
    _expect(out["counts"], counts, "counts")
    _expect(len(out["members"]), size, "member count")
    for member, count in zip(out["members"], counts):
        _expect(member["monomials"], count, "member monomials")
        _expect(member["count_basis"], basis, "count basis")
        _expect(member["fingerprint"], [True, bp, bm, parity], "member fingerprint")
        rendered = member["gmonopole_mod2"]
        if basis == "exact":
            # a mod-2 polynomial renders as count terms joined by " + "
            _expect(rendered.count(" + ") + 1, count, "rendered monomials")
            _expect(" - " in rendered, False, "mod-2 rendering")
    _expect(out["verdict"], "smoothly_distinct", "verdict")
    _expect(out["covering_consistent"], True, "covering check")
    tp, tm = k * l * bp + l - 1, k * l * bm + l - 1
    _expect(out["target"]["fingerprint"], [True, tp, tm, parity], "target")
    _check_verdict(out["target"]["dissolved"], normal_form(tp, tm, spin), "target")


def _check_bf(params: dict, out: dict):
    _expect(out["normal_form"], f"BF(E({params['n']}))", "normal form")
    _expect(out["verdict"], "nontrivial", "verdict")


def _check_fixedpoints(params: dict, out: dict):
    k = params["k"]
    _expect(out["k"], k, "k")
    solutions = []
    for j in range(k):
        theta = Fraction(j, k)
        solutions.append({"theta": str(theta),
                          "tuple": [str(((k - 1 - i) * theta) % 1) for i in range(k)]})
    _expect(out["solutions"], solutions, "solutions")
    _expect(out["invariant_locus"], solutions[:1], "invariant locus")


def _rank(rows: list[list[int]]) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def permutation_matrix(perm: list[int]) -> tuple[tuple[int, ...], ...]:
    """The matrix sending basis vector j to basis vector perm[j]."""
    n = len(perm)
    return tuple(tuple(1 if perm[j] == i else 0 for j in range(n)) for i in range(n))


def _check_fixed_subtorus(params: dict, out: dict):
    perm, cycles = params["perm"], params["cycles"]
    _expect(out["dimension"], cycles, "fixed dimension")
    basis = out["basis"]
    _expect(len(basis), cycles, "basis size")
    reps = sorted({min(_orbit(perm, i)) for i in range(len(perm))})
    for v in basis:
        _expect(all(v[perm[j]] == v[j] for j in range(len(perm))), True,
                "basis vector fixed")
        _expect(math.gcd(*v), 1, "primitive basis vector")
    _expect(_rank([[v[r] for r in reps] for v in basis]), cycles, "basis rank")


def _orbit(perm: list[int], i: int) -> set[int]:
    out = {i}
    j = perm[i]
    while j != i:
        out.add(j)
        j = perm[j]
    return out


# ----- definite lattices -----

def lattice_gram(params: dict) -> list[list[int]]:
    form = params["form"]
    if form == "diag":
        n = params["rank"]
        return [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
    if form == "e8":
        return e8_plus_diag(0)
    return params["gram"]


def parity_class(gram: list[list[int]]) -> list[int]:
    """w mod 2 with gram w = diag(gram) mod 2, by elimination over GF(2)."""
    n = len(gram)
    rows = [[sum((gram[i][j] & 1) << j for j in range(n)), gram[i][i] & 1]
            for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][0] >> col & 1), None)
        if pivot is None:
            raise Mismatch("form is not unimodular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][0] >> col & 1:
                rows[r][0] ^= rows[col][0]
                rows[r][1] ^= rows[col][1]
    return [rows[i][1] for i in range(n)]


def _square(gram, v) -> int:
    return sum(v[i] * sum(g * x for g, x in zip(gram[i], v)) for i in range(len(v)))


def _is_characteristic(gram, v) -> bool:
    return all((sum(g * x for g, x in zip(gram[i], v)) - gram[i][i]) % 2 == 0
               for i in range(len(v)))


def _parity_box(w: list[int], bound: int):
    axes = [[x for x in range(bound, -bound - 1, -1) if x % 2 == wi] for wi in w]
    return itertools.product(*axes)


def lattice_expected(params: dict) -> dict:
    """Characteristic count, box maximum and (when few) the vectors."""
    gram, bound, n = lattice_gram(params), params["bound"], params["rank"]
    w = parity_class(gram)
    odd = 2 * math.ceil(bound / 2)
    even = 2 * (bound // 2) + 1
    count = math.prod(odd if wi else even for wi in w)
    form = params["form"]
    if form == "diag":
        best = -n
    elif form == "e8":
        best = 0
    elif form == "e8_plus_diag":
        best = -params["k"]
    else:
        best = max(_square(gram, v) for v in _parity_box(w, bound))
    vectors = sorted(_parity_box(w, bound)) if count <= 64 else None
    return {"gram": gram, "count": count, "max": best, "vectors": vectors}


def _check_lattice(expected: dict, params: dict, out: dict):
    gram, n, bound = expected["gram"], params["rank"], params["bound"]
    _expect((out["rank"], out["gram"], out["bound"]), (n, gram, bound), "form echo")
    chars = out["characteristic_vectors"]
    _expect(chars["count"], expected["count"], "characteristic count")
    listed = chars["vectors"]
    if expected["vectors"] is not None and listed is not None:
        _expect(sorted(map(tuple, listed)), expected["vectors"], "vectors")
    best = out["max_characteristic_square"]
    _expect(best["value"], expected["max"], "max characteristic square")
    achiever = best["achiever"]
    _expect(all(abs(x) <= bound for x in achiever)
            and _is_characteristic(gram, achiever)
            and _square(gram, achiever) == best["value"], True, "achiever")
    _expect(best["bound_limited"], best["value"] != -n, "bound_limited")
    diag = out["diagonalize"]
    if diag.get("found"):
        basis = diag["basis"]
        _expect(len(basis), n, "basis size")
        for i, v in enumerate(basis):
            for j, u in enumerate(basis):
                pairing = sum(v[a] * gram[a][b] * u[b]
                              for a in range(n) for b in range(n))
                _expect(pairing, -1 if i == j else 0, "diagonal basis pairing")
    spinc = out["spinc_with_max_square"]
    if spinc is not None:
        v = spinc["vector"]
        _expect((spinc["square"], _square(gram, v), _is_characteristic(gram, v)),
                (-n, -n, True), "spinc certificate")


# ----- entry point -----

class Reference:
    """Checks answers; expected lattice results are computed once per job."""

    def __init__(self):
        self._lattice: dict[str, dict] = {}

    def check(self, job: Job, out: dict) -> None:
        if job.kind == "lattice":
            expected = self._lattice.get(job.key)
            if expected is None:
                expected = self._lattice[job.key] = lattice_expected(job.params)
            _check_lattice(expected, job.params, out)
        else:
            _CHECKS[job.kind](job.params, out)


_CHECKS = {
    "eval": _check_eval,
    "family": _check_family,
    "bf": _check_bf,
    "fixedpoints": _check_fixedpoints,
    "fixed_subtorus": _check_fixed_subtorus,
}
