"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from swcalc.cli import run_command
from swcalc.equivariant import (bf_simplify, covering_consistency, exotic_family,
                                hat_s1_l)
from swcalc.expressions import eval_expr, parse, render
from swcalc.fixedpoint import invariant_locus, solve_fixed_points
from swcalc.groupring import FgAbelianGroup, GroupRingElement
from swcalc.knot import alexander_family, torus_knot, validate
from swcalc.lattice import (characteristic_vectors, diagonal_form, diagonalize,
                            e8_form, max_characteristic_square, spinc_from_basis)
from swcalc.manifold import HomeoType, builtin, mod2_basic_class_count
from swcalc.surgery import (blowup, connected_sum_all, dissolve, knot_surgery,
                            log_transform)

from oracles import class_square, laurent_coeffs


@contextmanager
def timed(criterion, limit, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {criterion} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"criterion {criterion} PASS: {description} ({elapsed:.3f}s)")


def test_criterion_1_log_transform_counts():
    with timed(1, 1.0, "multiplicity-r transform has exactly r mod-2 classes, "
                       "r = 1..25"):
        for r in range(1, 26):
            assert mod2_basic_class_count(log_transform(2, r)) == r


def test_criterion_2_knot_surgery_counts():
    with timed(2, 1.0, "knot surgery with the alternating family gives 4d+1 "
                       "classes, d = 1..10"):
        e2 = builtin("E", 2)
        for d in range(1, 11):
            m = knot_surgery(e2, alexander_family(d, 1))
            assert mod2_basic_class_count(m) == 4 * d + 1


def test_criterion_3_transfer_family():
    with timed(3, 5.0, "transfer doubles the counts, verdict smoothly distinct, "
                       "target dissolves to 1*(S2xS2) # 4*K3"):
        report = exotic_family("k3_knot", hat_s1_l([2], 2, k=2), 5, n=1)
        for d, member in enumerate(report["members"], start=1):
            assert member["monomials"] == (4 * d + 1) * 2
        assert report["verdict"] == "smoothly_distinct"
        dissolved = report["target"]["dissolved"]
        assert (dissolved["parity"], dissolved["n"], dissolved["m"],
                dissolved["orientation"]) == ("even", 1, 4, 1)

        member = knot_surgery(builtin("E", 2), alexander_family(1, 1))
        check = dissolve([member] * 4 + [builtin("S2xS2")])
        assert check.form == HomeoType("even", 1, 4, 1)
        target_sum = connected_sum_all([member] * 4 + [builtin("S2xS2")])
        assert list(target_sum.fingerprint) == report["target"]["fingerprint"]


def test_criterion_4_cp2_family_target():
    with timed(4, 5.0, "blown-up family dissolves to 13*CP2 # 81*CP2bar with "
                       "equal member fingerprints"):
        report = exotic_family("cp2_knot", hat_s1_l([2], 2, k=2), 2,
                               n_prime=2, m_prime=1)
        dissolved = report["target"]["dissolved"]
        assert dissolved["status"] == "dissolved"
        assert (dissolved["parity"], dissolved["n"], dissolved["m"],
                dissolved["orientation"]) == ("odd", 13, 81, 1)
        assert len({tuple(mb["fingerprint"]) for mb in report["members"]}) == 1
        assert all(mb["fingerprint"] == [True, 3, 20, "odd"]
                   for mb in report["members"])


def test_criterion_5_lattice_bound():
    with timed(5, 30.0, "diagonal forms attain -rank at the all-ones vector; "
                        "the even rank-8 form never attains -8 as its "
                        "characteristic maximum and admits no certificate"):
        for rank in range(1, 7):
            out = max_characteristic_square(diagonal_form(rank), 1)
            assert out.value == -rank
            assert out.achiever == (1,) * rank
            wide = max_characteristic_square(diagonal_form(rank), 3)
            assert wide.value == -rank
        e8 = e8_form()
        best = max_characteristic_square(e8, 2)
        assert best.value == 0
        assert best.achiever == (0,) * 8
        assert best.bound_limited
        assert spinc_from_basis(e8, diagonalize(e8, 2)) is None
        vectors = characteristic_vectors(e8, 2)
        assert max(e8.evaluate(v) for v in vectors) == 0 != -8


def test_criterion_6_fixed_point_counts():
    with timed(6, 1.0, "k fixed tuples and a single invariant component, "
                       "k = 1..50"):
        for k in range(1, 51):
            assert len(solve_fixed_points(k)) == k
            assert len(invariant_locus(k)) == 1


def test_criterion_7_stable_class_normalization():
    with timed(7, 1.0, "equivariant class of k*E(2) # hat normalizes to "
                       "BF(E(2)), nontrivial, confluently"):
        for k in range(2, 6):
            hat = hat_s1_l([2], 2, k=k)
            result = bf_simplify(hat, builtin("E", 2))
            assert result["normal_form"] == "BF(E(2))"
            assert result["verdict"] == "nontrivial"
            reports = set()
            for expression in (f"{k}*E(2) # hat(2)", f"hat(2) # {k}*E(2)",
                               "E(2) # hat(2)" + " # E(2)" * (k - 1)):
                out = io.StringIO()
                with redirect_stdout(out):
                    assert run_command(["bf", expression, "--k", str(k)]) == 0
                reports.add(out.getvalue())
            assert len(reports) == 1


def test_criterion_8_covering_consistency():
    with timed(8, 1.0, "Euler characteristic multiplicativity for the l-fold "
                       "covers, k, l in {2,3,4}"):
        orders = {2: [2], 3: [3], 4: [4]}
        for k, l in itertools.product((2, 3, 4), repeat=2):
            hat = hat_s1_l(orders[l], l, k=k)
            assert covering_consistency(hat)


def _exhaustive_small_elements():
    """Every element with support in {t^-1, 1, t} and coefficients in
    {-2, -1, 1, 2}, plus zero."""
    g = FgAbelianGroup(1)
    support = [(e,) for e in (-1, 0, 1)]
    elements = [GroupRingElement.zero(g)]
    for coeffs in itertools.product((-2, -1, 0, 1, 2), repeat=3):
        if any(coeffs):
            elements.append(GroupRingElement(g, dict(zip(support, coeffs))))
    return elements


def test_criterion_9_property_suites():
    with timed(9, 30.0, "ring axioms, mod-2 multiplicativity, symmetry and "
                        "normalization, fingerprint preservation, simple-type "
                        "squares"):
        # ring axioms, exhaustive over a small coefficient box
        elements = _exhaustive_small_elements()
        sample = elements[::7]
        for a, b in itertools.product(sample, repeat=2):
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b).mod2() == (a.mod2() * b.mod2()).mod2()
        for a, b, c in itertools.islice(
                itertools.product(sample, repeat=3), 0, None, 11):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

        # larger seeded elements with supports of size <= 4, exponents in [-3,3]
        g = FgAbelianGroup(1)
        rng = random.Random(3)
        pool = []
        for _ in range(12):
            terms = {(rng.randint(-3, 3),): rng.randint(-4, 4)
                     for _ in range(rng.randint(0, 4))}
            pool.append(GroupRingElement(g, terms))
        for a, b, c in itertools.islice(itertools.product(pool, repeat=3),
                                        0, None, 13):
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).mod2() == (a.mod2() * b.mod2()).mod2()

        # symmetry and normalization of every knot constructor output
        knots = [torus_knot(2, 3), torus_knot(2, 5), torus_knot(3, 4),
                 alexander_family(1, 1), alexander_family(3, 2)]
        for knot in knots:
            coeffs = laurent_coeffs(knot.poly)
            assert all(coeffs[-e] == c for e, c in coeffs.items())
            assert knot.poly.evaluate_at_one() == 1
            assert validate(knot.poly).poly == knot.poly

        # fingerprint preservation under knot surgery and log transforms
        e2 = builtin("E", 2)
        for knot in (torus_knot(2, 3), alexander_family(2, 1)):
            assert knot_surgery(e2, knot).fingerprint == e2.fingerprint
        for r in (1, 2, 5):
            assert log_transform(2, r).fingerprint == e2.fingerprint

        # simple-type square check on every generated monomial
        generated = [builtin("E", n) for n in (2, 3, 4, 5)]
        generated += [knot_surgery(builtin("E", 2), alexander_family(d, 1))
                      for d in (1, 2)]
        generated += [blowup(builtin("E", 2), 2), blowup(builtin("E", 3), 1),
                      log_transform(2, 4), log_transform(4, 3)]
        for m in generated:
            target = 2 * m.chi + 3 * m.sigma
            for free in m.sw.poly.expand().mod2().free_exponents():
                assert class_square(m.intersection, free) == target

        # parser round trip on the documented examples
        for text in ("2*E(2) # S2xS2", "knot_surgery(E(2), torus(2,3))",
                     "blowup(E(2),2) # ~CP2"):
            tree = parse(text)
            assert parse(render(tree)) == tree
        assert eval_expr(parse("S4")).chi == 2


def test_family_scale_200_members():
    with timed("family-scale", 2.0, "k3_knot family of 200 members has "
                                    "(4d+1)*2 transferred classes, d = 1..200"):
        report = exotic_family("k3_knot", hat_s1_l([2], 2, k=2), 200)
        assert [mb["monomials"] for mb in report["members"]] == \
            [(4 * d + 1) * 2 for d in range(1, 201)]


def test_hat_sum_scale_100000_fold():
    with timed("h1-scale", 1.0, "100000*hat(2) # hat(3) writes H1 as 99999 factors 2 "
                                "and one 6 in linear time"):
        m = eval_expr(parse("100000*hat(2) # hat(3)"))
        assert m.torsion_h1 == (2,) * 99_999 + (6,)


def test_sum_scale_400_fold():
    with timed("sum-scale", 0.5, "400*E(2) # S2xS2 evaluates in linear time "
                                 "per connected sum"):
        m = eval_expr(parse("400*E(2) # S2xS2"))
        assert len(m.intersection.tracked_basis) == 400
        assert m.intersection.tracked_basis[-1] == "T_400"


class _CharCounter(io.TextIOBase):
    """A stdout that keeps nothing but the count of characters written."""

    count = 0

    def write(self, text):
        self.count += len(text)
        return len(text)


def test_print_scale_1000_tracked_classes():
    """The largest report that JSON_MAX_TRACKED admits.  A fresh process
    prints json.dumps's bytes; in process, the job's traced peak is one copy
    of the report plus its distinct rows."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = ["eval", "1000*E(2) # S2xS2"]
    with timed("print-scale", 1.0, "swcalc eval '1000*E(2) # S2xS2' prints its "
                                   "11,038,945-byte report with a dense 1000x1000 gram"):
        proc = subprocess.run([sys.executable, "-m", "swcalc.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, len(proc.stdout)) == (0, "", 11_038_945)
    assert proc.stdout == json.dumps(json.loads(proc.stdout), indent=2) + "\n"
    out = _CharCounter()
    tracemalloc.start()
    try:
        with redirect_stdout(out):
            assert run_command(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.count == 11_038_945 and peak < 1.5 * out.count, f"peak {peak} bytes"


def test_sum_scale_10000_fold_dissolves():
    with timed("sum-scale", 10.0, "10000*E(2) # S2xS2 evaluates and dissolves "
                                  "to 1*(S2xS2) # 10000*K3"):
        m = eval_expr(parse("10000*E(2) # S2xS2"))
        verdict = dissolve([m])
        assert verdict.form == HomeoType("even", 1, 10000, 1)
