#!/usr/bin/env python3
"""Self-check of the benchmark harness.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It shows three things and exits 1 if any fails:

1. a wrong answer, and a wrong reference, are both caught by the checker;
2. the same seed yields the same job list, and another seed another one;
3. every count metric of a traced smoke run repeats exactly in a second run.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys

import reference
from harness import ERROR, OK, ROOT, execute, import_swcalc, judge
from workloads import WORKLOADS, make_jobs

# job kind -> a corruption of a correct answer that the checker must catch
CORRUPTIONS = {
    "family": lambda out: out["counts"].__setitem__(0, out["counts"][0] + 1),
    "eval": lambda out: out.__setitem__("b2_minus", out["b2_minus"] + 1),
    "bf": lambda out: out.__setitem__("verdict", "unknown"),
    "lattice": lambda out: out["characteristic_vectors"].__setitem__(
        "count", out["characteristic_vectors"]["count"] + 2),
    "fixedpoints": lambda out: out["solutions"].pop(),
    "fixed_subtorus": lambda out: out.__setitem__("dimension", out["dimension"] + 1),
}

# a deliberately wrong closed form in the reference, and the kind it breaks
WRONG_REFERENCES = {
    "family": ("family_counts",
               lambda c, l, size: [x + 1 for x in FAMILY_COUNTS(c, l, size)]),
    "eval": ("normal_form", lambda p, m, spin: ("odd", p + 1, m)),
    "lattice": ("parity_class", lambda gram: [1 - w for w in PARITY_CLASS(gram)]),
}
FAMILY_COUNTS = reference.family_counts
PARITY_CLASS = reference.parity_class


def _answers(workload: str):
    """One accepted (job, code, parsed output) per job kind of a smoke list."""
    seen = {}
    ref = reference.Reference()
    for job in make_jobs(workload, seed=0, smoke=True):
        if job.kind in seen:
            continue
        _, code, output = execute(job)
        status, reason = judge(job, code, output, ref)
        if status == ERROR:
            raise SystemExit(f"FAIL: correct run of {job.key} judged wrong: {reason}")
        if status == OK:
            seen[job.kind] = (job, code, json.loads(output)
                              if isinstance(output, str) else output)
    return seen.values()


def check_catches_wrong_answers() -> bool:
    ok = True
    for workload in WORKLOADS:
        for job, code, output in _answers(workload):
            bad = copy.deepcopy(output)
            CORRUPTIONS[job.kind](bad)
            status, _ = judge(job, code, bad, reference.Reference())
            if status != ERROR:
                print(f"FAIL: corrupted {job.kind} answer was judged {status}")
                ok = False
            if job.kind in WRONG_REFERENCES:
                name, wrong = WRONG_REFERENCES[job.kind]
                original = getattr(reference, name)
                setattr(reference, name, wrong)
                try:
                    status, _ = judge(job, code, output, reference.Reference())
                finally:
                    setattr(reference, name, original)
                if status != ERROR:
                    print(f"FAIL: wrong reference {name} judged {job.kind} {status}")
                    ok = False
    print(f"{'PASS' if ok else 'FAIL'}: wrong answers and wrong references are caught")
    return ok


def check_seeded_jobs() -> bool:
    ok = True
    for workload in WORKLOADS:
        first = [j.key for j in make_jobs(workload, 7)]
        again = [j.key for j in make_jobs(workload, 7)]
        other = [j.key for j in make_jobs(workload, 8)]
        if first != again or first == other or len(first) < 100:
            print(f"FAIL: {workload} job lists do not follow the seed "
                  f"(or hold fewer than 100 jobs)")
            ok = False
    print(f"{'PASS' if ok else 'FAIL'}: the same seed gives the same job list")
    return ok


def _count_metrics(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in ("count", "B")
            or (name.endswith("_ratio") and name != "trace.overhead_ratio")}


def check_counts_repeat() -> bool:
    ok = True
    for workload in WORKLOADS:
        first, second = _count_metrics(workload), _count_metrics(workload)
        if first != second or not first:
            diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
                    if first.get(k) != second.get(k)}
            print(f"FAIL: {workload} counts differ between runs: {diff}")
            ok = False
    print(f"{'PASS' if ok else 'FAIL'}: count metrics repeat exactly between runs")
    return ok


def main() -> int:
    import_swcalc()
    results = [check_catches_wrong_answers(), check_seeded_jobs(), check_counts_repeat()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
