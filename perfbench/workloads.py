"""Seeded job lists for the three benchmark workloads.

A job is one request to swcalc: either an argv for ``swcalc.cli.run_command``
or a library call (``fixed_subtorus``).  Each workload has a fixed skeleton
of job shapes and sizes, so that the work in one pass over the list hardly
depends on the seed; the seed picks parameters within narrow strata, the
random matrices, the multisets and the order of the jobs.  swcalc sees only
the generated argv.

- ``family``: ``swcalc family`` over every construction, k and l, with sizes
  from small to about 50.  Group-ring products, mod 2, embed and the
  equivariant transfer do the work; no lattice code runs.
- ``sums``: ``swcalc eval`` on ``N*E(2) # S2xS2`` swept over N, dissolution
  multisets in seeded order, blowups and torus-knot surgeries with integer
  coefficients, and ``swcalc bf``.  Connected sums, dissolution, the
  expression layer and the large ``gram`` JSON do the work.
- ``lattice``: ``swcalc lattice`` on fixtures and seeded unimodular forms,
  at bound 1 and at the default bound 3 (the rank-8 ones are refused by the
  box guard), ``swcalc fixedpoints`` and library ``fixed_subtorus`` calls.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("family", "sums", "lattice")


@dataclass(frozen=True)
class Job:
    """One request.  ``params`` is what the reference needs to check it."""

    kind: str
    argv: tuple[str, ...] | None
    params: dict = field(compare=False, hash=False)
    size: int = 0
    group: str = ""

    @property
    def key(self) -> str:
        if self.argv is not None:
            return json.dumps(self.argv)
        return json.dumps([self.kind, self.params], sort_keys=True)


def make_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The job list of one pass, shuffled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _GENERATORS[workload](rng, smoke)
    rng.shuffle(jobs)
    return jobs


def warmup_jobs(jobs: list[Job]) -> list[Job]:
    """The smallest job of each kind: enough to trigger every lazy set-up."""
    best: dict[str, Job] = {}
    for job in jobs:
        if job.kind not in best or job.size < best[job.kind].size:
            best[job.kind] = job
    return [best[k] for k in sorted(best)]


def cold_jobs(jobs: list[Job], count: int = 3) -> list[Job]:
    """The smallest command-line jobs, for fresh-process starts."""
    cli = [j for j in jobs if j.argv is not None]
    return sorted(cli, key=lambda j: (j.size, j.key))[:count]


# ----- family -----

_CONSTRUCTIONS = ("k3", "cp2", "s2xs2")


def _family(rng: random.Random, smoke: bool) -> list[Job]:
    """Every (construction, k, l) at sizes 1-2, 4, 7 and 14; l in {2, 3}
    also at about 26, and l = 2 at about 56.  The sizes near the median and
    the 90th percentile of job time are fixed, so that those percentiles
    hardly depend on the seed; the seed moves the smallest and largest
    sizes by one and orders the jobs."""
    if smoke:
        combos = [("k3", 2, 2), ("cp2", 2, 3), ("s2xs2", 3, 2)]
    else:
        combos = [(c, k, l) for c in _CONSTRUCTIONS for k in (2, 3)
                  for l in (2, 3, 4, 5)]
    jobs = []
    for construction, k, l in combos:
        sizes = [rng.randint(1, 2), 4] if smoke else [rng.randint(1, 2), 4, 7, 14]
        if not smoke and l in (2, 3):
            sizes.append(26 + rng.randint(-1, 1))
        if not smoke and l == 2:
            sizes.append(56 + rng.randint(-1, 1))
        for size in sizes:
            argv = ("family", "--construction", construction, "--k", str(k),
                    "--l", str(l), "--size", str(size))
            jobs.append(Job("family", argv,
                            {"construction": construction, "k": k, "l": l,
                             "size": size},
                            size=size, group=f"{construction}/{k}/{l}"))
    return jobs


# ----- sums -----

# ROADMAP item 5's dissolution pool, as (expression, atom) pairs; the atom
# is what the reference needs to know about the factor.
DISSOLUTION_POOL = (
    ("E(2)", ("E", 2)),
    ("E(3)", ("E", 3)),
    ("K3", ("E", 2)),
    ("knot_surgery(E(2),trefoil)", ("knot", 2, 2, 3)),
    ("knot_surgery(E(3),trefoil)", ("knot", 3, 2, 3)),
    ("blowup(E(2),1)", ("blowup", 2, 1)),
    ("CP2", ("CP2",)),
    ("CP2bar", ("CP2bar",)),
    ("S2xS2", ("S2xS2",)),
)

# Known order dependence: unknown in the first order, dissolved in the second.
_ORDER_PAIR = ((3, 1, 6), (1, 3, 6))


def _eval_job(factors: list[tuple[str, tuple]], size: int, group: str) -> Job:
    text = " # ".join(expr for expr, _ in factors)
    return Job("eval", ("eval", text), {"atoms": [atom for _, atom in factors]},
               size=size, group=group)


def _sums(rng: random.Random, smoke: bool) -> list[Job]:
    jobs = []
    sweep = (3, 6) if smoke else range(25, 251, 25)
    for base in sweep:
        n = base if smoke else base + rng.randint(-2, 2)
        jobs.append(Job("eval", ("eval", f"{n}*E(2) # S2xS2"),
                        {"atoms": [("E", 2)] * n + [("S2xS2",)],
                         "sweep": n},
                        size=n, group="sweep"))
    per_len = 2 if smoke else 15
    for length in range(2, 6):
        for _ in range(per_len):
            factors = [rng.choice(DISSOLUTION_POOL) for _ in range(length)]
            rng.shuffle(factors)
            jobs.append(_eval_job(factors, length, "multiset"))
    for order in _ORDER_PAIR:
        jobs.append(_eval_job([DISSOLUTION_POOL[i] for i in order], 3,
                              "multiset"))
    for m in ((1, 3) if smoke else range(1, 11)):
        n = 3 if m % 2 and m < 8 else 2
        expr = rng.choice(("E(2)", "K3")) if n == 2 else f"E({n})"
        jobs.append(Job("eval", ("eval", f"blowup({expr},{m})"),
                        {"atoms": [("blowup", n, m)]}, size=m, group="blowup"))
    knots = [(p, q) for p in range(2, 8) for q in range(p + 1, 14)
             if math.gcd(p, q) == 1]
    for _ in range(3 if smoke else 12):
        n = rng.choice((2, 3, 4))
        p, q = rng.choice(knots)
        jobs.append(Job("eval",
                        ("eval", f"knot_surgery(E({n}), torus({p},{q}))"),
                        {"atoms": [("knot", n, p, q)]}, size=p * q,
                        group="knot"))
    for _ in range(3 if smoke else 12):
        k, n, l = rng.choice((2, 3, 4)), rng.randint(2, 6), rng.randint(2, 7)
        jobs.append(Job("bf", ("bf", f"{k}*E({n}) # hat({l})", "--k", str(k)),
                        {"k": k, "n": n, "l": l}, size=k, group="bf"))
    return jobs


# ----- lattice -----

def _random_unimodular(rng: random.Random, rank: int) -> list[list[int]]:
    """A seeded unimodular matrix with small entries: a product of
    elementary row operations, one row swap and sign flips."""
    u = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    if rank < 2:
        return u
    for _ in range(rank + 1):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    i, j = rng.sample(range(rank), 2)
    u[i], u[j] = u[j], u[i]
    for i in range(rank):
        if rng.random() < 0.5:
            u[i] = [-a for a in u[i]]
    return u


def minus_u_ut(u: list[list[int]]) -> list[list[int]]:
    """-U U^T, a form isomorphic to diag(-1)^rank."""
    n = len(u)
    return [[-sum(u[i][t] * u[j][t] for t in range(n)) for j in range(n)]
            for i in range(n)]


E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def e8_plus_diag(k: int) -> list[list[int]]:
    """The negative definite E8 form plus k diagonal (-1) entries."""
    n = 8 + k
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2 if i < 8 else -1
    for i, j in E8_EDGES:
        g[i][j] = g[j][i] = 1
    return g


def _lattice_job(form: dict, bound: int | None) -> Job:
    if "fixture" in form:
        argv = ["lattice", "--fixture", form["fixture"]]
    else:
        argv = ["lattice", "--gram", json.dumps(form["gram"], separators=(",", ":"))]
    if bound is not None:
        argv += ["--bound", str(bound)]
    rank = form["rank"]
    return Job("lattice", tuple(argv), {**form, "bound": bound or 3},
               size=(2 * (bound or 3) + 1) ** rank, group=f"rank{rank}")


def _cycle_permutation(rng: random.Random, cycles: tuple[int, ...]) -> list[int]:
    """A permutation of the given cycle type with seeded labels."""
    n = sum(cycles)
    labels = list(range(n))
    rng.shuffle(labels)
    perm = [0] * n
    start = 0
    for length in cycles:
        block = labels[start:start + length]
        for i, src in enumerate(block):
            perm[src] = block[(i + 1) % length]
        start += length
    return perm


# Cycle types of the permutation matrices handed to fixed_subtorus.
_CYCLE_TYPES = ((2,), (3,), (1, 2), (2, 2), (1, 3), (4,), (2, 3), (1, 4),
                (5,), (3, 3), (2, 4), (1, 1, 4), (6,), (2, 5), (3, 4),
                (1, 2, 4), (7,), (3, 5), (2, 2, 4), (8,), (1, 3, 5),
                (4, 5), (2, 3, 4), (9,))


def _lattice(rng: random.Random, smoke: bool) -> list[Job]:
    def diag(n):
        return {"fixture": f"diag:{n}", "form": "diag", "rank": n}

    def e8():
        return {"fixture": "e8", "form": "e8", "rank": 8}

    def ugram(rank):
        return {"gram": minus_u_ut(_random_unimodular(rng, rank)),
                "form": "unimodular", "rank": rank}

    def e8plus(k):
        return {"gram": e8_plus_diag(k), "form": "e8_plus_diag",
                "rank": 8 + k, "k": k}

    jobs = []
    if smoke:
        forms_b1 = [diag(3), ugram(4), e8plus(1)]
        forms_default = [diag(3), ugram(3), e8()]
        ks = (3, 5)
        cycle_types = _CYCLE_TYPES[:3]
    else:
        forms_b1 = ([diag(n) for n in range(1, 9)] + [e8()]
                    + [ugram(r) for r in range(2, 13) for _ in range(2)]
                    + [e8plus(k) for k in range(1, 5)])
        forms_default = ([diag(n) for n in range(1, 7)]
                         + [ugram(r) for r in range(3, 8)]
                         + [e8(), diag(8), ugram(8), ugram(8)])
        ks = [rng.randint(lo, lo + 3) for lo in range(2, 54, 2)]
        cycle_types = _CYCLE_TYPES
    for form in forms_b1:
        jobs.append(_lattice_job(form, 1))
    if not smoke:
        jobs.append(_lattice_job(e8(), 2))
    for form in forms_default:
        jobs.append(_lattice_job(form, None))
    for k in ks:
        jobs.append(Job("fixedpoints", ("fixedpoints", "--k", str(k)), {"k": k},
                        size=k, group="fixedpoints"))
    for cycles in cycle_types:
        perm = _cycle_permutation(rng, cycles)
        jobs.append(Job("fixed_subtorus", None,
                        {"perm": perm, "order": math.lcm(*cycles),
                         "cycles": len(cycles)},
                        size=len(perm), group="fixed_subtorus"))
    return jobs


_GENERATORS = {"family": _family, "sums": _sums, "lattice": _lattice}
