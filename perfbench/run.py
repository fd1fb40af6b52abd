#!/usr/bin/env python3
"""swcalc benchmark: one closed-loop client, one process, no threads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload family --seed 1 --seconds 20 --trace 0

Each job goes to ``swcalc.cli.run_command(argv)`` (or, for the
``fixed_subtorus`` jobs, to the library) in this process with stdout
captured, and only after the previous job has finished.  Every answer is
checked against ``reference.py``.  Whole passes over the seeded job list
(``workloads.py``) run until ``--seconds`` have passed.

Every time is scaled to a reference machine speed with a kernel timed
between jobs (see ``harness.CAL_REF_S``); the table above the result also
shows the unscaled figures.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median over fresh processes of importing swcalc and
  swcalc.cli plus the workload's lazy set-up (its smallest job of each kind,
  e.g. the first ``fixed_subtorus`` call imports sympy);
- ``cold_cli_ms``: median wall time of fresh ``python -m swcalc.cli`` runs
  of the workload's smallest jobs, started one at a time;
- ``jobs_per_s``, ``job_ms_p50``, ``job_ms_p90``: jobs per second of time
  spent inside swcalc, and the Harrell-Davis estimates of the latency
  percentiles, over the job list with each job's time its median over the
  passes (at least 100 jobs, so that p90 has ten beyond it);
- ``peak_rss_mb``: peak resident memory of this process;
- ``correct_rate``: share of attempted jobs that neither crashed, exited 2
  nor disagreed with the reference (1 - error rate);
- ``accepted_rate``: share of attempted jobs not refused with exit code 1
  (1 - refused rate).  The two rates are reported as complements because a
  metric here must never read 0.

With ``--trace 1`` plain and traced passes alternate; the traced ones wrap
swcalc's layers (``tracing.py``).  The run reports the per-layer metrics
(calls, self time, exact counts, ratios, slopes, import times from
``python -X importtime``, tracing overhead) and writes the spans to
``perfbench/out/``.

``--smoke`` runs a tiny job list with few fresh processes.  Lines before the
last one are a table for people: metric, value, unit, sample count.  The
last line is one JSON object.  The exit code is not 0, and no result is
printed, when the checkout holds no swcalc sources.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from harness import (CAL_INTERVAL_S, ERROR, OK, REFUSED, ROOT, SRC, SetupError,
                     execute, fix_malloc_threshold, import_swcalc, judge,
                     kernel_seconds, pin_to_one_cpu, scale)
from reference import Reference
from workloads import WORKLOADS, cold_jobs, make_jobs, warmup_jobs

SETUP_STARTS = 7
COLD_STARTS = 31
IMPORT_STARTS = 3
SUBPROCESS_TIMEOUT_S = 60

# per-layer metrics taken as the self time of one span name
SELF_TIME_SPANS = (
    "groupring.mul", "groupring.mod2", "groupring.embed", "groupring.render",
    "knot.alexander_family", "knot.torus_knot",
    "manifold.intersection_init", "manifold.to_json_dict", "manifold.homeo_type",
    "surgery.connected_sum", "surgery.blowup", "surgery.knot_surgery",
    "surgery.dissolve",
    "lattice.characteristic_vectors", "lattice.max_characteristic_square",
    "lattice.diagonalize", "lattice.spinc_with_max_square", "lattice.form_init",
    "fixedpoint.solve_fixed_points", "fixedpoint.fixed_subtorus",
    "equivariant.exotic_family", "equivariant.gmonopole_polynomial",
    "equivariant.covering_consistency", "equivariant.bf_simplify",
    "expressions.parse", "expressions.eval_expr", "expressions.expression_factors",
    "cli.run_command",
)
CALL_SPANS = ("groupring.mul", "groupring.init", "manifold.descriptor",
              "surgery.connected_sum", "equivariant.gmonopole_polynomial")
COUNTERS = ("groupring.mul.terms_out", "equivariant.transfer_monomials",
            "lattice.box_points")
# ratio name -> (counter of useful outcomes, span whose calls are the attempts)
RATIOS = {
    "surgery.dissolve.decided_ratio": ("surgery.dissolve.decided", "surgery.dissolve"),
    "lattice.max_square.certified_ratio": ("lattice.max_square.certified",
                                           "lattice.max_characteristic_square"),
    "lattice.diagonalize.found_ratio": ("lattice.diagonalize.found",
                                        "lattice.diagonalize"),
}


class Tally:
    """Outcomes of every job this run checked."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.status: Counter = Counter()
        self.first_error = ""

    def record(self, job, code, output) -> None:
        status, reason = judge(job, code, output, self.reference)
        self.status[status] += 1
        if status == ERROR and not self.first_error:
            self.first_error = f"{job.key}: {reason}"
            print(f"# error: {self.first_error}", file=sys.stderr)


def run_pass(jobs, tally: Tally) -> tuple[list[float], list[float], int]:
    """One pass over the job list: per-job raw and scaled seconds, and the
    bytes written.  The kernel is timed again whenever CAL_INTERVAL_S have
    passed, and each job is scaled by the kernel times around it."""
    raw, scaled, pending = [], [0.0] * len(jobs), []
    out_bytes = 0
    before, mark = kernel_seconds(), time.perf_counter()
    for i, job in enumerate(jobs):
        elapsed, code, output = execute(job)
        raw.append(elapsed)
        pending.append(i)
        if isinstance(output, str):
            out_bytes += len(output.encode())
        tally.record(job, code, output)
        if i == len(jobs) - 1 or time.perf_counter() - mark >= CAL_INTERVAL_S:
            after = kernel_seconds()
            for j in pending:
                scaled[j] = scale(raw[j], before, after)
            pending, before, mark = [], after, time.perf_counter()
    return raw, scaled, out_bytes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run a fresh process; returns it with its raw and scaled wall seconds."""
    before = kernel_seconds()
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)
    wall = time.perf_counter() - start
    return done, wall, scale(wall, before, kernel_seconds())


def measure_setup(args, starts: int, tally: Tally) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up seconds of fresh processes, one after another."""
    probe = [sys.executable, str(ROOT / "perfbench" / "probe.py"),
             "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        probe.append("--smoke")
    raw, scaled = [], []
    for _ in range(starts):
        done, wall, wall_scaled = run_child(probe)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(report["setup_s"])
        scaled.append(report["setup_s"] * wall_scaled / wall)
        tally.status[OK] += report["ok"]
        tally.status[REFUSED] += report["refused"]
        tally.status[ERROR] += report["errors"]
    return raw, scaled


def measure_cold(jobs, starts: int, tally: Tally) -> tuple[list[float], list[float]]:
    """Raw and scaled wall seconds of fresh ``python -m swcalc.cli`` runs."""
    raw, scaled = [], []
    for i in range(starts):
        job = jobs[i % len(jobs)]
        done, wall, wall_scaled = run_child(
            [sys.executable, "-m", "swcalc.cli", *job.argv])
        raw.append(wall)
        scaled.append(wall_scaled)
        code = done.returncode if done.returncode in (0, 1, 2) else None
        tally.record(job, code, done.stdout or done.stderr)
    return raw, scaled


_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def measure_imports(starts: int) -> dict[str, list[float]]:
    """Scaled cumulative import seconds of swcalc (with swcalc.cli), numpy
    and sympy, from ``python -X importtime``."""
    out = {"swcalc": [], "numpy": [], "sympy": []}
    for _ in range(starts):
        done, wall, wall_scaled = run_child(
            [sys.executable, "-X", "importtime", "-c", "import swcalc, swcalc.cli, sympy"])
        if done.returncode != 0:
            raise SetupError(f"import probe failed: {done.stderr.strip()[-2000:]}")
        found = Counter()
        for line in done.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m is None:
                continue
            name, cumulative = m.group(2), int(m.group(1)) / 1e6
            if name in ("swcalc", "swcalc.cli"):
                found["swcalc"] += cumulative
            elif name in ("numpy", "sympy"):
                found[name] += cumulative
        for key in out:
            out[key].append(found[key] * wall_scaled / wall)
    return out


def _warm_up(jobs, tally: Tally) -> None:
    for job in warmup_jobs(jobs):
        tally.record(job, *execute(job)[1:])


def _slope(points: list[tuple[str, float, float]]) -> float:
    """Log-log slope of time against size, with one intercept per group."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for group, size, seconds in points:
        groups.setdefault(group, []).append((math.log(size), math.log(seconds)))
    num = den = 0.0
    for pts in groups.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        num += sum((x - mx) * (y - my) for x, y in pts)
        den += sum((x - mx) ** 2 for x, _ in pts)
    return num / den if den else 0.0


def _per_job_median(passes: list[list[float]]) -> list[float]:
    return [statistics.median(times) for times in zip(*passes)]


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982).

    The order statistics are weighted by the Beta(p(n+1), (1-p)(n+1))
    mass of ((i-1)/n, i/n], integrated by Simpson's rule on 8 panels.  It
    averages the jobs around the quantile, so a gap between two neighbouring
    jobs does not make the estimate jump from one seed to the next.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    simpson = (1, 4, 2, 4, 2, 4, 2, 4, 1)
    weights = [sum(c * density((i + k / 8) / n) for k, c in enumerate(simpson))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def end_to_end(args, jobs, tally: Tally, metrics: dict, raw: dict):
    setup_raw, setup = measure_setup(args, 1 if args.smoke else SETUP_STARTS, tally)
    cold_raw, cold = measure_cold(cold_jobs(jobs), 2 if args.smoke else COLD_STARTS,
                                  tally)
    _warm_up(jobs, tally)
    before = Counter(tally.status)
    raw_passes, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        times, scaled, _ = run_pass(jobs, tally)
        raw_passes.append(times)
        passes.append(scaled)
    per_job = _per_job_median(passes)
    per_job_raw = _per_job_median(raw_passes)
    attempted = len(jobs) * len(passes)
    samples = f"{len(jobs)} jobs x {len(passes)} passes"
    errors = tally.status[ERROR] - before[ERROR]
    refused = tally.status[REFUSED] - before[REFUSED]
    metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
    metrics["cold_cli_ms"] = (statistics.median(cold) * 1000, "ms", len(cold))
    metrics["jobs_per_s"] = (len(jobs) / sum(per_job), "1/s", samples)
    metrics["job_ms_p50"] = (harrell_davis(per_job, 0.5) * 1000, "ms", samples)
    metrics["job_ms_p90"] = (harrell_davis(per_job, 0.9) * 1000, "ms", samples)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    metrics["correct_rate"] = (1 - errors / attempted, "ratio", attempted)
    metrics["accepted_rate"] = (1 - refused / attempted, "ratio", attempted)
    raw["setup_s"] = statistics.median(setup_raw)
    raw["cold_cli_ms"] = statistics.median(cold_raw) * 1000
    raw["jobs_per_s"] = len(jobs) / sum(per_job_raw)
    raw["job_ms_p50"] = harrell_davis(per_job_raw, 0.5) * 1000
    raw["job_ms_p90"] = harrell_davis(per_job_raw, 0.9) * 1000
    print(f"# {len(passes)} passes of {len(jobs)} jobs; errors {errors}, "
          f"refused {refused} of {attempted}")


def per_layer(args, jobs, tally: Tally, metrics: dict, raw: dict):
    from tracing import Tracer, install, uninstall

    imports = measure_imports(1 if args.smoke else IMPORT_STARTS)
    _warm_up(jobs, tally)
    # plain and traced passes alternate, so that both see the same drift
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(jobs, tally))
        lo, counters = len(tracer), Counter(tracer.counters)
        patches = install(tracer)
        try:
            times, scaled, _ = run_pass(jobs, tally)
        finally:
            uninstall(patches)
        calls, self_s = tracer.layer_totals(lo, len(tracer))
        speed = sum(scaled) / sum(times)
        traced.append((sum(scaled), calls, {k: v * speed for k, v in self_s.items()},
                       tracer.counters - counters))
    tracer.write(ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl")

    n = len(traced)
    _, calls, _, counters = traced[0]
    if any(c != calls or k != counters for _, c, _, k in traced[1:]):
        print("# warning: traced passes made different calls", file=sys.stderr)
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = (
            statistics.median(p[2].get(name, 0.0) for p in traced), "s", calls[name])
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = (calls[name], "count", n)
    for name in COUNTERS:
        metrics[name] = (counters[name], "count", n)
    for name, (useful, span) in RATIOS.items():
        metrics[name] = (counters[useful] / calls[span] if calls[span] else 0.0,
                         "ratio", calls[span])
    median_job = _per_job_median([scaled for _, scaled, _ in plain])
    sweep = [("sweep", job.size, t) for job, t in zip(jobs, median_job)
             if job.group == "sweep" and job.size >= 150]
    family = [(job.group, job.size, t) for job, t in zip(jobs, median_job)
              if job.kind == "family"]
    metrics["surgery.sum_slope"] = (_slope(sweep), "log-log", len(sweep))
    metrics["equivariant.family_slope"] = (_slope(family), "log-log", len(family))
    metrics["cli.output_bytes"] = (plain[0][2], "B", len(jobs))
    for name, values in imports.items():
        metrics[f"import.{name}_s"] = (statistics.median(values), "s", len(values))
    metrics["trace.overhead_ratio"] = (
        statistics.median(p[0] for p in traced)
        / statistics.median(sum(scaled) for _, scaled, _ in plain), "ratio", n)
    print(f"# {len(plain)} plain and {n} traced passes of {len(jobs)} jobs, "
          f"{len(tracer)} spans")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job list and few fresh processes")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    fix_malloc_threshold()
    jobs = make_jobs(args.workload, args.seed, smoke=args.smoke)
    tally = Tally(Reference())
    metrics: dict[str, tuple[float, str, int | str]] = {}
    raw: dict[str, float] = {}
    try:
        import_swcalc()
        (per_layer if args.trace else end_to_end)(args, jobs, tally, metrics, raw)
    except (SetupError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"# {'metric':44s} {'value':>16s} {'unscaled':>12s} unit     samples")
    for name, (value, unit, samples) in metrics.items():
        unscaled = f"{raw[name]:12.6g}" if name in raw else " " * 12
        print(f"# {name:44s} {value:16.6g} {unscaled} {unit:8s} n={samples}")
    attempted = sum(tally.status.values())
    failed = tally.status[ERROR]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
