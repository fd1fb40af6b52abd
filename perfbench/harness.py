"""Running one job against swcalc in this process, judging its answer, and
scaling its time to a reference machine speed."""
from __future__ import annotations

import contextlib
import ctypes
import importlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

from reference import Mismatch, Reference, permutation_matrix
from workloads import Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OK, REFUSED, ERROR = "ok", "refused", "error"

# The host's speed drifts by tens of percent over seconds, as other tenants
# come and go, and a pure-Python job slows by about as much as any other
# pure-Python loop.  So every time is divided by the time of a fixed kernel
# measured just before and after it, and multiplied by CAL_REF_S: times read
# as on a machine where the kernel takes CAL_REF_S (on a 2-vCPU cloud host it
# takes 0.7 to 0.9 ms).  Both commits of a comparison run the same kernel.
CAL_REF_S = 0.001
CAL_INTERVAL_S = 0.1


class SetupError(Exception):
    """The checkout holds no swcalc sources to measure."""


def import_swcalc() -> None:
    """Import swcalc and swcalc.cli from this checkout's sources."""
    if not (SRC / "swcalc" / "__init__.py").is_file():
        raise SetupError(f"no swcalc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    swcalc = importlib.import_module("swcalc")
    importlib.import_module("swcalc.cli")
    if Path(swcalc.__file__).resolve().parent != SRC / "swcalc":
        raise SetupError(f"swcalc was imported from {swcalc.__file__}, not {SRC}")


def _kernel() -> int:
    """Dictionary, tuple and integer work, like swcalc's inner loops."""
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * 3
    return sum(table.values())


def fix_malloc_threshold() -> None:
    """Hold glibc's mmap threshold at its default 128 KiB.

    glibc raises the threshold after a large block is freed; whether a
    freed numpy box then stays in the heap depends on when the calibration
    kernel ran, which moved the peak RSS of one seed's lattice run between
    263 and 338 MB.  With the threshold fixed, large blocks always go back
    to the system and the peak is the program's.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the kernel
    measures the speed of the CPU the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def kernel_seconds() -> float:
    """Median time of five kernel runs: the machine's current speed.  The
    median drops the first run after a child process left the caches cold."""
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def scale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Seconds at the reference speed."""
    return seconds * 2 * CAL_REF_S / (kernel_before + kernel_after)


def execute(job: Job) -> tuple[float, int | None, object]:
    """Run one job; returns (seconds, exit code, output).

    The exit code is None when the call raised; the output is then the
    exception.  Only the call into swcalc is timed.
    """
    if job.argv is None:
        fixedpoint = sys.modules["swcalc.fixedpoint"]
        matrix = permutation_matrix(job.params["perm"])
        start = time.perf_counter()
        try:
            result = fixedpoint.fixed_subtorus(
                fixedpoint.TorusAutomorphism(matrix, job.params["order"]))
        except Exception as exc:  # a crash is an answer to report
            return time.perf_counter() - start, None, exc
        elapsed = time.perf_counter() - start
        return elapsed, 0, {"dimension": result.dimension,
                            "basis": [list(v) for v in result.basis]}
    cli = sys.modules["swcalc.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.run_command(list(job.argv))
        except Exception as exc:  # a crash is an answer to report
            return time.perf_counter() - start, None, exc
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def judge(job: Job, code: int | None, output, reference: Reference) -> tuple[str, str]:
    """(status, reason): ok, refused (exit 1, a guard) or error."""
    if code is None:
        return ERROR, f"raised {output!r}"
    if code not in (0, 1):
        return ERROR, f"exit code {code}"
    if isinstance(output, str):
        try:
            output = json.loads(output)
        except json.JSONDecodeError as err:
            return ERROR, f"output is not JSON: {err}"
    if code == 1:
        if output.get("error", {}).get("type") == "guard":
            return REFUSED, output["error"].get("message", "")
        return ERROR, "exit code 1 without a guard report"
    try:
        reference.check(job, output)
    except Mismatch as err:
        return ERROR, str(err)
    except (KeyError, TypeError, IndexError, ValueError) as err:
        return ERROR, f"malformed output: {err!r}"
    return OK, ""
