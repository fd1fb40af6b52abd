"""Smoke runs of the benchmark driver: every workload answers correctly.

Each run is ``python3 perfbench/run.py --workload W --smoke --seconds 0``,
whose last output line is one JSON object.  The traced run also checks that
every method the tracer wraps by name still exists.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload,trace", [
    ("family", "0"), ("sums", "0"), ("lattice", "0"),
    ("family", "1"), ("sums", "1"), ("lattice", "1")])
def test_bench_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
