"""Print one digest over every answer of the benchmark workloads.

For each job of ``family``, ``sums`` and ``lattice`` at the given seeds, the
job's exit code and stdout from ``swcalc.cli.run_command`` (for the library
``fixed_subtorus`` jobs, the dimension and basis) go into one sha256.  Two
checkouts that print the same line gave byte-identical answers, so run it
in each and compare:

    python3 scripts/output_digest.py --seeds 97 5 [--smoke]

The job lists come from ``perfbench/workloads.py``; the swcalc measured is
the one under this checkout's ``src/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from harness import execute, import_swcalc  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


def digest(seeds: list[int], smoke: bool) -> tuple[int, str]:
    """(job count, hex sha256) over every job's (exit code, output)."""
    import_swcalc()
    sha = hashlib.sha256()
    count = 0
    for workload in WORKLOADS:
        for seed in seeds:
            for job in make_jobs(workload, seed, smoke):
                _, code, output = execute(job)
                if not isinstance(output, str):
                    output = repr(output)
                sha.update(json.dumps([job.key, code, output]).encode())
                count += 1
    return count, sha.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[97, 5])
    parser.add_argument("--smoke", action="store_true", help="the small job lists")
    args = parser.parse_args()
    count, hexdigest = digest(args.seeds, args.smoke)
    print(json.dumps({"jobs": count, "sha256": hexdigest}))


if __name__ == "__main__":
    main()
