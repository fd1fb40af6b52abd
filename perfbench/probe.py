#!/usr/bin/env python3
"""Set-up probe, run in a fresh process by run.py.

Times importing swcalc and swcalc.cli, plus the workload's lazy set-up:
its smallest job of each kind.  The imports are timed before anything
else is loaded, so that modules swcalc shares with the harness (json,
dataclasses, pathlib) are paid for here as a user would pay for them.
Prints one JSON line: the set-up seconds and how the jobs were judged.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
start = time.perf_counter()
try:
    import swcalc.cli  # noqa: F401  (the import is what is timed)
except ImportError as err:
    sys.exit(f"cannot import swcalc: {err}")
seconds = time.perf_counter() - start

import argparse  # noqa: E402
import json  # noqa: E402
from collections import Counter  # noqa: E402

from harness import execute, import_swcalc, judge  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS, make_jobs, warmup_jobs  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    import_swcalc()  # checks where swcalc came from
    total = seconds
    runs = []
    for job in warmup_jobs(make_jobs(args.workload, args.seed, smoke=args.smoke)):
        elapsed, code, output = execute(job)
        total += elapsed
        runs.append((job, code, output))
    reference = Reference()
    status = Counter(judge(job, code, output, reference)[0]
                     for job, code, output in runs)
    print(json.dumps({"setup_s": total, "ok": status["ok"],
                      "refused": status["refused"], "errors": status["error"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
