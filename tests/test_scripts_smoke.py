"""Smoke runs of the scripts: each exits 0 and prints something."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["exotic_actions_demo.py", "lattice_survey.py"])
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_output_digest_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--smoke",
         "--seeds", "1"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["jobs"] > 0
    assert len(result["sha256"]) == 64


# the pinned digests, keyed by their --seeds; CI reads the same file
DIGESTS = json.loads((ROOT / "tests" / "golden" / "digests.json").read_text())


@pytest.mark.parametrize("seeds", DIGESTS, ids=lambda seeds: seeds.replace(" ", "_"))
def test_output_digest_pins_every_answer(seeds):
    """Every answer of the three workloads at two seed pairs, byte for byte;
    a change of any answer has to update these digests on purpose."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--seeds", *seeds.split()],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == DIGESTS[seeds]
