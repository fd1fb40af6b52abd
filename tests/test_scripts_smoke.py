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


@pytest.mark.parametrize("seeds, sha256", [
    (("97", "5"), "f57928644dbde7ea375e4ac61410c3d03727c245d85d942844675e711ae2321a"),
    (("3", "11"), "e2a00e8548e6c687bbd666e74ee220d9a02235bc8cd9c59d59325992a64c7f58"),
], ids=["97_5", "3_11"])
def test_output_digest_pins_every_answer(seeds, sha256):
    """Every answer of the three workloads at two seed pairs, byte for byte;
    a change of any answer has to update these digests on purpose."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--seeds", *seeds],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"jobs": 642, "sha256": sha256}
