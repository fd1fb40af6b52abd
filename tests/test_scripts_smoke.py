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
    (("97", "5"), "02791cebac64e6e4a4ba74cfffad064bf31f52be3fb6cb1a8f6b22eccde72a1b"),
    (("3", "11"), "f7c4fb86178b2afa330abf1a8bb884111217e0a55d09a389f6dd9a3b4441699e"),
], ids=["97_5", "3_11"])
def test_output_digest_pins_every_answer(seeds, sha256):
    """Every answer of the three workloads at two seed pairs, byte for byte;
    a change of any answer has to update these digests on purpose."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--seeds", *seeds],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"jobs": 642, "sha256": sha256}
