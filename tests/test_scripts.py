"""Smoke tests of the scripts under scripts/: each runs to the end on a
small input, so a script that reads a renamed library name fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_measure_zoo_sampled():
    lines = run_script("scripts/measure_zoo.py", "--sample")
    assert lines[0].split() == [
        "function", "d", "c", "bs", "dxor", "cxor", "c0xor", "c1xor", "wbsxor", "bsxor", "sparsity", "rank",
    ]
    # maj:5 is past the exact wbsxor and bsxor caps, so both cells are sampled bounds
    assert next(line for line in lines if line.startswith("maj:5")).split()[8:10] == ["<=2", ">=3"]


def test_tau_distribution_k3():
    lines = run_script("scripts/tau_distribution.py", "--k", "3", "--seeds", "1")
    assert lines[0] == "k=3 (n=8), 1 seeds, 64 leaves, tree depth 7"
    # n = 8 is within the decision depth cap, so the depth margin is reported
    assert lines[-1].startswith("decision depth d(f): [8]")
