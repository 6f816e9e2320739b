"""Smoke tests of the benchmark harness: one untraced run of a workload
must replay every witness and match perfbench/expected.json."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def single_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_pbs_rand4_single_run_is_correct():
    result = single_run("pbs-rand4")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 1000


def test_exh4_thm1_single_run_is_correct():
    result = single_run("exh4-thm1")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 65536


def test_measure_caps_single_run_is_correct():
    result = single_run("measure-caps")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 10
