"""paritydt benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload exh4-thm1 --seed 0 --seconds 25 --trace 0

Every measured run of a workload is a fresh single-threaded interpreter
(worker.py) that imports paritydt from the checkout's ``src`` and feeds the
workload's commands to ``paritydt.cli.run`` with stdout captured, so the
program's memos start empty as they do for a user.  With ``--trace 0`` the
script runs the workload again and again until ``--seconds`` have passed,
times set-up over batches of interpreter starts before and after every
run, and reports medians.  With ``--trace 1`` it makes one untraced and one
traced run and reports per-layer counts, self times and memo statistics
from the traced one, with the tracing overhead.

Every output is checked (check.py).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record: metadata, every run, every problem found and the trace.
The script exits 2 without a result when it cannot run the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check_outputs, load_expected  # noqa: E402
from tracer import MEMOS, TARGETS  # noqa: E402
from workloads import DEFAULT_SEEDS, WORKLOADS  # noqa: E402

# interpreter starts timed for setup_s in each batch; the median of all is reported
SETUP_STARTS = 10
# every run must end within 180 s; stop starting work past this point
DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # single-threaded, and the same string hashing in every process
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """(wall seconds, stdout) of one worker process."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise HarnessError("out of time before starting a worker")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {args} did not finish in {timeout:.0f} s")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return wall, proc.stdout


def _run_once(workload: str, seed: int | None, trace: bool, deadline: float, expected: dict) -> dict:
    args = ["run", "--workload", workload] + ([] if seed is None else ["--seed", str(seed)])
    wall, out = _spawn(args + (["--trace"] if trace else []), deadline)
    try:
        res = json.loads(out)
    except json.JSONDecodeError:
        raise HarnessError(f"worker printed no result: {out[:200]!r}")
    attempted, failed, problems = check_outputs(res["outputs"], expected)
    return {
        "wall_s": wall, "run_s": res["run_s"], "peak_rss_mb": res["peak_rss_mb"],
        "attempted": attempted, "failed": failed, "problems": problems, "trace": res.get("trace"),
    }


def _metadata() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _layer_metrics(trace: dict, overhead: float) -> dict:
    metrics = {}
    for key, rec in trace["functions"].items():
        metrics[f"{key}.calls"] = {"value": rec["calls"], "unit": "count"}
        metrics[f"{key}.self_s"] = {"value": rec["self_s"], "unit": "s"}
    for layer in TARGETS:
        metrics[f"{layer}.self_s"] = {"value": trace["layers"][layer], "unit": "s"}
    for layer, attr in MEMOS:
        memo = trace["memos"][f"{layer}.{attr}"]
        metrics[f"{layer}.{attr}.memo_hit_ratio"] = {"value": memo["hit_ratio"], "unit": "ratio"}
        metrics[f"{layer}.{attr}.entries"] = {"value": memo["entries"], "unit": "count"}
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def measure(workload: str, seed: int | None, seconds: float, trace: bool) -> dict:
    """The full record of one benchmark run."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    expected = load_expected()
    record = {"workload": workload, "seed": DEFAULT_SEEDS[workload] if seed is None else seed,
              "seconds": seconds, "trace": trace, **_metadata()}
    if trace:
        runs = [_run_once(workload, seed, False, deadline, expected)]
        runs.append(_run_once(workload, seed, True, deadline, expected))
        overhead = runs[1]["run_s"] / runs[0]["run_s"] - 1
        metrics = _layer_metrics(runs[1]["trace"], overhead)
    else:
        _spawn(["setup"], deadline)  # fills the bytecode cache; not timed
        # set-up is timed in batches before and after every workload run,
        # so its samples spread over the whole measurement
        setup = [_spawn(["setup"], deadline)[0] for _ in range(SETUP_STARTS)]
        runs = []
        t0 = time.perf_counter()
        while True:
            runs.append(_run_once(workload, seed, False, deadline, expected))
            setup += [_spawn(["setup"], deadline)[0] for _ in range(SETUP_STARTS)]
            now = time.perf_counter()
            if now - t0 >= seconds or now + runs[-1]["wall_s"] > deadline:
                break
        record["setup_starts_s"] = setup
        metrics = {
            "run_s": {"value": statistics.median(r["run_s"] for r in runs), "unit": "s"},
            "items_per_s": {"value": statistics.median(r["attempted"] / r["run_s"] for r in runs), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs), "unit": "MB"},
        }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record.update(
        runs=runs, metrics=metrics, attempted=attempted, failed=failed,
        fail_frac=failed / attempted, elapsed_s=time.perf_counter() - start,
    )
    return record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=25.0, help="measuring time of one untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None, help="also write the record to this file")
    ns = p.parse_args()
    try:
        record = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except HarnessError as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 2
    if ns.out is not None:
        ns.out.write_text(json.dumps(record, indent=1) + "\n")
    for r in record["runs"]:
        for problem in r["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
