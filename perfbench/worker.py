"""One measured process of the benchmark; started by run.py, never by hand.

``worker.py setup`` imports ``paritydt.cli`` from the checkout's ``src`` and
exits, so the parent can time interpreter start-up plus import.
``worker.py run --workload W --seed S [--trace]`` then runs the workload's
commands through ``paritydt.cli.run(argv)`` with stdout captured and prints
one JSON object: the captured outputs, the wall time of the command loop,
the peak RSS and, when traced, the tracer's counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import paritydt.cli as cli

    # a paritydt installed elsewhere must not stand in for the checkout's
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"paritydt imported from {cli.__file__}, not from {SRC}")
    return cli


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "run"])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    ns = p.parse_args()
    cli = _import_cli()
    if ns.mode == "setup":
        return 0

    sys.path.insert(0, str(HERE))
    from workloads import commands

    argvs = commands(ns.workload, ns.seed)
    tracer = None
    if ns.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outputs = []
    t0 = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(argv)
            except Exception:  # a crash is a failed item, not a harness error
                rc = None
                error = traceback.format_exc()
        outputs.append({"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error})
    run_s = time.perf_counter() - t0
    result = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
    }
    if tracer is not None:
        result["trace"] = tracer.stats()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
