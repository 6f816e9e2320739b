"""Write expected.json: the values every workload gives at its default seed.

    python3 perfbench/record_expected.py

Run it only on a commit whose outputs are trusted: each output must first
pass every check of check.py that does not need expected.json.  A later
change that alters a value on purpose re-records it and says why.
"""

from __future__ import annotations

import json
import sys
import time

from check import EXPECTED_PATH, check_outputs, summarize
from run import DEADLINE_S, _spawn
from workloads import WORKLOADS


def main() -> int:
    expected = {}
    for workload in WORKLOADS:
        _, out = _spawn(["run", "--workload", workload], time.perf_counter() + DEADLINE_S)
        outputs = json.loads(out)["outputs"]
        _, failed, problems = check_outputs(outputs, {})
        if failed:
            print("\n".join(problems), file=sys.stderr)
            return 1
        for o in outputs:
            expected[" ".join(o["argv"])] = summarize(o["argv"], json.loads(o["stdout"]))
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
