"""The benchmark's workloads: each one is a list of ``paritydt`` CLI argv
lists, built from the workload seed alone.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import random

# Seed used when --seed is not given; the expected values recorded in
# expected.json belong to these seeds.
DEFAULT_SEEDS = {"exh4-thm1": None, "pbs-rand4": 42, "measure-caps": 0}
WORKLOADS = tuple(DEFAULT_SEEDS)

PBS_COUNT = 1000


def _random_spec(rnd: random.Random, n: int) -> str:
    """A seeded non-constant truth table as a ``tt:`` spec (index 0 leftmost)."""
    full = (1 << (1 << n)) - 1
    while True:
        t = rnd.getrandbits(1 << n)
        if t not in (0, full):
            return f"tt:{n}:" + "".join(str((t >> i) & 1) for i in range(1 << n))


def commands(workload: str, seed: int | None) -> list[list[str]]:
    """The argv lists ``paritydt.cli.run`` receives, in order."""
    if seed is None:
        seed = DEFAULT_SEEDS[workload]
    if workload == "exh4-thm1":
        # exhaustive: the family has no seed, so every run sees the same inputs
        return [["verify", "--family", "exhaustive:4", "--theorems", "thm1"]]
    if workload == "pbs-rand4":
        return [["verify", "--family", f"random:4:{PBS_COUNT}:{seed}", "--theorems", "thm2"]]
    if workload == "measure-caps":
        rnd = random.Random(seed)
        t6a = _random_spec(rnd, 6)
        t6b = _random_spec(rnd, 6)
        t7 = _random_spec(rnd, 7)
        t8 = _random_spec(rnd, 8)
        return [
            ["measure", "--fn", "zoo:maj:7", "--measures", "dxor"],
            ["measure", "--fn", t6a, "--measures", "dxor,cxor,c0xor,c1xor"],
            ["measure", "--fn", t6b, "--measures", "dxor,cxor,c0xor,c1xor"],
            ["measure", "--fn", t7, "--measures", "cxor,c0xor,c1xor"],
            ["measure", "--fn", t8, "--measures", "d,c,c0,c1,bs"],
            ["measure", "--fn", "zoo:and:4", "--measures", "bsxor,wbsxor,di,ci,bsi"],
            ["comm", "--fn", t6a, "--protocol", "nondet", "--sweep"],
            ["comm", "--fn", "zoo:maj:5", "--protocol", "det", "--sweep"],
            ["construct", "thm-exp", "--k", "4", "--seed", str(seed), "--check"],
            ["fourier", "--fn", t8],
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(DEFAULT_SEEDS)}")
