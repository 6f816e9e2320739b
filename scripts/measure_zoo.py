"""Print a table of exact complexity measures for the named function zoo.

Cells show "-" where the exact search is out of budget at that arity;
pass --sample to fill those with seeded estimates instead: an upper
bound for wbsxor, printed "<=", and a lower bound for bsxor, printed ">=".
"""

import argparse

from paritydt.boolfn import fourier
from paritydt.classical import bs, c, decision_depth
from paritydt.comm import xor_matrix_rank
from paritydt.construct import zoo
from paritydt.errors import BudgetExceededError
from paritydt.parity import (
    c0_xor,
    c1_xor,
    c_xor,
    d_xor,
    parity_bs,
    sampled_parity_bs,
    sampled_weak_parity_bs,
    wbs_xor,
)

ROWS = [
    ("or", 2), ("or", 3), ("or", 4),
    ("and", 2), ("and", 3), ("and", 4),
    ("parity", 2), ("parity", 4), ("parity", 5),
    ("maj", 3), ("maj", 5),
    ("dictator", 3),
    ("example31", 3),
]

COLUMNS = ["function", "d", "c", "bs", "dxor", "cxor", "c0xor", "c1xor",
           "wbsxor", "bsxor", "sparsity", "rank"]


def cell(fn, sampled=None):
    """sampled: fallback returning (bound_prefix, value) when exact is refused."""
    try:
        return str(fn())
    except BudgetExceededError:
        if sampled is None:
            return "-"
        prefix, value = sampled()
        return f"{prefix}{value}"


def measure_row(name: str, n: int, sample: bool, seed: int) -> list[str]:
    f = zoo(name, n)
    wbs_est = (lambda: ("<=", sampled_weak_parity_bs(f, None, samples=200, seed=seed)[0])) if sample else None
    bsx_est = (lambda: (">=", sampled_parity_bs(f, samples=200, seed=seed)[0])) if sample else None
    return [
        f"{name}:{n}",
        cell(lambda: decision_depth(f)[0]),
        cell(lambda: c(f)),
        cell(lambda: bs(f)),
        cell(lambda: d_xor(f)),
        cell(lambda: c_xor(f)),
        cell(lambda: c0_xor(f)),
        cell(lambda: c1_xor(f)),
        cell(lambda: wbs_xor(f), wbs_est),
        cell(lambda: parity_bs(f)[0], bsx_est),
        str(fourier(f).sparsity),
        cell(lambda: xor_matrix_rank(f)),
    ]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sample", action="store_true",
                    help="replace out-of-budget cells with seeded bounds (wbsxor <=, bsxor >=)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rows = [COLUMNS] + [measure_row(name, n, args.sample, args.seed)
                        for name, n in ROWS]
    widths = [max(len(r[i]) for r in rows) for i in range(len(COLUMNS))]
    for i, row in enumerate(rows):
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))


if __name__ == "__main__":
    main()
