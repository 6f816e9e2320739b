"""Summarize leaf tau statistics over sampled depth-vs-certificate gap instances.

For each seed this samples a gap instance at the given k, computes
tau_{C_t}(s_t) for every leaf (C_t the leaf coset's constraint rows,
s_t the linear form answered there), and aggregates the distribution.
At k=3 the exact decision tree depth of f is in budget, so the report
also shows the observed depth margin over the best leaf bound.
"""

import argparse
import collections
import statistics

from paritydt import budget, classical
from paritydt.construct import sample_thm_exp, tau


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3, help="instance parameter (n = 2^k)")
    ap.add_argument("--seeds", type=int, default=20, help="number of seeded instances")
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args()

    histogram: collections.Counter[int] = collections.Counter()
    seed_max: list[int] = []
    depths: list[tuple[int, int]] = []
    n = 1 << args.k
    with_depth = n <= budget.current.get().decision_depth

    for seed in range(args.first_seed, args.first_seed + args.seeds):
        inst = sample_thm_exp(args.k, seed)
        taus = [tau(leaf.coset.constraints, leaf.query) for leaf in inst.leaves]
        histogram.update(taus)
        seed_max.append(max(taus))
        if with_depth:
            depths.append((classical.decision_depth(inst.f)[0], max(taus)))

    total = sum(histogram.values())
    print(f"k={args.k} (n={n}), {args.seeds} seeds, {total} leaves, "
          f"tree depth {args.k + 4}")
    print("tau value distribution over all leaves:")
    for v in sorted(histogram):
        share = histogram[v] / total
        print(f"  tau={v}: {histogram[v]:5d}  ({share:6.1%})  {'#' * round(60 * share)}")
    print(f"per-seed max tau: min={min(seed_max)} "
          f"median={statistics.median(seed_max)} max={max(seed_max)}")
    if with_depth:
        margins = [d - mt for d, mt in depths]
        print(f"decision depth d(f): {sorted({d for d, _ in depths})}, "
              f"margin d - max tau: min={min(margins)} max={max(margins)}")
    else:
        print(f"decision depth skipped (n={n} exceeds the exact depth budget)")


if __name__ == "__main__":
    main()
