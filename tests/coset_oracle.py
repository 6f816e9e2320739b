"""The per-table coset scan the package batched, kept as the tests'
reference for the coset scans of classical._best_over: one table, one
gather and dedupe per group, and one wbs_xor per distinct restricted
table."""

import numpy as np

from paritydt.boolfn import _table_bits
from paritydt.classical import _distinct_tables
from paritydt.parity import _wbs_aggregate


def max_over_cosets(f, scan):
    """The largest wbs_xor of f's restrictions to the cosets of ``scan``
    (groups as _coset_scan gives them), with the first coset reaching it."""
    bits = _table_bits(f.arity, f.table)
    best, witness = -1, None
    for dim, cosets, members in scan:
        tables, inverse = _distinct_tables(bits, members)
        vals = np.array([_wbs_aggregate(dim, t) for t in tables])[inverse]
        i = int(vals.argmax())
        if vals[i] > best:
            best, witness = int(vals[i]), cosets[i]
            if best == f.arity:
                break
    return best, witness
