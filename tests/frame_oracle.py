"""The per-frame enumeration the package dropped, kept as the tests'
reference for every scan over dual frames: each subspace of {0,1}^m as
its RREF basis rows, built apart from gf2._subspace_rows, and with its
orthogonal complement."""

import itertools

from paritydt.gf2 import _kernel_bits


def reference_enumerate_subspaces(n, d):
    """Pivot patterns in lexicographic order, then one binary counter over
    all free entries, row by row; each subspace as its RREF basis rows."""
    for pivots in itertools.combinations(range(n), d):
        pivset = set(pivots)
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n) if j not in pivset]
        for assign in range(1 << len(free)):
            rows = [1 << p for p in pivots]
            for t, (i, j) in enumerate(free):
                if (assign >> t) & 1:
                    rows[i] |= 1 << j
            yield tuple(rows)


def dual_frames(m, k):
    """(dual basis rows, direction basis rows) of every codimension-k
    subspace of {0,1}^m, the dual spaces in reference_enumerate_subspaces
    order."""
    for wrows in reference_enumerate_subspaces(m, k):
        yield wrows, tuple(_kernel_bits(wrows, m))
