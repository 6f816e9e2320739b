"""The per-frame enumeration the package dropped, kept as the tests'
reference for every scan over dual frames: each codimension-k subspace
of {0,1}^m with its orthogonal complement."""

from paritydt.gf2 import _kernel_bits, _subspace_rows


def dual_frames(m, k):
    """(dual basis rows, direction basis rows) of every codimension-k
    subspace of {0,1}^m, the dual spaces in _subspace_rows order."""
    for wrows in _subspace_rows(m, k):
        yield wrows, tuple(_kernel_bits(wrows, m))
