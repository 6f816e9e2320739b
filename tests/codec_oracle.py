"""Scalar table builders, one input at a time, kept as the oracles for
the numpy codec in boolfn (_pack_table, _parse_bits, _gather) and the
builders that go through it."""

from paritydt.gf2 import parity


def reference_parse_bits(s):
    """Table of a 0/1 string, index 0 leftmost."""
    t = 0
    for i, ch in enumerate(s):
        if ch == "1":
            t |= 1 << i
    return t


def reference_zoo(name, n):
    size = 1 << n
    t = 0
    for x in range(size):
        if name == "and":
            bit = x == size - 1
        elif name == "or":
            bit = x != 0
        elif name == "parity":
            bit = x.bit_count() & 1
        elif name == "maj":
            bit = x.bit_count() > n // 2
        elif name == "dictator":
            bit = x & 1
        else:  # example31
            bit = (x & 1) ^ (1 if x & 0b110 else 0)
        t |= int(bit) << x
    return t


def reference_anf(n, masks):
    """Table of the XOR of the monomials with variable masks ``masks``
    (mask 0 is the constant term 1)."""
    t = 0
    for x in range(1 << n):
        acc = 0
        for m in masks:
            if (x & m) == m:
                acc ^= 1
        t |= acc << x
    return t


def reference_gather(table, idxs):
    local = 0
    for y, p in enumerate(idxs):
        local |= ((table >> p) & 1) << y
    return local


def reference_rotate(n, table, rows):
    """Table of x -> f(a x) for the matrix a with rows ``rows``."""
    t = 0
    for x in range(1 << n):
        ax = 0
        for i, r in enumerate(rows):
            ax |= parity(r & x) << i
        t |= ((table >> ax) & 1) << x
    return t


def reference_bitmap(points):
    out = 0
    for b in points:
        out |= 1 << b
    return out
