"""The per-subcube walks the package replaced with one constant-subcube
pass (classical._constant_subcubes), kept as the tests' reference for
its depth trees, certificate witnesses and certificate profile: each
candidate subcube is walked point by point."""

import itertools

from paritydt.classical import ClassicalCertificate, DecisionLeaf, DecisionNode


def _walk_constant(t, base, free):
    """Whether the table t is constant on base + span(free), walked over
    every submask of free."""
    want = (t >> base) & 1
    sub = free
    while sub:
        if ((t >> (base ^ sub)) & 1) != want:
            return False
        sub = (sub - 1) & free
    return True


def decision_depth(f):
    """(depth, tree): memoized over (fixed mask, fixed values), ties
    toward the smallest variable, a leaf wherever the walk finds the
    restriction constant."""
    n, t = f.arity, f.table
    full = (1 << n) - 1
    memo = {}

    def best(mask, vals):
        got = memo.get((mask, vals))
        if got is not None:
            return got[0]
        if _walk_constant(t, vals, full & ~mask):
            memo[(mask, vals)] = (0, -1)
            return 0
        bd, bi = None, -1
        for i in range(n):
            b = 1 << i
            if mask & b:
                continue
            d = 1 + max(best(mask | b, vals), best(mask | b, vals | b))
            if bd is None or d < bd:
                bd, bi = d, i
        memo[(mask, vals)] = (bd, bi)
        return bd

    def build(mask, vals):
        i = memo[(mask, vals)][1]
        if i < 0:
            return DecisionLeaf((t >> vals) & 1)
        b = 1 << i
        return DecisionNode(i + 1, build(mask | b, vals), build(mask | b, vals | b))

    depth = best(0, 0)
    return depth, build(0, 0)


def certificate_complexity(f, xb):
    """(size, witness) at the input xb: the first pinned set, by size
    then lexicographically, whose free subcube through xb is constant."""
    n, t = f.arity, f.table
    full = (1 << n) - 1
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            if _walk_constant(t, xb, full & ~sum(1 << j for j in combo)):
                return k, ClassicalCertificate(tuple(j + 1 for j in combo), tuple((xb >> j) & 1 for j in combo))
    raise AssertionError("unreachable: the full assignment always certifies")


def certificate_profile(f):
    """The certificate size at every input, as bytes."""
    return bytes(certificate_complexity(f, x)[0] for x in range(1 << f.arity))
