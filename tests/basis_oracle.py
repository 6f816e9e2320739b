"""The recursive basis enumerations the package replaced with gf2._bases,
kept as the tests' reference for its orders: every ordered basis of
{0,1}^n (the rows of an invertible matrix) in lexicographic order, and
every unordered basis as its increasing rows."""


def reduce_low(v, echelon_rows):
    """Reduce v against rows whose lowest set bits are distinct."""
    for r in echelon_rows:
        if v & (r & -r):
            v ^= r
    return v


def gl_rows(n):
    """The row tuples of every invertible n x n matrix, in lexicographic
    order: each row runs over the nonzero vectors outside the span of
    the rows before it."""

    def rec(prefix, span):
        if len(prefix) == n:
            yield prefix
            return
        inside = set(span)
        for v in range(1, 1 << n):
            if v not in inside:
                yield from rec(prefix + (v,), span + [s ^ v for s in span])

    yield from rec((), [0])


def sorted_bases(m):
    """All unordered bases of {0,1}^m as increasing tuples, each row
    reduced against an echelon basis of the rows before it."""
    out = []

    def rec(prefix, echelon, start):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for v in range(start, 1 << m):
            red = reduce_low(v, echelon)
            if red:
                rec(prefix + [v], sorted(echelon + [red], key=lambda r: r & -r), v + 1)

    rec([], [], 1)
    return tuple(out)
