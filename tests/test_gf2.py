import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basis_oracle import gl_rows, reduce_low
from frame_oracle import dual_frames
from paritydt import gf2
from paritydt.errors import BudgetExceededError, DimensionError, DomainError
from paritydt.gf2 import (
    Coset,
    Gf2Matrix,
    Gf2Vector,
    _images,
    _kernel_bits,
    _rref_bits,
    _span_order,
    _spans,
    _subspace_rows,
    enumerate_gl,
    gl_order,
    parity,
    sample_gl,
    solve,
    subspace_count,
)


def brute_span(rows):
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


def test_vector_string_convention():
    # display strings put coordinate 1 leftmost; packed bit j-1 holds x_j
    v = Gf2Vector.from_string("110")
    assert v.bits == 0b011
    assert v.to_string() == "110"
    assert v.bit(0) == 1 and v.bit(1) == 1 and v.bit(2) == 0


def test_vector_ops():
    a = Gf2Vector.from_string("101")
    b = Gf2Vector.from_string("011")
    assert (a ^ b).to_string() == "110"
    assert a.dot(b) == 1
    assert a.weight == 2
    assert Gf2Vector.zeros(4).to_string() == "0000"
    with pytest.raises(DimensionError):
        Gf2Vector(2, 7)


def test_rref_example():
    m = Gf2Matrix.from_strings(["110", "011", "101"])
    red, pivots = _rref_bits(m.row_bits, 3)
    assert Gf2Matrix.from_bits(red, 3).to_jsonable() == ["101", "011"]
    assert pivots == [0, 1]
    # a coset's constraints must be that canonical form
    with pytest.raises(DimensionError):
        Coset(3, m, Gf2Vector(3, 0))


def test_rref_identity_pivots():
    red, pivots = _rref_bits(Gf2Matrix.identity(3).row_bits, 3)
    assert pivots == [0, 1, 2]
    assert red == [1, 2, 4]


@given(st.integers(1, 6), st.lists(st.integers(0, 63), max_size=6))
def test_rref_idempotent_and_span_preserving(n, rows):
    rows = [r & ((1 << n) - 1) for r in rows]
    red, pivots = _rref_bits(rows, n)
    assert _rref_bits(red, n) == (red, pivots)
    assert brute_span(rows) == brute_span(red)
    # each row's leading 1 is its lowest set bit, clear in every other row
    assert pivots == [(r & -r).bit_length() - 1 for r in red]
    assert all((other >> p) & 1 == (i == j) for i, p in enumerate(pivots) for j, other in enumerate(red))


def test_matrix_algebra():
    a = Gf2Matrix.from_strings(["11", "01"])
    v = Gf2Vector.from_string("10")
    assert a.mul_vec(v).to_string() == "10"
    assert a.matmul(a.inverse()) == Gf2Matrix.identity(2)
    assert a.transpose().transpose() == a
    assert a.rank() == 2 and a.is_invertible()
    s = Gf2Matrix.from_strings(["11", "11"])
    assert s.rank() == 1
    with pytest.raises(DomainError):
        s.inverse()


@given(st.integers(1, 5), st.data())
def test_mul_vec_matches_dot_products(n, data):
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
    vbits = data.draw(st.integers(0, (1 << n) - 1))
    m = Gf2Matrix.from_bits(rows, n)
    v = Gf2Vector(n, vbits)
    out = m.mul_vec(v)
    assert out.width == len(rows)
    for i, r in enumerate(rows):
        assert out.bit(i) == parity(r & vbits)


def test_solve_and_coset_members():
    c = Gf2Matrix.from_strings(["110", "001"])
    r = Gf2Vector.from_string("10")
    h = solve(c, r)
    expect = {x for x in range(8) if parity(x & 0b011) == 1 and parity(x & 0b100) == 0}
    assert set(h.member_bits()) == expect
    assert h.min_member().bits == min(expect)
    assert h.codim == 2 and h.dim == 1


def test_solve_inconsistent():
    c = Gf2Matrix.from_strings(["110", "110"])
    assert solve(c, Gf2Vector.from_string("10")) is None


@given(st.integers(1, 5), st.data())
def test_solve_soundness(n, data):
    k = data.draw(st.integers(0, n))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
    rhs = data.draw(st.integers(0, (1 << k) - 1)) if k else 0
    h = solve(Gf2Matrix.from_bits(rows, n), Gf2Vector(k, rhs))
    expect = {
        x
        for x in range(1 << n)
        if all(parity(x & row) == ((rhs >> i) & 1) for i, row in enumerate(rows))
    }
    if h is None:
        assert not expect
    else:
        assert set(h.member_bits()) == expect
        assert h.min_member_bits() == min(expect)
        assert len(expect) == 1 << h.dim
        # the order: min_member + the direction span in subset-counter order
        assert h.member_bits() == [h.min_member_bits() ^ v for v in _span_order(h.direction_rows())]


def test_member_bits_order_at_full_width():
    # 21 of 24 coordinates pinned: members above 2^16, as python ints
    rows = [1 << i for i in range(21)]
    h = solve(Gf2Matrix.from_bits(rows, 24), Gf2Vector(21, 0x12345))
    got = h.member_bits()
    assert got == [0x12345 ^ v for v in _span_order(h.direction_rows())]
    assert len(got) == 8 and max(got) == 0x12345 | 7 << 21
    assert all(type(b) is int for b in got)


def test_coset_point_and_full():
    p = Coset.point(Gf2Vector.from_string("101"))
    assert p.member_bits() == [0b101]
    assert p.codim == 3
    f = Coset.full_space(3)
    assert f.codim == 0 and len(f.member_bits()) == 8


def test_coset_with_constraint():
    h = Coset.full_space(2)
    h1 = h.with_constraint(Gf2Vector.from_string("10"), 1)
    assert set(h1.member_bits()) == {1, 3}
    h2 = h1.with_constraint(Gf2Vector.from_string("10"), 0)
    assert h2 is None
    same = h1.with_constraint(Gf2Vector.from_string("10"), 1)
    assert same == h1


def test_canonical_coset_representation_unique():
    # one coset, many presentations
    a = solve(Gf2Matrix.from_strings(["110", "011"]), Gf2Vector.from_string("10"))
    b = solve(Gf2Matrix.from_strings(["011", "110"]), Gf2Vector.from_string("01"))
    c = solve(Gf2Matrix.from_strings(["110", "101"]), Gf2Vector.from_string("11"))
    assert a == b == c


def test_subspace_count_gaussian_binomials():
    assert subspace_count(4, 2) == 35
    assert subspace_count(3, 1) == 7
    assert subspace_count(3, 2) == 7
    assert subspace_count(5, 0) == 1
    assert subspace_count(5, 5) == 1
    for n in range(6):
        for d in range(n + 1):
            assert subspace_count(n, d) == subspace_count(n, n - d)


@pytest.mark.parametrize("n,d", [(n, d) for n in range(5) for d in range(n + 1)])
def test_enumerate_subspaces_complete(n, d):
    subs = list(_subspace_rows(n, d))
    assert len(subs) == subspace_count(n, d)
    assert len(set(subs)) == len(subs)
    for rows in subs:
        assert len(_rref_bits(rows, n)[0]) == d


def reference_enumerate_subspaces(n, d):
    """The per-frame enumeration _subspace_rows replaced: pivot patterns in
    lexicographic order, then one binary counter over all free entries,
    row by row; each subspace as its RREF basis rows."""
    for pivots in itertools.combinations(range(n), d):
        pivset = set(pivots)
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n) if j not in pivset]
        for assign in range(1 << len(free)):
            rows = [1 << p for p in pivots]
            for t, (i, j) in enumerate(free):
                if (assign >> t) & 1:
                    rows[i] |= 1 << j
            yield tuple(rows)


@pytest.mark.parametrize("m", range(7))
def test_dual_frames_match_subspace_construction(m):
    for k in range(m + 1):
        ref = [(rows, tuple(_kernel_bits(rows, m))) for rows in reference_enumerate_subspaces(m, k)]
        assert list(dual_frames(m, k)) == ref, (m, k)
        assert list(_subspace_rows(m, k)) == [w for w, _ in ref]
        # the direction rows span the orthogonal complement
        for w, v in ref:
            assert len(w) + len(v) == m
            assert all(parity(a & b) == 0 for a in w for b in v)


def test_dual_frames_streamed():
    # the subspaces are streamed, so none are kept at any dimension
    assert _subspace_rows(6, 3) is not _subspace_rows(6, 3)
    frames = _subspace_rows(7, 6)
    assert not isinstance(frames, tuple)
    w = next(iter(frames))
    assert w == (0b1, 0b10, 0b100, 0b1000, 0b10000, 0b100000)
    # the first frame's orthogonal complement is the last coordinate
    assert next(dual_frames(7, 6)) == (w, (0b1000000,))


def test_enumerate_subspaces_refuses_before_yielding():
    for gen in (_subspace_rows(13, 1), dual_frames(13, 1)):
        with pytest.raises(BudgetExceededError, match="n <= 12, got 13"):
            next(iter(gen))
    assert next(_subspace_rows(12, 0)) == ()


@pytest.mark.parametrize("n", range(1, 7))
def test_spans_and_images_match_span_order(n):
    rnd = random.Random(n)
    # k x n matrices: square ones, and k dual rows as in the frame keys
    for k in (n, rnd.randint(0, n)):
        rows = [tuple(rnd.getrandbits(n) for _ in range(k)) for _ in range(20)]
        arr = np.array(rows, dtype=np.uint8).reshape(20, k)
        spans = _spans(arr)
        assert spans.shape == (20, 1 << k)
        assert [list(r) for r in spans] == [_span_order(r) for r in rows]
        img = _images(arr, n)
        assert img.shape == (20, 1 << n)
        for r, got in zip(rows, img):
            b = Gf2Matrix.from_bits(r, n)
            # the span of the columns, in counter order, is x -> B x
            assert list(got) == _span_order(b.transpose().row_bits)
            assert [b.mul_vec(Gf2Vector(n, x)).bits for x in range(1 << n)] == list(got)


def test_gl_order_values():
    assert gl_order(1) == 1
    assert gl_order(2) == 6
    assert gl_order(3) == 168
    assert gl_order(4) == 20160


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_gl_exact(n):
    mats = list(enumerate_gl(n))
    assert len(mats) == gl_order(n)
    assert len(set(mats)) == len(mats)
    for m in mats:
        assert m.is_invertible()


def test_enumerate_gl_4_count():
    assert sum(1 for _ in enumerate_gl(4)) == 20160


def reference_enumerate_gl(n):
    """The recursion enumerate_gl ran before it read gf2._bases: each row
    reduced against an echelon basis of the rows before it."""
    limit = 1 << n

    def rec(prefix, echelon):
        if len(prefix) == n:
            yield Gf2Matrix.from_bits(prefix, n)
            return
        for v in range(1, limit):
            red = reduce_low(v, echelon)
            if red:
                ins = sorted(echelon + [red], key=lambda r: r & -r)
                yield from rec(prefix + [v], ins)

    yield from rec([], [])


def reference_sample_gl(n, count, seed):
    """The rejection sampler sample_gl ran before it wrapped
    gf2._sample_gl_rows."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        rows = [rnd.getrandbits(n) for _ in range(n)]
        if Gf2Matrix.from_bits(rows, n).rank() == n:
            out.append(Gf2Matrix.from_bits(rows, n))
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_enumerate_gl_matches_reference_recursion(n):
    want = [m.row_bits for m in reference_enumerate_gl(n)]
    assert len(want) == gl_order(n)
    assert list(gl_rows(n)) == want
    assert [m.row_bits for m in enumerate_gl(n)] == want
    assert [tuple(rows) for block in gf2._bases(n) for rows in block.tolist()] == want
    # one block per choice of the rows before the last three
    assert [len(block) for block in gf2._bases(n)] == ([1344] * 15 if n == 4 else [gl_order(n)])


def test_gl_0_is_the_empty_matrix():
    assert list(enumerate_gl(0)) == [Gf2Matrix(0, ())]
    assert sample_gl(0, 3, 5) == [Gf2Matrix(0, ())] * 3
    assert list(gf2._sample_gl_rows(0, 2, 1)) == [(), ()]
    for bad in (enumerate_gl(-1), gf2._sample_gl_rows(-1, 1, 0)):
        with pytest.raises(DimensionError, match="n -1 outside 0..24"):
            next(iter(bad))


def test_gl_5_walk_memory_flat():
    # GL(5) holds 9,999,360 matrices (50 MB of rows); the walk keeps one
    # prefix's block of 10,752 at a time
    tracemalloc.start()
    try:
        sizes = [len(block) for block in gf2._bases(5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [10752] * 930 and sum(sizes) == gl_order(5)
    assert peak < 1 << 20


@pytest.mark.parametrize("n,count,seed", [(1, 3, 0), (3, 20, 11), (6, 5, 2), (9, 4, 7)])
def test_sample_gl_matches_reference_sampler(n, count, seed):
    assert sample_gl(n, count, seed) == reference_sample_gl(n, count, seed)


def test_enumerate_gl_budget():
    with pytest.raises(BudgetExceededError, match="n <= 5, got 6"):
        next(enumerate_gl(6))
    assert next(enumerate_gl(5)).row_bits == (1, 2, 4, 8, 16)


# ---------------------------------------------------------------------------
# one matrix per set of columns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 28), (4, 840), (5, 83328)])
def test_gl_classes_one_increasing_invertible_row_per_column_set(n, count):
    classes = gf2._gl_classes(n)
    assert classes.shape == (count, n) and classes.dtype == np.uint8
    assert count * math.factorial(n) == gl_order(n)
    assert not classes.flags.writeable
    rows = [tuple(r) for r in classes.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    # invertible: the span of the columns is every input
    assert (np.sort(_images(classes, n), axis=1) == np.arange(1 << n)).all()
    # the column sets are distinct
    assert len({frozenset(r) for r in gf2._columns(classes, n).tolist()}) == count


@pytest.mark.parametrize("n", range(5))
def test_gl_classes_are_the_least_of_each_column_set(n):
    least = {}
    for b in enumerate_gl(n):
        cols = frozenset(b.transpose().row_bits)
        least[cols] = min(least.get(cols, b.row_bits), b.row_bits)
    assert [tuple(r) for r in gf2._gl_classes(n).tolist()] == sorted(least.values())


def test_gl_classes_refusals():
    with pytest.raises(BudgetExceededError, match="n <= 5, got 6; use sample_gl"):
        gf2._gl_classes(6)
    with pytest.raises(DimensionError, match="n -1 outside 0..24"):
        gf2._gl_classes(-1)
    # the chunks of a class list are its slices, in order
    sizes = [len(chunk) for chunk in gf2._gl_class_chunks(5)]
    assert sizes == [2048] * 40 + [1408]
    assert np.concatenate(list(gf2._gl_class_chunks(5))).tolist() == gf2._gl_classes(5).tolist()


def test_sample_gl_deterministic():
    a = sample_gl(3, 5, seed=11)
    b = sample_gl(3, 5, seed=11)
    assert a == b
    assert all(m.is_invertible() for m in a)
    assert sample_gl(3, 5, seed=12) != a


def test_brute_rank_agreement():
    for rows in itertools.product(range(8), repeat=3):
        m = Gf2Matrix.from_bits(list(rows), 3)
        assert m.rank() == len(brute_span(rows)).bit_length() - 1
