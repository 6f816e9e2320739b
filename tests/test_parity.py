import functools
import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basis_oracle import sorted_bases
from coset_oracle import max_over_cosets
from frame_oracle import dual_frames
from packing_oracle import reference_max_packing

from paritydt import budget, classical, construct, gf2, theorems
from paritydt import parity as parity_mod
from paritydt.boolfn import (
    BooleanFunction,
    _table_bits,
    _table_xor_translate,
    local_point,
    parse_function_spec,
    restrict,
    restrict_with_frame,
)
from paritydt.errors import BudgetExceededError, DimensionError, DomainError
from paritydt.gf2 import (
    Coset,
    Gf2Matrix,
    Gf2Vector,
    _kernel_bits,
    _solve_bits,
    _span_order,
    _subspace_rows,
    parity,
    sample_gl,
    solve,
)
from paritydt.parity import (
    MeasureValue,
    ParityCertificate,
    ParityLeaf,
    ParityQuery,
    c0_xor,
    c1_xor,
    c_xor,
    cxor_profile,
    d_xor,
    parity_bs,
    parity_certificate,
    parity_depth,
    pdt_depth,
    pdt_eval,
    pdt_jsonable,
    pdt_leaf_cosets,
    sampled_parity_bs,
    sampled_weak_parity_bs,
    weak_parity_bs,
    wbs_xor,
)


# ---------------------------------------------------------------------------
# reference implementations, deliberately naive
# ---------------------------------------------------------------------------

def oracle_cxor_point(f, y):
    """Smallest k with k parity constraints through y forcing f constant,
    by scanning raw row tuples and checking membership pointwise."""
    n = f.arity
    want = f.value_at(y)
    for k in range(n + 1):
        for rows in itertools.combinations(range(1, 1 << n), k):
            span = {0}
            for r in rows:
                span |= {v ^ r for v in span}
            if len(span) != 1 << k:
                continue
            members = [
                x
                for x in range(1 << n)
                if all(parity(x & w) == parity(y & w) for w in rows)
            ]
            if all(f.value_at(x) == want for x in members):
                return k
    raise AssertionError


def oracle_dxor(f):
    """Depth by recursion on reachable point sets; a query only counts
    if it splits the current set."""
    n = f.arity
    memo = {}

    def rec(pts):
        if len({f.value_at(x) for x in pts}) == 1:
            return 0
        got = memo.get(pts)
        if got is not None:
            return got
        best = None
        for w in range(1, 1 << n):
            p0 = frozenset(x for x in pts if parity(x & w) == 0)
            p1 = pts - p0
            if not p0 or not p1:
                continue
            d = 1 + max(rec(p0), rec(p1))
            if best is None or d < best:
                best = d
        memo[pts] = best
        return best

    return rec(frozenset(range(1 << n)))


def oracle_wbs_point(f, y):
    """min over bases of the block packing of sensitive basis subsets."""
    n = f.arity
    if n == 0:
        return 0
    fy = f.value_at(y)
    best = None
    for cols in itertools.combinations(range(1, 1 << n), n):
        span = {0}
        for r in cols:
            span |= {v ^ r for v in span}
        if len(span) != 1 << n:
            continue
        sens = []
        for smask in range(1, 1 << n):
            delta = 0
            for i in range(n):
                if (smask >> i) & 1:
                    delta ^= cols[i]
            if f.value_at(y ^ delta) != fy:
                sens.append(smask)

        def rec(used):
            return max((1 + rec(used | s) for s in sens if not (s & used)), default=0)

        v = rec(0)
        if best is None or v < best:
            best = v
    return best


def oracle_pbs(f):
    """max over affine-closed point sets of the local wbs maximum."""
    n = f.arity
    best = 0
    for smask in range(1, 1 << (1 << n)):
        pts = [x for x in range(1 << n) if (smask >> x) & 1]
        s = set(pts)
        if not all(a ^ b ^ c in s for a in s for b in s for c in s):
            continue
        o = pts[0]
        basis = []
        span = {0}
        for p in pts:
            d = p ^ o
            if d and d not in span:
                basis.append(d)
                span |= {v ^ d for v in span}
        m = len(basis)
        table = 0
        for y in range(1 << m):
            pt = o
            for i in range(m):
                if (y >> i) & 1:
                    pt ^= basis[i]
            table |= f.value_at(pt) << y
        g = BooleanFunction(m, table)
        best = max(best, max((oracle_wbs_point(g, y) for y in range(1 << m)), default=0))
    return best


@functools.lru_cache(maxsize=None)
def reference_bases(m):
    return tuple((basis, _span_order(list(basis))) for basis in sorted_bases(m))


def reference_wbs_point(m, table, y):
    """The scalar basis scan: per unordered basis (in _sorted_bases
    order) the bitmap of sensitive subset sums, its packing, and the
    first strict minimum as the witness."""
    full = (1 << (1 << m)) - 1
    if table == 0 or table == full:
        return 0, tuple(1 << i for i in range(m))
    fy = (table >> y) & 1
    flips = [((table >> (y ^ v)) & 1) != fy for v in range(1 << m)]
    best = None
    best_basis = None
    for basis, sums in reference_bases(m):
        bm = sum(1 << s_idx for s_idx in range(1, 1 << m) if flips[sums[s_idx]])
        v = reference_max_packing(m, bm)
        if best is None or v < best:
            best, best_basis = v, basis
            if best == 1:
                break
    return best, best_basis


_reference_wbs_memo = {}


def reference_wbs_xor(m, table):
    got = _reference_wbs_memo.get((m, table))
    if got is None:
        got = max(reference_wbs_point(m, table, y)[0] for y in range(1 << m))
        _reference_wbs_memo[(m, table)] = got
    return got


def reference_parity_bs(f):
    """The restrict-per-coset scan: directions by decreasing dimension in
    _subspace_rows order, right-hand sides increasing, first strict
    maximum as the witness."""
    n = f.arity
    best, witness = -1, None
    for dim in range(n, -1, -1):
        for vrows in _subspace_rows(n, dim):
            wrows = _kernel_bits(vrows, n)
            for rhs in range(1 << len(wrows)):
                coset = Coset(n, Gf2Matrix.from_bits(wrows, n), Gf2Vector(len(wrows), rhs))
                rf = restrict(f, coset)
                v = reference_wbs_xor(rf.local.arity, rf.local.table)
                if v > best:
                    best, witness = v, coset
                    if best == n:
                        return best, witness
    return best, witness


@functools.lru_cache(maxsize=None)
def reference_frames(m, k):
    """frame_oracle.dual_frames(m, k), kept: (dual basis rows, direction
    basis rows, direction span) of every codimension-k frame, in canonical
    order."""
    return tuple((wrows, vrows, _span_order(list(vrows))) for wrows, vrows in dual_frames(m, k))


_reference_profile_memo = {}


def reference_cxor_profile(m, table):
    """The scalar profile scan the dense table replaced at dimension <= 4:
    per direction space (decreasing dimension), close the table under its
    translations and mark the inputs whose coset is constant."""
    cached = _reference_profile_memo.get((m, table))
    if cached is not None:
        return cached
    size = 1 << m
    full = (1 << size) - 1
    out = bytearray(size)
    remaining = full
    if table == 0 or table == full:
        _reference_profile_memo[(m, table)] = res = bytes(size)
        return res
    for k in range(m + 1):
        for _wrows, vrows, _span in reference_frames(m, k):
            or_t = and_t = table
            for v in vrows:
                or_t |= _table_xor_translate(or_t, m, v)
                and_t &= _table_xor_translate(and_t, m, v)
            eq = full & ~(or_t ^ and_t)
            new = eq & remaining
            while new:
                low = new & -new
                out[low.bit_length() - 1] = k
                new ^= low
            remaining &= ~eq
            if not remaining:
                break
        if not remaining:
            break
    _reference_profile_memo[(m, table)] = res = bytes(out)
    return res




def reference_parity_certificate(f, x):
    """The scalar certificate scan the class-count kernel replaced:
    codimension ascending, frames in canonical order, the first whose
    coset through x is constant, lifted to ambient constraints."""
    rf = parity_mod._localize(f)
    m = rf.local.arity
    y = local_point(rf, x)
    table = rf.local.table
    want = (table >> y) & 1
    for k in range(m + 1):
        for wrows, _vrows, span in reference_frames(m, k):
            if all(((table >> (y ^ v)) & 1) == want for v in span):
                rows = [rf.lift_form(w)[0] for w in wrows]
                coset = _solve_bits(rows, [parity(c & x.bits) for c in rows], rf.ambient.ncols)
                return k, ParityCertificate(coset, want)
    raise AssertionError("the point coset always certifies")


@functools.lru_cache(maxsize=None)
def reference_parity_table(m, w):
    t = 0
    for x in range(1 << m):
        t |= ((x & w).bit_count() & 1) << x
    return t


def reference_affine_query(m, table):
    """The w with f = <x,w> (+1), or None; assumes f nonconstant."""
    f0 = table & 1
    w = 0
    for i in range(m):
        if ((table >> (1 << i)) & 1) != f0:
            w |= 1 << i
    if w == 0:
        return None
    pt = reference_parity_table(m, w)
    full = (1 << (1 << m)) - 1
    if table == (pt if f0 == 0 else full & ~pt):
        return w
    return None


_reference_dxor_memo = {}


def reference_dxor(m, table):
    """The scalar depth search the dense table replaced at dimension <= 4:
    memoised branch and bound with the affine shortcut and the profile
    lower bound; the first strict minimum is the query."""
    full = (1 << (1 << m)) - 1
    if table == 0 or table == full:
        return 0, None
    got = _reference_dxor_memo.get((m, table))
    if got is not None:
        return got
    w_aff = reference_affine_query(m, table)
    if w_aff is not None:
        _reference_dxor_memo[(m, table)] = (1, w_aff)
        return 1, w_aff
    lb = max(reference_cxor_profile(m, table)) if m <= 5 else 2
    best = None
    best_w = None
    for w in range(1, 1 << m):
        idx0, idx1 = parity_mod._split_frames(m, w)
        d0 = reference_dxor(m - 1, parity_mod._gather(table, idx0))[0]
        d1 = reference_dxor(m - 1, parity_mod._gather(table, idx1))[0]
        d = 1 + (d0 if d0 >= d1 else d1)
        if best is None or d < best:
            best, best_w = d, w
            if best == lb:
                break
    _reference_dxor_memo[(m, table)] = (best, best_w)
    return best, best_w


def reference_lift(t, pivots, m, off):
    """The pivot lift of a whole subtree, the step parity._tree takes one
    unit form at a time: local coordinate i maps to the pivot coordinate
    of the i-th canonical direction row, and a lifted query with odd
    overlap against the branch offset swaps its children."""
    if isinstance(t, ParityLeaf):
        return t
    lifted = sum(1 << p for i, p in enumerate(pivots) if (t.query.bits >> i) & 1)
    c0t, c1t = reference_lift(t.child0, pivots, m, off), reference_lift(t.child1, pivots, m, off)
    if parity(off & lifted):
        c0t, c1t = c1t, c0t
    return ParityQuery(Gf2Vector(m, lifted), c0t, c1t)


def reference_tree(m, table):
    """The optimal tree along reference_dxor's queries."""
    d, w = reference_dxor(m, table)
    if d == 0:
        return ParityLeaf(table & 1)
    idx0, idx1 = parity_mod._split_frames(m, w)
    pivots = tuple((r & -r).bit_length() - 1 for r in _kernel_bits([w], m))
    off1 = 1 << ((w & -w).bit_length() - 1)
    return ParityQuery(
        Gf2Vector(m, w),
        reference_lift(reference_tree(m - 1, parity_mod._gather(table, idx0)), pivots, m, 0),
        reference_lift(reference_tree(m - 1, parity_mod._gather(table, idx1)), pivots, m, off1),
    )


tables4 = st.integers(min_value=0, max_value=(1 << 16) - 1)


# ---------------------------------------------------------------------------
# parity certificates
# ---------------------------------------------------------------------------

def test_certificate_matches_oracle_all_n3():
    for t in range(256):
        f = BooleanFunction(3, t)
        prof = []
        for y in range(8):
            k, cert = parity_certificate(f, Gf2Vector(3, y))
            assert k == oracle_cxor_point(f, y)
            assert cert.size == cert.coset.codim == k
            assert cert.coset._contains_bits(y)
            assert cert.value == f.value_at(y)
            for x in cert.coset.members():
                assert f.evaluate(x) == cert.value
            prof.append(k)
        # aggregates agree with the pointwise search
        assert c_xor(f) == max(prof)
        zeros = [prof[y] for y in range(8) if f.value_at(y) == 0]
        ones = [prof[y] for y in range(8) if f.value_at(y) == 1]
        assert c0_xor(f) == (max(zeros) if zeros else None)
        assert c1_xor(f) == (max(ones) if ones else None)


@settings(max_examples=40)
@given(tables4, st.integers(min_value=0, max_value=15))
def test_certificate_witness_n4(t, y):
    f = BooleanFunction(4, t)
    k, cert = parity_certificate(f, Gf2Vector(4, y))
    assert cert.coset.codim == k
    assert cert.coset._contains_bits(y)
    for x in cert.coset.members():
        assert f.evaluate(x) == cert.value == f.value_at(y)


def test_certificate_named_values():
    or2 = parse_function_spec("zoo:or:2")
    assert (c0_xor(or2), c1_xor(or2), c_xor(or2)) == (2, 1, 2)
    for m in (2, 3, 4):
        andm = parse_function_spec(f"zoo:and:{m}")
        assert (c0_xor(andm), c1_xor(andm), c_xor(andm)) == (1, m, m)
    par = parse_function_spec("zoo:parity:4")
    assert c_xor(par) == 1  # one query reads the whole function
    zero = BooleanFunction(3, 0)
    assert (c0_xor(zero), c1_xor(zero), c_xor(zero)) == (0, None, 0)
    ones = BooleanFunction(3, 255)
    assert (c0_xor(ones), c1_xor(ones), c_xor(ones)) == (None, 0, 0)


def test_certificate_on_restriction():
    # the lifted witness lives in ambient coordinates and certifies on
    # its intersection with the domain
    f = parse_function_spec("zoo:example31:3")
    h = Coset.full_space(3).with_constraint(Gf2Vector(3, 0b001), 0)
    rf = restrict(f, h)
    assert rf.local.to_table_string() == "0111"  # the restriction is OR
    x = Gf2Vector(3, 0b010)
    k, cert = parity_certificate(rf, x)
    assert cert.coset.ncols == 3
    assert cert.coset.contains(x)
    for pt in cert.coset.members():
        if h.contains(pt):
            assert f.evaluate(pt) == cert.value


def test_certificate_budget():
    f = BooleanFunction(11, 0)
    with pytest.raises(BudgetExceededError):
        parity_certificate(f, Gf2Vector(11, 0))
    with pytest.raises(BudgetExceededError):
        c_xor(f)
    with pytest.raises(BudgetExceededError):
        cxor_profile(f)


def test_cxor_profile_matches_point_search():
    f = parse_function_spec("zoo:example31:3")
    assert list(cxor_profile(f)) == [parity_certificate(f, Gf2Vector(3, x))[0] for x in range(8)]
    # on a restriction the profile is indexed by local point
    rf = restrict(f, Coset.full_space(3).with_constraint(Gf2Vector(3, 0b001), 0))
    members = rf.ambient.member_bits()
    assert list(cxor_profile(rf)) == [parity_certificate(rf, Gf2Vector(3, x))[0] for x in members]


# ---------------------------------------------------------------------------
# the class-count kernel above the dense tables against the scalar scans
# ---------------------------------------------------------------------------

def _assert_certificates_match_reference(f, points=None):
    """Profile bytes and every certificate witness at ``points`` (all
    inputs by default) equal the scalar scans'."""
    rf = parity_mod._localize(f)
    assert cxor_profile(f) == reference_cxor_profile(rf.local.arity, rf.local.table)
    for xb in rf.ambient.member_bits() if points is None else points:
        x = Gf2Vector(rf.ambient.ncols, xb)
        k, cert = parity_certificate(f, x)
        rk, rcert = reference_parity_certificate(f, x)
        assert (k, cert.to_jsonable()) == (rk, rcert.to_jsonable()), (rf.local.arity, rf.local.table, xb)


def test_certificates_match_scalar_scan_seeded():
    rnd = random.Random(1010)
    for m, count in ((5, 20), (6, 5), (7, 2)):
        for _ in range(count):
            _assert_certificates_match_reference(BooleanFunction(m, rnd.getrandbits(1 << m)))


def test_certificates_match_scalar_scan_structured():
    specs = [f"zoo:{name}:{m}" for name in ("and", "or", "parity", "dictator") for m in (5, 6)]
    specs += ["zoo:maj:5", "anf:5:x1+x3+x4+1", "anf:6:x2+x5", "anf:5:x1*x2+x3"]
    fns = [parse_function_spec(s) for s in specs]
    fns += [BooleanFunction(m, t) for m in (5, 6) for t in (0, (1 << (1 << m)) - 1)]
    # a 5-dimensional restriction: the witnesses lift to ambient rows
    g = BooleanFunction(7, random.Random(3).getrandbits(128))
    fns.append(restrict(g, Coset(7, Gf2Matrix.from_bits([0b1000011, 0b0110100], 7), Gf2Vector(2, 0b10))))
    for f in fns:
        _assert_certificates_match_reference(f)


def test_frame_keys_kept_up_to_six_then_streamed():
    rows, key = parity_mod._frame_keys(5, 2)
    assert parity_mod._frame_keys(5, 2)[0] is rows
    assert [tuple(int(w) for w in r) for r in rows] == list(_subspace_rows(5, 2))
    for i in (0, 77, len(rows) - 1):
        ws = [int(w) for w in rows[i]]
        assert [int(c) for c in key[i]] == [sum(parity(w & y) << j for j, w in enumerate(ws)) for y in range(32)]
    assert not rows.flags.writeable and not key.flags.writeable
    before = parity_mod._frame_keys.cache_info().currsize
    rows7, key7, _ = next(parity_mod._coset_classes(7, 0, 6))
    assert parity_mod._frame_keys.cache_info().currsize == before
    assert tuple(int(w) for w in rows7[0]) == (1, 2, 4, 8, 16, 32)
    assert [int(c) for c in key7[0, :4]] == [0, 1, 2, 3] and int(key7[0, 64]) == 0


def test_certificate_first_frame_past_chunk(monkeypatch):
    # 7 frames a chunk; the scan memo starts empty, so every scan runs
    # the kernel under the small chunks
    parity_mod._cxor_scan.cache_clear()
    rnd = random.Random(77)
    late = dict.fromkeys((4, 5, 6), 0)
    for m in (5, 5, 5, 5, 6, 4, 4, 4):
        monkeypatch.setattr(gf2, "_CHUNK_ENTRIES", 7 << m)
        f = BooleanFunction(m, rnd.getrandbits(1 << m))
        _assert_certificates_match_reference(f)
        for y in range(1 << m):
            k, cert = parity_certificate(f, Gf2Vector(m, y))
            # on the identity frame the witness rows are the frame's own
            index = list(_subspace_rows(m, k)).index(cert.coset.constraints.row_bits)
            late[m] += index >= 7
    # some first certifying frames lie past the first chunk
    assert late[4] and late[5] + late[6]


# ---------------------------------------------------------------------------
# parity decision trees
# ---------------------------------------------------------------------------

def test_depth_matches_oracle_all_n3():
    for t in range(256):
        f = BooleanFunction(3, t)
        d, tree = parity_depth(f)
        assert d == oracle_dxor(f)
        assert pdt_depth(tree) == d
        for x in range(8):
            assert pdt_eval(tree, x) == f.value_at(x)


@settings(max_examples=40, deadline=None)
@given(tables4)
def test_depth_matches_oracle_n4(t):
    f = BooleanFunction(4, t)
    d, tree = parity_depth(f)
    assert d == oracle_dxor(f)
    assert pdt_depth(tree) == d
    for x in range(16):
        assert pdt_eval(tree, x) == f.value_at(x)


def test_depth_named_values():
    assert parity_depth(parse_function_spec("zoo:parity:6"))[0] == 1
    assert parity_depth(parse_function_spec("zoo:or:2"))[0] == 2
    for m in (2, 3, 4):
        assert parity_depth(parse_function_spec(f"zoo:and:{m}"))[0] == m
    assert parity_depth(BooleanFunction(4, 0))[0] == 0
    assert parity_depth(parse_function_spec("zoo:maj:3"))[0] == 2


def test_leaf_cosets_partition():
    f = parse_function_spec("zoo:maj:3")
    d, tree = parity_depth(f)
    leaves = pdt_leaf_cosets(tree, Coset.full_space(3))
    seen = [0] * 8
    for coset, val in leaves:
        for x in coset.members():
            seen[x.bits] += 1
            assert f.evaluate(x) == val
    assert seen == [1] * 8


def test_leaf_cosets_reject_dependent_query():
    w = Gf2Vector(2, 0b01)
    bad = ParityQuery(w, ParityQuery(w, ParityLeaf(0), ParityLeaf(1)), ParityLeaf(1))
    with pytest.raises(DomainError):
        pdt_leaf_cosets(bad, Coset.full_space(2))


def test_depth_on_restriction_lifts_queries():
    f = parse_function_spec("zoo:example31:3")
    h = Coset.full_space(3).with_constraint(Gf2Vector(3, 0b001), 0)
    rf = restrict(f, h)
    d, tree = parity_depth(rf)
    assert d == 2
    for x in h.members():
        assert pdt_eval(tree, x.bits) == f.evaluate(x)


def test_pdt_jsonable_shape():
    _, tree = parity_depth(parse_function_spec("zoo:parity:3"))
    assert pdt_jsonable(tree) == {"query": "111", "0": {"leaf": 0}, "1": {"leaf": 1}}


def test_depth_budget():
    with pytest.raises(BudgetExceededError):
        parity_depth(BooleanFunction(9, 0))
    with pytest.raises(BudgetExceededError):
        d_xor(BooleanFunction(9, 0))


def test_d_xor_is_the_depth_of_parity_depth():
    f = parse_function_spec("zoo:example31:3")
    rf = restrict(f, Coset.full_space(3).with_constraint(Gf2Vector(3, 0b001), 0))
    for g in (f, rf, parse_function_spec("zoo:maj:5"), parse_function_spec("zoo:parity:6"), BooleanFunction(2, 0)):
        assert d_xor(g) == parity_depth(g)[0]


def test_rebuilt_trees_pinned():
    # 500 trees from random.Random(4), digest recorded when each subtree
    # was still restricted and lifted through objects, with no cache
    rnd = random.Random(4)
    trees = [pdt_jsonable(parity_depth(BooleanFunction(4, rnd.getrandbits(16)))[1]) for _ in range(500)]
    digest = hashlib.sha256(json.dumps(trees, sort_keys=True).encode()).hexdigest()
    assert digest == "385c5fb1b58c2fd9f65da09a0c9b3ddded49a27c50f30801370b47030127f6ae"


def test_restricted_trees_pinned():
    # 100 seeded restrictions at ambient n <= 8 and local dimension 2 to
    # 5, every other one through a frame of mixed rows and another offset;
    # digest recorded while each subtree was lifted again at every level
    rnd = random.Random(28)
    trees = []
    for i in range(100):
        n = rnd.randint(2, 8)
        codim = n - rnd.randint(2, min(n, 5))
        cons = sample_gl(n, 1, rnd.getrandbits(32))[0].row_bits[:codim]
        h = solve(Gf2Matrix.from_bits(cons, n), Gf2Vector(codim, rnd.getrandbits(codim)))
        f = BooleanFunction(n, rnd.getrandbits(1 << n))
        rf = restrict(f, h)
        if i % 2:
            mix = sample_gl(h.dim, 1, rnd.getrandbits(32))[0].row_bits
            rows = [rf.ambient_point(a) ^ rf.offset.bits for a in mix]
            rf = restrict_with_frame(f, h, rows, rf.ambient_point(rnd.getrandbits(h.dim)))
        d, tree = parity_depth(rf)
        assert pdt_depth(tree) == d
        for x in h.member_bits():
            assert pdt_eval(tree, x) == f.value_at(x)
        trees.append(pdt_jsonable(tree))
    digest = hashlib.sha256(json.dumps(trees, sort_keys=True).encode()).hexdigest()
    assert digest == "18f2181a8aa700a19b9d8f652ffbb6bcb618d28d4235965d84f9e177d9756913"


def test_half_step_agrees_with_lift_form():
    # the canonical half along w keeps every coordinate but the top bit h
    # of w, and its 1-half's offset e_p (p the low bit of w) sets the
    # offset bit of coordinate p: the step parity._tree takes, and the
    # frame _split_frames gathers
    for m in range(1, 7):
        for w in range(1, 1 << m):
            h, p = w.bit_length() - 1, (w & -w).bit_length() - 1
            others = [i for i in range(m) if i != h]
            for b in (0, 1):
                rf = restrict(BooleanFunction(m, 0), Coset(m, Gf2Matrix.from_bits([w], m), Gf2Vector(1, b)))
                assert [rf.lift_form(1 << j) for j in range(m - 1)] == [(1 << i, b & (i == p)) for i in others]
                assert [rf.ambient_point(y) for y in range(1 << (m - 1))] == list(parity_mod._split_frames(m, w)[b])


def test_trees_of_boolean_functions_build_no_coset(monkeypatch):
    # past the warm d_xor memos, a tree over the full space is built from
    # the recorded queries alone: no coset, restriction or solve
    fs = [parse_function_spec(s) for s in ("zoo:maj:7", "zoo:and:5", "anf:6:x1*x2+x3")]
    fs.append(BooleanFunction(6, random.Random(28).getrandbits(64)))
    for f in fs:
        d_xor(f)

    def refuse(self):
        raise AssertionError("a coset was built")

    monkeypatch.setattr(gf2.Coset, "__post_init__", refuse)
    for f in fs:
        d, tree = parity_depth(f)
        assert pdt_depth(tree) == d


# ---------------------------------------------------------------------------
# the dense tables at dimension <= 4 against the scalar searches
# ---------------------------------------------------------------------------

def _assert_dense_matches_reference(m, table):
    depth, query = parity_mod._dense_depth(m)
    d, w = reference_dxor(m, table)
    assert (int(depth[table]), int(query[table])) == (d, w or 0), (m, table)
    # bit x of mask k is set exactly when a coset of codimension <= k certifies x
    profile = reference_cxor_profile(m, table)
    masks = [sum(1 << x for x in range(1 << m) if profile[x] <= k) for k in range(m)]
    assert parity_mod._dense_cover(m)[:, table].tolist() == masks, (m, table)
    f = BooleanFunction(m, table)
    assert pdt_jsonable(parity_depth(f)[1]) == pdt_jsonable(reference_tree(m, table)), (m, table)
    assert d_xor(f) == d
    assert cxor_profile(f) == reference_cxor_profile(m, table)


def test_dense_tables_match_scalar_search_all_n3():
    for m in range(4):
        for t in range(1 << (1 << m)):
            _assert_dense_matches_reference(m, t)


def test_dense_tables_match_scalar_search_n4_seeded():
    rnd = random.Random(2026)
    tables = [0, 0xFFFF, 0x8000, 0x6996, 0xE8E8, 0x00FF] + rnd.sample(range(1 << 16), 2000)
    for t in tables:
        _assert_dense_matches_reference(4, t)


def test_dense_tables_are_read_only():
    for m in range(parity_mod.DENSE_MAX_DIM + 1):
        depth, query = parity_mod._dense_depth(m)
        cover = parity_mod._dense_cover(m)
        assert (depth.dtype, depth.shape) == (np.int8, (1 << (1 << m),))
        assert (query.dtype, query.shape) == (np.uint8, (1 << (1 << m),))
        assert (cover.dtype, cover.shape) == (np.uint16, (m, 1 << (1 << m)))
        for arr in (depth, query, cover):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 1
    assert parity_mod._dense_cover(4).nbytes == 1 << 19


def test_dense_lookups_are_read_fresh(monkeypatch):
    # no memo keeps a dense lookup: a planted depth table is followed while
    # it is in place, and forgotten once it is gone
    m = parity_mod.DENSE_MAX_DIM
    real = parity_mod._dense_depth
    depth, query = real(m)
    tables = [0x6996, 0xE8E8, 0x8000, 0x00FF, 0x0000]
    want = [parity_mod._dxor(m, t) for t in tables]
    bad = depth + 1
    monkeypatch.setattr(parity_mod, "_dense_depth", lambda k: (bad, query) if k == m else real(k))
    for t, (d, _) in zip(tables, want):
        assert parity_mod._dxor(m, t)[0] == d_xor(BooleanFunction(m, t)) == d + 1
    monkeypatch.undo()
    for t, (d, w) in zip(tables, want):
        assert parity_mod._dxor(m, t) == (d, w)
        assert d_xor(BooleanFunction(m, t)) == d


def test_depth_search_memo_holds_no_dense_key():
    # a table of dimension <= DENSE_MAX_DIM never reaches the search memo,
    # and a 5-bit search reads its halves from the dense table and keeps
    # only its own entry
    m = parity_mod.DENSE_MAX_DIM
    parity_mod._dxor_search.cache_clear()
    for t in (0x6996, 0xE8E8, 0x8000, 0x00FF):
        parity_mod._dxor(m, t)
        parity_depth(BooleanFunction(m, t))
    assert parity_mod._dxor_search.cache_info().currsize == 0
    d_xor(BooleanFunction(m + 1, random.Random(4).getrandbits(1 << (m + 1))))
    assert parity_mod._dxor_search.cache_info().currsize == 1


def test_dense_cover_build_stays_small():
    # the derivative arrays are built 2^14 tables at a time, so the build
    # peaks below 2 MB and keeps only its 512 KiB of masks
    parity_mod._dense_cover(4)
    tracemalloc.start()
    try:
        cover = parity_mod._dense_cover.__wrapped__(4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cover.nbytes == 1 << 19
    assert 1 << 19 <= held < (1 << 19) + 4096
    assert peak < 2_000_000


@pytest.mark.parametrize("m", range(5))
def test_code_marks_are_table_bits(m):
    # one unpacker reads every code: block bitmaps, cover masks and tables
    codes = np.arange(1 << (1 << m), dtype=np.uint16)
    marks = classical._code_marks(m, codes)
    assert marks.dtype == bool and marks.shape == (len(codes), 1 << m)
    assert all((marks[t] == _table_bits(m, t)).all() for t in range(len(codes)))


def test_code_marks_of_the_empty_cover_column():
    # the m = 0 cover has no masks: its column unpacks to no rows, and the
    # one input's profile is 0
    for t in (0, 1):
        column = parity_mod._dense_cover(0)[:, t]
        assert column.shape == (0,)
        assert classical._code_marks(0, column).shape == (0, 1)
        assert parity_mod._cxor_profile(0, t) == b"\x00"


def test_depth_above_dense_tables_matches_scalar_search():
    # from dimension 5 the search runs on; an affine table answers its
    # one depth-1 query before the scan, which would stop there too
    rnd = random.Random(5)
    cases = [(5, rnd.getrandbits(32)) for _ in range(12)]
    for spec in ("zoo:parity:5", "zoo:dictator:5", "zoo:and:5", "anf:5:x1*x2+x3",
                 "zoo:parity:6", "anf:6:x2+x5+1", "anf:6:x1*x2"):
        f = parse_function_spec(spec)
        cases.append((f.arity, f.table))
    for m, t in cases:
        assert parity_mod._dxor(m, t) == reference_dxor(m, t), (m, t)
        assert pdt_jsonable(parity_depth(BooleanFunction(m, t))[1]) == pdt_jsonable(reference_tree(m, t))


def test_affine_tables_skip_the_query_scan():
    # parity:8 is answered before any restriction is searched, so the
    # search memo gains its own key and no 7-dimensional one
    parity_mod._dxor_search.cache_clear()
    assert parity_depth(parse_function_spec("zoo:parity:8"))[0] == 1
    info = parity_mod._dxor_search.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    for m in range(5, 9):
        for spec in (f"zoo:parity:{m}", f"anf:{m}:x2+x5+1", f"anf:{m}:x1+x{m}", f"anf:{m}:x{m - 2}",
                     f"anf:{m}:x1*x2+x3"):
            f = parse_function_spec(spec)
            assert parity_mod._dxor(m, f.table) == reference_dxor(m, f.table), spec
            assert pdt_jsonable(parity_depth(f)[1]) == pdt_jsonable(reference_tree(m, f.table)), spec


def test_linear_part_matches_reference_parity_tables():
    full = (1 << 32) - 1
    for a in range(1, 32):
        pt = reference_parity_table(5, a)
        assert parity_mod._linear_part(5, pt) == parity_mod._linear_part(5, full ^ pt) == a
    for t in range(1 << 16):
        assert (parity_mod._linear_part(4, t) is not None) == (reference_affine_query(4, t) is not None
                                                            or t in (0, 0xFFFF))


# ---------------------------------------------------------------------------
# weak parity block sensitivity
# ---------------------------------------------------------------------------

def test_wbs_matches_oracle_n2():
    for t in range(16):
        f = BooleanFunction(2, t)
        for y in range(4):
            v, b = weak_parity_bs(f, Gf2Vector(2, y))
            assert v == oracle_wbs_point(f, y)
        assert wbs_xor(f) == max(oracle_wbs_point(f, y) for y in range(4))


def test_wbs_matches_oracle_n3_sample():
    for t in range(0, 256, 5):
        f = BooleanFunction(3, t)
        assert wbs_xor(f) == max(oracle_wbs_point(f, y) for y in range(8))


def test_wbs_witness_achieves_value():
    f = parse_function_spec("zoo:example31:3")
    x = Gf2Vector.from_string("011")
    v, b = weak_parity_bs(f, x)
    assert v == 1
    # replay the packing through the returned basis matrix columns
    cols = b.transpose().row_bits
    fy = f.evaluate(x)
    sens = []
    for smask in range(1, 8):
        delta = 0
        for i in range(3):
            if (smask >> i) & 1:
                delta ^= cols[i]
        if f.value_at(x.bits ^ delta) != fy:
            sens.append(smask)

    def rec(used):
        return max((1 + rec(used | s) for s in sens if not (s & used)), default=0)

    assert rec(0) == 1


def test_wbs_named_values():
    for m in (2, 3, 4):
        assert wbs_xor(parse_function_spec(f"zoo:and:{m}")) == m
    assert wbs_xor(parse_function_spec("zoo:parity:4")) == 1
    assert wbs_xor(parse_function_spec("zoo:example31:3")) == 1
    assert wbs_xor(BooleanFunction(4, 0)) == 0


def test_wbs_at_most_certificate_n3():
    for t in range(0, 256, 3):
        f = BooleanFunction(3, t)
        for y in range(8):
            assert (
                weak_parity_bs(f, Gf2Vector(3, y))[0]
                <= parity_certificate(f, Gf2Vector(3, y))[0]
            )


def test_sampled_wbs_is_upper_bound():
    f = BooleanFunction(4, 0x6A3C)
    for y in (0, 5, 11):
        exact = weak_parity_bs(f, Gf2Vector(4, y))[0]
        got, _ = sampled_weak_parity_bs(f, Gf2Vector(4, y), samples=8, seed=1)
        assert exact <= got
    g = BooleanFunction(5, 0x12345678)
    v, _ = sampled_weak_parity_bs(g, Gf2Vector(5, 0), samples=5, seed=1)
    assert 0 <= v <= 5


def test_wbs_budget():
    with pytest.raises(BudgetExceededError):
        wbs_xor(BooleanFunction(5, 0))
    with pytest.raises(BudgetExceededError):
        weak_parity_bs(BooleanFunction(5, 0), Gf2Vector(5, 0))
    with pytest.raises(BudgetExceededError):
        sampled_weak_parity_bs(BooleanFunction(6, 0), Gf2Vector(6, 0), 2, 0)


def test_wbs_refuses_dimension_beyond_bitmaps():
    # --max-exact-n can lift the exact cap, but 2^m-bit codes stop at m = 5
    with budget.extended(6):
        with pytest.raises(BudgetExceededError):
            wbs_xor(parse_function_spec("zoo:and:6"))
        with pytest.raises(BudgetExceededError):
            weak_parity_bs(parse_function_spec("zoo:and:6"), Gf2Vector(6, 0))


@pytest.mark.parametrize("n", [6, 7])
def test_constant_wbs_past_the_block_bitmaps(n):
    # a constant needs no bases, so it passes past the 5-dimensional
    # bitmaps, through the aggregate and through a scan of one or all points
    with budget.extended(7):
        for t in (0, (1 << (1 << n)) - 1):
            f = BooleanFunction(n, t)
            assert wbs_xor(f) == 0
            assert weak_parity_bs(f, None) == (0, Gf2Matrix.identity(n))
            assert weak_parity_bs(f, Gf2Vector(n, 5)) == (0, Gf2Matrix.identity(n))


@pytest.mark.parametrize("m", range(5))
def test_constant_wbs_witness_is_the_scan_witness(m):
    # the identity a constant answers with is the basis the scan returns
    for t in (0, (1 << (1 << m)) - 1):
        v, j = parity_mod._weak_scan(m, t, parity_mod._basis_weights(m))
        scanned = Gf2Matrix.from_bits(parity_mod._sorted_bases(m)[j].tolist(), m).transpose()
        assert weak_parity_bs(BooleanFunction(m, t), None) == (v, scanned) == (0, Gf2Matrix.identity(m))


def test_sampled_wbs_rejects_no_samples():
    f = BooleanFunction(4, 0x6A3C)
    for samples in (0, -1):
        with pytest.raises(DomainError):
            sampled_weak_parity_bs(f, Gf2Vector(4, 0), samples, 0)


@pytest.mark.parametrize(
    "wbs", [weak_parity_bs, lambda f, x: sampled_weak_parity_bs(f, x, 3, 0)], ids=["exact", "sampled"]
)
def test_wbs_checks_the_point_of_a_constant(wbs):
    # a constant answers without bases, but only at one of its inputs
    with pytest.raises(DimensionError, match="width mismatch"):
        wbs(BooleanFunction(3, 0), Gf2Vector(5, 1))
    g = restrict(BooleanFunction(3, 0xFF), Coset.full_space(3).with_constraint(Gf2Vector(3, 0b001), 0))
    with pytest.raises(DomainError, match="not in the domain coset"):
        wbs(g, Gf2Vector(3, 0b001))
    assert wbs(g, Gf2Vector(3, 0b010)) == (0, Gf2Matrix.identity(2))


@pytest.mark.parametrize("m", range(5))
def test_basis_weights_match_per_basis_spans(m):
    bases = reference_bases(m)
    want = np.zeros((1 << m, len(bases)))
    for j, (_, sums) in enumerate(bases):
        for s_idx in range(1, 1 << m):
            want[sums[s_idx], j] = 1 << s_idx
    got = parity_mod._basis_weights(m)
    assert not got.flags.writeable
    assert np.array_equal(got, want)


def test_packing_table_matches_scalar_dp():
    for m in range(4):
        table = classical._packing_table(m)
        assert table.dtype == "int8" and table.size == 1 << (1 << m)
        assert [int(v) for v in table] == [reference_max_packing(m, s) for s in range(1 << (1 << m))]
    table = classical._packing_table(4)
    assert table.nbytes == 1 << 16 and table.base is None
    for s in list(range(0, 1 << 16, 97)) + [(1 << 16) - 2, (1 << 16) - 1]:
        assert int(table[s]) == reference_max_packing(4, s)


def test_packing_dp_above_table_matches_scalar_dp():
    rnd = random.Random(17)
    codes = [rnd.getrandbits(32) & ~1 for _ in range(150)] + [0, (1 << 32) - 2, 1 << 31]
    got = classical._packing_dp(5, classical._code_marks(5, np.array(codes, dtype=np.intp)))
    assert got.shape == (32, len(codes))
    assert [int(v) for v in got[-1]] == [reference_max_packing(5, s) for s in codes]
    # every level: dp[mask] packs only the blocks inside mask
    for mask in (0, 1, 6, 0b10110, 0b11101):
        within = sum(1 << b for b in range(32) if b & mask == b)
        assert [int(v) for v in got[mask]] == [reference_max_packing(5, s & within) for s in codes]


def test_block_packings_above_table_run_one_point_at_a_time():
    # at dimension 5 each point's codes and DP levels go before the next
    # point's come: about 5.5 MB at any number of points, plus the 83,328
    # int8 results per point
    weights = parity_mod._basis_weights(5)
    tracemalloc.start()
    try:
        got = parity_mod._block_packings(5, 0x12345678, weights, slice(0, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (8, weights.shape[1]) and got.dtype == np.int8
    assert peak < 7_000_000 + got.nbytes
    one = parity_mod._block_packings(5, 0x12345678, weights, slice(5, 6))
    assert np.array_equal(one[0], got[5])


def test_packing_table_refuses_large_dimension_at_once():
    tracemalloc.start()
    try:
        for m in (5, 6):
            with pytest.raises(BudgetExceededError):
                parity_mod._packing_table(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _assert_wbs_matches_reference(f):
    m = f.arity
    for y in range(1 << m):
        v, b = weak_parity_bs(f, Gf2Vector(m, y))
        ref_v, ref_basis = reference_wbs_point(m, f.table, y)
        assert (v, b.transpose().row_bits) == (ref_v, ref_basis), (f.spec, y)
    assert wbs_xor(f) == reference_wbs_xor(m, f.table)


def test_wbs_witnesses_match_reference_all_n3():
    for n in (1, 2, 3):
        for t in range(1 << (1 << n)):
            _assert_wbs_matches_reference(BooleanFunction(n, t))


def test_wbs_witnesses_match_reference_n4_seeded():
    rnd = random.Random(2024)
    tables = [0, 0xFFFF, 0x8000, 0x6996, 0xE8E8] + [rnd.getrandbits(16) for _ in range(200)]
    for t in tables:
        _assert_wbs_matches_reference(BooleanFunction(4, t))


# ---------------------------------------------------------------------------
# parity block sensitivity
# ---------------------------------------------------------------------------

def test_pbs_witness_matches_reference_all_n3():
    for n in (1, 2, 3):
        for t in range(1 << (1 << n)):
            f = BooleanFunction(n, t)
            assert parity_bs(f) == reference_parity_bs(f), f.spec


def test_pbs_witness_matches_reference_n4_seeded():
    rnd = random.Random(2024)
    tables = [0, 0xFFFF, 0x8000, 0x6996, 0xE8E8] + [rnd.getrandbits(16) for _ in range(200)]
    for t in tables:
        f = BooleanFunction(4, t)
        assert parity_bs(f) == reference_parity_bs(f), f.spec


# n = 5 is the largest arity parity_bs builds the scan for (2,451 cosets)
@pytest.mark.parametrize("n", range(6))
def test_coset_scan_matches_subspace_construction(n):
    """Directions by decreasing dimension in _subspace_rows order,
    constraints their orthogonal complement, right-hand sides increasing."""
    ref = []
    for dim in range(n, -1, -1):
        for vrows in _subspace_rows(n, dim):
            wrows = _kernel_bits(vrows, n)
            for rhs in range(1 << len(wrows)):
                coset = Coset(n, Gf2Matrix.from_bits(wrows, n), Gf2Vector(len(wrows), rhs))
                ref.append((coset, dim, tuple(coset.member_bits())))
    groups = parity_mod._coset_scan(n)
    assert [dim for dim, _, _ in groups] == list(range(n, -1, -1))
    flat = [
        (coset, dim, tuple(pts))
        for dim, cosets, members in groups
        for coset, pts in zip(cosets, members.tolist(), strict=True)
    ]
    assert flat == ref
    assert ref[0][0] == Coset.full_space(n)
    for dim, cosets, members in groups:
        assert members.shape == (len(cosets), 1 << dim)


# parity_bs of every zoo function at n <= 4 and of seeded 4-bit tables,
# and sampled_parity_bs (40 samples) of random.Random(n).getrandbits(2^n)
# at seeds 0..2, recorded before the coset scans read their restricted
# tables in one gather per dimension
_FULL = {"constraints": [], "rhs": ""}
ZOO_PBS_PINS = {
    **{f"zoo:{name}:{n}": (n, _FULL) for name in ("and", "or") for n in range(1, 5)},
    **{f"zoo:{name}:{n}": (1, _FULL) for name in ("parity", "dictator") for n in range(1, 5)},
    "zoo:maj:1": (1, _FULL),
    "zoo:maj:3": (2, {"constraints": ["001"], "rhs": "0"}),
    "zoo:example31:3": (2, {"constraints": ["101"], "rhs": "0"}),
}
# the first eight tables of random.Random(44).getrandbits(16)
TABLE_PBS_PINS = {
    26773: (3, {"constraints": ["1111"], "rhs": "0"}),
    34080: (3, {"constraints": ["0001"], "rhs": "0"}),
    35518: (3, {"constraints": ["1000"], "rhs": "1"}),
    45980: (3, {"constraints": ["0101"], "rhs": "1"}),
    56494: (3, {"constraints": ["1001"], "rhs": "1"}),
    7645: (3, {"constraints": ["1100"], "rhs": "0"}),
    11577: (2, _FULL),
    24875: (3, {"constraints": ["1110"], "rhs": "1"}),
}
SAMPLED_PBS_PINS = {
    (5, 0): (2, {"constraints": ["00100", "00011"], "rhs": "00"}),
    (5, 1): (3, {"constraints": ["10001", "01011"], "rhs": "01"}),
    (5, 2): (2, {"constraints": ["01100"], "rhs": "1"}),
    (6, 0): (3, {"constraints": ["100110", "011000"], "rhs": "10"}),
    (6, 1): (3, {"constraints": ["101011", "011010", "000110"], "rhs": "001"}),
    (6, 2): (3, {"constraints": ["100000", "001000", "000010"], "rhs": "010"}),
    (7, 0): (3, {"constraints": ["1010001", "0110001", "0001001", "0000011"], "rhs": "1101"}),
    (7, 1): (3, {"constraints": ["1000100", "0100101", "0010001", "0001011"], "rhs": "1111"}),
    (7, 2): (2, {"constraints": ["1110110", "0001110", "0000001"], "rhs": "010"}),
}


def test_pbs_witnesses_pinned():
    assert {spec.split(":")[1] for spec in ZOO_PBS_PINS} == set(construct.ZOO_NAMES)
    rnd = random.Random(44)
    assert list(TABLE_PBS_PINS) == [rnd.getrandbits(16) for _ in range(8)]
    cases = [(spec, parse_function_spec(spec), pin) for spec, pin in ZOO_PBS_PINS.items()]
    cases += [(t, BooleanFunction(4, t), pin) for t, pin in TABLE_PBS_PINS.items()]
    for key, f, (value, coset) in cases:
        v, h = parity_bs(f)
        assert (v, h.to_jsonable()) == (value, coset), key


def test_sampled_pbs_witnesses_pinned():
    for (n, seed), (value, coset) in SAMPLED_PBS_PINS.items():
        f = BooleanFunction(n, random.Random(n).getrandbits(1 << n))
        v, h = sampled_parity_bs(f, 40, seed)
        assert (v, h.to_jsonable()) == (value, coset), (n, seed)


def test_pbs_matches_oracle_n2():
    for t in range(16):
        f = BooleanFunction(2, t)
        v, coset = parity_bs(f)
        assert v == oracle_pbs(f)
        assert wbs_xor(restrict(f, coset)) == v


def test_pbs_matches_oracle_n3_sample():
    for t in (1, 23, 86, 105, 150, 232, 254):
        f = BooleanFunction(3, t)
        v, coset = parity_bs(f)
        assert v == oracle_pbs(f)
        assert wbs_xor(restrict(f, coset)) == v


def test_pbs_named_values():
    for m in (2, 3, 4):
        assert parity_bs(parse_function_spec(f"zoo:and:{m}"))[0] == m
    assert parity_bs(parse_function_spec("zoo:parity:4"))[0] == 1
    assert parity_bs(parse_function_spec("zoo:example31:3"))[0] == 2
    assert parity_bs(BooleanFunction(3, 0))[0] == 0


def test_pbs_nonmonotone_example():
    # restricting can increase the weak measure; the strong one absorbs it
    f = parse_function_spec("zoo:example31:3")
    h = Coset.full_space(3).with_constraint(Gf2Vector(3, 0b001), 0)
    assert wbs_xor(f) == 1
    assert wbs_xor(restrict(f, h)) == 2
    assert parity_bs(f)[0] == 2


def test_sampled_pbs_bounds():
    rnd = random.Random(11)
    for _ in range(6):
        f = BooleanFunction(4, rnd.getrandbits(16))
        exact = parity_bs(f)[0]
        got, coset = sampled_parity_bs(f, samples=12, seed=5)
        assert got <= exact  # the sampled scan can only miss cosets
        assert wbs_xor(restrict(f, coset)) == got
    f5 = BooleanFunction(5, rnd.getrandbits(32))
    v, coset = sampled_parity_bs(f5, samples=10, seed=5)
    assert wbs_xor(restrict(f5, coset)) == v


def test_sampled_pbs_rejects_no_samples():
    for n in (4, 5):
        for samples in (0, -1):
            with pytest.raises(DomainError):
                sampled_parity_bs(BooleanFunction(n, 1), samples, 0)


def test_pbs_budget():
    with pytest.raises(BudgetExceededError):
        parity_bs(BooleanFunction(5, 0))
    with pytest.raises(BudgetExceededError):
        sampled_parity_bs(BooleanFunction(9, 0), 2, 0)


def _batched_matches_oracle(n, tables):
    bits = np.array([_table_bits(n, t) for t in tables], dtype=np.uint8)
    scan = parity_mod._coset_scan(n)
    values, witnesses = classical._best_over(bits, scan, parity_mod._wbs_aggregate, n)
    assert len(values) == len(witnesses) == len(tables)
    for t, v, h in zip(tables, values.tolist(), witnesses, strict=True):
        assert (v, h) == max_over_cosets(BooleanFunction(n, t), scan), (n, t)


@pytest.mark.parametrize("n", range(4))
def test_batched_coset_scan_matches_per_table_scan_all(n):
    _batched_matches_oracle(n, range(1 << (1 << n)))


def test_batched_coset_scan_matches_per_table_scan_n4_seeded():
    rnd = random.Random(19)
    _batched_matches_oracle(4, [rnd.getrandbits(16) for _ in range(2000)])


@pytest.mark.parametrize("n", range(1, 5))
def test_batched_coset_scan_matches_per_table_scan_zoo(n):
    _batched_matches_oracle(n, theorems._family_tables(theorems.parse_family(f"zoo:all:{n}")))


@pytest.mark.parametrize("n", [6, 7])
def test_pbs_refuses_block_bitmaps_before_building_the_scan(n):
    parity_mod._coset_scan.cache_clear()
    token = budget.current.set(budget.Budget(parity_bs=n))
    try:
        with pytest.raises(BudgetExceededError) as err:
            parity_bs(parse_function_spec(f"zoo:and:{n}"))
        assert str(err.value) == f"block bitmaps limited to dimension <= {parity_mod.BITMAP_MAX_DIM}, got {n}"
        assert parity_mod._coset_scan.cache_info().currsize == 0
        if n == 6:
            # a constant needs no bases, so it passes at any dimension
            assert parity_bs(BooleanFunction(6, 0)) == (0, Coset.full_space(6))
    finally:
        budget.current.reset(token)
        parity_mod._coset_scan.cache_clear()


@pytest.mark.parametrize("m", range(6))
def test_sorted_bases_match_oracle(m):
    # the increasing output of gf2._bases, against the recursion it replaced
    want = sorted_bases(m)
    assert len(want) == [1, 1, 3, 28, 840, 83328][m]
    got = parity_mod._sorted_bases(m)
    assert not got.flags.writeable
    assert got.dtype == np.uint8 and got.shape == (len(want), m)
    assert tuple(map(tuple, got.tolist())) == want


@pytest.mark.parametrize("n", [6, 7])
def test_constant_pbs_builds_no_scan(n):
    # every restriction of a constant is constant, so no coset is scanned
    parity_mod._coset_scan.cache_clear()
    with budget.extended(7):
        for t in (0, (1 << (1 << n)) - 1):
            v, h = parity_bs(BooleanFunction(n, t))
            assert (v, h) == (0, Coset.full_space(n))
            assert h.to_jsonable() == {"constraints": [], "rhs": ""}
    assert parity_mod._coset_scan.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------

def test_measure_value_jsonable():
    assert MeasureValue(3).to_jsonable() == {"value": 3, "exact": True}
    got = MeasureValue(2, exact=False, note="upper bound").to_jsonable()
    assert got == {"value": 2, "exact": False, "note": "upper bound"}
    k, cert = parity_certificate(parse_function_spec("zoo:or:2"), Gf2Vector(2, 0))
    wv = MeasureValue(k, witness=cert).to_jsonable()
    assert wv["witness"] == cert.to_jsonable()
