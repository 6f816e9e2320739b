import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import subcube_oracle
from basis_oracle import gl_rows
from packing_oracle import reference_block_sensitivity, reference_bs_scan

from paritydt import budget, classical, gf2, parity
from paritydt.boolfn import BooleanFunction, _table_bits, parse_function_spec, rotate
from paritydt.classical import (
    DecisionNode,
    bs,
    block_sensitivity,
    c,
    c0,
    c1,
    certificate_complexity,
    certificate_profile,
    decision_depth,
    maximizing_input,
    sampled_symmetrized,
    symmetrized,
    tree_depth,
    tree_eval,
    tree_jsonable,
)
from paritydt.errors import BudgetExceededError, DomainError
from paritydt.gf2 import Coset, Gf2Matrix, Gf2Vector, enumerate_gl, sample_gl


# ---------------------------------------------------------------------------
# reference implementations, deliberately naive
# ---------------------------------------------------------------------------

def oracle_depth(f):
    n = f.arity

    def rec(fixed):
        pts = [
            x
            for x in range(1 << n)
            if all(((x >> (j - 1)) & 1) == b for j, b in fixed.items())
        ]
        if len({f.value_at(x) for x in pts}) == 1:
            return 0
        return min(
            1 + max(rec({**fixed, j: 0}), rec({**fixed, j: 1}))
            for j in range(1, n + 1)
            if j not in fixed
        )

    return rec({})


def oracle_cert(f, xb):
    """The first pinned set (0-based, by size then lexicographically) that
    forces f's value at xb."""
    n = f.arity
    want = f.value_at(xb)
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            if all(
                f.value_at(y) == want
                for y in range(1 << n)
                if all(((y >> j) & 1) == ((xb >> j) & 1) for j in combo)
            ):
                return combo
    raise AssertionError


def oracle_bs(f, xb):
    n = f.arity
    fx = f.value_at(xb)
    flips = [b for b in range(1, 1 << n) if f.value_at(xb ^ b) != fx]

    def rec(used):
        return max(
            (1 + rec(used | b) for b in flips if not (b & used)),
            default=0,
        )

    return rec(0)


def brute_rotate(f, m):
    t = 0
    for x in range(1 << f.arity):
        t |= f.value_at(m.mul_vec(Gf2Vector(f.arity, x)).bits) << x
    return BooleanFunction(f.arity, t)


tables4 = st.integers(min_value=0, max_value=(1 << 16) - 1)


# ---------------------------------------------------------------------------
# depth
# ---------------------------------------------------------------------------

def test_depth_matches_oracle_all_n3():
    for t in range(256):
        f = BooleanFunction(3, t)
        d, tree = decision_depth(f)
        assert d == oracle_depth(f)
        assert tree_depth(tree) == d
        for x in range(8):
            assert tree_eval(tree, x) == f.value_at(x)


@settings(max_examples=60)
@given(tables4)
def test_depth_matches_oracle_n4(t):
    f = BooleanFunction(4, t)
    d, tree = decision_depth(f)
    assert d == oracle_depth(f)
    assert tree_depth(tree) == d
    for x in range(16):
        assert tree_eval(tree, x) == f.value_at(x)


def test_depth_named_functions():
    assert decision_depth(parse_function_spec("zoo:or:3"))[0] == 3
    assert decision_depth(parse_function_spec("zoo:and:4"))[0] == 4
    assert decision_depth(parse_function_spec("zoo:parity:5"))[0] == 5
    assert decision_depth(parse_function_spec("zoo:maj:3"))[0] == 3
    assert decision_depth(parse_function_spec("zoo:dictator:4"))[0] == 1
    assert decision_depth(BooleanFunction(3, 0))[0] == 0


def test_depth_tree_shape_is_deterministic():
    f = parse_function_spec("zoo:or:2")
    _, t1 = decision_depth(f)
    _, t2 = decision_depth(f)
    assert t1 == t2
    assert isinstance(t1, DecisionNode) and t1.var == 1  # ties break low
    assert tree_jsonable(t1) == {
        "var": 1,
        "0": {"var": 2, "0": {"leaf": 0}, "1": {"leaf": 1}},
        "1": {"leaf": 1},
    }


def test_depth_budget():
    with pytest.raises(BudgetExceededError):
        decision_depth(BooleanFunction(11, 0))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_matches_oracle_all_n3():
    for t in range(256):
        f = BooleanFunction(3, t)
        prof = []
        for x in range(8):
            k, cert = certificate_complexity(f, Gf2Vector(3, x))
            # the witness is the first pinned set, by size then lexicographically
            first = oracle_cert(f, x)
            assert k == len(first) == cert.size
            assert cert.indices == tuple(j + 1 for j in first)
            # the witness pins x's own values and forces f
            want = f.value_at(x)
            for j, v in zip(cert.indices, cert.values):
                assert ((x >> (j - 1)) & 1) == v
            fixed = [j - 1 for j in cert.indices]
            for y in range(8):
                if all(((y >> j) & 1) == ((x >> j) & 1) for j in fixed):
                    assert f.value_at(y) == want
            prof.append(k)
        # aggregate forms agree with the pointwise scan
        assert c(f) == max(prof)
        zeros = [prof[x] for x in range(8) if f.value_at(x) == 0]
        ones = [prof[x] for x in range(8) if f.value_at(x) == 1]
        assert c0(f) == (max(zeros) if zeros else None)
        assert c1(f) == (max(ones) if ones else None)


@settings(max_examples=60)
@given(tables4)
def test_certificate_aggregates_n4(t):
    f = BooleanFunction(4, t)
    prof = [certificate_complexity(f, Gf2Vector(4, x))[0] for x in range(16)]
    assert c(f) == max(prof)


def test_certificate_named_functions():
    or3 = parse_function_spec("zoo:or:3")
    assert (c0(or3), c1(or3), c(or3)) == (3, 1, 3)
    and3 = parse_function_spec("zoo:and:3")
    assert (c0(and3), c1(and3), c(and3)) == (1, 3, 3)
    maj3 = parse_function_spec("zoo:maj:3")
    assert (c0(maj3), c1(maj3), c(maj3)) == (2, 2, 2)
    zero = BooleanFunction(3, 0)
    assert (c0(zero), c1(zero), c(zero)) == (0, None, 0)


def test_certificate_budget():
    with pytest.raises(BudgetExceededError):
        certificate_complexity(BooleanFunction(13, 0), Gf2Vector(13, 0))
    with pytest.raises(BudgetExceededError):
        c(BooleanFunction(13, 0))
    with pytest.raises(BudgetExceededError):
        certificate_profile(BooleanFunction(13, 0))


def test_certificate_profile_and_maximizing_input():
    f = parse_function_spec("zoo:example31:3")
    prof = certificate_profile(f)
    assert list(prof) == [certificate_complexity(f, Gf2Vector(3, x))[0] for x in range(8)]
    # inputs 1 and 2 are the 1-inputs; ties go to the smallest input
    prof, table = bytes([1, 3, 2, 3]), 0b0110
    assert maximizing_input(prof, table) == 1
    assert maximizing_input(prof, table, 0) == 3
    assert maximizing_input(prof, table, 1) == 1
    assert maximizing_input(prof, 0, 1) is None


def _assert_matches_subcube_walks(f, inputs=None, depth=True):
    """The depth tree, the certificate witness at every input (or at
    ``inputs``) and, at every input, the certificate profile bytes, each
    against the walk over the subcube's points."""
    n = f.arity
    if depth:
        d, tree = decision_depth(f)
        ref_d, ref_tree = subcube_oracle.decision_depth(f)
        assert d == ref_d, f.spec
        assert tree_jsonable(tree) == tree_jsonable(ref_tree), f.spec
    points = range(1 << n) if inputs is None else inputs
    certs = [subcube_oracle.certificate_complexity(f, x) for x in points]
    for x, ref in zip(points, certs, strict=True):
        assert certificate_complexity(f, Gf2Vector(n, x)) == ref, (f.spec, x)
    if inputs is None:
        assert classical._certificate_profile(n, f.table) == bytes(k for k, _ in certs), f.spec


def _seeded_tables(n, seed):
    """A random, a sparse (AND of three draws) and a dense (OR of three
    draws) n-bit table."""
    rnd = random.Random(seed)
    draws = [rnd.getrandbits(1 << n) for _ in range(7)]
    return [draws[0], draws[1] & draws[2] & draws[3], draws[4] | draws[5] | draws[6]]


def test_subcube_walks_every_table_to_n3_and_seeded_n4():
    for n in range(4):
        for t in range(1 << (1 << n)):
            _assert_matches_subcube_walks(BooleanFunction(n, t))
    rnd = random.Random(25)
    for _ in range(400):
        _assert_matches_subcube_walks(BooleanFunction(4, rnd.getrandbits(16)))


@pytest.mark.parametrize("n", range(5, 9))
def test_subcube_walks_seeded_random_sparse_dense(n):
    for t in _seeded_tables(n, n):
        _assert_matches_subcube_walks(BooleanFunction(n, t))


@pytest.mark.parametrize(
    "spec",
    [f"zoo:{name}:{n}" for name in ("and", "or", "parity", "dictator") for n in (1, 5, 8)]
    + [f"zoo:maj:{n}" for n in (3, 5, 7, 9)],
)
def test_subcube_walks_zoo(spec):
    _assert_matches_subcube_walks(parse_function_spec(spec))


def test_subcube_walks_at_the_caps():
    for n in (9, 10):
        f = BooleanFunction(n, random.Random(n).getrandbits(1 << n))
        _assert_matches_subcube_walks(f, inputs=[])
    f = BooleanFunction(12, random.Random(12).getrandbits(1 << 12))
    _assert_matches_subcube_walks(f, inputs=[0, 1234, 4095], depth=False)


def test_decision_depth_memory_at_the_cap():
    # the levels are 2^n-bit sets, one per free mask and depth, so the
    # search (with its constant-subcube pass) peaks near 1.4 MB at n = 10
    f = BooleanFunction(10, random.Random(10).getrandbits(1 << 10))
    classical._constant_subcubes.cache_clear()
    tracemalloc.start()
    try:
        decision_depth(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# ---------------------------------------------------------------------------
# block sensitivity
# ---------------------------------------------------------------------------

def test_bs_matches_oracle_all_n3():
    for t in range(256):
        f = BooleanFunction(3, t)
        best = 0
        for x in range(8):
            v, fam = block_sensitivity(f, Gf2Vector(3, x))
            assert v == oracle_bs(f, x)
            assert len(fam.blocks) == v
            assert fam.anchor.bits == x
            seen = 0
            for blk in fam.blocks:
                m = 0
                for j in blk:
                    m |= 1 << (j - 1)
                assert not (m & seen)  # disjoint
                seen |= m
                assert f.value_at(x ^ m) != f.value_at(x)
            best = max(best, v)
        assert bs(f) == best


@settings(max_examples=60)
@given(tables4)
def test_bs_n4(t):
    f = BooleanFunction(4, t)
    assert bs(f) == max(oracle_bs(f, x) for x in range(16))


def test_bs_named_functions():
    assert bs(parse_function_spec("zoo:or:4")) == 4
    assert bs(parse_function_spec("zoo:and:4")) == 4
    assert bs(parse_function_spec("zoo:parity:4")) == 4
    assert bs(parse_function_spec("zoo:maj:3")) == 2
    assert bs(BooleanFunction(4, 0)) == 0


def test_bs_budget():
    with pytest.raises(BudgetExceededError):
        bs(BooleanFunction(9, 0))
    with pytest.raises(BudgetExceededError):
        block_sensitivity(BooleanFunction(9, 0), Gf2Vector(9, 0))


def _assert_bs_matches_scalar_dp(f, inputs):
    """Value and BlockFamily at each input, and bs with its first
    maximizing input, as the scalar DP gives them."""
    for xb in inputs:
        x = Gf2Vector(f.arity, xb)
        assert block_sensitivity(f, x) == reference_block_sensitivity(f, x), (f.spec, xb)
    value, first = reference_bs_scan(f)
    assert bs(f) == value
    assert block_sensitivity(f, None) == reference_block_sensitivity(f, Gf2Vector(f.arity, first))


def test_bs_witnesses_match_scalar_dp_all_n_le_3():
    for n in range(4):
        for t in range(1 << (1 << n)):
            _assert_bs_matches_scalar_dp(BooleanFunction(n, t), range(1 << n))


def test_bs_witnesses_match_scalar_dp_seeded():
    rnd = random.Random(12)
    for n in range(4, 9):
        for k in range(6):
            t = rnd.getrandbits(1 << n)
            if k % 2:  # sparse: about one input in eight is a 1
                t &= rnd.getrandbits(1 << n) & rnd.getrandbits(1 << n)
            inputs = range(1 << n) if n <= 5 else rnd.sample(range(1 << n), 4)
            _assert_bs_matches_scalar_dp(BooleanFunction(n, t), inputs)


def test_bs_witnesses_match_scalar_dp_zoo():
    specs = [f"zoo:{name}:{n}" for name in ("and", "or", "parity") for n in range(1, 9)]
    for spec in specs + [f"zoo:maj:{n}" for n in (1, 3, 5, 7)]:
        f = parse_function_spec(spec)
        n = f.arity
        _assert_bs_matches_scalar_dp(f, range(1 << n) if n <= 6 else (0, 1, (1 << n) - 1))


def test_bs_reads_the_scan_packing_at_its_input(monkeypatch):
    # past the dense table, the scan's DP at the chosen input gives the
    # witness: one packing DP a call, not a second one at that input
    calls = []
    real = classical._packing_dp
    monkeypatch.setattr(classical, "_packing_dp", lambda m, marks: calls.append(marks.shape) or real(m, marks))
    rnd = random.Random(21)
    for n in (5, 6):
        f = BooleanFunction(n, rnd.getrandbits(1 << n))
        calls.clear()
        got = block_sensitivity(f, None)
        assert calls == [(1 << n, 1 << n)]
        assert got == reference_block_sensitivity(f, Gf2Vector(n, reference_bs_scan(f)[1]))


def test_bs_at_most_c_all_n3():
    for t in range(256):
        f = BooleanFunction(3, t)
        b, cv = bs(f), c(f)
        assert b <= cv <= b * b or (b == cv == 0)


# ---------------------------------------------------------------------------
# minima over invertible basis changes
# ---------------------------------------------------------------------------

def test_symmetrized_matches_brute_n2():
    gl2 = list(enumerate_gl(2))
    oracles = {"d": oracle_depth, "c": lambda g: max(len(oracle_cert(g, x)) for x in range(4)),
               "bs": lambda g: max(oracle_bs(g, x) for x in range(4))}
    for t in range(16):
        f = BooleanFunction(2, t)
        for name, orc in oracles.items():
            want = min(orc(brute_rotate(f, b)) for b in gl2)
            got, wit = symmetrized(name, f)
            assert got == want
            assert orc(brute_rotate(f, wit)) == got  # witness achieves it


def test_symmetrized_named_functions():
    # parity becomes a dictator under a basis change; AND stays hard
    par4 = parse_function_spec("zoo:parity:4")
    assert symmetrized("d", par4)[0] == 1
    assert symmetrized("c", par4)[0] == 1
    assert symmetrized("bs", par4)[0] == 1
    and3 = parse_function_spec("zoo:and:3")
    assert symmetrized("d", and3)[0] == 3
    assert symmetrized("c", and3)[0] == 3
    assert symmetrized("bs", and3)[0] == 3


def test_symmetrized_validation():
    with pytest.raises(DomainError):
        symmetrized("depth", BooleanFunction(2, 6))
    with pytest.raises(BudgetExceededError):
        symmetrized("d", BooleanFunction(5, 0))


def test_sampled_symmetrized_bounds():
    # includes the identity, so never worse than the plain measure,
    # and never better than the exhaustive minimum
    for t in range(0, 256, 7):
        f = BooleanFunction(3, t)
        exact = symmetrized("bs", f)[0]
        got, wit = sampled_symmetrized("bs", f, samples=10, seed=3)
        assert exact <= got <= bs(f)
        assert bs(brute_rotate(f, wit)) == got
    again = sampled_symmetrized("bs", BooleanFunction(3, 150), samples=10, seed=3)
    assert sampled_symmetrized("bs", BooleanFunction(3, 150), samples=10, seed=3) == again


def test_sampled_symmetrized_rejects_no_samples():
    for samples in (0, -1):
        with pytest.raises(DomainError):
            sampled_symmetrized("bs", BooleanFunction(3, 150), samples, 0)


def test_sampled_symmetrized_refuses_before_the_gather(monkeypatch):
    def no_gather(*args):
        raise AssertionError("rotations gathered before the cap check")

    for name in ("_images", "_distinct_tables"):
        monkeypatch.setattr(classical, name, no_gather)
    b = budget.current.get()
    for name, measure, n in (
        ("d", decision_depth, b.decision_depth + 1),
        ("c", c, b.certificate + 1),
        ("bs", bs, b.block_sensitivity + 1),
    ):
        f = BooleanFunction(n, 0)
        with pytest.raises(BudgetExceededError) as direct:
            measure(f)
        with pytest.raises(BudgetExceededError) as sampled:
            sampled_symmetrized(name, f, 1, 0)
        assert str(sampled.value) == str(direct.value)
    with pytest.raises(DomainError, match="unknown measure"):
        sampled_symmetrized("depth", BooleanFunction(3, 150), 1, 0)


# ---------------------------------------------------------------------------
# the per-matrix scan that the chunked gather replaced
# ---------------------------------------------------------------------------

def reference_min_over(f, mats, memo):
    """For each of d, c and bs: rotate f by each B in turn and keep the
    first B with the strictly least measure; ``memo`` caches the measures
    by table."""
    best = {}
    for b in mats:
        g = rotate(f, b)
        for m in ("d", "c", "bs"):
            key = (m, g.arity, g.table)
            if key not in memo:
                memo[key] = classical._MEASURES[m][0](g)
            if m not in best or memo[key] < best[m][0]:
                best[m] = (memo[key], b.row_bits)
    return best


def _assert_symmetrized_matches_reference(fns, memo):
    for f in fns:
        want = reference_min_over(f, list(enumerate_gl(f.arity)), memo)
        for m in ("d", "c", "bs"):
            v, b = symmetrized(m, f)
            assert (v, b.row_bits) == want[m], (f.spec, m)


def test_symmetrized_matches_reference_scan_n_le_3():
    memo = {}
    for n in (1, 2, 3):
        _assert_symmetrized_matches_reference([BooleanFunction(n, t) for t in range(1 << (1 << n))], memo)


def test_symmetrized_matches_reference_scan_n4():
    zoo = [parse_function_spec(f"zoo:{name}:4") for name in ("and", "or", "parity", "dictator")]
    rnd = random.Random(9)
    seeded = [BooleanFunction(4, rnd.getrandbits(16)) for _ in range(3)]
    _assert_symmetrized_matches_reference(zoo + seeded, {})


@pytest.mark.parametrize("n,seed", [(6, 1), (7, 2)])
def test_sampled_symmetrized_matches_reference_scan(n, seed):
    rnd = random.Random(seed)
    fns = [parse_function_spec(f"zoo:and:{n}"), BooleanFunction(n, rnd.getrandbits(1 << n))]
    mats = [Gf2Matrix.identity(n)] + sample_gl(n, 12, seed)
    memo = {}
    for f in fns:
        want = reference_min_over(f, mats, memo)
        for m in ("d", "c", "bs"):
            v, b = sampled_symmetrized(m, f, 12, seed)
            assert (v, b.row_bits) == want[m], (f.spec, m)


def test_symmetrized_first_minimiser_wins_across_chunks(monkeypatch):
    # GL(4)'s 840 column classes in chunks of 100; the reference takes the
    # first minimiser over all 20,160 matrices at once
    monkeypatch.setattr(gf2, "_CHUNK_ENTRIES", 100 << 4)
    assert [len(rows) for rows in gf2._row_chunks(gf2._gl_classes(4), 4)] == [100] * 8 + [40]
    classes = [tuple(r) for r in gf2._gl_classes(4).tolist()]
    mats = list(gl_rows(4))
    img = gf2._images(np.array(mats, dtype=np.uint8), 4)
    memo = {}
    rnd = random.Random(5)
    late = 0
    for _ in range(8):
        f = BooleanFunction(4, rnd.getrandbits(16))
        tables = (_table_bits(4, f.table)[img].astype(np.int64) << np.arange(16)).sum(axis=1).tolist()
        for m in ("d", "c", "bs"):
            for t in set(tables):
                if (m, t) not in memo:
                    memo[m, t] = classical._MEASURES[m][0](BooleanFunction(4, t))
            vals = [memo[m, t] for t in tables]
            k = int(np.argmin(vals))
            v, b = symmetrized(m, f)
            assert (v, b.row_bits) == (vals[k], mats[k]), (f.table, m)
            late += classes.index(mats[k]) >= 100
    assert late  # some first minimisers lie past the first chunk
    # 7 matrices a chunk: the identity plus 30 samples at n = 6 spans 5
    monkeypatch.setattr(gf2, "_CHUNK_ENTRIES", 7 << 6)
    f = BooleanFunction(6, random.Random(4).getrandbits(64))
    want = reference_min_over(f, [Gf2Matrix.identity(6)] + sample_gl(6, 30, 5), {})
    for m in ("d", "c", "bs"):
        v, b = sampled_symmetrized(m, f, 30, 5)
        assert (v, b.row_bits) == want[m], m


def test_symmetrized_refusals_unchanged():
    f5 = BooleanFunction(5, 0x1234)
    with pytest.raises(BudgetExceededError, match="use sampled_symmetrized"):
        symmetrized("d", f5)
    # past the symmetrized cap, the GL enumeration cap still refuses,
    # before it builds anything
    with budget.extended(6):
        for m in ("d", "c", "bs"):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceededError, match="n <= 5, got 6"):
                    symmetrized(m, BooleanFunction(6, 0x1234))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


def reference_distinct_tables(bits, idx):
    """The row dedupe _distinct_tables replaced: np.unique along axis 0."""
    packed = np.packbits(bits[idx], axis=1, bitorder="little")
    distinct, inverse = np.unique(packed, axis=0, return_inverse=True)
    return [int.from_bytes(t.tobytes(), "little") for t in distinct], inverse.reshape(-1)


# points per row: 1 to 4096, packed into 1, 2, 4, 8 and 512 bytes (the
# last is a 12-bit table, as sampled_symmetrized gathers at n = 12)
@pytest.mark.parametrize("points", [1, 2, 4, 8, 16, 32, 64, 4096])
def test_distinct_tables_match_axis_unique(points):
    rnd = np.random.default_rng(points)
    n = max(points.bit_length() - 1, 1)
    for rows in (1, 2, 50, 300):
        bits = rnd.integers(0, 2, 1 << n, dtype=np.uint8)
        idx = rnd.integers(0, 1 << n, (rows, points))
        # repeat some rows, so the dedupe has work to do
        idx[rows // 2:] = idx[: rows - rows // 2]
        tables, inverse = classical._distinct_tables(bits, idx)
        want_tables, want_inverse = reference_distinct_tables(bits, idx)
        assert tables == want_tables and all(type(t) is int for t in tables)
        assert inverse.shape == (rows,) and (inverse == want_inverse).all()
        # each table is the packed gather of its row
        for i in range(rows):
            assert tables[inverse[i]] == sum(int(bits[p]) << j for j, p in enumerate(idx[i]))
    # a single row, and rows that are all equal
    bits = np.ones(1 << n, dtype=np.uint8)
    for idx in (np.zeros((1, points), dtype=np.intp), np.zeros((5, points), dtype=np.intp)):
        tables, inverse = classical._distinct_tables(bits, idx)
        assert tables == [(1 << points) - 1] and inverse.tolist() == [0] * len(idx)


# ---------------------------------------------------------------------------
# the one first-extremum scan, _best_over
# ---------------------------------------------------------------------------

def test_best_over_keeps_the_first_label_on_ties():
    # the measure is the weight of the table read
    bits = np.array([[0, 1, 1, 0], [1, 1, 0, 0]], dtype=np.uint8)
    groups = [
        (1, "ab", np.array([[0, 1], [2, 3]])),
        (1, "cd", np.array([[1, 2], [0, 3]])),
        (2, "e", np.array([[0, 1, 2, 3]])),
    ]
    # row 0 weighs 1, 1 | 2, 0 | 2 and row 1 weighs 2, 0 | 1, 1 | 2: a tie
    # within a group and a tie across groups both keep the earlier label
    best, labels = classical._best_over(bits, groups, lambda dim, ts: [t.bit_count() for t in ts], 99)
    assert best.tolist() == [2, 2] and labels == ["c", "a"]
    # the least weight, by the negated measure: row 0 reaches 0 at d and
    # row 1 at b, so the last group is never read
    best, labels = classical._best_over(bits, _guarded(groups, 2), lambda dim, ts: [-t.bit_count() for t in ts], 0)
    assert best.tolist() == [0, 0] and labels == ["d", "b"]


def _rotated_tables(f, rows):
    """The table of x -> f(Bx) for each matrix B with the given rows."""
    img = gf2._images(np.array(rows, dtype=np.uint8), f.arity)
    return (_table_bits(f.arity, f.table)[img].astype(np.int64) << np.arange(1 << f.arity)).sum(axis=1).tolist()


def test_best_over_measures_each_distinct_table_once(monkeypatch):
    f = BooleanFunction(4, random.Random(7).getrandbits(16))
    tables = _rotated_tables(f, gf2._gl_classes(4))
    # the class tables are among GL(4)'s, and the same tables recur in
    # several chunks of 100 classes
    assert set(tables) <= set(_rotated_tables(f, list(gl_rows(4))))
    monkeypatch.setattr(gf2, "_CHUNK_ENTRIES", 100 << 4)
    per_chunk = [set(tables[lo:lo + 100]) for lo in range(0, len(tables), 100)]
    assert sum(map(len, per_chunk)) > len(set(tables))
    calls = []
    _, cap, what = classical._MEASURES["c"]
    monkeypatch.setitem(classical._MEASURES, "c", (lambda g: calls.append(g.table) or c(g), cap, what))
    v, b = symmetrized("c", f)
    assert sorted(calls) == sorted(set(tables))
    assert v == min(c(BooleanFunction(4, t)) for t in set(tables)) > 0


def _guarded(groups, k):
    """The first k groups, then an error if the scan reads another."""
    it = iter(groups)
    yield from itertools.islice(it, k)
    raise AssertionError("a group was read after every table reached top")


def test_best_over_stops_once_every_table_reaches_top(monkeypatch):
    # every rotation of a constant measures 0, so the first chunk of
    # GL(5)'s column classes is the only one read
    row_chunks = classical._row_chunks
    monkeypatch.setattr(classical, "_row_chunks", lambda rows, n: _guarded(row_chunks(rows, n), 1))
    with budget.extended(5):
        for t in (0, (1 << 32) - 1):
            for m in ("d", "c", "bs"):
                assert symmetrized(m, BooleanFunction(5, t)) == (0, Gf2Matrix.identity(5))
    # AND has wbs_xor n on the full space, the first coset of the scan
    coset_scan = parity._coset_scan
    monkeypatch.setattr(parity, "_coset_scan", lambda n: _guarded(coset_scan(n), 1))
    for n in range(1, 5):
        assert parity.parity_bs(parse_function_spec(f"zoo:and:{n}")) == (n, Coset.full_space(n))
    bits = np.array([_table_bits(4, t) for t in (0x8000, 0x0001, 0x7FFF)], dtype=np.uint8)
    best, labels = classical._best_over(bits, _guarded(coset_scan(4), 1), parity._wbs_aggregate, 4)
    assert best.tolist() == [4] * 3 and labels == [Coset.full_space(4)] * 3
