"""The array screens of the theorem sweeps: the dense measures they read,
and sweeps that give the same results with and without them; and the
first violation the coset scans of ``monotone`` and ``lemma-exp`` report."""

import dataclasses
import json
import random

import numpy as np
import pytest
from coset_oracle import max_over_cosets

from paritydt import budget, classical, construct, gf2, parity, theorems
from paritydt.boolfn import BooleanFunction, _table_bits
from paritydt.budget import Budget
from paritydt.errors import BudgetExceededError


@pytest.mark.parametrize("m", range(parity.DENSE_MAX_DIM + 1))
def test_dense_measures_match_scalar_measures(m):
    # every table up to m = 3, and 2,000 seeded tables with a few
    # structured ones at m = 4
    if m < 4:
        tables = np.arange(1 << (1 << m), dtype=np.uint16)
    else:
        rnd = np.random.default_rng(23).integers(0, 1 << 16, 2000)
        tables = np.concatenate([[0x8000, 0x6996, 0xE8E8, 0x00FF], rnd]).astype(np.uint16)
    d, c0, c1, c = parity._dense_measures(m, tables)
    for i, t in enumerate(tables.tolist()):
        assert d[i] == parity.d_xor(BooleanFunction(m, t)), t
        # the certificate scan, which reads no dense table; no 0-input
        # (1-input) reads 0 in the array
        profile = parity._cxor_scan(m, t)[0]
        zeros = [profile[x] for x in range(1 << m) if not (t >> x) & 1]
        ones = [profile[x] for x in range(1 << m) if (t >> x) & 1]
        assert (c0[i], c1[i], c[i]) == (max(zeros, default=0), max(ones, default=0), max(profile)), t


@pytest.mark.parametrize("theorem,family", [
    *((th, fam) for th in ("thm1", "prop-cd")
      for fam in ("exhaustive:3", "exhaustive:4", "random:4:1000:42", "zoo:all:4")),
    # thm2's scalar sweep of exhaustive:4 takes minutes; the orbit tests
    # below stand for it
    *(("thm2", fam) for fam in ("exhaustive:3", "random:4:1000:42", "zoo:all:4")),
])
def test_screened_sweep_matches_scalar_sweep(monkeypatch, theorem, family):
    screened = theorems.run_verification_suite(family, [theorem])[0]
    monkeypatch.setitem(theorems.THEOREMS, theorem, dataclasses.replace(theorems.THEOREMS[theorem], screen=None))
    scalar = theorems.run_verification_suite(family, [theorem])[0]
    assert (screened.instances, screened.violations) == (scalar.instances, scalar.violations)


@pytest.mark.parametrize(
    "theorem,cap,message",
    [("thm1", "parity_depth", "parity_depth limited to ambient arity <= 3, got 4"),
     ("prop-cd", "parity_certificate", "parity certificate aggregates limited to ambient arity <= 3, got 4")],
)
def test_screen_refuses_past_lowered_budget(theorem, cap, message):
    # the screen refuses where the scalar check's first measure would
    token = budget.current.set(Budget(**{cap: 3}))
    try:
        with pytest.raises(BudgetExceededError) as err:
            theorems.run_verification_suite("exhaustive:4", [theorem])
    finally:
        budget.current.reset(token)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "cap,message",
    [("parity_bs", "parity_bs exact search limited to arity <= 3, got 4; use sampled_parity_bs"),
     ("parity_certificate", "parity certificate aggregates limited to ambient arity <= 3, got 4")],
)
@pytest.mark.parametrize("screened", [True, False])
def test_thm2_screen_refuses_like_the_predicate(monkeypatch, cap, message, screened):
    # bs+ is measured first, so its cap refuses first
    if not screened:
        monkeypatch.setitem(theorems.THEOREMS, "thm2", dataclasses.replace(theorems.THEOREMS["thm2"], screen=None))
    token = budget.current.set(Budget(**{cap: 3}))
    try:
        with pytest.raises(BudgetExceededError) as err:
            theorems.run_verification_suite("random:4:10:1", ["thm2"])
    finally:
        budget.current.reset(token)
    assert str(err.value) == message


def test_thm2_sweep_builds_no_depth_table():
    parity._dense_depth.cache_clear()
    r = theorems.run_verification_suite("random:4:1000:42", ["thm2"])[0]
    assert (r.instances, r.violations) == (1000, [])
    assert parity._dense_depth.cache_info().currsize == 0


def test_thm2_sweeps_every_4bit_table():
    r = theorems.run_verification_suite("exhaustive:4", ["thm2"])[0]
    assert (r.instances, r.violations) == (65536, [])


def test_thm2_exhaustive_sweep_measures_each_orbit_once(monkeypatch):
    # AGL(4,2) has 32 orbits, spread over the sweep's 16 chunks; each orbit
    # key's (bs+, C+) is carried to the later chunks of the same sweep, and
    # a second sweep measures them again
    cxor_stack, wbs_aggregate = parity._cxor_stack, parity._wbs_aggregate
    for _ in range(2):
        stacked, full_space = [], []
        monkeypatch.setattr(parity, "_cxor_stack", lambda m, ts: stacked.extend(ts) or cxor_stack(m, ts))
        monkeypatch.setattr(parity, "_wbs_aggregate",
                            lambda m, ts: (m == 4 and full_space.extend(ts)) or wbs_aggregate(m, ts))
        r = theorems.run_verification_suite("exhaustive:4", ["thm2"])[0]
        assert (r.instances, r.violations) == (65536, [])
        assert len(stacked) == len(set(stacked)) == 32
        # the last chunk's only new orbit is the constant 1's, which needs
        # no coset scan
        assert sorted(full_space + [0xFFFF]) == sorted(stacked)


def test_thm2_screen_flags_past_both_bounds_planted(monkeypatch):
    # C+ = bs+^2 holds and bs+^2 + 1 does not; C+ = bs+ holds and bs+ - 1 does not
    b, cv = np.array([2, 2, 1, 3, 3]), np.array([4, 5, 1, 3, 2])
    monkeypatch.setattr(theorems, "_orbit_measures", lambda n, tables, known: (b, cv))
    assert theorems._thm2_screen(4, np.arange(5, dtype=np.uint16), {}).tolist() == [False, True, False, False, True]


# ---------------------------------------------------------------------------
# the orbit key: the screen of thm2 measures one table per orbit of the
# invertible affine maps x -> Ax + c, so the key must name the orbits
# ---------------------------------------------------------------------------

def _agl_orbits(n):
    """The least table of every n-bit table's orbit, by label propagation
    over the transvections x_i += x_j and one translation, which generate
    the invertible affine maps."""
    xs = np.arange(1 << n)
    maps = [xs ^ (((xs >> j) & 1) << i) for i in range(n) for j in range(n) if i != j] + [xs ^ 1] * (n > 0)
    bits = classical._code_marks(n, np.arange(1 << (1 << n), dtype=np.uint16)).astype(np.int64)
    # the table of x -> f(g(x)), for every table f and generator g
    images = [(bits[:, g] << xs).sum(axis=1) for g in maps]
    label = np.arange(len(bits))
    while True:
        new = label
        for img in images:
            new = np.minimum(new, new[img])
        if (new == label).all():
            return label
        label = new


def _key_groups(n, tables):
    key = theorems._orbit_key(classical._code_marks(n, tables))
    return np.unique(key.view(np.dtype((np.void, key.shape[1]))).ravel(), return_inverse=True)[1]


@pytest.mark.parametrize("n,orbits", [(0, 2), (1, 3), (2, 5), (3, 10), (4, 32)])
def test_orbit_key_names_the_affine_orbits(n, orbits):
    label = _agl_orbits(n)
    group = _key_groups(n, np.arange(1 << (1 << n), dtype=np.uint16))
    # equal keys exactly where the orbit is the same
    pairs = set(zip(label.tolist(), group.tolist()))
    assert len(set(label.tolist())) == len(set(group.tolist())) == len(pairs) == orbits


def test_dense_cover_is_constant_on_each_key_group():
    # the cover masks built directly for every table, not from the
    # orbits: an affine map permutes the inputs and the cosets, so the
    # number of inputs each mask covers is an orbit invariant
    group = _key_groups(4, np.arange(1 << 16, dtype=np.uint16)).tolist()
    covered = [classical._code_marks(4, mask).sum(axis=1).tolist() for mask in parity._dense_cover(4)]
    assert len(set(zip(group, *covered))) == len(set(group)) == 32


def test_dense_depth_is_constant_on_each_key_group():
    group = _key_groups(4, np.arange(1 << 16, dtype=np.uint16)).tolist()
    depth = parity._dense_depth(4)[0].tolist()
    assert len(set(zip(group, depth))) == len(set(group)) == 32


@pytest.mark.parametrize("n", range(5))
def test_orbit_measures_match_direct_kernels(n):
    # every table up to n = 3, and 4096 seeded tables at n = 4, of which
    # a seeded 256 go through the per-table coset scan
    if n < 4:
        tables = np.arange(1 << (1 << n), dtype=np.uint16)
        checked = range(len(tables))
    else:
        rng = np.random.default_rng(22)
        tables = rng.integers(0, 1 << 16, 4096).astype(np.uint16)
        checked = rng.choice(len(tables), 256, replace=False).tolist()
    b, cv = theorems._orbit_measures(n, tables, {})
    scan = parity._coset_scan(n)
    for i in checked:
        assert b[i] == max_over_cosets(BooleanFunction(n, int(tables[i])), scan)[0], (n, int(tables[i]))
    assert (cv == parity._dense_measures(n, tables)[3]).all()


def test_thm1_screen_refuses_no_constant_family():
    # thm1 measures no constant table, so a family of constants passes
    # under any depth budget, screened or not (the seed draws 3, 3, 0, 0)
    token = budget.current.set(Budget(parity_depth=0))
    try:
        r = theorems.run_verification_suite("random:1:4:22", ["thm1"])[0]
    finally:
        budget.current.reset(token)
    assert (r.instances, r.violations) == (4, [])


def test_fixed_instance_theorem_builds_no_family(monkeypatch):
    def refuse(fam):
        raise AssertionError("family built for a fixed-instance theorem")

    monkeypatch.setattr(theorems, "_family_tables", refuse)
    (r,) = theorems.run_verification_suite("random:24:100:1", ["example-nonmonotone"])
    assert (r.instances, r.violations) == (1, [])
    # zoo:all:0 has no zoo functions to build, and none is needed
    (r,) = theorems.run_verification_suite("zoo:all:0", ["example-nonmonotone"])
    assert (r.instances, r.violations) == (1, [])
    # a theorem that sweeps the family builds it once, for all of them
    built = []
    monkeypatch.setattr(theorems, "_family_tables", lambda fam: built.append(fam) or [0b0110, 0b1000])
    got = theorems.run_verification_suite("random:2:2:0", ["example-nonmonotone", "eq1", "eq2"])
    assert [r.instances for r in got] == [1, 2, 2]
    assert built == [theorems.parse_family("random:2:2:0")]


# ---------------------------------------------------------------------------
# first violations of the coset scans, planted; the records were taken
# before the scans read their restricted tables in one gather per dimension
# ---------------------------------------------------------------------------

def _coset(dim, i):
    """The i-th coset of dimension dim of {0,1}^4, in scan order."""
    (cosets,) = [cosets for d, cosets, _ in parity._coset_scan(4) if d == dim]
    return cosets[i]


def test_monotone_first_violation_planted(monkeypatch):
    # C+ reads 99 on the restricted table 0b0101 of dimension 2, which
    # this f first meets on the third coset of that dimension
    real = parity.c_xor

    def c_xor(g):
        local = getattr(g, "local", g)
        return 99 if (local.arity, local.table) == (2, 0b0101) else real(g)

    monkeypatch.setattr(parity, "c_xor", c_xor)
    got = theorems.THEOREMS["monotone"].check(BooleanFunction(4, 34208), 0)
    want = {"function": "tt:4:0000010110100001", "coset": {"constraints": ["0010", "0001"], "rhs": "01"},
            "cxor": 3, "cxor_restricted": 99, "bsxor": 3, "bsxor_restricted": 1}
    assert json.dumps(got) == json.dumps(want)
    assert got["coset"] == _coset(2, 2).to_jsonable()


def test_monotone_bsxor_alone_fires_planted(monkeypatch):
    # bs+ reads 0 on the 4-bit parity, so the first coset of dimension 3
    # raises bs+ to 1 while C+ stays at 1
    monkeypatch.setattr(parity, "parity_bs", lambda f: (0, None))
    got = theorems.THEOREMS["monotone"].check(construct.zoo("parity", 4), 0)
    want = {"function": "tt:4:0110100110010110", "coset": _coset(3, 0).to_jsonable(),
            "cxor": 1, "cxor_restricted": 1, "bsxor": 0, "bsxor_restricted": 1}
    assert json.dumps(got) == json.dumps(want)


def test_monotone_reports_restricted_bsxor_planted(monkeypatch):
    # C+ reads 99 on example31's table, whose bs+ 2 exceeds its wbs+ 1;
    # f is example31 with a dummy x4, so the first coset of dimension 3
    # restricts to it
    real = parity.c_xor

    def c_xor(g):
        local = getattr(g, "local", g)
        return 99 if (local.arity, local.table) == (3, 86) else real(g)

    monkeypatch.setattr(parity, "c_xor", c_xor)
    assert construct.zoo("example31", 3).table == 86
    assert (parity.parity_bs(BooleanFunction(3, 86))[0], parity.wbs_xor(BooleanFunction(3, 86))) == (2, 1)
    got = theorems.THEOREMS["monotone"].check(BooleanFunction(4, 86 | 86 << 8), 0)
    want = {"function": "tt:4:0110101001101010", "coset": {"constraints": ["0001"], "rhs": "0"},
            "cxor": 2, "cxor_restricted": 99, "bsxor": 2, "bsxor_restricted": 2}
    assert json.dumps(got) == json.dumps(want)
    assert got["coset"] == _coset(3, 0).to_jsonable()


@pytest.mark.parametrize("t,dim,i,forms,want", [
    # tau reads 99 for every s on the first direction space of dimension
    # 2: f is not linear on its first two cosets, so the third reports
    (62946, 2, 2, range(16), {"function": "tt:4:0100011110101111",
                              "coset": {"constraints": ["0010", "0001"], "rhs": "01"},
                              "s": "1001", "tau": 99, "c": 3, "d": 3}),
    # only for s = x_2 on the first direction space of dimension 1: f is
    # <x, s> on its third coset but not on the first two
    (40001, 1, 2, [0b0010], {"function": "tt:4:1000001000111001",
                             "coset": {"constraints": ["0100", "0010", "0001"], "rhs": "010"},
                             "s": "0100", "tau": 99, "c": 4, "d": 4}),
])
def test_lemma_exp_first_violation_planted(monkeypatch, t, dim, i, forms, want):
    real = construct.tau
    frame = _coset(dim, 0).constraints
    monkeypatch.setattr(construct, "tau", lambda a, s: 99 if a == frame and s.bits in forms else real(a, s))
    got = theorems.THEOREMS["lemma-exp"].check(BooleanFunction(4, t), 0)
    assert json.dumps(got) == json.dumps(want)
    assert got["coset"] == _coset(dim, i).to_jsonable()


# ---------------------------------------------------------------------------
# eq-coplusc over column classes, against the scan over all of GL(n)
# ---------------------------------------------------------------------------

def reference_eq_coplusc(f, seed):
    """The check before it read one matrix per set of columns: the least
    certificate size at each input over every invertible B, in _bases'
    blocks."""
    n, size = f.arity, 1 << f.arity
    target = parity.cxor_profile(f)
    best = np.full(size, 255, dtype=np.uint8)
    bits = _table_bits(n, f.table)
    for rows in gf2._bases(n):
        img = gf2._images(rows, n)
        tables, inverse = classical._distinct_tables(bits, img)
        profiles = np.array([list(classical.certificate_profile(BooleanFunction(n, t))) for t in tables],
                            dtype=np.uint8)
        np.minimum.at(best, img, profiles[inverse])
    if best.tobytes() == target:
        return None
    x = next(i for i in range(size) if best[i] != target[i])
    return {"function": f.spec, "x": gf2.Gf2Vector(n, x).to_string(),
            "coset_search": target[x], "gl_min": int(best[x])}


def _eq_coplusc_family():
    rnd = random.Random(17)
    return [BooleanFunction(3, t) for t in range(256)] + [BooleanFunction(4, rnd.getrandbits(16)) for _ in range(6)]


def test_eq_coplusc_matches_gl_scan():
    for f in _eq_coplusc_family():
        assert theorems._eq_coplusc(f, 0) is None
        assert reference_eq_coplusc(f, 0) is None


def test_eq_coplusc_matches_gl_scan_planted(monkeypatch):
    # the coset search reads one more at the last input whose size is at
    # least 2, so both minima fall short there
    real = parity.cxor_profile

    def cxor_profile(f):
        profile = bytearray(real(f))
        x = max((i for i, v in enumerate(profile) if v >= 2), default=len(profile) - 1)
        profile[x] += 1
        return bytes(profile)

    monkeypatch.setattr(parity, "cxor_profile", cxor_profile)
    reported = 0
    for f in _eq_coplusc_family():
        got, want = theorems._eq_coplusc(f, 0), reference_eq_coplusc(f, 0)
        assert json.dumps(got) == json.dumps(want), f.spec
        reported += got is not None
    assert reported == len(_eq_coplusc_family())
