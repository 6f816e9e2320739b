import functools
import hashlib
import json
import random

import pytest

from frame_oracle import dual_frames
from paritydt import certify, gf2
from paritydt import parity as parity_mod
from paritydt.boolfn import BooleanFunction, as_restricted, parse_function_spec, restrict
from paritydt.certify import (
    EssentialSet,
    ParityOracle,
    essential_certificate_set,
    evaluate_via_certificates,
    verify_essential_set,
)
from paritydt.errors import BudgetExceededError, DimensionError, DomainError
from paritydt.gf2 import Coset, Gf2Matrix, Gf2Vector, _span_order, _subspace_rows, parity, solve
from paritydt.parity import c0_xor, c1_xor, parity_certificate


def run_and_check(f, xb):
    """Run the evaluator and enforce the query budget and trace shape."""
    n = f.arity
    oracle = ParityOracle(Gf2Vector(n, xb))
    value, queries, trace = evaluate_via_certificates(f, oracle)
    assert value == f.value_at(xb)
    assert queries == oracle.queries == sum(len(s.rows) for s in trace)
    if f.is_constant():
        assert queries == 0 and trace == []
        return trace
    k0, k1 = c0_xor(f), c1_xor(f)
    assert len(trace) <= k0
    for step in trace:
        assert len(step.rows) <= k1
        assert len(step.rows) == step.certificate.coset.codim
        for row, ans in zip(step.rows, step.answers):
            assert ans == Gf2Vector(n, xb).dot(row)
    assert queries <= k0 * k1
    # matched steps are final and accept; mismatched steps shrink the domain
    for step in trace[:-1]:
        assert not step.matched
    last = trace[-1]
    if value == 1 and last.matched:
        assert last.certificate.coset._contains_bits(xb)
    for step in trace:
        if not step.matched:
            assert step.domain_after is not None
            assert step.domain_after._contains_bits(xb)
            assert step.domain_after.codim > step.domain.codim
    return trace


def check_decrease_chain(f, xb, trace):
    """A 0-input's certificate size drops by one or more per round."""
    x = Gf2Vector(f.arity, xb)
    sizes = [parity_certificate(restrict(f, step.domain), x)[0] for step in trace]
    for a, b in zip(sizes, sizes[1:]):
        assert b <= a - 1
    if trace:
        final = restrict(f, trace[-1].domain_after)
        assert final.local.is_constant() and final.local.table == 0


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------

def test_evaluator_exhaustive_small():
    for n in (1, 2, 3):
        for t in range(1 << (1 << n)):
            f = BooleanFunction(n, t)
            for xb in range(1 << n):
                trace = run_and_check(f, xb)
                if f.value_at(xb) == 0 and not f.is_constant():
                    check_decrease_chain(f, xb, trace)


def test_evaluator_random_larger():
    rnd = random.Random(20240817)
    for n, count in ((4, 60), (5, 40)):
        for _ in range(count):
            f = BooleanFunction(n, rnd.getrandbits(1 << n))
            xb = rnd.getrandbits(n)
            trace = run_and_check(f, xb)
            if f.value_at(xb) == 0 and not f.is_constant():
                check_decrease_chain(f, xb, trace)


@functools.lru_cache(maxsize=None)
def reference_frames(m, k):
    """(dual basis rows, direction span) of every codimension-k frame, in
    dual_frames order."""
    return tuple((wrows, _span_order(list(vrows))) for wrows, vrows in dual_frames(m, k))


def reference_min_one_certificate(rf):
    """The scalar scan the class-count kernel replaced: codimension
    ascending, frames in canonical order, rhs ascending, the first coset
    that is constantly 1."""
    m = rf.local.arity
    table = rf.local.table
    if table == 0:
        return None
    for k in range(m + 1):
        for wrows, span in reference_frames(m, k):
            for rhs in range(1 << k):
                off = 0
                for i, w in enumerate(wrows):
                    if (rhs >> i) & 1:
                        off |= w & -w
                if all((table >> (off ^ v)) & 1 for v in span):
                    return wrows, [(rhs >> i) & 1 for i in range(k)]
    return None


def test_min_one_certificate_matches_scalar_scan(monkeypatch):
    rnd = random.Random(606)
    fns = [BooleanFunction(m, rnd.getrandbits(1 << m)) for m in (1, 2, 3, 4, 5, 5, 5, 6)]
    fns += [parse_function_spec(s) for s in ("zoo:and:5", "zoo:or:5", "zoo:maj:5", "zoo:parity:5")]
    fns += [BooleanFunction(5, 0), BooleanFunction(5, (1 << 32) - 1)]
    for f in fns:
        rf = as_restricted(f)
        assert certify._min_one_certificate(rf) == reference_min_one_certificate(rf), f.table
    # 7 frames a chunk: some first hits lie past the first chunk
    late = 0
    for f in fns:
        m = f.arity
        monkeypatch.setattr(gf2, "_CHUNK_ENTRIES", 7 << m)
        rf = as_restricted(f)
        got = certify._min_one_certificate(rf)
        assert got == reference_min_one_certificate(rf), f.table
        if got is not None:
            late += list(_subspace_rows(m, len(got[0]))).index(got[0]) >= 7
    assert late


def test_evaluator_or2_query_budget():
    # both hidden inputs: never more than c0*c1 = 2 queries
    f = parse_function_spec("zoo:or:2")
    for xb in range(4):
        oracle = ParityOracle(Gf2Vector(2, xb))
        value, queries, _ = evaluate_via_certificates(f, oracle)
        assert value == f.value_at(xb)
        assert queries <= 2


def test_evaluator_validation():
    with pytest.raises(DimensionError):
        evaluate_via_certificates(parse_function_spec("zoo:or:2"), ParityOracle(Gf2Vector(3, 0)))
    with pytest.raises(BudgetExceededError):
        evaluate_via_certificates(BooleanFunction(11, 0), ParityOracle(Gf2Vector(11, 0)))


def test_oracle_counts_and_checks_width():
    oracle = ParityOracle(Gf2Vector.from_string("101"))
    assert oracle.width == 3
    assert oracle.query(Gf2Vector.from_string("100")) == 1
    assert oracle.query(Gf2Vector.from_string("011")) == 1
    assert oracle.query(Gf2Vector.from_string("111")) == 0
    assert oracle.queries == 3
    with pytest.raises(DimensionError):
        oracle.query(Gf2Vector(2, 0))


# ---------------------------------------------------------------------------
# essential certificate sets
# ---------------------------------------------------------------------------

def reference_anchored_certificate(f, xb):
    """The essential set's old own search for a smallest 1-certificate at
    xb: (dual basis rows, rhs bits) of the first constant coset."""
    n = f.arity
    for k in range(n + 1):
        for wrows, span in reference_frames(n, k):
            if all((f.table >> (xb ^ v)) & 1 for v in span):
                return list(wrows), [parity(w & xb) for w in wrows]
    raise AssertionError("the point coset certifies")


def test_essential_set_anchors_match_reference():
    rnd = random.Random(31)
    fns = [BooleanFunction(n, t) for n in (1, 2, 3) for t in range(1, 1 << (1 << n))]
    fns += [BooleanFunction(4, rnd.getrandbits(16) | 1) for _ in range(30)]
    for f in fns:
        for xb in range(1 << f.arity):
            if f.value_at(xb):
                coset = parity_certificate(f, Gf2Vector(f.arity, xb))[1].coset
                rhs = [(coset.rhs.bits >> i) & 1 for i in range(coset.codim)]
                assert (list(coset.constraints.row_bits), rhs) == reference_anchored_certificate(f, xb)


def test_essential_sets_exhaustive_small():
    for n in (1, 2, 3):
        for t in range(1, 1 << (1 << n)):
            f = BooleanFunction(n, t)
            ess = essential_certificate_set(f)
            verify_essential_set(f, ess)
            assert ess.codim == c1_xor(f)
            assert 1 <= ess.size <= t.bit_count()


def test_essential_sets_random_n4():
    rnd = random.Random(5)
    for _ in range(25):
        f = BooleanFunction(4, rnd.getrandbits(16) | 1)
        ess = essential_certificate_set(f)
        verify_essential_set(f, ess)
        d = ess.codim
        assert ess.size <= (1 << d) * (3 * 4) ** d


def test_essential_set_or2():
    f = parse_function_spec("zoo:or:2")
    ess = essential_certificate_set(f)
    assert ess.codim == 1 and ess.size == 2
    x1_is_1 = solve(Gf2Matrix.from_bits([0b01], 2), Gf2Vector(1, 1))
    assert x1_is_1 in ess.certificates
    # the canonical scan picks the sum constraint for the anchor 01
    sum_is_1 = solve(Gf2Matrix.from_bits([0b11], 2), Gf2Vector(1, 1))
    assert set(ess.certificates) == {x1_is_1, sum_is_1}


def test_essential_set_and2():
    f = parse_function_spec("zoo:and:2")
    ess = essential_certificate_set(f)
    assert ess.codim == 2 and ess.size == 1
    assert ess.certificates[0] == Coset.point(Gf2Vector(2, 0b11))


def test_essential_set_determinism():
    f = BooleanFunction(4, 0xBEEF)
    assert essential_certificate_set(f) == essential_certificate_set(f)


def test_verify_rejects_bad_sets():
    f = parse_function_spec("zoo:or:2")
    ess = essential_certificate_set(f)
    with pytest.raises(DomainError):  # codim mismatch
        verify_essential_set(f, EssentialSet(2, ess.certificates))
    x1_is_0 = solve(Gf2Matrix.from_bits([0b01], 2), Gf2Vector(1, 0))
    with pytest.raises(DomainError):  # covers the 0-input 00
        verify_essential_set(f, EssentialSet(1, (x1_is_0,)))
    with pytest.raises(DomainError):  # dropping a member uncovers an input
        verify_essential_set(f, EssentialSet(1, ess.certificates[:1]))
    ess3 = essential_certificate_set(parse_function_spec("zoo:and:2"))
    dup = EssentialSet(ess3.codim, ess3.certificates + ess3.certificates)
    with pytest.raises(DomainError):  # duplicate member is redundant
        verify_essential_set(parse_function_spec("zoo:and:2"), dup)


def test_verify_rejects_certificates_of_another_width():
    # a 1-column coset whose bitmap equals the 2-bit table's 1-inputs
    f = BooleanFunction.from_table_string("0100")
    one = Coset(1, Gf2Matrix.from_bits([1], 1), Gf2Vector(1, 1))
    with pytest.raises(DimensionError):
        verify_essential_set(f, EssentialSet(1, (one,)))
    # a 3-column coset against a 2-bit function is a width error, not a 0-input
    wide = Coset(3, Gf2Matrix.from_bits([0b011, 0b100], 3), Gf2Vector(2, 0b11))
    with pytest.raises(DimensionError):
        verify_essential_set(parse_function_spec("zoo:and:2"), EssentialSet(2, (wide,)))


@pytest.mark.parametrize("n,seed", [(4, 11), (6, 12)])
def test_essential_set_scans_once(monkeypatch, n, seed):
    # one certificate scan per function, and within it each codimension's
    # frames once; the emptied memo makes the scan run
    parity_mod._cxor_scan.cache_clear()
    scans, classes = [], []
    scan, coset_classes = parity_mod._cxor_scan, parity_mod._coset_classes

    def counted_scan(*args):
        scans.append(args)
        return scan(*args)

    def counted_classes(*args):
        classes.append(args)
        return coset_classes(*args)

    for mod in (parity_mod, certify):
        monkeypatch.setattr(mod, "_cxor_scan", counted_scan)
    monkeypatch.setattr(parity_mod, "_coset_classes", counted_classes)
    f = BooleanFunction(n, random.Random(seed).getrandbits(1 << n) | 1)
    ess = essential_certificate_set(f)
    verify_essential_set(f, ess)
    assert scans == [(n, f.table)]
    assert len(classes) == len(set(classes)) >= 1


@pytest.mark.parametrize(
    "f,codim,size,digest",
    [
        (BooleanFunction(8, random.Random(0).getrandbits(256)), 5, 29, "fe4c9491f214598f"),
        (parse_function_spec("anf:8:x1*x2+x3*x4+x5*x6+x7*x8"), 5, 28, "d2858a2816721cd6"),
    ],
    ids=["random", "ip4"],
)
def test_essential_set_n8_regression(f, codim, size, digest):
    ess = essential_certificate_set(f)
    assert (ess.codim, ess.size) == (codim, size)
    assert hashlib.sha256(json.dumps(ess.to_jsonable(), sort_keys=True).encode()).hexdigest()[:16] == digest


def test_essential_set_zero_function():
    with pytest.raises(DomainError):
        essential_certificate_set(BooleanFunction(3, 0))
    with pytest.raises(DomainError):
        verify_essential_set(BooleanFunction(3, 0), EssentialSet(0, ()))


def test_essential_set_budget():
    with pytest.raises(BudgetExceededError):
        essential_certificate_set(BooleanFunction(9, 1))
