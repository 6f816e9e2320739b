import random
from fractions import Fraction

import pytest
from protocol_oracle import (
    reference_det_sweep,
    reference_index_width,
    reference_nondet_protocol,
    reference_nondet_violation,
)

from paritydt.boolfn import BooleanFunction, fourier, parse_function_spec
from paritydt.certify import EssentialSet, essential_certificate_set
from paritydt.comm import (
    XorFunction,
    _index_width,
    conjecture_report,
    det_sweep,
    essential_size_bound,
    nondet_cost_bound,
    nondet_protocol,
    nondet_violation,
    simulate_det_protocol,
    xor_matrix_rank,
)
from paritydt.errors import BudgetExceededError, DimensionError
from paritydt.gf2 import Coset, Gf2Matrix, Gf2Vector
from paritydt.parity import ParityLeaf, ParityQuery, parity_depth


def oracle_rank(f):
    """Rank over the rationals by plain fraction elimination."""
    size = 1 << f.arity
    m = [[Fraction((f.table >> (x ^ y)) & 1) for y in range(size)] for x in range(size)]
    rank = 0
    for col in range(size):
        piv = next((i for i in range(rank, size) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        for i in range(size):
            if i != rank and m[i][col]:
                factor = m[i][col] / lead
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# lifted functions and deterministic protocols
# ---------------------------------------------------------------------------

def test_xor_function_matrix():
    f = parse_function_spec("zoo:or:2")
    xf = XorFunction(f)
    assert xf.width == 2
    m = xf.matrix()
    for x in range(4):
        for y in range(4):
            assert m[x][y] == m[y][x] == f.value_at(x ^ y)
            assert xf.value(Gf2Vector(2, x), Gf2Vector(2, y)) == m[x][y]
    with pytest.raises(DimensionError):
        xf.value(Gf2Vector(3, 0), Gf2Vector(2, 0))


def test_det_protocol_or2():
    f = parse_function_spec("zoo:or:2")
    d, tree = parity_depth(f)
    x = Gf2Vector.from_string("01")
    tr = simulate_det_protocol(tree, x, x)
    assert tr.output == 0  # x + y = 00
    assert tr.total_bits <= 2 * d == 4
    speakers = [m.speaker for m in tr.messages]
    assert speakers == ["alice", "bob"] * (len(speakers) // 2)


def test_det_protocol_depth_one_and_zero():
    _, tree = parity_depth(parse_function_spec("zoo:parity:3"))
    tr = simulate_det_protocol(tree, Gf2Vector(3, 0b101), Gf2Vector(3, 0b001))
    assert tr.total_bits == 2 and tr.output == 1
    _, leaf = parity_depth(BooleanFunction(3, 255))
    tr0 = simulate_det_protocol(leaf, Gf2Vector(3, 3), Gf2Vector(3, 5))
    assert tr0.total_bits == 0 and tr0.messages == () and tr0.output == 1


def test_det_protocol_sweep_small():
    for n in (1, 2):
        for t in range(1 << (1 << n)):
            f = BooleanFunction(n, t)
            d, tree = parity_depth(f)
            for x in range(1 << n):
                for y in range(1 << n):
                    tr = simulate_det_protocol(tree, Gf2Vector(n, x), Gf2Vector(n, y))
                    assert tr.output == f.value_at(x ^ y)
                    assert tr.total_bits <= 2 * d


def test_det_protocol_sweep_n3_sample():
    for t in (22, 86, 105, 150, 232):
        f = BooleanFunction(3, t)
        d, tree = parity_depth(f)
        for x in range(8):
            for y in range(8):
                tr = simulate_det_protocol(tree, Gf2Vector(3, x), Gf2Vector(3, y))
                assert tr.output == f.value_at(x ^ y)
                assert tr.total_bits <= 2 * d


def test_det_protocol_width_mismatch():
    _, tree = parity_depth(parse_function_spec("zoo:or:2"))
    with pytest.raises(DimensionError):
        simulate_det_protocol(tree, Gf2Vector(3, 0), Gf2Vector(2, 0))
    # a leaf has no query to compare with, so x and y are checked first
    with pytest.raises(DimensionError):
        simulate_det_protocol(ParityLeaf(1), Gf2Vector(3, 5), Gf2Vector(2, 1))
    with pytest.raises(DimensionError):
        det_sweep(parse_function_spec("zoo:or:3"), tree)


# ---------------------------------------------------------------------------
# nondeterministic protocols
# ---------------------------------------------------------------------------

def test_nondet_or2_accept():
    f = parse_function_spec("zoo:or:2")
    ess = essential_certificate_set(f)
    assert nondet_cost_bound(ess) == 3  # index width 2 + codim 1
    x = Gf2Vector.from_string("10")
    y = Gf2Vector.from_string("00")
    tr = nondet_protocol(f, ess, x, y)
    assert tr.output == 1
    assert tr.nondeterministic_choice >= 1
    assert tr.total_bits == 3


def test_nondet_or2_reject():
    f = parse_function_spec("zoo:or:2")
    ess = essential_certificate_set(f)
    x = Gf2Vector.from_string("01")
    tr = nondet_protocol(f, ess, x, x)
    assert tr.output == 0
    assert tr.nondeterministic_choice == 0
    assert tr.total_bits == 2  # only the index


def test_nondet_and2_cost():
    f = parse_function_spec("zoo:and:2")
    ess = essential_certificate_set(f)
    assert nondet_cost_bound(ess) == 3  # index width 1 + codim 2
    tr = nondet_protocol(f, ess, Gf2Vector.from_string("11"), Gf2Vector.from_string("00"))
    assert tr.output == 1 and tr.total_bits == 3


def test_nondet_explicit_choice():
    f = parse_function_spec("zoo:or:2")
    ess = essential_certificate_set(f)
    x = Gf2Vector.from_string("10")
    y = Gf2Vector.from_string("00")
    accepted = nondet_protocol(f, ess, x, y)
    # replaying the accepted choice reproduces the transcript
    assert nondet_protocol(f, ess, x, y, accepted.nondeterministic_choice) == accepted
    # claiming the reject index always outputs 0
    forced = nondet_protocol(f, ess, x, y, 0)
    assert forced.output == 0 and forced.total_bits == 2
    with pytest.raises(DimensionError):
        nondet_protocol(f, ess, x, y, ess.size + 1)
    with pytest.raises(DimensionError):
        nondet_protocol(f, ess, Gf2Vector(3, 0), y)


def test_nondet_sweep_small():
    # sound and complete on every pair, with exact accepted cost
    for n in (1, 2):
        for t in range(1, 1 << (1 << n)):
            f = BooleanFunction(n, t)
            ess = essential_certificate_set(f)
            bound = nondet_cost_bound(ess)
            for x in range(1 << n):
                for y in range(1 << n):
                    tr = nondet_protocol(f, ess, Gf2Vector(n, x), Gf2Vector(n, y))
                    assert tr.output == f.value_at(x ^ y)
                    if tr.output == 1:
                        assert tr.total_bits == bound
            assert nondet_violation(f, ess) is None
            assert ess.size <= essential_size_bound(n, ess.codim)


def test_nondet_violation_reports_first_bad_pair():
    x1 = Coset(2, Gf2Matrix.from_bits([0b01], 2), Gf2Vector(1, 1))
    # x1 = 1 also accepts the 0-inputs of and2, first at x = 00, y = 10
    and2 = BooleanFunction(2, 0b1000)
    assert nondet_violation(and2, EssentialSet(1, (x1,))) == {"x": 0, "y": 1, "output": 1, "expected": 0}
    # a set that claims codimension 2 costs 3 bits but sends 2
    dictator = BooleanFunction(2, 0b1010)
    assert nondet_violation(dictator, EssentialSet(2, (x1,))) == {"x": 0, "y": 1, "bits": 2, "cost": 3}
    assert essential_size_bound(3, 2) == 4 * 81


def test_nondet_rejects_certificates_of_another_width():
    and2 = BooleanFunction(2, 0b1000)
    wide = EssentialSet(1, (Coset(3, Gf2Matrix.from_bits([0b100], 3), Gf2Vector(1, 1)),))
    with pytest.raises(DimensionError):
        nondet_violation(and2, wide)
    with pytest.raises(DimensionError):
        nondet_protocol(and2, wide, Gf2Vector(2, 3), Gf2Vector(2, 0))


def test_index_width_is_the_bit_length():
    for count in range((1 << 16) + 1):
        assert _index_width(count) == reference_index_width(count)


def oracle_tables():
    """Every table at n <= 3, and seeded n = 4 and 5 tables, every
    second one sparse (about one 1-input in eight)."""
    for n in (1, 2, 3):
        for t in range(1 << (1 << n)):
            yield BooleanFunction(n, t)
    rnd = random.Random(14)
    for n in (4, 5):
        for i in range(6):
            t = rnd.getrandbits(1 << n)
            if i % 2:
                t &= rnd.getrandbits(1 << n) & rnd.getrandbits(1 << n)
            yield BooleanFunction(n, t)


def test_det_sweep_matches_scalar_oracle():
    for f in oracle_tables():
        tree = parity_depth(f)[1]
        assert det_sweep(f, tree) == reference_det_sweep(f, tree), f.spec


def flip_first_leaf(tree):
    if isinstance(tree, ParityLeaf):
        return ParityLeaf(1 - tree.value)
    return ParityQuery(tree.query, flip_first_leaf(tree.child0), tree.child1)


def test_det_sweep_reports_a_flipped_leaf():
    for spec in ("zoo:maj:3", "zoo:and:4", "zoo:parity:2", "tt:1:11"):
        f = parse_function_spec(spec)
        d, tree = parity_depth(f)
        bad = flip_first_leaf(tree)
        assert det_sweep(f, bad) == reference_det_sweep(f, bad) == (False, 2 * d)


def test_nondet_matches_scalar_oracle():
    for f in oracle_tables():
        if f.table == 0:
            continue
        ess = essential_certificate_set(f)
        assert nondet_violation(f, ess) is reference_nondet_violation(f, ess) is None, f.spec
        n = f.arity
        if n > 3:
            continue
        for xb in range(1 << n):
            for yb in range(1 << n):
                x, y = Gf2Vector(n, xb), Gf2Vector(n, yb)
                assert nondet_protocol(f, ess, x, y) == reference_nondet_protocol(f, ess, x, y)
                if n < 3:
                    for i in range(ess.size + 1):
                        got = nondet_protocol(f, ess, x, y, i)
                        assert got == reference_nondet_protocol(f, ess, x, y, i)


X1 = Coset(2, Gf2Matrix.from_bits([0b01], 2), Gf2Vector(1, 1))
X0X1 = Coset(2, Gf2Matrix.from_bits([0b01, 0b10], 2), Gf2Vector(2, 0b10))  # the point 10


@pytest.mark.parametrize("spec, ess, want", [
    # over-accepting: x1 = 1 also accepts the 0-inputs of and2
    ("zoo:and:2", EssentialSet(1, (X1,)), {"x": 0, "y": 1, "output": 1, "expected": 0}),
    # stated codimension 2, but the certificate sends 1 bit
    ("zoo:dictator:2", EssentialSet(2, (X1,)), {"x": 0, "y": 1, "bits": 2, "cost": 3}),
    # both faults at one pair: the output mismatch is reported
    ("zoo:and:2", EssentialSet(2, (X1,)), {"x": 0, "y": 1, "output": 1, "expected": 0}),
    # mixed codimensions: the second certificate sends 2 bits, not 1
    ("zoo:or:2", EssentialSet(1, (X1, X0X1)), {"x": 0, "y": 2, "bits": 4, "cost": 3}),
    # no certificates: every pair is rejected
    ("tt:2:0110", EssentialSet(1, ()), {"x": 0, "y": 1, "output": 0, "expected": 1}),
])
def test_nondet_planted_faults_match_scalar_oracle(spec, ess, want):
    f = parse_function_spec(spec)
    assert nondet_violation(f, ess) == reference_nondet_violation(f, ess) == want
    for xb in range(4):
        for yb in range(4):
            x, y = Gf2Vector(2, xb), Gf2Vector(2, yb)
            assert nondet_protocol(f, ess, x, y) == reference_nondet_protocol(f, ess, x, y)


def test_transcript_jsonable():
    f = parse_function_spec("zoo:and:2")
    ess = essential_certificate_set(f)
    tr = nondet_protocol(f, ess, Gf2Vector(2, 3), Gf2Vector(2, 0))
    got = tr.to_jsonable()
    assert got["output"] == 1 and got["total_bits"] == 3
    assert got["choice"] == 1
    assert all(set(m) == {"speaker", "bits"} for m in got["messages"])


# ---------------------------------------------------------------------------
# rank and the sparsity comparison
# ---------------------------------------------------------------------------

def test_rank_known_values():
    assert xor_matrix_rank(BooleanFunction(3, 0)) == 0
    assert xor_matrix_rank(BooleanFunction(3, 255)) == 1
    assert xor_matrix_rank(parse_function_spec("zoo:parity:3")) == 2
    assert xor_matrix_rank(parse_function_spec("zoo:and:2")) == 4
    assert xor_matrix_rank(parse_function_spec("zoo:dictator:4")) == 2


def test_rank_matches_fraction_elimination():
    rnd = random.Random(99)
    for n in (2, 3):
        for _ in range(12):
            f = BooleanFunction(n, rnd.getrandbits(1 << n))
            assert xor_matrix_rank(f) == oracle_rank(f)
    f4 = BooleanFunction(4, rnd.getrandbits(16))
    assert xor_matrix_rank(f4) == oracle_rank(f4)


def test_rank_equals_sparsity_small():
    for t in range(256):
        f = BooleanFunction(3, t)
        assert xor_matrix_rank(f) == fourier(f).sparsity


def test_rank_budget():
    with pytest.raises(BudgetExceededError):
        xor_matrix_rank(BooleanFunction(7, 0))


# ---------------------------------------------------------------------------
# per-function report
# ---------------------------------------------------------------------------

def test_report_and3():
    got = conjecture_report(parse_function_spec("zoo:and:3"))
    assert got.arity == 3
    assert got.d_xor == 3 and got.c_xor == 3
    assert got.c0_xor == 1 and got.c1_xor == 3
    assert got.sparsity == 8 and got.rank == 8
    assert got.log2_sparsity == 3.0
    assert got.essential_count == 1
    assert got.nondet_cost == 4  # index width 1 + codim 3
    j = got.to_jsonable()
    assert j["sparsity"] == 8 and j["nondet_cost"] == 4


def test_report_constants():
    zero = conjecture_report(BooleanFunction(3, 0))
    assert zero.d_xor == zero.c_xor == zero.sparsity == zero.rank == 0
    assert zero.log2_sparsity is None
    assert zero.essential_count is None and zero.nondet_cost is None
    ones = conjecture_report(BooleanFunction(3, 255))
    assert ones.sparsity == ones.rank == 1
    assert ones.log2_sparsity == 0.0
    assert ones.essential_count == 1 and ones.nondet_cost == 1
