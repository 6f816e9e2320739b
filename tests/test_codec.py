"""The truth-table codec (boolfn._pack_table, _parse_bits, _gather) and
every builder that goes through it, against scalar oracles."""

import random

import pytest

from codec_oracle import (
    reference_anf,
    reference_bitmap,
    reference_gather,
    reference_parse_bits,
    reference_rotate,
    reference_zoo,
)
from paritydt import construct
from paritydt.boolfn import (
    BooleanFunction,
    _pack_table,
    _table_bits,
    parse_function_spec,
    restrict,
    restrict_with_frame,
    rotate,
)
from paritydt.certify import _coset_bitmap
from paritydt.errors import DimensionError
from paritydt.gf2 import MAX_WIDTH, _solve_bits, _span_order, parity, sample_gl


def _random_coset(rnd, n):
    """A nonempty coset of F_2^n with 0..n seeded constraint rows (maybe
    dependent), through a seeded point."""
    rows = [rnd.randrange(1 << n) for _ in range(rnd.randint(0, n))]
    x = rnd.randrange(1 << n)
    return _solve_bits(rows, [parity(r & x) for r in rows], n)


@pytest.mark.parametrize("n", range(11))
def test_pack_table_inverts_table_bits(n):
    rnd = random.Random(n)
    for t in [0, (1 << (1 << n)) - 1] + [rnd.getrandbits(1 << n) for _ in range(20)]:
        assert _pack_table(_table_bits(n, t)) == t


@pytest.mark.parametrize("n", range(1, 13))
def test_zoo_matches_scalar_builder(n):
    names = ["and", "or", "parity", "dictator"] + ["maj"] * (n % 2) + ["example31"] * (n == 3)
    for name in names:
        assert construct.zoo(name, n).table == reference_zoo(name, n), name


@pytest.mark.parametrize("n", range(1, 9))
def test_tt_spec_matches_scalar_parser(n):
    rnd = random.Random(100 + n)
    for _ in range(10):
        bits = "".join(rnd.choice("01") for _ in range(1 << n))
        t = reference_parse_bits(bits)
        assert parse_function_spec(f"tt:{n}:{bits}") == BooleanFunction(n, t)
        assert BooleanFunction.from_table_string(bits) == BooleanFunction(n, t)


@pytest.mark.parametrize("n", range(1, 9))
def test_anf_spec_matches_scalar_evaluation(n):
    rnd = random.Random(200 + n)
    for _ in range(10):
        masks = [rnd.randrange(1 << n) for _ in range(rnd.randint(1, 12))]
        # repeat a term so that it cancels
        masks += rnd.sample(masks, rnd.randint(0, len(masks)))
        terms = []
        for m in masks:
            factors = [f"x{i + 1}" for i in range(n) if (m >> i) & 1]
            rnd.shuffle(factors)
            terms.append(" * ".join(factors) if factors else "1")
        poly = (" + " if rnd.random() < 0.5 else "+").join(terms)
        assert parse_function_spec(f"anf:{n}: {poly} ").table == reference_anf(n, masks), poly


def test_table_string_width_checked_before_packing():
    # an invalid character would be reported if the parser ran first
    with pytest.raises(DimensionError, match=f"^arity {MAX_WIDTH + 1} outside 0..{MAX_WIDTH}$"):
        BooleanFunction.from_table_string("x" * (1 << (MAX_WIDTH + 1)))


@pytest.mark.parametrize("n", range(1, 8))
def test_restrict_matches_scalar_gather(n):
    rnd = random.Random(300 + n)
    for _ in range(10):
        f = BooleanFunction(n, rnd.getrandbits(1 << n))
        h = _random_coset(rnd, n)
        rf = restrict(f, h)
        assert rf.local.table == reference_gather(f.table, h.member_bits())
        # a seeded frame of the same coset: mixed direction rows, any member
        rows = h.direction_rows()
        span = [0]
        for r in rows:
            span += [v ^ r for v in span]
        if rows:
            rows = [span[m] for m in sample_gl(len(rows), 1, rnd.randrange(1 << 30))[0].row_bits]
        off = rnd.choice(h.member_bits())
        rf = restrict_with_frame(f, h, rows, off)
        assert rf.local.table == reference_gather(f.table, [off ^ v for v in _span_order(rows)])


@pytest.mark.parametrize("n", range(1, 8))
def test_rotate_matches_scalar_builder(n):
    rnd = random.Random(400 + n)
    for a in sample_gl(n, 5, 400 + n):
        t = rnd.getrandbits(1 << n)
        assert rotate(BooleanFunction(n, t), a).table == reference_rotate(n, t, a.row_bits)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_thm_exp_table_matches_scalar_builder(k, seed):
    inst = construct.sample_thm_exp(k, seed)
    n, m3 = inst.n, k + 3
    queries = [leaf.query.bits for leaf in inst.leaves]
    t = 0
    for x in range(1 << n):
        t |= parity(x & queries[x & ((1 << m3) - 1)]) << x
    assert inst.f.table == t


@pytest.mark.parametrize("n", range(1, 8))
def test_coset_bitmap_matches_scalar_builder(n):
    rnd = random.Random(500 + n)
    for _ in range(10):
        h = _random_coset(rnd, n)
        assert _coset_bitmap(h) == reference_bitmap(h.member_bits())


def test_large_arity_builds():
    f = parse_function_spec("zoo:parity:22")
    assert f.table.bit_count() == 1 << 21
    assert [f.value_at(x) for x in (0, 1, 3, 7, (1 << 22) - 1, 0b1011 << 15)] == [0, 1, 0, 1, 0, 1]
    g = parse_function_spec("zoo:maj:21")
    assert g.table.bit_count() == 1 << 20
    assert [g.value_at(x) for x in ((1 << 10) - 1, (1 << 11) - 1, (1 << 21) - 1, 0x15555a)] == [0, 1, 1, 1]
    rnd = random.Random(22)
    bits = "".join(rnd.choice("01") for _ in range(1 << 20))
    h = parse_function_spec("tt:20:" + bits)
    assert h.table.bit_count() == bits.count("1")
    for x in [0, 1, 12345, 777777, (1 << 20) - 1]:
        assert h.value_at(x) == int(bits[x])
