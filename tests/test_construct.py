import pytest

from paritydt.boolfn import BooleanFunction
from paritydt.construct import (
    ZOO_NAMES,
    check_linear_on_coset_bound,
    sample_thm_exp,
    tau,
    zoo,
)
from paritydt.errors import BudgetExceededError, DimensionError, DomainError
from paritydt.gf2 import Coset, Gf2Matrix, Gf2Vector, parity
from paritydt.parity import pdt_depth, pdt_eval, pdt_leaf_cosets


# ---------------------------------------------------------------------------
# named functions
# ---------------------------------------------------------------------------

def test_zoo_tables():
    assert zoo("or", 2).to_table_string() == "0111"
    assert zoo("and", 2).to_table_string() == "0001"
    assert zoo("parity", 2).to_table_string() == "0110"
    assert zoo("dictator", 3).to_table_string() == "01010101"
    assert zoo("maj", 3).to_table_string() == "00010111"
    assert zoo("example31", 3).to_table_string() == "01101010"
    assert zoo("example31", 3).table == 0x56


def test_zoo_semantics():
    f = zoo("example31", 3)
    for x in range(8):
        assert f.value_at(x) == (x & 1) ^ (1 if x & 0b110 else 0)
    g = zoo("maj", 5)
    for x in range(32):
        assert g.value_at(x) == (1 if x.bit_count() >= 3 else 0)


def test_zoo_errors():
    with pytest.raises(DomainError):
        zoo("maj", 4)
    with pytest.raises(DomainError):
        zoo("example31", 4)
    with pytest.raises(DomainError):
        zoo("xor5", 3)
    with pytest.raises(DimensionError):
        zoo("and", 0)
    assert set(ZOO_NAMES) == {"and", "or", "parity", "maj", "dictator", "example31"}


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------

def test_tau_examples():
    # distance from s to the row space
    a = Gf2Matrix.from_bits([0b11], 2)
    assert tau(a, Gf2Vector(2, 0b01)) == 1  # 01 vs {00, 11}
    assert tau(a, Gf2Vector(2, 0b11)) == 0  # in the row space
    empty = Gf2Matrix(3, ())
    assert tau(empty, Gf2Vector(3, 0b111)) == 3  # only v = 0 available
    assert tau(Gf2Matrix.identity(3), Gf2Vector(3, 0b101)) == 0


def test_tau_brute_force_small():
    a = Gf2Matrix.from_bits([0b0110, 0b1010], 4)
    span = {0}
    for r in a.row_bits:
        span |= {v ^ r for v in span}
    for s in range(16):
        want = min((s ^ v).bit_count() for v in span)
        assert tau(a, Gf2Vector(4, s)) == want


def test_tau_ignores_dependent_rows():
    a = Gf2Matrix.from_bits([0b011, 0b011, 0b000], 3)
    assert tau(a, Gf2Vector(3, 0b010)) == 1


def test_tau_budget():
    a = Gf2Matrix.identity(21)
    with pytest.raises(BudgetExceededError):
        tau(a, Gf2Vector(21, 0))


# ---------------------------------------------------------------------------
# the depth-vs-certificate gap instance
# ---------------------------------------------------------------------------

def test_sample_thm_exp_range():
    with pytest.raises(DomainError):
        sample_thm_exp(2, 0)
    with pytest.raises(BudgetExceededError):
        sample_thm_exp(5, 0)
    # the seed is hashed as 8 signed bytes; past them, refuse rather than overflow
    for seed in (1 << 63, -(1 << 63) - 1):
        with pytest.raises(DomainError, match="signed 64-bit"):
            sample_thm_exp(3, seed)


def test_sample_thm_exp_deterministic():
    a = sample_thm_exp(3, 42)
    b = sample_thm_exp(3, 42)
    assert a == b
    c = sample_thm_exp(3, 43)
    assert c.f != a.f  # 64 fresh parities almost surely differ


def test_sample_thm_exp_shape():
    inst = sample_thm_exp(3, 7)
    assert inst.k == 3 and inst.n == 8
    assert pdt_depth(inst.tree) == 7  # k + 4
    assert len(inst.leaves) == 8 * inst.n
    for leaf in inst.leaves:
        assert leaf.coset.codim == 6  # k + 3 pinned coordinates
        assert 1 <= leaf.t <= 64


def test_sample_thm_exp_tree_matches_table():
    inst = sample_thm_exp(3, 11)
    for x in range(1 << inst.n):
        assert pdt_eval(inst.tree, x) == inst.f.value_at(x)


def test_sample_thm_exp_leaves_partition_and_linear():
    inst = sample_thm_exp(3, 3)
    seen = 0
    for leaf in inst.leaves:
        # the prefix coordinates of any member spell t - 1
        for xb in leaf.coset.member_bits():
            assert xb & 63 == leaf.t - 1
            assert (seen >> xb) & 1 == 0
            seen |= 1 << xb
            # on the leaf coset the function is the leaf's parity
            assert inst.f.value_at(xb) == parity(xb & leaf.query.bits)
    assert seen == (1 << (1 << inst.n)) - 1


def test_sample_thm_exp_tree_prefix_queries():
    inst = sample_thm_exp(3, 0)
    node = inst.tree
    for i in range(6):
        assert node.query.bits == 1 << i  # single coordinates first
        node = node.child0
    # then one parity whose answer is the value
    assert pdt_depth(node) == 1


# ---------------------------------------------------------------------------
# the lower bound check
# ---------------------------------------------------------------------------

def test_linear_bound_global_parity():
    # f = <., s> everywhere: tau over the empty row space is |s|, and
    # both classical measures equal it
    f = zoo("parity", 3)
    h = Coset.full_space(3)
    got = check_linear_on_coset_bound(f, h, Gf2Vector(3, 0b111))
    assert got.tau == 3
    assert got.c_of_f == 3 and got.d_of_f == 3
    assert got.holds and got.holds_depth


def test_linear_bound_on_proper_coset():
    # dictator agrees with <., e1> on the whole space, so also on any coset
    f = zoo("dictator", 3)
    h = Coset.full_space(3).with_constraint(Gf2Vector(3, 0b110), 0)
    got = check_linear_on_coset_bound(f, h, Gf2Vector(3, 0b001))
    assert got.tau == 1
    assert got.holds and got.holds_depth


def test_linear_bound_rejects_mismatch():
    f = zoo("and", 3)
    with pytest.raises(DomainError):
        check_linear_on_coset_bound(f, Coset.full_space(3), Gf2Vector(3, 0b111))


def test_linear_bound_gap_instance_leaf():
    # on a sampled instance every leaf satisfies the premise by construction
    inst = sample_thm_exp(3, 19)
    leaf = inst.leaves[5]
    got = check_linear_on_coset_bound(inst.f, leaf.coset, leaf.query)
    assert got.holds and got.holds_depth
    assert got.d_of_f == inst.n  # full depth, way above the tree's k + 4
