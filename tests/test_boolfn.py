import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritydt.boolfn import (
    BooleanFunction,
    RestrictedFunction,
    _table_bits,
    _walsh,
    as_restricted,
    fourier,
    local_point,
    parse_function_spec,
    restrict,
    restrict_with_frame,
    rotate,
    shift,
)
from paritydt.errors import DimensionError, DomainError, FunctionSpecError
from paritydt.gf2 import Coset, Gf2Matrix, Gf2Vector, parity, sample_gl, solve


def oracle_spectrum(f):
    """Numerators of fhat by the defining sum, quadratic in the table size."""
    n = f.arity
    return [
        sum(-f.value_at(x) if parity(x & w) else f.value_at(x) for x in range(1 << n))
        for w in range(1 << n)
    ]


tables = st.integers(min_value=0, max_value=(1 << 16) - 1)


# ---------------------------------------------------------------------------
# tables and evaluation
# ---------------------------------------------------------------------------

def test_table_string_convention():
    f = BooleanFunction.from_table_string("0111")
    assert f.arity == 2
    assert f.table == 0b1110
    assert f.to_table_string() == "0111"
    assert [f.value_at(i) for i in range(4)] == [0, 1, 1, 1]


def test_evaluate_matches_packed_index():
    # input display string x1..xn, packed index with x1 at the low bit
    f = BooleanFunction.from_table_string("01101010")
    assert f.evaluate(Gf2Vector.from_string("110")) == f.value_at(0b011)
    assert f.evaluate(Gf2Vector.from_string("001")) == f.value_at(0b100)
    with pytest.raises(DimensionError):
        f.evaluate(Gf2Vector.from_string("01"))


def test_table_validation():
    with pytest.raises(DimensionError):
        BooleanFunction(2, 1 << 16)
    with pytest.raises(DimensionError):
        BooleanFunction(-1, 0)
    with pytest.raises(DimensionError):
        BooleanFunction.from_table_string("011")
    with pytest.raises(DimensionError):
        BooleanFunction.from_table_string("01x1")
    with pytest.raises(DimensionError, match="^invalid table character 'é'$"):
        BooleanFunction.from_table_string("0é11")


def test_is_constant():
    assert BooleanFunction(3, 0).is_constant()
    assert BooleanFunction(3, 255).is_constant()
    assert not BooleanFunction(3, 86).is_constant()
    assert BooleanFunction(0, 1).is_constant()


@given(tables)
def test_table_string_round_trip(t):
    f = BooleanFunction(4, t)
    assert BooleanFunction.from_table_string(f.to_table_string()) == f


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parse_tt():
    f = parse_function_spec("tt:2:0111")
    assert f == BooleanFunction(2, 0b1110)
    assert f.spec == "tt:2:0111"


def test_parse_anf():
    assert parse_function_spec("anf:2:x1*x2") == BooleanFunction(2, 0b1000)
    assert parse_function_spec("anf:2:1 + x1") == BooleanFunction(2, 0b0101)
    # three-variable parity as a polynomial
    f = parse_function_spec("anf:3:x1+x2+x3")
    for x in range(8):
        assert f.value_at(x) == parity(x)
    # repeated term cancels over GF(2)
    assert parse_function_spec("anf:2:x1+x1") == BooleanFunction(2, 0)


def test_parse_zoo():
    assert parse_function_spec("zoo:or:2").to_table_string() == "0111"
    assert parse_function_spec("zoo:and:3") == parse_function_spec("anf:3:x1*x2*x3")


@pytest.mark.parametrize(
    "spec,position",
    [
        ("tt", 2),  # no separator at all
        ("plot:1:01", 0),  # unknown kind
        ("tt:x:01", 3),  # bad arity
        ("tt:0:", 3),  # arity below 1
        ("tt:2:011", 5),  # wrong table length
        ("tt:2:01a1", 7),  # bad table character
        ("tt:1:é0", 5),  # positions count characters, not bytes
        ("tt:2:0é1x", 6),
        ("tt:3:0101011\udcff", 12),  # an undecodable argv byte
        ("anf:2:x3", 6),  # variable index out of range
        ("anf:2:x1+", 9),  # empty trailing term
        ("anf:2:y1", 6),  # factor without x prefix
        ("zoo:maj", 7),  # missing arity field
    ],
)
def test_parse_error_positions(spec, position):
    with pytest.raises(FunctionSpecError) as exc:
        parse_function_spec(spec)
    assert exc.value.position == position


# ---------------------------------------------------------------------------
# shift and rotate
# ---------------------------------------------------------------------------

@given(tables, st.integers(min_value=0, max_value=15))
def test_shift_pointwise(t, c):
    f = BooleanFunction(4, t)
    cv = Gf2Vector(4, c)
    g = shift(f, cv)
    for x in range(16):
        assert g.value_at(x) == f.value_at(x ^ c)


@given(tables, st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_shift_composition(t, c1, c2):
    f = BooleanFunction(4, t)
    a, b = Gf2Vector(4, c1), Gf2Vector(4, c2)
    assert shift(shift(f, a), b) == shift(f, a ^ b)
    assert shift(shift(f, a), a) == f


@given(tables, st.integers(min_value=0, max_value=2**63 - 1))
def test_rotate_pointwise(t, seed):
    f = BooleanFunction(4, t)
    a = sample_gl(4, 1, seed)[0]
    g = rotate(f, a)
    for x in range(16):
        assert g.value_at(x) == f.value_at(a.mul_vec(Gf2Vector(4, x)).bits)


@given(tables, st.integers(min_value=0, max_value=2**63 - 1))
def test_rotate_composition(t, seed):
    f = BooleanFunction(4, t)
    a, b = sample_gl(4, 2, seed)
    assert rotate(rotate(f, a), b) == rotate(f, a.matmul(b))
    assert rotate(rotate(f, a), a.inverse()) == f
    assert rotate(f, Gf2Matrix.identity(4)) == f


@given(
    tables,
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=2**63 - 1),
)
def test_shift_rotate_interchange(t, c, seed):
    # f(a(x+c)) computed either order
    f = BooleanFunction(4, t)
    a = sample_gl(4, 1, seed)[0]
    cv = Gf2Vector(4, c)
    assert shift(rotate(f, a), cv) == rotate(shift(f, a.mul_vec(cv)), a)


@pytest.mark.parametrize("n", range(1, 7))
def test_rotate_pointwise_every_arity(n):
    rnd = random.Random(n)
    for a in sample_gl(n, 5, n):
        f = BooleanFunction(n, rnd.getrandbits(1 << n))
        g = rotate(f, a)
        for x in range(1 << n):
            assert g.value_at(x) == f.value_at(a.mul_vec(Gf2Vector(n, x)).bits)
    f = BooleanFunction(n, rnd.getrandbits(1 << n))
    assert rotate(f, Gf2Matrix.identity(n)) == f


def test_rotate_rejects_singular():
    f = BooleanFunction(2, 0b0110)
    with pytest.raises(DomainError):
        rotate(f, Gf2Matrix.from_bits([0b01, 0b01], 2))


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_agrees_on_coset():
    f = BooleanFunction.from_table_string("01101010")
    h = Coset.full_space(3).with_constraint(Gf2Vector(3, 0b011), 1)
    rf = restrict(f, h)
    assert rf.local.arity == h.dim == 2
    for x in h.members():
        assert rf.evaluate(x) == f.evaluate(x)
        y = local_point(rf, x)
        assert rf.ambient_point(y) == x.bits


def test_restrict_to_point_gives_arity_zero():
    f = BooleanFunction.from_table_string("0111")
    h = Coset.point(Gf2Vector(2, 0b11))
    rf = restrict(f, h)
    assert rf.local.arity == 0
    assert rf.local.table == 1


def test_local_point_outside_coset():
    f = BooleanFunction.from_table_string("01101010")
    h = Coset.full_space(3).with_constraint(Gf2Vector(3, 0b011), 1)
    rf = restrict(f, h)
    outside = next(x for x in range(8) if not h._contains_bits(x))
    with pytest.raises(DomainError, match="not in the domain coset"):
        local_point(rf, Gf2Vector(3, outside))


def test_local_point_refuses_wrong_width_and_short_frame():
    f = BooleanFunction.from_table_string("01101010")
    rf = restrict(f, Coset.full_space(3).with_constraint(Gf2Vector(3, 0b011), 1))
    with pytest.raises(DimensionError, match="width mismatch"):
        local_point(rf, Gf2Vector(4, 0b0001))
    # two frame rows reach only half of the full space
    short = RestrictedFunction(Coset.full_space(3), BooleanFunction(2, 0b0110), Gf2Matrix.from_bits([0b001, 0b010], 3),
                               Gf2Vector.zeros(3))
    assert local_point(short, Gf2Vector(3, 0b011)) == 0b11
    with pytest.raises(DomainError, match="not reachable from the frame"):
        local_point(short, Gf2Vector(3, 0b100))


@pytest.mark.parametrize("seed", range(3))
def test_local_point_inverts_ambient_point(seed):
    # seeded cosets at n <= 8, each through its canonical frame and
    # through a frame of mixed rows and another offset
    rnd = random.Random(seed)
    for _ in range(40):
        n = rnd.randint(1, 8)
        codim = rnd.randint(0, n)
        cons = sample_gl(n, 1, rnd.getrandbits(32))[0].row_bits[:codim]
        h = solve(Gf2Matrix.from_bits(cons, n), Gf2Vector(codim, rnd.getrandbits(codim)))
        f = BooleanFunction(n, rnd.getrandbits(1 << n))
        frames = [restrict(f, h)]
        if h.dim:
            canon = frames[0]
            mix = sample_gl(h.dim, 1, rnd.getrandbits(32))[0].row_bits
            rows = [canon.ambient_point(a) ^ canon.offset.bits for a in mix]
            offset = canon.ambient_point(rnd.getrandbits(h.dim))
            frames.append(restrict_with_frame(f, h, rows, offset))
        for rf in frames:
            for y in range(1 << h.dim):
                assert local_point(rf, Gf2Vector(n, rf.ambient_point(y))) == y


def test_as_restricted_is_identity_frame():
    f = BooleanFunction.from_table_string("01100110")
    rf = as_restricted(f)
    assert rf.local == f
    for x in range(8):
        assert local_point(rf, Gf2Vector(3, x)) == x


@given(tables, st.integers(min_value=0, max_value=2**63 - 1))
def test_restrict_with_frame_is_frame_independent(t, seed):
    # any invertible frame of the full space presents the same function
    f = BooleanFunction(4, t)
    a = sample_gl(4, 1, seed)[0]
    off = seed & 15
    rf = restrict_with_frame(f, Coset.full_space(4), list(a.row_bits), off)
    for x in range(16):
        xv = Gf2Vector(4, x)
        assert rf.evaluate(xv) == f.value_at(x)
        assert rf.ambient_point(local_point(rf, xv)) == x


def test_restrict_with_frame_validation():
    f = BooleanFunction.from_table_string("01101010")
    h = Coset.full_space(3).with_constraint(Gf2Vector(3, 0b011), 1)
    rows = h.direction_rows()
    off = h.min_member_bits()
    with pytest.raises(DomainError):
        restrict_with_frame(f, h, [rows[0], rows[0]], off)  # dependent rows
    with pytest.raises(DomainError):
        restrict_with_frame(f, h, rows, off ^ 0b001)  # offset off the coset
    with pytest.raises(DomainError):
        restrict_with_frame(f, h, [0b100, 0b010], off)  # wrong direction space


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_fourier_known_values():
    # parity concentrates on the empty and the full character
    f = parse_function_spec("anf:3:x1+x2+x3")
    spec = fourier(f)
    assert spec.sparsity == 2
    assert spec.support() == [0, 7]
    assert spec.coefficient(0) == Fraction(1, 2)
    assert spec.coefficient(7) == Fraction(-1, 2)
    # AND on two variables has full support with weight 1/4 everywhere
    g = fourier(parse_function_spec("anf:2:x1*x2"))
    assert [g.numerator(w) for w in range(4)] == [1, -1, -1, 1]
    assert g.nonzero_items() == [
        (0, Fraction(1, 4)),
        (1, Fraction(-1, 4)),
        (2, Fraction(-1, 4)),
        (3, Fraction(1, 4)),
    ]


def test_fourier_constants():
    assert fourier(BooleanFunction(3, 0)).sparsity == 0
    ones = fourier(BooleanFunction(3, 255))
    assert ones.support() == [0]
    assert ones.coefficient(0) == 1


@given(tables)
def test_fourier_matches_oracle(t):
    f = BooleanFunction(4, t)
    spec = fourier(f)
    assert [spec.numerator(w) for w in range(16)] == oracle_spectrum(f)


@given(tables)
def test_parseval(t):
    # sum of fhat^2 equals 2^-n |f^-1(1)| for a 0/1-valued function
    f = BooleanFunction(4, t)
    spec = fourier(f)
    lhs = sum(spec.numerator(w) ** 2 for w in range(16))
    assert lhs == 16 * f.table.bit_count()


def test_fourier_larger_arity_spot_check():
    rnd = random.Random(7)
    for n in (5, 6):
        f = BooleanFunction(n, rnd.getrandbits(1 << n))
        spec = fourier(f)
        nums = oracle_spectrum(f)
        assert [spec.numerator(w) for w in range(1 << n)] == nums


def loop_spectrum(f):
    """The int64 butterfly that fourier ran before the batched _walsh,
    one np.stack per level."""
    arr = _table_bits(f.arity, f.table).astype(np.int64)
    for b in range(f.arity):
        arr = arr.reshape(-1, 2, 1 << b)
        arr = np.stack((arr[:, 0, :] + arr[:, 1, :], arr[:, 0, :] - arr[:, 1, :]), axis=1)
    return arr.reshape(-1)


@pytest.mark.parametrize("n", range(9))
def test_fourier_matches_loop_bytes(n):
    rnd = random.Random(n)
    full = (1 << (1 << n)) - 1
    for t in [0, full, *(rnd.getrandbits(1 << n) for _ in range(20))]:
        got, want = fourier(BooleanFunction(n, t)).numerators, loop_spectrum(BooleanFunction(n, t))
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), t


def test_walsh_over_leading_axes():
    rnd = random.Random(3)
    tables = [[rnd.getrandbits(16) for _ in range(3)] for _ in range(2)]
    got = _walsh(np.array([[_table_bits(4, t) for t in row] for row in tables]))
    assert got.shape == (2, 3, 16) and got.dtype == np.int8
    for row, spectra in zip(tables, got):
        for t, spec in zip(row, spectra):
            assert spec.tolist() == loop_spectrum(BooleanFunction(4, t)).tolist()
    # 2^7 needs a wider dtype than int8
    assert _walsh(np.ones(128, dtype=np.uint8))[0] == 128
