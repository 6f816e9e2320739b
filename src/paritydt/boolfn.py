"""Boolean functions as packed truth tables, with restriction to cosets
and the exact Walsh-Hadamard spectrum.

A function f on n variables is stored as an int whose bit i is
f(x) for the input x with packed index i (see gf2 for the packing).
Truth-table display strings list f at index 0 leftmost, so OR on two
variables prints as "0111".

Fourier coefficients use the 0/1-valued convention
    fhat(w) = 2^-n * sum_x (-1)^<x,w> f(x),
kept exact as dyadic rationals (integer numerator over 2^n).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError, FunctionSpecError
from .gf2 import MAX_WIDTH, Coset, Gf2Matrix, Gf2Vector, _images, _rref_bits, _solve_bits, _span_order, parity, solve

__all__ = [
    "BooleanFunction",
    "RestrictedFunction",
    "FourierSpectrum",
    "shift",
    "rotate",
    "restrict",
    "restrict_with_frame",
    "as_restricted",
    "local_point",
    "fourier",
    "parse_function_spec",
]


@dataclass(frozen=True)
class BooleanFunction:
    """A total function {0,1}^arity -> {0,1} as a packed truth table.

    Arity 0 (a single point, as produced by restricting to a point
    coset) is allowed; the parser only accepts arity >= 1.
    """

    arity: int
    table: int

    def __post_init__(self):
        if not 0 <= self.arity <= MAX_WIDTH:
            raise DimensionError(f"arity {self.arity} outside 0..{MAX_WIDTH}")
        if not 0 <= self.table < (1 << (1 << self.arity)):
            raise DimensionError("truth table out of range for arity")

    @classmethod
    def from_table_string(cls, s: str) -> "BooleanFunction":
        n = (len(s) - 1).bit_length()
        if not s or len(s) != (1 << n):
            raise DimensionError(f"table length {len(s)} is not a power of two")
        if n > MAX_WIDTH:
            raise DimensionError(f"arity {n} outside 0..{MAX_WIDTH}")
        return cls(n, _parse_bits(s))

    def value_at(self, idx: int) -> int:
        """f at the packed input index."""
        if not 0 <= idx < (1 << self.arity):
            raise DimensionError(f"index {idx} out of range for arity {self.arity}")
        return (self.table >> idx) & 1

    def evaluate(self, x: Gf2Vector) -> int:
        if x.width != self.arity:
            raise DimensionError(f"input width {x.width} != arity {self.arity}")
        return (self.table >> x.bits) & 1

    def is_constant(self) -> bool:
        return self.table == 0 or self.table == (1 << (1 << self.arity)) - 1

    def to_table_string(self) -> str:
        return (_table_bits(self.arity, self.table) + ord("0")).tobytes().decode("ascii")

    @property
    def spec(self) -> str:
        return f"tt:{self.arity}:{self.to_table_string()}"


@dataclass(frozen=True)
class RestrictedFunction:
    """f viewed on an ambient coset H = offset + span(basis rows).

    ``local`` is the function g'(y) = f(offset + sum_i y_i b_i) of arity
    dim(H); the canonical frame (lexicographically least offset, RREF
    basis) is what restrict() produces, but any frame spanning H is a
    valid presentation and all measures are frame-independent.
    """

    ambient: Coset
    local: BooleanFunction
    basis: Gf2Matrix
    offset: Gf2Vector

    def ambient_point(self, y: int) -> int:
        """Packed ambient point for the packed local point y."""
        acc = self.offset.bits
        rows = self.basis.row_bits
        i = 0
        while y:
            if y & 1:
                acc ^= rows[i]
            y >>= 1
            i += 1
        return acc

    def evaluate(self, x: Gf2Vector) -> int:
        return self.local.value_at(local_point(self, x))

    def lift_form(self, w: int) -> tuple[int, int]:
        """The least ambient form c and the bit r with <y, w> = <x, c> + r
        for every local point y and its ambient point x."""
        rows = self.basis.row_bits
        sol = _solve_bits(rows, [(w >> i) & 1 for i in range(len(rows))], self.ambient.ncols)
        assert sol is not None, "frame rows are independent, so every form lifts"
        c = sol.min_member_bits()
        return c, parity(self.offset.bits & c)


def as_restricted(f: BooleanFunction) -> RestrictedFunction:
    """f presented on the full space with the identity frame."""
    ambient, basis, offset = _identity_frame(f.arity)
    return RestrictedFunction(ambient=ambient, local=f, basis=basis, offset=offset)


@lru_cache(maxsize=MAX_WIDTH + 1)
def _identity_frame(n: int) -> tuple[Coset, Gf2Matrix, Gf2Vector]:
    return Coset.full_space(n), Gf2Matrix.identity(n), Gf2Vector.zeros(n)


def local_point(rf: RestrictedFunction, x: Gf2Vector) -> int:
    """Local coordinates of an ambient point of the domain coset."""
    if x.width != rf.ambient.ncols:
        raise DimensionError("width mismatch")
    if not rf.ambient.contains(x):
        raise DomainError(f"point {x} is not in the domain coset")
    # y solves sum_i y_i b_i = x ^ offset, one equation per ambient bit
    sol = solve(rf.basis.transpose(), x ^ rf.offset)
    if sol is None:
        raise DomainError("point not reachable from the frame (frame does not span the coset)")
    return sol.min_member_bits()


# ---------------------------------------------------------------------------
# table kernels shared with the measure modules
# ---------------------------------------------------------------------------

def _table_bits(n: int, t: int) -> np.ndarray:
    """The 2^n bits of table t as a uint8 array, bit x at index x."""
    raw = np.frombuffer(t.to_bytes(((1 << n) + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: 1 << n]


def _pack_table(bits: np.ndarray) -> int:
    """The table whose bit x is bits[x] (0/1 or bool): the inverse of
    _table_bits."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _gather(table: int | np.ndarray, idxs: Sequence[int]) -> int | np.ndarray:
    """The bits of ``table`` at ``idxs``, packed in order; elementwise on
    an array of tables."""
    acc = 0
    for i, p in enumerate(idxs):
        acc |= ((table >> p) & 1) << i
    return acc


def _parse_bits(s: str, at: int | None = None) -> int:
    """The table whose bit i is the 0/1 character s[i].  Any other
    character is refused: as a FunctionSpecError at position at + i when
    ``at`` is given, else as a DimensionError."""
    # the characters before the first one outside "01"
    i = len(s) - len(s.lstrip("01"))
    if i < len(s):
        msg = f"invalid table character {s[i]!r}"
        raise DimensionError(msg) if at is None else FunctionSpecError(msg, at + i)
    return _pack_table(np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0"))


# keyed by (n, b) with b < n <= MAX_WIDTH
@lru_cache(maxsize=MAX_WIDTH * MAX_WIDTH)
def _low_mask(n: int, b: int) -> int:
    """Positions 0..2^n-1 whose bit b is clear, as a bitmask."""
    half = np.repeat(np.array([1, 0], dtype=np.uint8), 1 << b)
    return _pack_table(np.tile(half, 1 << (n - b - 1)))


def _table_xor_translate(t: int, n: int, c: int) -> int:
    """Table of x -> f(x ^ c), from the table of f."""
    for b in range(n):
        if (c >> b) & 1:
            blk = 1 << b
            lo = _low_mask(n, b)
            t = ((t & lo) << blk) | ((t >> blk) & lo)
    return t


def shift(f: BooleanFunction, c: Gf2Vector) -> BooleanFunction:
    """The function x -> f(x + c)."""
    if c.width != f.arity:
        raise DimensionError(f"shift width {c.width} != arity {f.arity}")
    return BooleanFunction(f.arity, _table_xor_translate(f.table, f.arity, c.bits))


def rotate(f: BooleanFunction, a: Gf2Matrix) -> BooleanFunction:
    """The function x -> f(a x) for invertible a."""
    n = f.arity
    if a.ncols != n or a.nrows != n:
        raise DimensionError("rotation matrix shape mismatch")
    if not a.is_invertible():
        raise DomainError("rotation matrix is singular")
    img = _images(np.array([a.row_bits], dtype=np.min_scalar_type((1 << n) - 1)), n)[0]
    return BooleanFunction(n, _pack_table(_table_bits(n, f.table)[img]))


def restrict(f: BooleanFunction, h: Coset) -> RestrictedFunction:
    """f on the coset h, re-indexed through the canonical frame
    (offset = least member, basis = RREF basis of the direction space)."""
    if h.ncols != f.arity:
        raise DimensionError("coset width != arity")
    rows = h.direction_rows()
    off = h.min_member_bits()
    return _restrict_frame(f, h, rows, off)


def restrict_with_frame(f: BooleanFunction, h: Coset, basis_rows: list[int], offset: int) -> RestrictedFunction:
    """f on h through an explicit frame; the frame must span h exactly."""
    if h.ncols != f.arity:
        raise DimensionError("coset width != arity")
    red, _ = _rref_bits(basis_rows, h.ncols)
    if len(red) != len(basis_rows) or len(basis_rows) != h.dim:
        raise DomainError("frame rows must be an independent basis of the direction space")
    if not h._contains_bits(offset):
        raise DomainError("frame offset is outside the coset")
    canon = h.direction_rows()
    red2, _ = _rref_bits(canon + basis_rows, h.ncols)
    if len(red2) != h.dim:
        raise DomainError("frame does not span the coset direction")
    return _restrict_frame(f, h, list(basis_rows), offset)


def _restrict_frame(f: BooleanFunction, h: Coset, rows: list[int], off: int) -> RestrictedFunction:
    local = _gather(f.table, [off ^ p for p in _span_order(rows)])
    return RestrictedFunction(
        ambient=h,
        local=BooleanFunction(len(rows), local),
        basis=Gf2Matrix.from_bits(rows, h.ncols),
        offset=Gf2Vector(h.ncols, off),
    )


# ---------------------------------------------------------------------------
# Fourier
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FourierSpectrum:
    """Exact spectrum: fhat(w) = numerator(w) / 2^arity."""

    arity: int
    numerators: np.ndarray

    def numerator(self, w: int) -> int:
        return int(self.numerators[w])

    def coefficient(self, w: int) -> Fraction:
        return Fraction(int(self.numerators[w]), 1 << self.arity)

    @property
    def sparsity(self) -> int:
        return int(np.count_nonzero(self.numerators))

    def support(self) -> list[int]:
        return [int(w) for w in np.nonzero(self.numerators)[0]]

    def nonzero_items(self) -> list[tuple[int, Fraction]]:
        return [(w, self.coefficient(w)) for w in self.support()]


def _walsh(bits: np.ndarray) -> np.ndarray:
    """F(u) = sum_y bits[y] (-1)^<u,y> along the last axis, of length 2^m,
    for every index of the leading axes: exact in the smallest signed
    dtype that holds +-2^m."""
    m = bits.shape[-1].bit_length() - 1
    arr = bits.astype(np.min_scalar_type(-(2 << m)))
    for b in range(m):
        arr = arr.reshape(*bits.shape[:-1], -1, 2, 1 << b)
        top = arr[..., 0, :] + arr[..., 1, :]
        bot = arr[..., 0, :] - arr[..., 1, :]
        arr = np.stack((top, bot), axis=-2)
    return arr.reshape(bits.shape)


def fourier(f: BooleanFunction) -> FourierSpectrum:
    """Walsh-Hadamard transform of the 0/1-valued truth table, exact in int64
    (|numerator| <= 2^n <= 2^24)."""
    return FourierSpectrum(f.arity, _walsh(_table_bits(f.arity, f.table)).astype(np.int64))


# ---------------------------------------------------------------------------
# function-spec parser
# ---------------------------------------------------------------------------

def parse_function_spec(spec: str) -> BooleanFunction:
    """Parse "tt:<n>:<bits>", "anf:<n>:<poly>" or "zoo:<name>:<n>".

    ANF terms are "1" or products x<i>*x<j>*... joined by "+", with
    1-based variable indices; whitespace is ignored.
    """
    head, sep, rest = spec.partition(":")
    if not sep:
        raise FunctionSpecError(f"missing ':' in spec {spec!r}", len(spec))
    if head == "tt":
        return _parse_tt(rest, len(head) + 1)
    if head == "anf":
        return _parse_anf(rest, len(head) + 1)
    if head == "zoo":
        from .construct import zoo

        name, sep2, nstr = rest.partition(":")
        if not sep2:
            raise FunctionSpecError("zoo spec needs zoo:<name>:<n>", len(spec))
        try:
            n = int(nstr)
        except ValueError:
            raise FunctionSpecError(f"bad zoo arity {nstr!r}", spec.rfind(":") + 1) from None
        return zoo(name, n)
    raise FunctionSpecError(f"unknown spec kind {head!r}", 0)


def _parse_arity(nstr: str, base: int) -> int:
    try:
        n = int(nstr)
    except ValueError:
        raise FunctionSpecError(f"bad arity {nstr!r}", base) from None
    if not 1 <= n <= MAX_WIDTH:
        raise FunctionSpecError(f"arity {n} outside 1..{MAX_WIDTH}", base)
    return n


def _parse_tt(rest: str, base: int) -> BooleanFunction:
    nstr, sep, bits = rest.partition(":")
    if not sep:
        raise FunctionSpecError("tt spec needs tt:<n>:<bits>", base + len(rest))
    n = _parse_arity(nstr, base)
    body = base + len(nstr) + 1
    if len(bits) != (1 << n):
        raise FunctionSpecError(f"table length {len(bits)} != 2^{n}", body)
    return BooleanFunction(n, _parse_bits(bits, body))


def _parse_anf(rest: str, base: int) -> BooleanFunction:
    nstr, sep, poly = rest.partition(":")
    if not sep:
        raise FunctionSpecError("anf spec needs anf:<n>:<poly>", base + len(rest))
    n = _parse_arity(nstr, base)
    body = base + len(nstr) + 1
    # coef[m] is the coefficient of the monomial with variable mask m
    # (the constant term 1 is mask 0)
    coef = np.zeros(1 << n, dtype=np.uint8)
    pos = 0
    for chunk in poly.split("+"):
        chunk_start = body + pos
        pos += len(chunk) + 1
        term = chunk.strip()
        if not term:
            raise FunctionSpecError("empty term", chunk_start)
        mask = 0
        for factor in [] if term == "1" else term.split("*"):
            factor = factor.strip()
            if not factor.startswith("x"):
                raise FunctionSpecError(f"bad factor {factor!r}", chunk_start)
            try:
                i = int(factor[1:])
            except ValueError:
                raise FunctionSpecError(f"bad variable {factor!r}", chunk_start) from None
            if not 1 <= i <= n:
                raise FunctionSpecError(f"variable x{i} outside 1..x{n}", chunk_start)
            mask |= 1 << (i - 1)
        coef[mask] ^= 1
    # f(x) is the XOR of coef[m] over the masks m within x: the subset
    # sum butterfly over GF(2), one variable at a time
    for b in range(n):
        pairs = coef.reshape(-1, 2, 1 << b)
        pairs[:, 1] ^= pairs[:, 0]
    return BooleanFunction(n, _pack_table(coef))
