"""Exact linear algebra over the two-element field.

Vectors and matrix rows are bit-packed into Python ints: coordinate
x_j (1-based, matching the usual subscript notation) lives in bit
j-1, so the packed value of a vector doubles as the truth-table
index used throughout the package.  Display strings put x_1 leftmost:
"110" means x_1=1, x_2=1, x_3=0 and packs to the integer 0b011.

Everything here is immutable and purely functional.  Reduced row
echelon form (RREF) uses the convention that a row's leading 1 is its
lowest set bit and pivot positions strictly increase from row to row;
this makes the RREF of a row space, and therefore the (constraints,
rhs) presentation of a coset, canonical.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, DimensionError, DomainError

__all__ = [
    "MAX_WIDTH",
    "Gf2Vector",
    "Gf2Matrix",
    "Coset",
    "parity",
    "solve",
    "enumerate_gl",
    "sample_gl",
    "subspace_count",
    "gl_order",
]

MAX_WIDTH = 24
SUBSPACE_ENUM_MAX = 12
GL_ENUM_MAX = 5


def parity(x: int) -> int:
    """Parity of the popcount of a nonnegative int."""
    return x.bit_count() & 1


# ---------------------------------------------------------------------------
# int-level kernels (rows are ints, ncols implied by the caller)
# ---------------------------------------------------------------------------

def _rref_bits(rows: Sequence[int], ncols: int) -> tuple[list[int], list[int]]:
    """RREF of int-packed rows.  Returns (nonzero rows, 0-based pivot cols)."""
    work = list(rows)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if (work[i] >> col) & 1:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> col) & 1:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def _kernel_bits(rows: Sequence[int], ncols: int) -> list[int]:
    """Canonical RREF basis of {x : <row, x> = 0 for every row}."""
    red, pivots = _rref_bits(rows, ncols)
    pivset = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivset:
            continue
        v = 1 << j
        for i, p in enumerate(pivots):
            if (red[i] >> j) & 1:
                v |= 1 << p
        basis.append(v)
    out, _ = _rref_bits(basis, ncols)
    return out


def _min_in_affine(offset: int, dir_rows: Sequence[int]) -> int:
    """Smallest integer in offset + span(dir_rows)."""
    basis: dict[int, int] = {}
    for r in dir_rows:
        while r:
            h = r.bit_length() - 1
            if h in basis:
                r ^= basis[h]
            else:
                basis[h] = r
                break
    v = offset
    for h in sorted(basis, reverse=True):
        if (v >> h) & 1:
            v ^= basis[h]
    return v


def _span_order(rows: Sequence[int]) -> list[int]:
    """Span of rows enumerated in subset-counter order (2^len values)."""
    out = [0] * (1 << len(rows))
    for i in range(1, len(out)):
        low = (i & -i).bit_length() - 1
        out[i] = out[i & (i - 1)] ^ rows[low]
    return out


# image entries (matrices x 2^n inputs) per chunk of _row_chunks or block
# of _subspace_rows: 4,096 matrices at n = 4, a few hundred KiB of arrays
_CHUNK_ENTRIES = 1 << 16


def _chunk_size(n: int) -> int:
    """Matrices per chunk: their images of the 2^n inputs fill at most
    _CHUNK_ENTRIES entries."""
    return max(1, _CHUNK_ENTRIES >> n)


def _row_chunks(rows: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Slices of _chunk_size(n) matrices of ``rows`` (the last may be
    short), in order."""
    size = _chunk_size(n)
    for lo in range(0, len(rows), size):
        yield rows[lo : lo + size]


def _spans(cols: np.ndarray) -> np.ndarray:
    """_span_order of every row of ``cols`` at once: out[i, x] is the XOR
    of cols[i, j] over the set bits j of x.  The entries with top bit j
    are those below 2^j plus column j, so each column doubles the filled
    prefix."""
    out = np.zeros((len(cols), 1 << cols.shape[1]), dtype=cols.dtype)
    for j in range(cols.shape[1]):
        out[:, 1 << j : 2 << j] = out[:, : 1 << j] ^ cols[:, j : j + 1]
    return out


def _parities(n: int) -> np.ndarray:
    """The parity of every n-bit value, as a uint8 lookup table: the span
    of n ones."""
    return _spans(np.ones((1, n), dtype=np.uint8))[0]


def _columns(rows: np.ndarray, n: int) -> np.ndarray:
    """cols[i, j] = column j of B_i, packed (bit r is entry (r, j)), for
    the matrices B_i with n columns whose rows are ``rows[i]``."""
    shifts = np.arange(n, dtype=np.uint8)
    cols = np.zeros((len(rows), n), dtype=np.result_type(rows.dtype, shifts.dtype))
    for i in range(rows.shape[1]):
        cols |= ((rows[:, i, None] >> shifts) & 1) << i
    return cols


def _images(rows: np.ndarray, n: int) -> np.ndarray:
    """img[i, x] = B_i x, packed, for the matrices B_i with n columns
    whose rows are ``rows[i]``: the span of B_i's columns."""
    return _spans(_columns(rows, n))


def _check_rref(rows: Sequence[int]) -> None:
    """Raise unless rows are a canonical RREF basis."""
    prev = -1
    for row in rows:
        if row == 0:
            raise DimensionError("zero row in subspace basis")
        low = (row & -row).bit_length() - 1
        if low <= prev:
            raise DimensionError("basis rows not in echelon order")
        prev = low
    # pivot columns must be clear in every other row
    for i, row in enumerate(rows):
        low = row & -row
        for j, other in enumerate(rows):
            if i != j and other & low:
                raise DimensionError("basis is not reduced")


# ---------------------------------------------------------------------------
# public value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gf2Vector:
    """A vector in {0,1}^width, bit-packed (coordinate x_{i+1} in bit i)."""

    width: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.width <= MAX_WIDTH:
            raise DimensionError(f"vector width {self.width} outside 0..{MAX_WIDTH}")
        if not 0 <= self.bits < (1 << self.width):
            raise DimensionError(f"bits 0x{self.bits:x} out of range for width {self.width}")

    @classmethod
    def from_string(cls, s: str) -> "Gf2Vector":
        """Parse a display string, x_1 leftmost: "110" -> bits 0b011."""
        if any(ch not in "01" for ch in s):
            raise DimensionError(f"invalid vector string {s!r}")
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
        return cls(len(s), bits)

    @classmethod
    def zeros(cls, width: int) -> "Gf2Vector":
        return cls(width, 0)

    def bit(self, i: int) -> int:
        """Coordinate x_{i+1} (0-based position i)."""
        if not 0 <= i < self.width:
            raise DimensionError(f"coordinate {i} outside width {self.width}")
        return (self.bits >> i) & 1

    def dot(self, other: "Gf2Vector") -> int:
        if self.width != other.width:
            raise DimensionError(f"dot of widths {self.width} and {other.width}")
        return parity(self.bits & other.bits)

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.width != other.width:
            raise DimensionError(f"xor of widths {self.width} and {other.width}")
        return Gf2Vector(self.width, self.bits ^ other.bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def to_string(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.width))

    def to_hex(self) -> str:
        return f"0x{self.bits:x}"

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class Gf2Matrix:
    """An ordered list of equal-width rows over GF(2)."""

    ncols: int
    rows: tuple[Gf2Vector, ...]

    def __post_init__(self):
        if not 0 <= self.ncols <= MAX_WIDTH:
            raise DimensionError(f"ncols {self.ncols} outside 0..{MAX_WIDTH}")
        for r in self.rows:
            if r.width != self.ncols:
                raise DimensionError(f"row width {r.width} != ncols {self.ncols}")

    @classmethod
    def from_bits(cls, row_bits: Sequence[int], ncols: int) -> "Gf2Matrix":
        return cls(ncols, tuple(Gf2Vector(ncols, b) for b in row_bits))

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Gf2Matrix":
        vs = tuple(Gf2Vector.from_string(s) for s in rows)
        if not vs:
            raise DimensionError("from_strings needs at least one row")
        return cls(vs[0].width, vs)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls.from_bits([1 << i for i in range(n)], n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def row_bits(self) -> tuple[int, ...]:
        return tuple(r.bits for r in self.rows)

    def mul_vec(self, v: Gf2Vector) -> Gf2Vector:
        """Matrix-vector product; result has one bit per row."""
        if v.width != self.ncols:
            raise DimensionError(f"vector width {v.width} != ncols {self.ncols}")
        bits = 0
        for i, row in enumerate(self.rows):
            bits |= parity(row.bits & v.bits) << i
        return Gf2Vector(self.nrows, bits)

    def matmul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.ncols != other.nrows:
            raise DimensionError(f"matmul shapes {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}")
        obits = other.row_bits
        out = []
        for row in self.rows:
            acc = 0
            rb = row.bits
            j = 0
            while rb:
                if rb & 1:
                    acc ^= obits[j]
                rb >>= 1
                j += 1
            out.append(acc)
        return Gf2Matrix.from_bits(out, other.ncols)

    def transpose(self) -> "Gf2Matrix":
        bits = self.row_bits
        out = []
        for j in range(self.ncols):
            acc = 0
            for i, b in enumerate(bits):
                acc |= ((b >> j) & 1) << i
            out.append(acc)
        return Gf2Matrix.from_bits(out, self.nrows)

    def rank(self) -> int:
        red, _ = _rref_bits(self.row_bits, self.ncols)
        return len(red)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.ncols

    def inverse(self) -> "Gf2Matrix":
        """Inverse of a square invertible matrix, via augmented elimination."""
        n = self.ncols
        if self.nrows != n:
            raise DimensionError("inverse of a non-square matrix")
        aug = [b | (1 << (n + i)) for i, b in enumerate(self.row_bits)]
        red, pivots = _rref_bits(aug, 2 * n)
        if pivots[:n] != list(range(n)):
            raise DomainError("matrix is singular")
        return Gf2Matrix.from_bits([r >> n for r in red[:n]], n)

    def to_jsonable(self) -> list[str]:
        return [r.to_string() for r in self.rows]


@dataclass(frozen=True)
class Coset:
    """The solution set {x : constraints . x = rhs}, in canonical form.

    ``constraints`` is in RREF with no zero rows, so equal cosets compare
    equal structurally.  codim = number of constraint rows.
    """

    ncols: int
    constraints: Gf2Matrix
    rhs: Gf2Vector

    def __post_init__(self):
        if self.constraints.ncols != self.ncols:
            raise DimensionError("constraints ncols mismatch")
        if self.rhs.width != self.constraints.nrows:
            raise DimensionError("rhs width != number of constraint rows")
        _check_rref(self.constraints.row_bits)

    @classmethod
    def full_space(cls, n: int) -> "Coset":
        return cls(n, Gf2Matrix(n, ()), Gf2Vector(0, 0))

    @classmethod
    def point(cls, x: Gf2Vector) -> "Coset":
        return cls(x.width, Gf2Matrix.identity(x.width), Gf2Vector(x.width, x.bits))

    @property
    def codim(self) -> int:
        return self.constraints.nrows

    @property
    def dim(self) -> int:
        return self.ncols - self.codim

    def contains(self, x: Gf2Vector) -> bool:
        if x.width != self.ncols:
            raise DimensionError("width mismatch")
        return self._contains_bits(x.bits)

    def _contains_bits(self, xb: int) -> bool:
        rb = self.rhs.bits
        for i, row in enumerate(self.constraints.row_bits):
            if parity(row & xb) != ((rb >> i) & 1):
                return False
        return True

    def direction_rows(self) -> list[int]:
        """Canonical RREF basis (as ints) of the direction space."""
        return _kernel_bits(self.constraints.row_bits, self.ncols)

    def min_member_bits(self) -> int:
        # particular solution: pivot coordinates carry the rhs
        part = 0
        rb = self.rhs.bits
        for i, row in enumerate(self.constraints.row_bits):
            if (rb >> i) & 1:
                part |= row & -row
        return _min_in_affine(part, self.direction_rows())

    def min_member(self) -> Gf2Vector:
        """Lexicographically least member (smallest packed integer)."""
        return Gf2Vector(self.ncols, self.min_member_bits())

    def member_bits(self) -> list[int]:
        """All members: min_member + direction span, subset-counter order."""
        dirs = np.array([self.direction_rows()], dtype=np.min_scalar_type((1 << self.ncols) - 1))
        return (self.min_member_bits() ^ _spans(dirs)[0]).tolist()

    def members(self) -> list[Gf2Vector]:
        return [Gf2Vector(self.ncols, b) for b in self.member_bits()]

    def with_constraint(self, c: Gf2Vector, b: int) -> "Coset | None":
        """Intersect with {x : <x, c> = b}; None if empty."""
        if c.width != self.ncols:
            raise DimensionError("width mismatch")
        rows = list(self.constraints.row_bits) + [c.bits]
        rhs_bits = [(self.rhs.bits >> i) & 1 for i in range(self.codim)] + [b & 1]
        return _solve_bits(rows, rhs_bits, self.ncols)

    def to_jsonable(self) -> dict:
        return {
            "constraints": self.constraints.to_jsonable(),
            "rhs": self.rhs.to_string(),
        }


def _solve_bits(rows: Sequence[int], rhs_bits: Sequence[int], ncols: int) -> Coset | None:
    aug = [row | (rb << ncols) for row, rb in zip(rows, rhs_bits)]
    red, pivots = _rref_bits(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    mask = (1 << ncols) - 1
    cons = [r & mask for r in red]
    rhs = 0
    for i, r in enumerate(red):
        rhs |= (r >> ncols) << i
    return Coset(ncols, Gf2Matrix.from_bits(cons, ncols), Gf2Vector(len(cons), rhs))


def solve(c: Gf2Matrix, r: Gf2Vector) -> Coset | None:
    """Canonical coset {x : c x = r}, or None when inconsistent."""
    if r.width != c.nrows:
        raise DimensionError(f"rhs width {r.width} != nrows {c.nrows}")
    rhs_bits = [(r.bits >> i) & 1 for i in range(c.nrows)]
    return _solve_bits(c.row_bits, rhs_bits, c.ncols)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def subspace_count(n: int, dim: int) -> int:
    """Gaussian binomial: number of dim-dimensional subspaces of {0,1}^n."""
    if not 0 <= dim <= n:
        return 0
    num = den = 1
    for i in range(dim):
        num *= (1 << n) - (1 << i)
        den *= (1 << dim) - (1 << i)
    return num // den


def gl_order(n: int) -> int:
    """Number of invertible n x n matrices: prod_{i<n} (2^n - 2^i)."""
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


def _subspace_rows(n: int, dim: int) -> Iterator[np.ndarray]:
    """The RREF basis rows of every dim-dimensional subspace of {0,1}^n,
    each exactly once: pivot patterns in lexicographic order, then the
    free entries of the basis in binary-counter order (the first row's
    entries lowest).  They come in (k, dim) blocks of at most
    _chunk_size(n) subspaces, none crossing a pivot pattern."""
    if not 0 <= dim <= n:
        raise DimensionError(f"dim {dim} outside 0..{n}")
    if n > SUBSPACE_ENUM_MAX:
        raise BudgetExceededError(f"subspace enumeration limited to n <= {SUBSPACE_ENUM_MAX}, got {n}")
    dtype = np.min_scalar_type((1 << n) - 1)
    size = _chunk_size(n)
    for pivots in itertools.combinations(range(n), dim):
        pivset = set(pivots)
        # row i's choices in counter order over its free entries; frame t takes
        # row i's choice at digit i of t in the counts' mixed radix, digit 0
        # lowest (unravel_index's last axis); dim = 0 gives one empty frame
        choices = [
            (1 << p) ^ np.array(_span_order([1 << j for j in range(p + 1, n) if j not in pivset]), dtype=dtype)
            for p in pivots
        ]
        counts = [len(c) for c in choices]
        total = math.prod(counts)
        for lo in range(0, total, size):
            digits = np.unravel_index(np.arange(lo, min(lo + size, total)), counts[::-1] or [1])
            block = np.empty((len(digits[0]), dim), dtype=dtype)
            for i, (c, d) in enumerate(zip(choices, digits[::-1])):
                block[:, i] = c[d]
            yield block


def _bases(n: int, increasing: bool = False) -> Iterator[np.ndarray]:
    """The rows of every invertible n x n matrix in lexicographic order,
    or with ``increasing`` every unordered basis of {0,1}^n as its
    increasing rows, in (k, n) uint8 blocks: one block per choice of the
    rows before the last three.  Each row runs over the vectors outside
    the span of the rows before it (and above the last one)."""
    top = np.arange(1 << n)

    def grow(rows: np.ndarray, levels: int) -> np.ndarray:
        # every prefix in ``rows`` by every next row, prefixes outermost
        for _ in range(levels):
            free = np.ones((len(rows), len(top)), dtype=bool)
            free[np.arange(len(rows))[:, None], _spans(rows)] = False
            if increasing and rows.shape[1]:
                free &= top > rows[:, -1:]
            i, v = np.nonzero(free)
            rows = np.concatenate([rows[i], v[:, None].astype(np.uint8)], axis=1)
        return rows

    fixed = max(0, n - 3)
    for prefix in grow(np.zeros((1, 0), dtype=np.uint8), fixed):
        yield grow(prefix[None], n - fixed)


def _require_gl_enum(n: int) -> None:
    """Refuse n outside 0..MAX_WIDTH, and past GL_ENUM_MAX."""
    if not 0 <= n <= MAX_WIDTH:
        raise DimensionError(f"n {n} outside 0..{MAX_WIDTH}")
    if n > GL_ENUM_MAX:
        raise BudgetExceededError(f"full GL enumeration limited to n <= {GL_ENUM_MAX}, got {n}; use sample_gl")


def enumerate_gl(n: int) -> Iterator[Gf2Matrix]:
    """All invertible n x n matrices, row tuples in lexicographic order."""
    _require_gl_enum(n)
    for block in _bases(n):
        for rows in block.tolist():
            yield Gf2Matrix.from_bits(rows, n)


@lru_cache(maxsize=GL_ENUM_MAX + 1)
def _gl_classes(n: int) -> np.ndarray:
    """One invertible matrix per set of n independent columns, as (k, n)
    uint8 rows in lexicographic order, read-only: the least matrix with
    those columns, which orders them by (B[0, j], B[1, j], ...)
    descending.  |GL(n)|/n! of them: 840 at n = 4, 83,328 at n = 5.

    Each unordered basis of _bases is read as B's columns.  rev[c] reads
    a column from B[0, j] down, so descending rev is the least order; rev
    is its own inverse."""
    _require_gl_enum(n)
    rev = _spans(np.array([[1 << (n - 1 - i) for i in range(n)]], dtype=np.uint8))[0]
    # a column block's transpose is its rows: _columns of B^T's rows
    rows = np.concatenate(
        [_columns(rev[np.sort(rev[block], axis=1)[:, ::-1]], n) for block in _bases(n, increasing=True)]
    )
    key = rows @ (1 << n * np.arange(n - 1, -1, -1))  # row 0 weighs most
    out = rows[np.argsort(key)]
    out.setflags(write=False)
    return out


def _sample_gl_rows(n: int, count: int, seed: int) -> np.ndarray:
    """The rows of ``count`` seeded invertible matrices (rejection from
    uniform), as one (count, n) array."""
    if not 0 <= n <= MAX_WIDTH:
        raise DimensionError(f"n {n} outside 0..{MAX_WIDTH}")
    rnd = random.Random(seed)
    draws: list[list[int]] = []
    while len(draws) < count:
        rows = [rnd.getrandbits(n) for _ in range(n)]
        if len(_rref_bits(rows, n)[0]) == n:
            draws.append(rows)
    return np.array(draws, dtype=np.min_scalar_type((1 << n) - 1)).reshape(len(draws), n)


def sample_gl(n: int, count: int, seed: int) -> list[Gf2Matrix]:
    """Seeded sample of invertible matrices (rejection from uniform)."""
    return [Gf2Matrix.from_bits(rows, n) for rows in _sample_gl_rows(n, count, seed).tolist()]
