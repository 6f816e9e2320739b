"""Classical complexity measures of total Boolean functions: decision
tree depth, certificate complexity, block sensitivity, and their
minima over invertible changes of basis.

All searches are exhaustive within the documented arity budgets and
return deterministic witnesses (first hit in a fixed scan order).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import budget
from .boolfn import BooleanFunction, _gather_all, _low_mask, _table_bits, _table_xor_translate
from .errors import BudgetExceededError, DimensionError, DomainError
from .gf2 import Gf2Matrix, Gf2Vector, _gl_classes, _images, _row_chunks, _sample_gl_rows, _span_order

__all__ = [
    "DecisionLeaf",
    "DecisionNode",
    "DecisionTree",
    "ClassicalCertificate",
    "BlockFamily",
    "decision_depth",
    "certificate_complexity",
    "certificate_profile",
    "maximizing_input",
    "c0",
    "c1",
    "c",
    "block_sensitivity",
    "bs",
    "symmetrized",
    "sampled_symmetrized",
]


@dataclass(frozen=True)
class DecisionLeaf:
    value: int


@dataclass(frozen=True)
class DecisionNode:
    """Internal node querying variable x_var (1-based); low/high are the
    subtrees for answers 0/1."""

    var: int
    low: "DecisionTree"
    high: "DecisionTree"


DecisionTree = DecisionLeaf | DecisionNode


def tree_depth(t: DecisionTree) -> int:
    if isinstance(t, DecisionLeaf):
        return 0
    return 1 + max(tree_depth(t.low), tree_depth(t.high))


def tree_eval(t: DecisionTree, idx: int) -> int:
    while isinstance(t, DecisionNode):
        t = t.high if (idx >> (t.var - 1)) & 1 else t.low
    return t.value


def tree_jsonable(t: DecisionTree) -> dict:
    if isinstance(t, DecisionLeaf):
        return {"leaf": t.value}
    return {"var": t.var, "0": tree_jsonable(t.low), "1": tree_jsonable(t.high)}


@dataclass(frozen=True)
class ClassicalCertificate:
    """A partial assignment: variables ``indices`` (1-based, increasing)
    pinned to ``values``; every completion gets the same function value."""

    indices: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.values):
            raise DimensionError("indices/values length mismatch")
        if list(self.indices) != sorted(set(self.indices)):
            raise DimensionError("indices must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.indices)

    def to_jsonable(self) -> dict:
        return {"indices": list(self.indices), "values": list(self.values)}


@dataclass(frozen=True)
class BlockFamily:
    """Disjoint sensitive blocks at an anchor input, 1-based indices."""

    anchor: Gf2Vector
    blocks: tuple[tuple[int, ...], ...]

    def to_jsonable(self) -> dict:
        return {"anchor": self.anchor.to_string(), "blocks": [list(b) for b in self.blocks]}


# ---------------------------------------------------------------------------
# decision tree depth
# ---------------------------------------------------------------------------

def decision_depth(f: BooleanFunction) -> tuple[int, DecisionTree]:
    """Exact deterministic decision tree depth with an optimal tree.

    levels[d][M] holds the inputs x whose subcube along the free
    coordinates M some tree of depth <= d decides.  Level 0 is the
    constant-subcube pass; level d adds x when some i in M leaves both
    halves, through x and x ^ e_i, in level d - 1.  A node queries the
    first such i, so ties break toward the smallest index.
    """
    n = f.arity
    budget.require("decision_depth", n, "decision_depth limited to arity")
    t = f.table
    full = (1 << n) - 1
    steps = [(1 << i, _low_mask(n, i)) for i in range(n)]
    levels = [_constant_subcubes(n, t)]
    while not levels[-1][full] & 1:
        prev, level = levels[-1], list(levels[-1])
        for mask in range(1, full + 1):
            for b, lo in steps:
                if mask & b:
                    half = prev[mask ^ b]
                    p = half & (half >> b) & lo
                    level[mask] |= p | (p << b)
        levels.append(level)

    def build(mask: int, x: int) -> DecisionTree:
        # x is the subcube's member whose free coordinates are 0
        d = next(d for d, level in enumerate(levels) if (level[mask] >> x) & 1)
        if d == 0:
            return DecisionLeaf((t >> x) & 1)
        for i in range(n):
            b = 1 << i
            half = levels[d - 1][mask & ~b]
            if mask & b and half >> x & 1 and half >> (x | b) & 1:
                return DecisionNode(i + 1, build(mask ^ b, x), build(mask ^ b, x | b))
        raise AssertionError("unreachable: level d holds x through some coordinate")

    return len(levels) - 1, build(full, 0)


# ---------------------------------------------------------------------------
# certificate complexity
# ---------------------------------------------------------------------------

def certificate_complexity(f: BooleanFunction, x: Gf2Vector) -> tuple[int, ClassicalCertificate]:
    """Smallest set of variables whose values at x force f's value.

    Scans subsets by size then lexicographically; the first success is
    the witness.
    """
    n = f.arity
    budget.require("certificate", n, "certificate_complexity limited to arity")
    if x.width != n:
        raise DimensionError("input width mismatch")
    const = _constant_subcubes(n, f.table)
    xb = x.bits
    full = (1 << n) - 1
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            if (const[full & ~sum(1 << j for j in combo)] >> xb) & 1:
                return k, ClassicalCertificate(tuple(j + 1 for j in combo), tuple((xb >> j) & 1 for j in combo))
    raise AssertionError("unreachable: the full assignment always certifies")


@lru_cache(maxsize=8)
def _constant_subcubes(n: int, table: int) -> tuple[int, ...]:
    """For every set M of free coordinates, the inputs x (as a 2^n-bit
    set) at which the table is constant on x + span{e_j : j in M}.

    With b in M and P = M - {b}, that subcube is x's subcube along P and
    x ^ e_b's, so f is constant on it when it is on both halves and
    f(x) = f(x ^ e_b).  Decision depth, the certificate profile and every
    certificate witness of one table read one such pass.
    """
    full = (1 << (1 << n)) - 1
    # agree[b]: the inputs x with f(x) = f(x ^ e_b)
    agree = [full ^ table ^ _table_xor_translate(table, n, 1 << b) for b in range(n)]
    out = [full] * (1 << n)
    for mask in range(1, 1 << n):
        b = (mask & -mask).bit_length() - 1
        parent = out[mask & (mask - 1)]
        out[mask] = parent & _table_xor_translate(parent, n, 1 << b) & agree[b]
    return tuple(out)


@lru_cache(maxsize=4096)
def _certificate_profile(n: int, table: int) -> bytes:
    """Per-input certificate size, all inputs at once: n less the most
    free coordinates of a constant subcube through the input."""
    const = _constant_subcubes(n, table)
    out = bytearray(1 << n)
    remaining = const[0]  # every input
    for mask in sorted(range(1 << n), key=int.bit_count, reverse=True):
        new = const[mask] & remaining
        remaining ^= new
        while new:
            low = new & -new
            out[low.bit_length() - 1] = n - mask.bit_count()
            new ^= low
    return bytes(out)


def certificate_profile(f: BooleanFunction) -> bytes:
    """Certificate size at every input, indexed by packed input."""
    budget.require("certificate", f.arity, "certificate aggregates limited to arity")
    return _certificate_profile(f.arity, f.table)


def maximizing_input(profile: bytes, table: int, value: int | None = None) -> int | None:
    """The first input where ``profile`` is largest among the inputs at
    which ``table`` takes ``value`` (all inputs when None); None if no
    input qualifies."""
    best, arg = -1, None
    for idx, sz in enumerate(profile):
        if sz > best and (value is None or ((table >> idx) & 1) == value):
            best, arg = sz, idx
    return arg


def _aggregate(profile: bytes, table: int, value: int) -> int | None:
    x = maximizing_input(profile, table, value)
    return None if x is None else profile[x]


def c0(f: BooleanFunction) -> int | None:
    """Max certificate size over 0-inputs; None when f has no 0-input."""
    return _aggregate(certificate_profile(f), f.table, 0)


def c1(f: BooleanFunction) -> int | None:
    return _aggregate(certificate_profile(f), f.table, 1)


def c(f: BooleanFunction) -> int:
    """Certificate complexity: max over all inputs (0 for constants)."""
    return max(certificate_profile(f))


# ---------------------------------------------------------------------------
# block sensitivity
# ---------------------------------------------------------------------------

# a 2^m-bit code of dimension m <= DENSE_MAX_DIM fits a uint16, so it can
# index a table of all codes: every block bitmap of that dimension reads
# its packing from one, and (in parity) every table its depth and
# certificate profile, each built on first use
DENSE_MAX_DIM = 4


def _packing_dp(m: int, marks: np.ndarray) -> np.ndarray:
    """Largest packings of disjoint marked blocks, at every level.

    ``marks[..., blk]`` says whether the block mask blk (a set of the m
    coordinates) is marked; dp[mask] is the largest number of disjoint
    marked blocks inside mask, elementwise over the leading axes.  Either
    mask's lowest coordinate is left out, or one marked block covers it.
    """
    marks = np.ascontiguousarray(np.moveaxis(marks, -1, 0))
    dp = np.zeros(marks.shape, dtype=np.int8)
    for mask in range(1, 1 << m):
        ib = mask & -mask
        rest = mask ^ ib
        best = dp[mask, ...]
        best[...] = dp[rest]
        sub = rest
        while True:
            blk = sub | ib
            np.maximum(best, dp[mask ^ blk] + 1, out=best, where=marks[blk, ...])
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return dp


def _code_marks(m: int, codes: np.ndarray) -> np.ndarray:
    """marks[i, j] = bit j of codes[i], for the 2^m bits of a dimension-m
    code (a block bitmap, whose bit blk marks block mask blk, or a table);
    unpacked mask-major, the layout _packing_dp reads."""
    # by the item size, so an empty array keeps its byte columns
    raw = codes.astype(codes.dtype.newbyteorder("<")).view(np.uint8).reshape(len(codes), codes.itemsize)
    return np.unpackbits(raw.T, axis=0, count=1 << m, bitorder="little").view(bool).T


def _sublattice(mask: int) -> list[int]:
    """The block masks inside ``mask``, in the subset-counter order of its
    coordinates: bit j of a code over them is bit _sublattice(mask)[j] of
    the code over every block mask."""
    return _span_order([1 << i for i in range(mask.bit_length()) if (mask >> i) & 1])


@lru_cache(maxsize=DENSE_MAX_DIM + 1)
def _packing_table(m: int) -> np.ndarray:
    """The packing value of every bitmap over the 2^m block masks (64 KiB
    of int8 at m = 4), built on first use from the smaller tables, as
    _packing_dp's last level: coordinate 0 is either left out, or covered
    by one marked block blk, which leaves the coordinates outside blk."""
    if not 0 <= m <= DENSE_MAX_DIM:
        raise BudgetExceededError(f"packing table limited to dimension <= {DENSE_MAX_DIM}, got {m}")
    if m == 0:
        out = np.zeros(2, dtype=np.int8)
    else:
        full = (1 << m) - 1
        # indexing with the uint16 gathers casts them in small buffers,
        # where take would cast all of them to intp at once
        out = _packing_table(m - 1)[_gather_all(m, _sublattice(full ^ 1))]
        for blk in range(1, full + 1, 2):
            rest = full ^ blk
            # the codes that mark blk are those with bit blk set
            marked = out.reshape(-1, 2, 1 << blk)[:, 1]
            idx = _gather_all(m, _sublattice(rest)).reshape(-1, 2, 1 << blk)[:, 1]
            np.maximum(marked, _packing_table(rest.bit_count())[idx] + 1, out=marked)
    out.setflags(write=False)
    return out


def _bs_scan(n: int, table: int) -> tuple[int, int, np.ndarray | None]:
    """(bs, the first input reaching it, and past DENSE_MAX_DIM that
    input's packing DP levels): the packing of every input's sensitive
    blocks at once."""
    pts = np.arange(1 << n)
    near = _table_bits(n, table)[pts[:, None] ^ pts]  # near[x, v] = f(x ^ v)
    marks = near != near[:, :1]
    if n <= DENSE_MAX_DIM:
        vals, dp = _packing_table(n)[marks @ (1 << pts)], None
    else:
        dp = _packing_dp(n, marks)
        vals = dp[-1]
    x = int(vals.argmax())
    return int(vals[x]), x, None if dp is None else dp[:, x]


def _packing_blocks(n: int, marks: list[bool], dp: list[int]) -> list[int]:
    """One maximum packing, deterministically (skip-lowest first, then
    blocks in submask-descending order, matching the DP scan)."""
    blocks = []
    mask = (1 << n) - 1
    while mask:
        ib = mask & -mask
        if dp[mask ^ ib] == dp[mask]:
            mask ^= ib
            continue
        rest = mask ^ ib
        sub = rest
        while True:
            blk = sub | ib
            if marks[blk] and 1 + dp[mask ^ blk] == dp[mask]:
                blocks.append(blk)
                mask ^= blk
                break
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return blocks


def block_sensitivity(f: BooleanFunction, x: Gf2Vector | None) -> tuple[int, BlockFamily]:
    """Largest family of disjoint blocks each of which flips f at x; with
    x None, at the first input where that family is largest, so the value
    is bs(f)."""
    n = f.arity
    budget.require("block_sensitivity", n, "block_sensitivity limited to arity")
    dp = None
    if x is None:
        _, xb, dp = _bs_scan(n, f.table)
        x = Gf2Vector(n, xb)
    elif x.width != n:
        raise DimensionError("input width mismatch")
    near = _table_bits(n, f.table)[x.bits ^ np.arange(1 << n)]  # near[v] = f(x ^ v)
    marks = near != near[0]
    dp = (_packing_dp(n, marks) if dp is None else dp).tolist()
    blocks = _packing_blocks(n, marks.tolist(), dp)
    fam = BlockFamily(
        anchor=x,
        blocks=tuple(tuple(j + 1 for j in range(n) if (b >> j) & 1) for b in blocks),
    )
    return dp[-1], fam


def bs(f: BooleanFunction) -> int:
    """Block sensitivity: max over inputs."""
    n = f.arity
    budget.require("block_sensitivity", n, "bs limited to arity")
    return _bs_scan(n, f.table)[0]


# ---------------------------------------------------------------------------
# minima over invertible changes of basis
# ---------------------------------------------------------------------------

# each measure's function, its Budget field, and the refusal it gives past it
_MEASURES = {
    "d": (lambda g: decision_depth(g)[0], "decision_depth", "decision_depth limited to arity"),
    "c": (c, "certificate", "certificate aggregates limited to arity"),
    "bs": (bs, "block_sensitivity", "bs limited to arity"),
}


def _distinct_tables(bits: np.ndarray, idx: np.ndarray) -> tuple[list[int], np.ndarray]:
    """(tables, inverse): the table whose bit j is bits[idx[i, j]] is
    tables[inverse[i]], each distinct table listed once, in increasing
    order of its packed bytes.  With one table per row of ``bits``, the
    gathers of every row are deduped together, and inverse[r * len(idx)
    + i] names row r's table at idx[i]."""
    gathered = bits[..., idx].reshape(-1, idx.shape[1])
    packed = np.ascontiguousarray(np.packbits(gathered, axis=1, bitorder="little"))
    # as one void item each, rows sort as with axis=0, about 3x faster
    distinct, inverse = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), return_inverse=True)
    return [int.from_bytes(t.tobytes(), "little") for t in distinct], inverse


def _best_over(
    bits: np.ndarray,
    groups: Iterable[tuple[int, Sequence, np.ndarray]],
    measure: Callable[[int, list[int]], Sequence[int]],
    top: int,
) -> tuple[np.ndarray, list]:
    """For each table (a row of ``bits``, all of one arity), the largest
    measure over the tables t read at the point lists of ``groups``, with
    the label of the first point list reaching it.  A group (dim, labels,
    idx) reads a table of dimension dim at each row of idx, labelled by
    labels[i].  measure(dim, tables) gives the value of each table of a
    list; each distinct (dim, t) is measured once, in one call for all
    the new tables of a group, and no group is read once every table has
    reached ``top``."""
    best = np.full(len(bits), np.iinfo(np.int64).min)
    witness: list = [None] * len(bits)
    seen: dict[tuple[int, int], int] = {}
    for dim, labels, idx in groups:
        tables, inverse = _distinct_tables(bits, idx)
        new = [t for t in tables if (dim, t) not in seen]
        if new:
            seen.update(zip([(dim, t) for t in new], measure(dim, new)))
        vals = np.array([seen[dim, t] for t in tables])[inverse].reshape(len(bits), len(idx))
        first = vals.argmax(axis=1)
        for r in np.flatnonzero(vals.max(axis=1) > best).tolist():
            best[r], witness[r] = vals[r, first[r]], labels[first[r]]
        if (best >= top).all():
            break
    return best, witness


def _min_over(measure: str, f: BooleanFunction, chunks: Iterable[np.ndarray]) -> tuple[int, Gf2Matrix]:
    """The least measure of x -> f(Bx) over B in ``chunks``, with the first
    B reaching it."""
    n, fn = f.arity, _MEASURES[measure][0]
    best, witness = _best_over(
        _table_bits(n, f.table)[None],
        ((n, rows, _images(rows, n)) for rows in chunks),
        lambda dim, tables: [-fn(BooleanFunction(dim, t)) for t in tables],
        0,
    )
    return -int(best[0]), Gf2Matrix.from_bits([int(r) for r in witness[0]], n)


def symmetrized(measure: str, f: BooleanFunction) -> tuple[int, Gf2Matrix]:
    """min over invertible B of measure(x -> f(Bx)), with the
    lexicographically least minimizing B.

    Permuting B's columns permutes the inputs of x -> f(Bx), which leaves
    each measure as it is, so one B per set of columns is read: the least
    of its set, in lexicographic order.  Exact for arity <= 4.
    """
    n = f.arity
    if measure not in _MEASURES:
        raise DomainError(f"unknown measure {measure!r}; expected one of {sorted(_MEASURES)}")
    budget.require("symmetrized", n, "symmetrized limited to arity", "; use sampled_symmetrized")
    return _min_over(measure, f, _row_chunks(_gl_classes(n), n))


def sampled_symmetrized(measure: str, f: BooleanFunction, samples: int, seed: int) -> tuple[int, Gf2Matrix]:
    """Seeded sampled variant over the identity and ``samples`` seeded
    invertible matrices; the returned value is only an upper bound."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    n = f.arity
    if measure not in _MEASURES:
        raise DomainError(f"unknown measure {measure!r}; expected one of {sorted(_MEASURES)}")
    # refuse before the gather, as measuring the first table would
    _, cap, what = _MEASURES[measure]
    budget.require(cap, n, what)
    sample = _sample_gl_rows(n, samples, seed)
    rows = np.vstack([1 << np.arange(n, dtype=sample.dtype), sample])
    return _min_over(measure, f, _row_chunks(rows, n))
