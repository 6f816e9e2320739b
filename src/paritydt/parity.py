"""Parity analogues of the classical measures: certificates that are
cosets, decision trees that query parities, and block sensitivity
minimized over changes of basis.

Functions restricted to a coset are measured through their local
re-indexing (see boolfn.RestrictedFunction); every search is
deterministic, scanning codimension (or depth) outward and canonical
enumeration order within, so witnesses are reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import budget
from .boolfn import (
    BooleanFunction,
    RestrictedFunction,
    _gather,
    _gather_all,
    _table_bits,
    _table_xor_translate,
    as_restricted,
    local_point,
)
from .classical import DENSE_MAX_DIM, _aggregate, _best_over, _code_marks, _packing_dp, _packing_table
from .errors import BudgetExceededError, DimensionError, DomainError
from .gf2 import (
    Coset,
    Gf2Matrix,
    Gf2Vector,
    _bases,
    _images,
    _kernel_bits,
    _rref_bits,
    _row_chunks,
    _sample_gl_rows,
    _solve_bits,
    _span_order,
    _spans,
    _subspace_rows,
    parity,
)

__all__ = [
    "ParityCertificate",
    "ParityLeaf",
    "ParityQuery",
    "ParityDecisionTree",
    "MeasureValue",
    "parity_certificate",
    "cxor_profile",
    "c0_xor",
    "c1_xor",
    "c_xor",
    "parity_depth",
    "d_xor",
    "pdt_depth",
    "pdt_eval",
    "pdt_leaf_cosets",
    "pdt_jsonable",
    "weak_parity_bs",
    "sampled_weak_parity_bs",
    "wbs_xor",
    "parity_bs",
    "sampled_parity_bs",
]


@dataclass(frozen=True)
class ParityCertificate:
    """A coset on which the function is constant; size = codimension."""

    coset: Coset
    value: int

    @property
    def size(self) -> int:
        return self.coset.codim

    def to_jsonable(self) -> dict:
        return {"coset": self.coset.to_jsonable(), "value": self.value}


@dataclass(frozen=True)
class ParityLeaf:
    value: int


@dataclass(frozen=True)
class ParityQuery:
    """Internal node querying <x, query>; child0/child1 follow the answer."""

    query: Gf2Vector
    child0: "ParityDecisionTree"
    child1: "ParityDecisionTree"


ParityDecisionTree = ParityLeaf | ParityQuery


def pdt_depth(t: ParityDecisionTree) -> int:
    if isinstance(t, ParityLeaf):
        return 0
    return 1 + max(pdt_depth(t.child0), pdt_depth(t.child1))


def pdt_eval(t: ParityDecisionTree, xb: int) -> int:
    while isinstance(t, ParityQuery):
        t = t.child1 if parity(t.query.bits & xb) else t.child0
    return t.value


def pdt_leaf_cosets(t: ParityDecisionTree, domain: Coset) -> list[tuple[Coset, int]]:
    """(leaf coset, leaf value) pairs; raises if a path repeats a query
    class or an intersection turns empty."""
    out: list[tuple[Coset, int]] = []

    def walk(node: ParityDecisionTree, cur: Coset):
        if isinstance(node, ParityLeaf):
            out.append((cur, node.value))
            return
        for b, child in ((0, node.child0), (1, node.child1)):
            nxt = cur.with_constraint(node.query, b)
            if nxt is None:
                raise DomainError("tree branch is inconsistent with its path")
            if nxt.codim != cur.codim + 1:
                raise DomainError("tree query is dependent on its path")
            walk(child, nxt)

    walk(t, domain)
    return out


def pdt_jsonable(t: ParityDecisionTree) -> dict:
    if isinstance(t, ParityLeaf):
        return {"leaf": t.value}
    return {"query": t.query.to_string(), "0": pdt_jsonable(t.child0), "1": pdt_jsonable(t.child1)}


@dataclass
class MeasureValue:
    """One measured quantity: value, exactness, optional witness/note."""

    value: int | None
    exact: bool = True
    witness: object = None
    note: str | None = None

    def to_jsonable(self) -> dict:
        out: dict = {"value": self.value, "exact": self.exact}
        if self.witness is not None:
            w = self.witness
            out["witness"] = w.to_jsonable() if hasattr(w, "to_jsonable") else w
        if self.note is not None:
            out["note"] = self.note
        return out


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def _localize(f: BooleanFunction | RestrictedFunction) -> RestrictedFunction:
    if isinstance(f, BooleanFunction):
        return as_restricted(f)
    if isinstance(f, RestrictedFunction):
        return f
    raise DimensionError(f"expected a BooleanFunction or RestrictedFunction, got {type(f).__name__}")


# ---------------------------------------------------------------------------
# parity certificates
# ---------------------------------------------------------------------------

# the dual bases and class keys of every frame up to this dimension are
# kept, one pair of read-only arrays per (m, k): 28 pairs, with 2,825
# frames and 180 KiB of keys at m = 6; larger dimensions are streamed
FRAME_CACHE_MAX_DIM = 6


@lru_cache(maxsize=32)
def _frame_keys(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.concatenate(list(_subspace_rows(m, k)))
    key = _images(rows, m)
    rows.setflags(write=False)
    key.setflags(write=False)
    return rows, key


def _coset_classes(
    m: int, tables: Sequence[int], k: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every codimension-k frame's cosets with each table's 1-input counts,
    per chunk of at most _chunk_size(m) dual bases W (rows) in
    _subspace_rows order: (rows, key, count), where key[i, y] = W_i y
    names y's coset of ker W_i (bit j is <w_j, y>) and count[t, i, c] is
    the number of 1-inputs of tables[t] in class c.  A class is constant
    when its count is 0 or 2^(m-k); no direction basis is built."""
    if m > FRAME_CACHE_MAX_DIM:
        chunks = ((rows, _images(rows, m)) for rows in _subspace_rows(m, k))
    else:
        # slices of the kept arrays
        chunks = zip(*(_row_chunks(a, m) for a in _frame_keys(m, k)))
    # every 1-input of every table, as (table, input) pairs; a chunk, like a
    # _subspace_rows block, holds at most _chunk_size(m) frames, so its class
    # indices stay below len(tables) << 15: int32 holds them for < 2^16 tables
    owner, ones = np.nonzero(np.array([_table_bits(m, t) for t in tables]))
    owner = owner.astype(np.int32)
    for rows, key in chunks:
        frames = len(rows)
        cls = key[:, ones] + (np.arange(frames, dtype=np.int32)[:, None] << k)
        cls += (owner * frames) << k
        count = np.bincount(cls.ravel(), minlength=(len(tables) * frames) << k)
        yield rows, key, count.reshape(len(tables), frames, 1 << k)


def _cxor_stack(m: int, tables: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Smallest certifying codimension k = profile[t, y] of every local
    input y of each table, with its witness rows[t, y, :k] (rows[t, y, k:]
    are 0): the dual rows of the first frame, in _subspace_rows order,
    whose coset through y is constant.

    Codimension by codimension, mark the inputs whose coset in some frame
    is constant; the point cosets at k = m cover the rest.
    """
    size = 1 << m
    out = np.full((len(tables), size), m, dtype=np.uint8)
    wit = np.zeros((len(tables), size, m), dtype=np.min_scalar_type(size - 1))
    remaining = np.ones((len(tables), size), dtype=bool)
    chunks = ((k, chunk) for k in range(m) for chunk in _coset_classes(m, tables, k))
    for k, (rows, key, count) in chunks:
        const = (count == 0) | (count == size >> k)
        # hit[t, i, y]: y's coset in frame i is constant in table t
        hit = const[:, np.arange(len(rows))[:, None], key]
        new = hit.any(axis=1) & remaining
        out[new] = k
        # no earlier frame covers the new inputs, so their first hit in
        # this chunk is their first certifying frame
        wit[new, :k] = rows[hit.transpose(0, 2, 1)[new].argmax(axis=1)]
        remaining &= ~new
        if not remaining.any():
            break
    wit[remaining] = 1 << np.arange(m)
    return out, wit


# an entry holds its witness rows: about 21 KB at m = 10
@lru_cache(maxsize=256)
def _cxor_scan(m: int, table: int) -> tuple[bytes, np.ndarray]:
    """_cxor_stack of one table: (profile, read-only witness rows)."""
    profile, wit = _cxor_stack(m, (table,))
    wit.setflags(write=False)
    return profile[0].tobytes(), wit[0]


def _cxor_profile(m: int, table: int) -> bytes:
    """_cxor_scan's profile, read from the dense cover masks up to
    DENSE_MAX_DIM: the certifying codimension of an input is the number
    of masks that leave it clear."""
    if m > DENSE_MAX_DIM:
        return _cxor_scan(m, table)[0]
    covered = _code_marks(m, _dense_cover(m)[:, table])
    return (m - covered.sum(axis=0, dtype=np.uint8)).tobytes()


# tables per chunk of the _dense_cover build: its 2^m derivative arrays
# hold 512 KiB at m = 4
_COVER_CHUNK = 1 << 14


@lru_cache(maxsize=DENSE_MAX_DIM + 1)
def _dense_cover(m: int) -> np.ndarray:
    """Bit x of cover[k, t] is set when table t of dimension m is constant
    on some coset through x of codimension <= k, for k < m (every point
    coset is constant, so codimension m covers all): one uint16 mask per
    (k, t), 512 KiB at m = 4.

    f is constant on x + V exactly when its derivative f(x) ^ f(x ^ v)
    is 0 at x for every v in V, so each direction space's constancy mask
    is the complement of the OR of its members' derivatives.  A constant
    coset holds constant cosets of every larger codimension through each
    of its points, so the spaces of codimension exactly k suffice."""
    full = (1 << (1 << m)) - 1
    ntables = full + 1
    cover = np.zeros((m, ntables), dtype=np.uint16)
    spaces = [_spans(np.concatenate(list(_subspace_rows(m, m - k))))[:, 1:].tolist() for k in range(m)]
    for lo in range(0, ntables, _COVER_CHUNK):
        tables = np.arange(lo, min(lo + _COVER_CHUNK, ntables), dtype=np.uint16)
        moved = [tables ^ _table_xor_translate(tables, m, v) for v in range(1 << m)]
        d = np.empty_like(tables)
        for k in range(m):
            mask = cover[k, lo:lo + len(tables)]
            for first, *rest in spaces[k]:
                np.copyto(d, moved[first])
                for v in rest:
                    d |= moved[v]
                mask |= ~d
            mask &= full
    cover.setflags(write=False)
    return cover


def _dense_measures(m: int, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(D⊕, C0⊕, C1⊕, C⊕) of every table in a uint16 array of dimension-m
    codes, read from the dense tables; C0⊕ (C1⊕) is 0 for a table with no
    0-input (1-input)."""
    d = _dense_depth(m)[0][tables]
    # row k: the inputs no coset of codimension <= k certifies; C⊕ is the
    # number of rows with such an input
    unc = ~_dense_cover(m)[:, tables] & ((1 << (1 << m)) - 1)
    return (d, np.count_nonzero(unc & ~tables, axis=0), np.count_nonzero(unc & tables, axis=0),
            np.count_nonzero(unc, axis=0))


def parity_certificate(
    f: BooleanFunction | RestrictedFunction, x: Gf2Vector
) -> tuple[int, ParityCertificate]:
    """Smallest-codimension coset through x on which f is constant.

    The size and the witness frame are _cxor_scan's; the witness is
    expressed as an ambient coset whose codimension equals the size.
    """
    rf = _localize(f)
    budget.require("parity_certificate", rf.ambient.ncols, "parity_certificate limited to ambient arity")
    y = local_point(rf, x)
    profile, wit = _cxor_scan(rf.local.arity, rf.local.table)
    k = profile[y]
    # the lifted coset passes through x, so x fixes each rhs
    cons = [rf.lift_form(w)[0] for w in wit[y, :k].tolist()]
    coset = _solve_bits(cons, [parity(c & x.bits) for c in cons], rf.ambient.ncols)
    assert coset is not None and coset.codim == k, "lifted constraints stay independent"
    return k, ParityCertificate(coset, (rf.local.table >> y) & 1)


def cxor_profile(f: BooleanFunction | RestrictedFunction) -> bytes:
    """Parity certificate size at every input, indexed by packed local
    point (the ambient input for a BooleanFunction)."""
    rf = _localize(f)
    budget.require("parity_certificate", rf.ambient.ncols, "parity certificate aggregates limited to ambient arity")
    return _cxor_profile(rf.local.arity, rf.local.table)


def c0_xor(f: BooleanFunction | RestrictedFunction) -> int | None:
    """Max parity certificate size over 0-inputs; None if f has none."""
    rf = _localize(f)
    return _aggregate(cxor_profile(rf), rf.local.table, 0)


def c1_xor(f: BooleanFunction | RestrictedFunction) -> int | None:
    rf = _localize(f)
    return _aggregate(cxor_profile(rf), rf.local.table, 1)


def c_xor(f: BooleanFunction | RestrictedFunction) -> int:
    """Parity certificate complexity (0 for constants)."""
    return max(cxor_profile(f))


# ---------------------------------------------------------------------------
# parity decision tree depth
# ---------------------------------------------------------------------------

# every (m, w) up to m = 10: 2,046 keys
@lru_cache(maxsize=1 << 11)
def _split_frames(m: int, w: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(gather indices for answer 0, for answer 1) of the two
    restrictions along query w, in canonical frames."""
    vrows = _kernel_bits([w], m)
    pts = _span_order(vrows)
    off1 = 1 << ((w & -w).bit_length() - 1)
    idx0 = tuple(pts)
    idx1 = tuple(off1 ^ p for p in pts)
    return idx0, idx1


@lru_cache(maxsize=DENSE_MAX_DIM + 1)
def _dense_depth(m: int) -> tuple[np.ndarray, np.ndarray]:
    """_dxor of every table of dimension m, as an int8 depth and a uint8
    first optimal query (0 for constants), 64 KiB each at m = 4: a DP
    over both halves of every table along each query, keeping the first
    minimising query, which is where the search below stops."""
    size = 1 << (1 << m)
    # above any depth, but for the two constants
    depth = np.full(size, m + 1, dtype=np.int8)
    depth[[0, -1]] = 0
    query = np.zeros(size, dtype=np.uint8)
    if m:
        sub = _dense_depth(m - 1)[0]
        for w in range(1, 1 << m):
            idx0, idx1 = _split_frames(m, w)
            d = 1 + np.maximum(sub.take(_gather_all(m, idx0)), sub.take(_gather_all(m, idx1)))
            better = d < depth
            depth[better] = d[better]
            query[better] = w
    depth.setflags(write=False)
    query.setflags(write=False)
    return depth, query


def _linear_part(m: int, table: int) -> int | None:
    """a when ``table`` is x -> <a, x> ^ c for some a and c, else None."""
    a = 0
    for i in range(m):
        if ((table >> (1 << i)) ^ table) & 1:
            a |= 1 << i
    # the table of x -> <a, x>, doubled one coordinate at a time
    lin = 0
    for i in range(m):
        half = (1 << (1 << i)) - 1
        lin |= (lin ^ half if (a >> i) & 1 else lin) << (1 << i)
    return a if table in (lin, ((1 << (1 << m)) - 1) ^ lin) else None


def _dxor(m: int, table: int) -> tuple[int, int | None]:
    # the dense lookups stay uncached, so they always read _dense_depth
    if m <= DENSE_MAX_DIM:
        depth, query = _dense_depth(m)
        d = int(depth[table])
        return d, int(query[table]) if d else None
    full = (1 << (1 << m)) - 1
    if table == 0 or table == full:
        return 0, None
    return _dxor_search(m, table)


# holds the 2.1M tables that a seeded quartic at m = 8 searches
@lru_cache(maxsize=1 << 22)
def _dxor_search(m: int, table: int) -> tuple[int, int]:
    """_dxor of a nonconstant table above DENSE_MAX_DIM."""
    a = _linear_part(m, table)
    if a is not None:
        # every other query leaves both halves nonconstant, so the scan
        # below would stop at w = a
        return 1, a
    # a nonconstant table needs one query, and no restriction is deeper
    # than the table: the halves' depths bound it for free, where a
    # certificate bound would cost a profile scan
    lb = 1
    best = None
    best_w = None
    for w in range(1, 1 << m):
        idx0, idx1 = _split_frames(m, w)
        d0 = _dxor(m - 1, _gather(table, idx0))[0]
        d1 = _dxor(m - 1, _gather(table, idx1))[0]
        half = d0 if d0 >= d1 else d1
        if best is None or half + 1 < best:
            best, best_w = half + 1, w
        if half > lb:
            lb = half
        if best == lb:
            break
    return best, best_w


def _tree(m: int, table: int, n: int, lifts: Sequence[tuple[int, int]]) -> ParityDecisionTree:
    """The tree along _dxor's first queries, over width-n ambient inputs:
    local coordinate i is <x, c> ^ r for (c, r) = lifts[i].  The half
    along w is _split_frames' canonical restriction, which drops the top
    bit h of w and, on the 1-half, flips the low bit p by its offset e_p;
    lift_form is linear, so these steps compose to its lift."""
    d, w = _dxor(m, table)
    if d == 0:
        return ParityLeaf(table & 1)
    h, p = w.bit_length() - 1, (w & -w).bit_length() - 1
    c = r = 0
    halves = ([], [])
    for i, (ci, ri) in enumerate(lifts):
        if (w >> i) & 1:
            c ^= ci
            r ^= ri
        if i != h:
            halves[0].append((ci, ri))
            halves[1].append((ci, ri ^ (i == p)))
    kids = [_tree(m - 1, _gather(table, idx), n, sub) for idx, sub in zip(_split_frames(m, w), halves)]
    # an odd sum of offset bits answers opposite to the local form
    return ParityQuery(Gf2Vector(n, c), *(kids[::-1] if r else kids))


def parity_depth(f: BooleanFunction | RestrictedFunction) -> tuple[int, ParityDecisionTree]:
    """Exact parity decision tree depth with an optimal tree, built top
    down in one pass from the first optimal query _dxor keeps for each
    local table (ties break toward the smallest packed query)."""
    rf = _localize(f)
    d = d_xor(rf)
    m = rf.local.arity
    if isinstance(f, RestrictedFunction):
        lifts = [rf.lift_form(1 << i) for i in range(m)]
    else:
        # the identity frame lifts each coordinate to itself
        lifts = [(1 << i, 0) for i in range(m)]
    return d, _tree(m, rf.local.table, rf.ambient.ncols, lifts)


def d_xor(f: BooleanFunction | RestrictedFunction) -> int:
    """Exact parity decision tree depth: parity_depth's value, without
    building its tree."""
    rf = _localize(f)
    budget.require("parity_depth", rf.ambient.ncols, "parity_depth limited to ambient arity")
    return _dxor(rf.local.arity, rf.local.table)[0]


# ---------------------------------------------------------------------------
# weak parity block sensitivity
# ---------------------------------------------------------------------------
#
# The block bitmap of local point y through a basis marks the subset
# indices s >= 1 whose span vector v flips f at y.  With sens[y, v] =
# [f(y ^ v) != f(y)] and W[v, j] = 2^s for the s-th vector of basis j's
# span (subset-counter order), the bitmaps of every point through every
# basis are the one matmul sens @ W; a packing lookup turns them
# into block sensitivities.  The matmul runs in floating point (BLAS) and
# is exact: each code is a sum of distinct powers of two below 2^(2^m),
# within float32's 24-bit significand up to DENSE_MAX_DIM and float64's at
# m = 5.  DENSE_MAX_DIM and BITMAP_MAX_DIM are structural, so
# --max-exact-n does not move them.

BITMAP_MAX_DIM = 5


@lru_cache(maxsize=8)
def _sorted_bases(m: int) -> np.ndarray:
    """All unordered bases of {0,1}^m as increasing rows, read-only."""
    out = np.concatenate(list(_bases(m, increasing=True)))
    out.setflags(write=False)
    return out


def _span_weights(m: int, spans: np.ndarray) -> np.ndarray:
    """W with W[spans[j, s], j] = 2^s for s >= 1; row 0 stays 0."""
    w = np.zeros((1 << m, len(spans)), dtype=np.float32 if m <= DENSE_MAX_DIM else np.float64)
    w[spans[:, 1:], np.arange(len(spans))[:, None]] = 1 << np.arange(1, 1 << m)
    return w


@lru_cache(maxsize=8)
def _basis_weights(m: int) -> np.ndarray:
    """Span weights of every unordered basis, columns in _sorted_bases order."""
    if m > BITMAP_MAX_DIM:
        raise BudgetExceededError(f"block bitmaps limited to dimension <= {BITMAP_MAX_DIM}, got {m}")
    w = _span_weights(m, _spans(_sorted_bases(m)))
    w.setflags(write=False)
    return w


def _block_packings(m: int, codes: np.ndarray, weights: np.ndarray, points: slice = slice(None)) -> np.ndarray:
    """Block sensitivity of each local table (an entry of ``codes``) at the
    chosen points through every basis whose span weights are a column of
    ``weights``: out[t, i, j] for table t, point i and basis j."""
    pts = np.arange(1 << m)
    near = _code_marks(m, codes)[:, pts[points, None] ^ pts]  # near[t, i, v] = f_t(y_i ^ v)
    flips = (near != near[..., :1]).astype(weights.dtype)
    if m <= DENSE_MAX_DIM:
        return _packing_table(m)[(flips @ weights).astype(np.intp)]
    # no 2^(2^m)-entry table: run the DP on the codes' bits, one point at a
    # time, so only one point's codes and DP levels are alive at once
    out = np.empty((*flips.shape[:2], weights.shape[1]), dtype=np.int8)
    for t, i in np.ndindex(*flips.shape[:2]):
        out[t, i] = _packing_dp(m, _code_marks(m, (flips[t, i] @ weights).astype(np.intp)))[-1]
    return out


def _weak_scan(m: int, table: int, weights: np.ndarray, points: slice = slice(None)) -> tuple[int, int]:
    """The max over the chosen points of the least block sensitivity
    through the bases whose span weights are the columns of ``weights``,
    with the first minimizing column at the first maximizing point."""
    vals = _block_packings(m, np.array([table]), weights, points)[0]
    mins = vals.min(axis=1)
    i = int(mins.argmax())
    return int(mins[i]), int(vals[i].argmin())


def _points(rf: RestrictedFunction, x: Gf2Vector | None) -> slice:
    if x is None:
        return slice(None)
    y = local_point(rf, x)
    return slice(y, y + 1)


def _exact_wbs_dim(rf: RestrictedFunction, x: Gf2Vector | None) -> int:
    m = rf.local.arity
    if x is None:
        budget.require("weak_parity_bs", m, "wbs_xor limited to dimension")
    else:
        budget.require(
            "weak_parity_bs", m, "weak_parity_bs exact search limited to dimension", "; use sampled_weak_parity_bs"
        )
    return m


def weak_parity_bs(f: BooleanFunction | RestrictedFunction, x: Gf2Vector | None) -> tuple[int, Gf2Matrix]:
    """min over bases B of the block sensitivity of f(B y) at B^-1 x; with
    x None, the max of that over all inputs (wbs_xor) and the minimizing
    basis at the first input reaching it.

    Exhausts all unordered bases; exact for effective dimension <= 4.
    The witness is the first minimizing basis in _sorted_bases order.
    """
    rf = _localize(f)
    m = _exact_wbs_dim(rf, x)
    points = _points(rf, x)
    # a constant needs no bases, so it passes past the block bitmaps; the
    # identity is also the first basis in _sorted_bases order
    if rf.local.is_constant():
        return 0, Gf2Matrix.identity(m)
    v, j = _weak_scan(m, rf.local.table, _basis_weights(m), points)
    # the columns of the witness are the basis vectors
    return v, Gf2Matrix.from_bits(_sorted_bases(m)[j].tolist(), m).transpose()


def sampled_weak_parity_bs(
    f: BooleanFunction | RestrictedFunction, x: Gf2Vector | None, samples: int, seed: int
) -> tuple[int, Gf2Matrix]:
    """Seeded sampled variant of weak_parity_bs (upper bound only);
    dimension <= 5.

    Tries the identity and ``samples`` seeded invertible matrices, drawn
    once for all points; the witness is the first minimizing one.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    rf = _localize(f)
    m = rf.local.arity
    if m > BITMAP_MAX_DIM:
        raise BudgetExceededError(f"sampled_weak_parity_bs limited to dimension <= {BITMAP_MAX_DIM}, got {m}")
    points = _points(rf, x)
    if rf.local.is_constant():
        return 0, Gf2Matrix.identity(m)
    sample = _sample_gl_rows(m, samples, seed)
    rows = np.vstack([1 << np.arange(m, dtype=sample.dtype), sample])
    # the span of B's columns is B y for every y
    weights = _span_weights(m, _images(rows, m))
    v, j = _weak_scan(m, rf.local.table, weights, points)
    return v, Gf2Matrix.from_bits(rows[j].tolist(), m)


# codes (tables x points x bases) per chunk of _wbs_scan: with their
# float and index copies about 200 KiB, one table's worth at m = 4
_WBS_CHUNK_CODES = 1 << 14

# the dimensions whose every table's wbs_xor is kept, 256 values at m = 3
WBS_TABLE_MAX_DIM = 3


def _wbs_scan(m: int, tables: Sequence[int]) -> list[int]:
    """wbs_xor of every local table of dimension m in ``tables``, by
    _block_packings over chunks of at most _WBS_CHUNK_CODES codes (and at
    least one table)."""
    # a constant needs no bases, so constants alone pass at any dimension
    if all(t == 0 or t == (1 << (1 << m)) - 1 for t in tables):
        return [0] * len(tables)
    weights = _basis_weights(m)
    codes = np.array(tables, dtype=np.int64)
    step = max(1, _WBS_CHUNK_CODES // (weights.shape[1] << m))
    return [v for lo in range(0, len(codes), step)
            for v in _block_packings(m, codes[lo:lo + step], weights).min(axis=2).max(axis=1).tolist()]


@lru_cache(maxsize=WBS_TABLE_MAX_DIM + 1)
def _wbs_table(m: int) -> np.ndarray:
    """wbs_xor of every local table of dimension m <= WBS_TABLE_MAX_DIM,
    indexed by table, built on first use."""
    out = np.array(_wbs_scan(m, range(1 << (1 << m))), dtype=np.int8)
    out.setflags(write=False)
    return out


def _wbs_aggregate(m: int, tables: Sequence[int]) -> list[int]:
    """wbs_xor of every local table of dimension m in ``tables``: read from
    _wbs_table up to WBS_TABLE_MAX_DIM, so a small table is measured once
    per process, and scanned in one batch above it."""
    if m <= WBS_TABLE_MAX_DIM:
        return _wbs_table(m)[np.array(tables, dtype=np.intp)].tolist()
    return _wbs_scan(m, tables)


def wbs_xor(f: BooleanFunction | RestrictedFunction) -> int:
    """Weak parity block sensitivity: max over inputs of weak_parity_bs."""
    rf = _localize(f)
    return _wbs_aggregate(_exact_wbs_dim(rf, None), [rf.local.table])[0]


# ---------------------------------------------------------------------------
# parity block sensitivity
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _coset_scan(n: int) -> tuple[tuple[int, tuple[Coset, ...], np.ndarray], ...]:
    """Every coset of {0,1}^n in parity_bs scan order: one (dim, cosets,
    members) group per dimension from n down, direction spaces in
    _subspace_rows order, then rhs increasing; members[i] lists cosets[i]
    in restrict's canonical frame order."""
    out = []
    for dim in range(n, -1, -1):
        # each direction space's orthogonal complement spans the constraints
        spaces = np.concatenate(list(_subspace_rows(n, dim)))
        cons = [_kernel_bits(v, n) for v in spaces.tolist()]
        k = n - dim
        cosets = tuple(Coset(n, Gf2Matrix.from_bits(c, n), Gf2Vector(k, r)) for c in cons for r in range(1 << k))
        # a stable sort by class key (x's rhs) puts each coset's least member first
        key = _images(np.array(cons, dtype=spaces.dtype).reshape(len(spaces), k), n)
        least = np.argsort(key, axis=1, kind="stable")[:, :: 1 << dim, None].astype(spaces.dtype)
        span = _spans(spaces)
        members = (least ^ span[:, None]).reshape(len(cosets), 1 << dim)
        members.setflags(write=False)
        out.append((dim, cosets, members))
    return tuple(out)


def _pbs_values(n: int, tables: Sequence[int]) -> tuple[np.ndarray, list[Coset]]:
    """parity_bs of every n-bit table: the values and the witnesses, from
    one scan of the cosets for all of them."""
    budget.require("parity_bs", n, "parity_bs exact search limited to arity", "; use sampled_parity_bs")
    # every restriction of a constant is constant
    if all(t == 0 or t == (1 << (1 << n)) - 1 for t in tables):
        return np.zeros(len(tables), dtype=np.int64), [Coset.full_space(n)] * len(tables)
    # the scan opens on the full space, whose wbs_xor needs the block
    # bitmaps of dimension n; past BITMAP_MAX_DIM they refuse here, before
    # the scan is built
    _basis_weights(n)
    return _best_over(np.array([_table_bits(n, t) for t in tables]), _coset_scan(n), _wbs_aggregate, n)


def parity_bs(f: BooleanFunction) -> tuple[int, Coset]:
    """max over cosets H of wbs_xor(f restricted to H), with a witness H.

    Scans directions by decreasing dimension (canonical subspace order),
    right-hand sides increasing; the witness is the first maximizer.
    """
    n = f.arity
    # refused here too, so a refusal enters no private helper
    budget.require("parity_bs", n, "parity_bs exact search limited to arity", "; use sampled_parity_bs")
    best, witness = _pbs_values(n, [f.table])
    return int(best[0]), witness[0]


def sampled_parity_bs(f: BooleanFunction, samples: int, seed: int) -> tuple[int, Coset]:
    """Seeded sampled variant; the result is an estimate (a lower bound
    of the true maximum, from the cosets tried)."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    n = f.arity
    budget.require("sampled_parity_bs", n, "sampled_parity_bs limited to arity")
    # each candidate's wbs_xor is exact, so its dimension stays within that
    # cap and within the block bitmaps
    max_dim = min(budget.current.get().weak_parity_bs, BITMAP_MAX_DIM)
    rnd = random.Random(seed)
    candidates = [Coset.full_space(n)] if n <= max_dim else []
    while len(candidates) < samples:
        dim = rnd.randint(0, min(n, max_dim))
        rows = []
        while len(rows) < n - dim:
            v = rnd.getrandbits(n)
            if len(_rref_bits([*rows, v], n)[0]) > len(rows):
                rows.append(v)
        # independent rows are consistent with any rhs
        candidates.append(_solve_bits(rows, [rnd.getrandbits(1) for _ in rows], n))
    groups = ((h.dim, (h,), np.array([h.member_bits()])) for h in candidates)
    best, witness = _best_over(_table_bits(n, f.table)[None], groups, _wbs_aggregate, n)
    return int(best[0]), witness[0]
