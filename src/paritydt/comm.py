"""Communication protocols for xor-lifted functions F(x, y) = f(x + y),
and the exact rank / Fourier-sparsity comparison for such matrices.

A parity tree for f of depth d gives a deterministic protocol of cost
2d: each query w costs one bit from each player, since
<w, x + y> = <w, x> + <w, y>.  An essential family of K 1-certificates
of codimension d gives a nondeterministic cost of
ceil(log2(K + 1)) + d: the prover names a certificate (index 0 is the
reject claim), Alice sends her d constraint parities, and Bob checks
the sum against the certificate's right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import budget
from .boolfn import BooleanFunction, _table_bits, fourier
from .certify import EssentialSet, essential_certificate_set
from .errors import DimensionError
from .gf2 import Gf2Vector, _images, _parities, parity
from .parity import (
    ParityDecisionTree,
    ParityLeaf,
    ParityQuery,
    c0_xor,
    c1_xor,
    c_xor,
    d_xor,
)

__all__ = [
    "XorFunction",
    "ProtocolMessage",
    "ProtocolTranscript",
    "simulate_det_protocol",
    "det_sweep",
    "nondet_protocol",
    "nondet_cost_bound",
    "essential_size_bound",
    "nondet_violation",
    "xor_matrix_rank",
    "ConjectureReport",
    "conjecture_report",
]


@dataclass(frozen=True)
class XorFunction:
    """F(x, y) = f(x + y) with both halves of width f.arity."""

    inner: BooleanFunction

    @property
    def width(self) -> int:
        return self.inner.arity

    def value(self, x: Gf2Vector, y: Gf2Vector) -> int:
        if x.width != self.width or y.width != self.width:
            raise DimensionError("input width differs from the function's")
        return self.inner.value_at(x.bits ^ y.bits)

    def matrix(self) -> list[list[int]]:
        n = 1 << self.width
        return [[(self.inner.table >> (x ^ y)) & 1 for y in range(n)] for x in range(n)]


@dataclass(frozen=True)
class ProtocolMessage:
    speaker: str
    bits: str

    def to_jsonable(self) -> dict:
        return {"speaker": self.speaker, "bits": self.bits}


@dataclass(frozen=True)
class ProtocolTranscript:
    messages: tuple[ProtocolMessage, ...]
    output: int
    nondeterministic_choice: int | None = None

    @property
    def total_bits(self) -> int:
        return sum(len(m.bits) for m in self.messages)

    def to_jsonable(self) -> dict:
        return {
            "messages": [m.to_jsonable() for m in self.messages],
            "total_bits": self.total_bits,
            "output": self.output,
            "choice": self.nondeterministic_choice,
        }


def simulate_det_protocol(tree: ParityDecisionTree, x: Gf2Vector, y: Gf2Vector) -> ProtocolTranscript:
    """Run the two-bit-per-query protocol induced by a parity tree."""
    if x.width != y.width:
        raise DimensionError("Alice's and Bob's inputs differ in width")
    messages: list[ProtocolMessage] = []
    node = tree
    while isinstance(node, ParityQuery):
        if node.query.width != x.width:
            raise DimensionError("tree query width differs from the inputs'")
        a = parity(node.query.bits & x.bits)
        b = parity(node.query.bits & y.bits)
        messages += [ProtocolMessage("alice", str(a)), ProtocolMessage("bob", str(b))]
        node = node.child1 if a ^ b else node.child0
    assert isinstance(node, ParityLeaf)
    return ProtocolTranscript(tuple(messages), node.value)


def _tree_walk(tree: ParityDecisionTree, xs: np.ndarray, ys: np.ndarray, par: np.ndarray):
    """The tree protocol on every pair (xs[i], ys[i]) at once: the leaf
    value and the depth each pair reaches.  At a query q Alice answers
    par[q & x] and Bob par[q & y]; pairs whose answers differ take child1."""
    out, depth = np.empty((2, len(xs)), dtype=np.uint8)
    todo = [(tree, np.arange(len(xs)), 0)]
    while todo:
        node, idx, level = todo.pop()
        if isinstance(node, ParityLeaf):
            out[idx], depth[idx] = node.value, level
        else:
            q = node.query.bits
            ans = (par[xs[idx] & q] ^ par[ys[idx] & q]).astype(bool)
            todo += [(node.child0, idx[~ans], level + 1), (node.child1, idx[ans], level + 1)]
    return out, depth


def det_sweep(f: BooleanFunction, tree: ParityDecisionTree) -> tuple[bool, int]:
    """(all correct, most bits sent) for the tree's protocol on all 4^n pairs."""
    n = f.arity
    if isinstance(tree, ParityQuery) and tree.query.width != n:
        raise DimensionError("tree query width differs from the function's")
    xs, ys = np.divmod(np.arange(1 << (2 * n)), 1 << n)
    out, depth = _tree_walk(tree, xs, ys, _parities(n))
    return bool(np.array_equal(out, _table_bits(n, f.table)[xs ^ ys])), 2 * int(depth.max())


def _index_width(count: int) -> int:
    return max(1, count.bit_length())


def _certificate_keys(f: BooleanFunction, ess: EssentialSet) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """keys[i, x] packs certificate i's constraint parities at x (bit r from row r), from one
    image call over the stacked rows (zero rows pad the shorter ones); with each rhs and codim."""
    n = f.arity
    if any(cs.ncols != n for cs in ess.certificates):
        raise DimensionError("certificate width differs from the function's")
    codims = [cs.codim for cs in ess.certificates]
    rows = np.zeros((ess.size, max(codims, default=0)), dtype=np.min_scalar_type((1 << n) - 1))
    for row, cs in zip(rows, ess.certificates):
        row[: cs.codim] = cs.constraints.row_bits
    rhs = np.array([cs.rhs.bits for cs in ess.certificates], dtype=rows.dtype)
    return _images(rows, n), rhs, codims


def nondet_protocol(
    f: BooleanFunction,
    ess: EssentialSet,
    x: Gf2Vector,
    y: Gf2Vector,
    choice: int | None = None,
) -> ProtocolTranscript:
    """Nondeterministic protocol from an essential certificate family.

    With an explicit choice the prover's claim is simulated as given;
    otherwise the first accepting choice is used, falling back to the
    reject claim (index 0, no parity bits).
    """
    if x.width != f.arity or y.width != f.arity:
        raise DimensionError("input width differs from the function's")
    keys, rhs, codims = _certificate_keys(f, ess)
    k = ess.size
    if choice is None:
        accepts = np.flatnonzero((keys[:, x.bits] ^ keys[:, y.bits]) == rhs)
        choice = int(accepts[0]) + 1 if len(accepts) else 0
    elif not 0 <= choice <= k:
        raise DimensionError(f"choice {choice} outside 0..{k}")
    messages = [ProtocolMessage("alice", format(choice, f"0{_index_width(k)}b"))]
    if choice == 0:
        return ProtocolTranscript(tuple(messages), 0, 0)
    i = choice - 1
    a = int(keys[i, x.bits])
    messages.append(ProtocolMessage("alice", "".join(str((a >> r) & 1) for r in range(codims[i]))))
    return ProtocolTranscript(tuple(messages), int(a ^ keys[i, y.bits] == rhs[i]), choice)


def nondet_cost_bound(ess: EssentialSet) -> int:
    return _index_width(ess.size) + ess.codim


def essential_size_bound(n: int, d: int) -> int:
    """(2^d) (3n)^d, the bound on the size of an essential set of
    codimension-d certificates of an n-bit function."""
    return (1 << d) * (3 * n) ** d


def nondet_violation(f: BooleanFunction, ess: EssentialSet) -> dict | None:
    """The first input pair (x-major) on which the nondeterministic
    protocol errs, or accepts with a transcript whose length is not its
    stated cost, as a record; None if it is correct at that cost on
    every pair.  Each x is checked against every y at once."""
    n = f.arity
    keys, rhs, codims = _certificate_keys(f, ess)
    iw, ys, bits = _index_width(ess.size), np.arange(1 << n), _table_bits(n, f.table)
    cost = iw + ess.codim
    # bits sent under choice i + 1, then under the reject claim (row k)
    sent = iw + np.array(codims + [0])
    reject = np.ones((1, 1 << n), dtype=bool)
    for xb in range(1 << n):
        first = np.vstack([(keys[:, xb, None] ^ keys) == rhs[:, None], reject]).argmax(axis=0)
        out, want = first < ess.size, bits[xb ^ ys]
        bad = (out != want) | (out & (sent[first] != cost))
        if bad.any():
            yb = int(bad.argmax())
            if out[yb] != want[yb]:
                return {"x": xb, "y": yb, "output": int(out[yb]), "expected": int(want[yb])}
            return {"x": xb, "y": yb, "bits": int(sent[first[yb]]), "cost": cost}
    return None


def xor_matrix_rank(f: BooleanFunction) -> int:
    """Exact rational rank of the 2^n x 2^n matrix f(x + y), by
    fraction-free elimination."""
    budget.require("xor_rank", f.arity, "xor_matrix_rank limited to arity")
    n = 1 << f.arity
    m = XorFunction(f).matrix()
    rank = 0
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(rank, n) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for i in range(rank + 1, n):
            fi = m[i][col]
            row = m[i]
            top = m[rank]
            for j in range(col, n):
                q, rem = divmod(row[j] * lead - fi * top[j], prev)
                assert rem == 0
                row[j] = q
        prev = lead
        rank += 1
    return rank


@dataclass(frozen=True)
class ConjectureReport:
    """Side-by-side exact quantities entering the depth, certificate,
    sparsity and rank comparisons for one function."""

    arity: int
    d_xor: int
    c_xor: int
    c0_xor: int | None
    c1_xor: int | None
    sparsity: int
    log2_sparsity: float | None
    rank: int
    essential_count: int | None
    nondet_cost: int | None

    def to_jsonable(self) -> dict:
        return {
            "arity": self.arity,
            "d_xor": self.d_xor,
            "c_xor": self.c_xor,
            "c0_xor": self.c0_xor,
            "c1_xor": self.c1_xor,
            "sparsity": self.sparsity,
            "log2_sparsity": self.log2_sparsity,
            "rank": self.rank,
            "essential_count": self.essential_count,
            "nondet_cost": self.nondet_cost,
        }


def conjecture_report(f: BooleanFunction) -> ConjectureReport:
    spec = fourier(f)
    sparsity = spec.sparsity
    rank = xor_matrix_rank(f)
    if f.table == 0:
        ess_count = None
        cost = None
    else:
        ess = essential_certificate_set(f)
        ess_count = ess.size
        cost = nondet_cost_bound(ess)
    return ConjectureReport(
        f.arity,
        d_xor(f),
        c_xor(f),
        c0_xor(f),
        c1_xor(f),
        sparsity,
        math.log2(sparsity) if sparsity else None,
        rank,
        ess_count,
        cost,
    )
