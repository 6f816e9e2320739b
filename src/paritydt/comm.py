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

from . import budget
from .boolfn import BooleanFunction, fourier
from .certify import EssentialSet, essential_certificate_set
from .errors import DimensionError
from .gf2 import Gf2Vector, parity
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
    messages: list[ProtocolMessage] = []
    node = tree
    while isinstance(node, ParityQuery):
        if node.query.width != x.width or node.query.width != y.width:
            raise DimensionError("tree query width differs from the inputs'")
        a = parity(node.query.bits & x.bits)
        b = parity(node.query.bits & y.bits)
        messages.append(ProtocolMessage("alice", str(a)))
        messages.append(ProtocolMessage("bob", str(b)))
        node = node.child1 if a ^ b else node.child0
    assert isinstance(node, ParityLeaf)
    return ProtocolTranscript(tuple(messages), node.value)


def _index_width(count: int) -> int:
    return max(1, math.ceil(math.log2(count + 1)))


def _accepts(ess: EssentialSet, i: int, x: Gf2Vector, y: Gf2Vector) -> tuple[str, bool]:
    """Alice's constraint parities for certificate i, and Bob's verdict."""
    cs = ess.certificates[i - 1]
    abits = []
    ok = True
    for r, row in enumerate(cs.constraints.row_bits):
        a = parity(row & x.bits)
        b = parity(row & y.bits)
        abits.append(str(a))
        if a ^ b != (cs.rhs.bits >> r) & 1:
            ok = False
    return "".join(abits), ok


def nondet_protocol(
    f: BooleanFunction,
    ess: EssentialSet,
    x: Gf2Vector,
    y: Gf2Vector,
    choice: int | None = None,
) -> ProtocolTranscript:
    """Nondeterministic protocol from an essential certificate family.

    With an explicit choice the prover's claim is simulated as given;
    otherwise every choice is tried and the first accepting one is
    used, falling back to the reject claim (index 0, no parity bits).
    """
    if x.width != f.arity or y.width != f.arity:
        raise DimensionError("input width differs from the function's")
    k = ess.size
    iw = _index_width(k)
    if choice is not None:
        if not 0 <= choice <= k:
            raise DimensionError(f"choice {choice} outside 0..{k}")
        messages = [ProtocolMessage("alice", format(choice, f"0{iw}b"))]
        if choice == 0:
            return ProtocolTranscript(tuple(messages), 0, 0)
        abits, ok = _accepts(ess, choice, x, y)
        messages.append(ProtocolMessage("alice", abits))
        return ProtocolTranscript(tuple(messages), 1 if ok else 0, choice)
    for i in range(1, k + 1):
        t = nondet_protocol(f, ess, x, y, i)
        if t.output == 1:
            return t
    return nondet_protocol(f, ess, x, y, 0)


def nondet_cost_bound(ess: EssentialSet) -> int:
    return _index_width(ess.size) + ess.codim


def essential_size_bound(n: int, d: int) -> int:
    """(2^d) (3n)^d, the bound on the size of an essential set of
    codimension-d certificates of an n-bit function."""
    return (1 << d) * (3 * n) ** d


def nondet_violation(f: BooleanFunction, ess: EssentialSet) -> dict | None:
    """The first input pair on which the nondeterministic protocol errs,
    or accepts with a transcript whose length is not its stated cost, as
    a record; None if it is correct at that cost on every pair."""
    n = f.arity
    cost = nondet_cost_bound(ess)
    for xb in range(1 << n):
        for yb in range(1 << n):
            tr = nondet_protocol(f, ess, Gf2Vector(n, xb), Gf2Vector(n, yb))
            want = f.value_at(xb ^ yb)
            if tr.output != want:
                return {"x": xb, "y": yb, "output": tr.output, "expected": want}
            if tr.output == 1 and tr.total_bits != cost:
                return {"x": xb, "y": yb, "bits": tr.total_bits, "cost": cost}
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
