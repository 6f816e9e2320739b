"""Named example functions and the seeded random construction whose
parity tree depth is exponentially smaller than its certificate and
decision tree complexity.

The construction, for n = 2^k: a parity tree first queries the k+3
single coordinates x_1 .. x_{k+3}; each of the 8n last-layer nodes t
then queries one random parity s_t whose answer is the output.  On the
leaf coset H_t (codimension k+3) the function equals <x, s_t>, so any
input reaching t needs |s_t + v| bit flips (v in the row space of
H_t's constraints) before the function value can change in a way a
small certificate could pin down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, _pack_table
from .classical import c as classical_c
from .classical import decision_depth
from .errors import BudgetExceededError, DimensionError, DomainError
from .gf2 import MAX_WIDTH, Coset, Gf2Matrix, Gf2Vector, _parities, _rref_bits, parity
from .parity import ParityDecisionTree, ParityLeaf, ParityQuery

__all__ = [
    "zoo",
    "ZOO_NAMES",
    "GapLeaf",
    "GapInstance",
    "sample_thm_exp",
    "tau",
    "LinearCosetBound",
    "check_linear_on_coset_bound",
]

ZOO_NAMES = ("and", "or", "parity", "maj", "dictator", "example31")

TAU_MAX_ROWSPACE = 1 << 20
THM_EXP_MIN_K = 3
THM_EXP_MAX_K = 4


def zoo(name: str, n: int) -> BooleanFunction:
    """Named functions: and, or, parity, maj (odd n), dictator, and
    example31 (x1 + (x2 or x3), arity 3 only)."""
    if not 1 <= n <= MAX_WIDTH:
        raise DimensionError(f"zoo arity {n} outside 1..{MAX_WIDTH}")
    size = 1 << n
    if name == "and":
        return BooleanFunction(n, 1 << (size - 1))
    if name == "or":
        return BooleanFunction(n, ((1 << size) - 1) ^ 1)
    if name == "parity":
        return BooleanFunction(n, _pack_table(_parities(n)))
    if name == "maj":
        if n % 2 == 0:
            raise DomainError(f"maj needs odd arity, got {n}")
        # the weight of every input, one coordinate at a time
        weight = np.zeros(1, dtype=np.uint8)
        for _ in range(n):
            weight = np.concatenate((weight, weight + 1))
        return BooleanFunction(n, _pack_table(weight > n // 2))
    if name == "dictator":
        return BooleanFunction(n, _pack_table(np.tile(np.array([0, 1], dtype=np.uint8), size // 2)))
    if name == "example31":
        if n != 3:
            raise DomainError(f"example31 is defined for arity 3, got {n}")
        x = np.arange(8)
        return BooleanFunction(3, _pack_table((x & 1) ^ (x & 0b110 > 0)))
    raise DomainError(f"unknown zoo function {name!r}; known: {', '.join(ZOO_NAMES)}")


@dataclass(frozen=True)
class GapLeaf:
    """Last-layer node t: its coset (the coordinate prefix that reaches
    it) and the random parity it queries."""

    t: int
    coset: Coset
    query: Gf2Vector

    def to_jsonable(self) -> dict:
        return {"t": self.t, "coset": self.coset.to_jsonable(), "s": self.query.to_hex()}


@dataclass(frozen=True)
class GapInstance:
    k: int
    n: int
    seed: int
    tree: ParityDecisionTree
    leaves: tuple[GapLeaf, ...]
    f: BooleanFunction

    def to_jsonable(self) -> dict:
        from .parity import pdt_jsonable

        return {
            "k": self.k,
            "n": self.n,
            "seed": self.seed,
            "depth": self.k + 4,
            "tree": pdt_jsonable(self.tree),
            "leaves": [leaf.to_jsonable() for leaf in self.leaves],
            "table": self.f.to_table_string(),
        }


def _leaf_query_bits(seed: int, t: int, n: int) -> int:
    """Counter-mode stream: node t's parity is a hash of (seed, t)."""
    h = hashlib.sha256(b"thm-exp:" + seed.to_bytes(8, "little", signed=True) + t.to_bytes(8, "little"))
    return int.from_bytes(h.digest()[:8], "little") & ((1 << n) - 1)


def sample_thm_exp(k: int, seed: int) -> GapInstance:
    """The construction on n = 2^k variables (3 <= k <= 4) from a signed 64-bit seed.

    The tree has depth k+4: coordinate queries x_1..x_{k+3}, then one
    random parity per last-layer node whose answer is the output.
    """
    if k < THM_EXP_MIN_K:
        raise DomainError(f"construction needs k >= {THM_EXP_MIN_K}, got {k}")
    if k > THM_EXP_MAX_K:
        raise BudgetExceededError(f"construction materializes 2^(2^k) table bits; limited to k <= {THM_EXP_MAX_K}")
    if not -(1 << 63) <= seed < 1 << 63:
        raise DomainError(f"seed must be a signed 64-bit integer, got {seed}")
    n = 1 << k
    m3 = k + 3
    queries = [_leaf_query_bits(seed, t, n) for t in range(1, (8 * n) + 1)]

    def build(layer: int, path: int) -> ParityDecisionTree:
        if layer <= m3:
            e = 1 << (layer - 1)
            return ParityQuery(
                Gf2Vector(n, e),
                build(layer + 1, path),
                build(layer + 1, path | e),
            )
        t_index = path + 1
        return ParityQuery(Gf2Vector(n, queries[t_index - 1]), ParityLeaf(0), ParityLeaf(1))

    tree = build(1, 0)
    leaves = []
    for t_index in range(1, 8 * n + 1):
        path = t_index - 1
        cons = Gf2Matrix.from_bits([1 << i for i in range(m3)], n)
        rhs = Gf2Vector(m3, path)
        leaves.append(GapLeaf(t_index, Coset(n, cons, rhs), Gf2Vector(n, queries[t_index - 1])))
    # f(x) = <x, s_t> for the node t that x's prefix reaches
    par = _parities(n)
    x = np.arange(1 << n)
    table = _pack_table(par[x & np.array(queries)[x & ((1 << m3) - 1)]])
    return GapInstance(k, n, seed, tree, tuple(leaves), BooleanFunction(n, table))


def tau(a: Gf2Matrix, s: Gf2Vector) -> int:
    """min weight of s + v over the row space of a."""
    if s.width != a.ncols:
        raise DimensionError("width mismatch")
    rows, _ = _rref_bits(a.row_bits, a.ncols)
    if 1 << len(rows) > TAU_MAX_ROWSPACE:
        raise BudgetExceededError(f"tau enumerates 2^rank row-space elements; rank {len(rows)} too large")
    best = s.bits.bit_count()
    acc = 0
    for i in range(1, 1 << len(rows)):
        low = (i & -i).bit_length() - 1
        acc ^= rows[low]
        w = (s.bits ^ acc).bit_count()
        if w < best:
            best = w
    return best


@dataclass(frozen=True)
class LinearCosetBound:
    """tau lower-bounds both certificate complexity and decision depth
    of any extension of x -> <x, s> off the coset."""

    tau: int
    c_of_f: int
    d_of_f: int
    holds: bool
    holds_depth: bool

    def to_jsonable(self) -> dict:
        return {
            "tau": self.tau,
            "c_of_f": self.c_of_f,
            "d_of_f": self.d_of_f,
            "holds": self.holds,
            "holds_depth": self.holds_depth,
        }


def check_linear_on_coset_bound(f: BooleanFunction, h: Coset, s: Gf2Vector) -> LinearCosetBound:
    """Verify f = <., s> on h, then compare tau(h.constraints, s) with
    the certificate complexity and decision depth of f."""
    if h.ncols != f.arity or s.width != f.arity:
        raise DimensionError("width mismatch")
    for xb in h.member_bits():
        if ((f.table >> xb) & 1) != parity(xb & s.bits):
            raise DomainError("f does not equal <., s> on the coset")
    t = tau(h.constraints, s)
    cf = classical_c(f)
    df = decision_depth(f)[0]
    return LinearCosetBound(t, cf, df, cf >= t, df >= t)
