"""The arity caps on exact search, as one value.

Every exact search here is exhaustive over objects that grow like
2^(2^n), so each one refuses arities past its cap with
BudgetExceededError.  The caps live in one frozen ``Budget``; the value
in force is held in a context variable, and ``extended`` raises eight
of them for one block (``paritydt measure --max-exact-n``).

Structural caps, which stop a data layout rather than a long run (block
bitmap width, full GL and subspace enumeration), stay beside their code.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

from .errors import BudgetExceededError

__all__ = ["Budget", "EXTENDABLE", "current", "extended", "require"]


@dataclass(frozen=True)
class Budget:
    """Largest arity (effective dimension for weak_parity_bs) each exact
    search accepts."""

    decision_depth: int = 10
    certificate: int = 12
    block_sensitivity: int = 8
    symmetrized: int = 4
    parity_certificate: int = 10
    parity_depth: int = 8
    weak_parity_bs: int = 4
    parity_bs: int = 4
    sampled_parity_bs: int = 8
    essential_set: int = 8
    xor_rank: int = 6


# the caps ``extended`` raises; the essential set, the XOR rank and the
# sampled coset scan keep theirs
EXTENDABLE = (
    "decision_depth", "certificate", "block_sensitivity", "symmetrized",
    "parity_certificate", "parity_depth", "weak_parity_bs", "parity_bs",
)

current: ContextVar[Budget] = ContextVar("paritydt_budget", default=Budget())


@contextmanager
def extended(limit: int | None) -> Iterator[None]:
    """Raise every cap in EXTENDABLE to at least ``limit`` inside the
    block; None leaves the budget as it is."""
    if limit is None:
        yield
        return
    b = current.get()
    token = current.set(replace(b, **{name: max(getattr(b, name), limit) for name in EXTENDABLE}))
    try:
        yield
    finally:
        current.reset(token)


def require(cap: str, n: int, what: str, hint: str = "") -> None:
    """Refuse ``n`` past the current value of the Budget field ``cap``;
    the message reads "<what> <= <cap>, got <n><hint>"."""
    limit = getattr(current.get(), cap)
    if n > limit:
        raise BudgetExceededError(f"{what} <= {limit}, got {n}{hint}")
