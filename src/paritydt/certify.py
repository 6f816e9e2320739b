"""Evaluating a function through parity queries guided by certificates,
and canonical families of 1-certificates for nondeterministic use.

The evaluator repeatedly picks a smallest coset on which the current
restriction of f is constantly 1, queries its defining parities, and
either accepts (all answers matched) or shrinks the domain by the
observed answers.  The number of parity queries never exceeds
c0_xor(f) * c1_xor(f).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import budget
from .boolfn import BooleanFunction, _pack_table, _table_bits, restrict
from .errors import DimensionError, DomainError
from .gf2 import Coset, Gf2Vector, _rref_bits, _solve_bits, parity
from .parity import ParityCertificate, _coset_classes, _cxor_scan

__all__ = [
    "ParityOracle",
    "TraceStep",
    "EssentialSet",
    "evaluate_via_certificates",
    "essential_certificate_set",
    "verify_essential_set",
]


class ParityOracle:
    """Answers parity queries about a hidden input and counts them."""

    def __init__(self, hidden: Gf2Vector):
        self._hidden = hidden
        self.queries = 0

    @property
    def width(self) -> int:
        return self._hidden.width

    def query(self, c: Gf2Vector) -> int:
        if c.width != self._hidden.width:
            raise DimensionError("query width mismatch")
        self.queries += 1
        return parity(c.bits & self._hidden.bits)


@dataclass(frozen=True)
class TraceStep:
    """One round: the domain it started from, the 1-certificate tried,
    the queried rows with their answers, and whether they all matched."""

    domain: Coset
    certificate: ParityCertificate
    rows: tuple[Gf2Vector, ...]
    answers: tuple[int, ...]
    matched: bool
    domain_after: Coset | None

    def to_jsonable(self) -> dict:
        return {
            "domain": self.domain.to_jsonable(),
            "certificate": self.certificate.to_jsonable(),
            "rows": [r.to_string() for r in self.rows],
            "answers": list(self.answers),
            "matched": self.matched,
        }


def _min_one_certificate(rf) -> tuple[tuple[int, ...], list[int]] | None:
    """Smallest-codimension local coset on which the restriction is
    constantly 1: (dual basis rows, rhs bits), or None if no 1-input.

    Scan order: codimension ascending, canonical dual subspaces, rhs
    ascending; the first hit is the deterministic choice.  A coset's
    class key under its dual rows is its rhs, so the first class whose
    1-count is its size, frame-major, is that hit.
    """
    m = rf.local.arity
    table = rf.local.table
    if table == 0:
        return None
    for k in range(m + 1):
        for rows, _key, count in _coset_classes(m, table, k):
            full = (count == 1 << (m - k)).ravel()
            if full.any():
                i, rhs = divmod(int(np.argmax(full)), 1 << k)
                return tuple(int(w) for w in rows[i]), [(rhs >> j) & 1 for j in range(k)]
    return None


def evaluate_via_certificates(
    f: BooleanFunction, oracle: ParityOracle
) -> tuple[int, int, list[TraceStep]]:
    """Evaluate f at the oracle's hidden input.

    Returns (value, total parity queries, per-round trace).
    """
    n = f.arity
    budget.require("parity_certificate", n, "evaluate_via_certificates limited to arity")
    if oracle.width != n:
        raise DimensionError("oracle width != arity")
    domain = Coset.full_space(n)
    trace: list[TraceStep] = []
    while True:
        rf = restrict(f, domain)
        if rf.local.is_constant():
            return rf.local.table & 1, oracle.queries, trace
        found = _min_one_certificate(rf)
        assert found is not None, "nonconstant restriction has a 1-input"
        wrows, rhs = found
        lifted = [rf.lift_form(w) for w in wrows]
        rows = [c for c, _ in lifted]
        amb_rhs = [b ^ r for b, (_, r) in zip(rhs, lifted)]
        answers = tuple(oracle.query(Gf2Vector(n, c)) for c in rows)
        cert_coset = _solve_bits(rows, amb_rhs, n)
        assert cert_coset is not None
        step_rows = tuple(Gf2Vector(n, c) for c in rows)
        matched = list(answers) == amb_rhs
        if matched:
            trace.append(TraceStep(domain, ParityCertificate(cert_coset, 1), step_rows, answers, True, None))
            return 1, oracle.queries, trace
        new_rows = list(domain.constraints.row_bits) + list(rows)
        new_rhs = [(domain.rhs.bits >> i) & 1 for i in range(domain.codim)] + list(answers)
        nxt = _solve_bits(new_rows, new_rhs, n)
        assert nxt is not None, "the hidden input satisfies its own answers"
        trace.append(TraceStep(domain, ParityCertificate(cert_coset, 1), step_rows, answers, False, nxt))
        domain = nxt


# ---------------------------------------------------------------------------
# essential sets of 1-certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EssentialSet:
    """1-certificates, all of codimension exactly codim, covering every
    1-input, with no member inside the union of the others."""

    codim: int
    certificates: tuple[Coset, ...]

    @property
    def size(self) -> int:
        return len(self.certificates)

    def to_jsonable(self) -> dict:
        return {"codim": self.codim, "certificates": [c.to_jsonable() for c in self.certificates]}


def essential_certificate_set(f: BooleanFunction) -> EssentialSet:
    """Deterministic essential set of 1-certificates of f.

    Take each 1-input's minimal certificate (ascending), the witness of
    parity_certificate, from one certificate scan; pad each to
    codimension c1_xor(f) with the least independent constraints the
    anchor satisfies, deduplicate, then drop members contained in the
    union of the rest (restarting the scan after each removal).
    """
    n = f.arity
    budget.require("essential_set", n, "essential_certificate_set limited to arity")
    if f.table == 0:
        raise DomainError("essential set needs at least one 1-input")
    profile, wit = _cxor_scan(n, f.table)
    ones = np.flatnonzero(_table_bits(n, f.table)).tolist()
    d = max(profile[xb] for xb in ones)
    padded: dict[Coset, None] = {}
    for xb in ones:
        # on the identity frame the scan's RREF dual rows are the constraints
        rows = _pad_to_codim(wit[xb, : profile[xb]].tolist(), n, d)
        # the anchor lies on the padded coset, so it fixes each rhs
        coset = _solve_bits(rows, [parity(w & xb) for w in rows], n)
        assert coset is not None and coset.codim == d
        padded[coset] = None
    certs = list(padded)
    bitmaps = [_coset_bitmap(cs) for cs in certs]
    while (i := _first_redundant(bitmaps)) is not None:
        del certs[i]
        del bitmaps[i]
    return EssentialSet(d, tuple(certs))


def _pad_to_codim(rows: list[int], n: int, d: int) -> list[int]:
    """Append the smallest constraint rows independent of ``rows`` until
    reaching codimension d."""
    while len(rows) < d:
        for cand in range(1, 1 << n):
            red, _ = _rref_bits(rows + [cand], n)
            if len(red) == len(rows) + 1:
                rows.append(cand)
                break
    return rows


def _coset_bitmap(cs: Coset) -> int:
    members = np.zeros(1 << cs.ncols, dtype=np.uint8)
    members[cs.member_bits()] = 1
    return _pack_table(members)


def _first_redundant(bitmaps: list[int]) -> int | None:
    """Index of the first bitmap covered by the union of the others, or None."""
    once = twice = 0
    for bm in bitmaps:
        once, twice = once | bm, twice | (once & bm)
    # the others cover a member's bit when at least two members have it
    return next((i for i, bm in enumerate(bitmaps) if bm & ~twice == 0), None)


def verify_essential_set(f: BooleanFunction, ess: EssentialSet) -> None:
    """Raise DimensionError if a certificate's width is not f's arity,
    and DomainError if ess is not a valid essential set for f."""
    if any(cs.ncols != f.arity for cs in ess.certificates):
        raise DimensionError("certificate width differs from the function's")
    ones = f.table
    if ones == 0:
        raise DomainError("function has no 1-input")
    bitmaps = []
    union = 0
    for cs in ess.certificates:
        if cs.codim != ess.codim:
            raise DomainError("certificate codimension differs from the set's")
        bm = _coset_bitmap(cs)
        if bm & ~ones:
            raise DomainError("certificate contains a 0-input")
        bitmaps.append(bm)
        union |= bm
    if union & ones != ones:
        raise DomainError("uncovered 1-input")
    if _first_redundant(bitmaps) is not None:
        raise DomainError("redundant certificate")
