"""The paper's statements as checks over function families.

Each theorem is a predicate on one function (and the family seed) that
returns a violation record, or None when the function satisfies the
statement.  One driver sweeps a predicate over a family, counts the
instances, keeps the first few violations, and can split the family
across worker processes.  A theorem may also carry an array screen that
reads its measures for many small tables at once, from the dense tables
or once per affine orbit; the predicate then runs only on the tables
the screen flags.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import budget, certify, classical, comm, construct, parity
from .boolfn import BooleanFunction, _table_bits, _walsh, fourier, restrict, shift
from .classical import DENSE_MAX_DIM
from .errors import BudgetExceededError, ParitydtError
from .gf2 import Coset, Gf2Matrix, Gf2Vector, _gl_classes, _images, _parities, _row_chunks, _sample_gl_rows

__all__ = [
    "Family",
    "Theorem",
    "THEOREMS",
    "THEOREM_IDS",
    "VerificationResult",
    "parse_family",
    "run_verification_suite",
]

_VIOLATION_CAP = 5


# ---------------------------------------------------------------------------
# function families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    kind: str
    n: int
    count: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 0 or (self.count or 0) < 0:
            raise ParitydtError(f"family {self.spec} needs n >= 0 and count >= 0")

    @property
    def spec(self) -> str:
        if self.kind == "random":
            return f"random:{self.n}:{self.count}:{self.seed}"
        if self.kind == "zoo":
            return f"zoo:all:{self.n}"
        return f"exhaustive:{self.n}"


def parse_family(text: str) -> Family:
    parts = text.split(":")
    try:
        if parts[0] == "exhaustive" and len(parts) == 2:
            return Family("exhaustive", int(parts[1]))
        if parts[0] == "random" and len(parts) == 4:
            return Family("random", int(parts[1]), int(parts[2]), int(parts[3]))
        if parts[0] == "zoo" and len(parts) == 3 and parts[1] == "all":
            return Family("zoo", int(parts[2]))
    except ValueError:
        pass
    raise ParitydtError(
        f"bad family {text!r}; expected exhaustive:n, random:n:count:seed or zoo:all:n"
    )


def _family_tables(fam: Family) -> Sequence[int]:
    size = 1 << fam.n
    if fam.kind == "exhaustive":
        if fam.n > 4:
            raise BudgetExceededError(
                f"exhaustive families materialize 2^(2^n) functions; limited to n <= 4, got {fam.n}"
            )
        return range(1 << size)
    if fam.kind == "random":
        rnd = random.Random(fam.seed)
        return [rnd.getrandbits(size) for _ in range(fam.count or 0)]
    names = ["and", "or", "parity", "dictator"]
    if fam.n % 2 == 1:
        names.append("maj")
    if fam.n == 3:
        names.append("example31")
    return [construct.zoo(name, fam.n).table for name in sorted(names)]


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def _eq1(f: BooleanFunction, seed: int) -> dict | None:
    """D(f) <= C0(f) * C1(f)."""
    if f.is_constant():
        return None
    d = classical.decision_depth(f)[0]
    z, o = classical.c0(f), classical.c1(f)
    if d > z * o:
        return {"function": f.spec, "d": d, "c0": z, "c1": o}
    return None


def _eq2(f: BooleanFunction, seed: int) -> dict | None:
    """bs(f) <= C(f) <= bs(f)^2."""
    b, cv = classical.bs(f), classical.c(f)
    if not b <= cv <= b * b:
        return {"function": f.spec, "bs": b, "c": cv}
    return None


def _thm1(f: BooleanFunction, seed: int) -> dict | None:
    """D+(f) <= C0+(f) * C1+(f)."""
    if f.is_constant():
        return None
    d = parity.d_xor(f)
    z, o = parity.c0_xor(f), parity.c1_xor(f)
    if d > z * o:
        return {"function": f.spec, "dxor": d, "c0xor": z, "c1xor": o}
    return None


def _thm1_screen(n: int, tables: np.ndarray, known: dict) -> np.ndarray:
    """_thm1's violators among dimension-n codes, from the dense tables."""
    nonconstant = (tables != 0) & (tables != (1 << (1 << n)) - 1)
    # the predicate measures no constant table, so it cannot refuse one
    if nonconstant.any():
        budget.require("parity_depth", n, "parity_depth limited to ambient arity")
    d, z, o, _ = parity._dense_measures(n, tables)
    return nonconstant & (d > z * o)


def _thm2(f: BooleanFunction, seed: int) -> dict | None:
    """bs+(f) <= C+(f) <= bs+(f)^2."""
    b, cv = parity.parity_bs(f)[0], parity.c_xor(f)
    if not b <= cv <= b * b:
        return {"function": f.spec, "bsxor": b, "cxor": cv}
    return None


def _orbit_key(bits: np.ndarray) -> np.ndarray:
    """One row per table (a row of ``bits``): its weight F(0), then the
    sorted |F(u)| for u != 0.  An invertible affine map x -> Ax + c only
    permutes and negates the F(u), u != 0, so the key is constant on each
    orbit; up to DENSE_MAX_DIM it also tells the orbits apart."""
    spec = np.abs(_walsh(bits))
    return np.concatenate([spec[:, :1], np.sort(spec[:, 1:], axis=1)], axis=1)


def _orbit_measures(n: int, tables: np.ndarray, known: dict) -> tuple[np.ndarray, np.ndarray]:
    """(bs⊕, C⊕) of every table in a uint16 array of dimension-n codes.
    Both are invariant under the affine maps, so each is measured on the
    first table of each orbit only, and only for the orbit keys not yet
    in ``known``, which maps each key's bytes to its (bs⊕, C⊕): bs⊕ by
    one batched coset scan, C⊕ by one certificate scan of the stack."""
    bits = classical._code_marks(n, tables)
    key = _orbit_key(bits)
    # as one void item each, rows sort as with axis=0 (classical._distinct_tables)
    rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    distinct, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    keys = distinct.tolist()
    new = [i for i, k in enumerate(keys) if k not in known]
    if new:
        reps = tables[first[new]].tolist()
        b = parity._pbs_values(n, reps)[0]
        cv = parity._cxor_stack(n, reps)[0].max(axis=1)
        known.update(zip([keys[i] for i in new], zip(b.tolist(), cv.tolist())))
    b, cv = np.array([known[k] for k in keys]).reshape(len(keys), 2).T
    return b[inverse], cv[inverse]


def _thm2_screen(n: int, tables: np.ndarray, known: dict) -> np.ndarray:
    """_thm2's violators among dimension-n codes, measured once per orbit
    of the sweep."""
    budget.require("parity_bs", n, "parity_bs exact search limited to arity", "; use sampled_parity_bs")
    budget.require("parity_certificate", n, "parity certificate aggregates limited to ambient arity")
    b, cv = _orbit_measures(n, tables, known)
    return ~((b <= cv) & (cv <= b * b))


def _prop_cd(f: BooleanFunction, seed: int) -> dict | None:
    """C+(f) <= D+(f)."""
    cv, d = parity.c_xor(f), parity.d_xor(f)
    if cv > d:
        return {"function": f.spec, "cxor": cv, "dxor": d}
    return None


def _prop_cd_screen(n: int, tables: np.ndarray, known: dict) -> np.ndarray:
    """_prop_cd's violators among dimension-n codes, from the dense tables."""
    budget.require("parity_certificate", n, "parity certificate aggregates limited to ambient arity")
    d, _, _, cv = parity._dense_measures(n, tables)
    return cv > d


def _eq_coplusc(f: BooleanFunction, seed: int) -> dict | None:
    """At every input, the coset certificate size equals the least
    classical certificate size over all changes of basis."""
    n, size = f.arity, 1 << f.arity
    target = parity.cxor_profile(f)
    # the profile of x -> f(By) at y is a certificate size at x = By; that
    # of x -> f(BQy), for a permutation Q, at y is the one of x -> f(By)
    # at Qy, so one B per set of columns reaches every such pair
    best = np.full(size, 255, dtype=np.uint8)
    bits = _table_bits(n, f.table)
    for rows in _row_chunks(_gl_classes(n), n):
        img = _images(rows, n)
        tables, inverse = classical._distinct_tables(bits, img)
        profiles = np.array([list(classical.certificate_profile(BooleanFunction(n, t))) for t in tables],
                            dtype=np.uint8)
        np.minimum.at(best, img, profiles[inverse])
    if best.tobytes() == target:
        return None
    x = next(i for i in range(size) if best[i] != target[i])
    return {"function": f.spec, "x": Gf2Vector(n, x).to_string(),
            "coset_search": target[x], "gl_min": int(best[x])}


def _monotone(f: BooleanFunction, seed: int) -> dict | None:
    """C+ and bs+ do not grow under restriction to a coset."""
    cx, bx = parity.c_xor(f), parity.parity_bs(f)[0]
    bits = _table_bits(f.arity, f.table)
    # the scan's first group is the full space alone
    for dim, cosets, members in parity._coset_scan(f.arity)[1:]:
        tables, inverse = classical._distinct_tables(bits, members)
        # every distinct restriction's bs+ from one batched scan
        pbs = parity._pbs_values(dim, tables)[0]
        measured = [(parity.c_xor(BooleanFunction(dim, t)), int(b)) for t, b in zip(tables, pbs)]
        for h, j in zip(cosets, inverse.tolist()):
            crf, brf = measured[j]
            if crf > cx or brf > bx:
                return {"function": f.spec, "coset": h.to_jsonable(),
                        "cxor": cx, "cxor_restricted": crf,
                        "bsxor": bx, "bsxor_restricted": brf}
    return None


def _parity_measures(n: int, tables: list[int]) -> list[tuple[int, int, int]]:
    """(D⊕, C⊕, bs⊕) of each n-bit table, bs⊕ of all of them from one scan
    of the cosets."""
    dc = [(parity.d_xor(g), parity.c_xor(g)) for g in (BooleanFunction(n, t) for t in tables)]
    return [(d, c, b) for (d, c), b in zip(dc, parity._pbs_values(n, tables)[0].tolist())]


def _invariance(f: BooleanFunction, seed: int) -> dict | None:
    """D+, C+ and bs+ are unchanged by 20 seeded shifts and 20 seeded
    changes of basis."""
    n = f.arity
    (base,) = _parity_measures(n, [f.table])
    rnd = random.Random(f"invariance:{seed}:{n}:{f.table}")
    shifts = [Gf2Vector(n, rnd.randrange(1 << n)) for _ in range(20)]
    rows = _sample_gl_rows(n, 20, rnd.getrandbits(63))
    transforms = [("shift", c, shift(f, c).table) for c in shifts]
    # the rotated tables x -> f(Bx) come from one gather
    tables, inverse = classical._distinct_tables(_table_bits(n, f.table), _images(rows, n))
    transforms += [("rotate", b, tables[i]) for b, i in zip(rows, inverse)]
    # each distinct table is measured once, all of them in one call
    new = list(dict.fromkeys(t for _, _, t in transforms if t != f.table))
    measured = {f.table: base, **dict(zip(new, _parity_measures(n, new)))}
    for kind, arg, t in transforms:
        if measured[t] != base:
            arg = arg.to_string() if kind == "shift" else Gf2Matrix.from_bits([int(r) for r in arg], n).to_jsonable()
            return {"function": f.spec, "transform": kind, "arg": arg,
                    "base": list(base), "transformed": list(measured[t])}
    return None


def _rank_sparsity(f: BooleanFunction, seed: int) -> dict | None:
    """rank of the XOR matrix f(x + y) equals the Fourier sparsity."""
    r, s = comm.xor_matrix_rank(f), fourier(f).sparsity
    if r != s:
        return {"function": f.spec, "rank": r, "sparsity": s}
    return None


def _thmnc_cost(f: BooleanFunction, seed: int) -> dict | None:
    """The essential set is valid and small, and the nondeterministic
    protocol built on it is correct at its stated cost on every pair."""
    if f.table == 0:
        return None
    n = f.arity
    ess = certify.essential_certificate_set(f)
    try:
        certify.verify_essential_set(f, ess)
    except ParitydtError as e:
        return {"function": f.spec, "essential_set": str(e)}
    k_bound = comm.essential_size_bound(n, ess.codim)
    if ess.size > k_bound:
        return {"function": f.spec, "k": ess.size, "k_bound": k_bound}
    bad = comm.nondet_violation(f, ess)
    return None if bad is None else {"function": f.spec, **bad}


def _lemma_exp(f: BooleanFunction, seed: int) -> dict | None:
    """Wherever f is linear on a coset, C(f) and D(f) are at least tau."""
    n = f.arity
    cf, df = classical.c(f), classical.decision_depth(f)[0]
    bits, par = _table_bits(n, f.table), _parities(n)
    first = True
    for _, cosets, members in parity._coset_scan(n):
        forms = np.arange(1 << n, dtype=members.dtype)
        # linear[i, s]: f(x) = <x, s> at every member x of cosets[i]
        linear = (bits[members][:, None, :] == par[members[:, None, :] & forms[:, None]]).all(axis=2)
        # argwhere is row-major: coset by coset, s ascending within each
        for i, s in np.argwhere(linear).tolist():
            h = cosets[i]
            if first:
                # route one instance per function through the full checker
                r = construct.check_linear_on_coset_bound(f, h, Gf2Vector(n, s))
                tv, ok = r.tau, r.holds and r.holds_depth
                first = False
            else:
                tv = construct.tau(h.constraints, Gf2Vector(n, s))
                ok = cf >= tv and df >= tv
            if not ok:
                return {"function": f.spec, "coset": h.to_jsonable(),
                        "s": Gf2Vector(n, s).to_string(), "tau": tv, "c": cf, "d": df}
    return None


def _example_nonmonotone(f: BooleanFunction, seed: int) -> dict | None:
    """Example 3.1: restricting to x1 = 0 raises wbs+ from 1 to 2."""
    rf = restrict(f, Coset(3, Gf2Matrix.from_bits([1], 3), Gf2Vector(1, 0)))
    w_f, w_r = parity.wbs_xor(f), parity.wbs_xor(rf)
    facts = {
        "wbsxor": (w_f, 1),
        "restriction_is_or2": (rf.local.table, construct.zoo("or", 2).table),
        "restriction_wbs_at_zero": (parity.weak_parity_bs(rf.local, Gf2Vector(2, 0))[0], 2),
        "restriction_wbsxor": (w_r, 2),
        "strict_increase": (int(w_f < w_r), 1),
        "bsxor_at_least_2": (int(parity.parity_bs(f)[0] >= 2), 1),
    }
    for name, (got, want) in facts.items():
        if got != want:
            return {"function": f.spec, "fact": name, "got": got, "expected": want}
    return None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem:
    """A predicate with the arity limits its searches can afford.

    ``instance``, when set, is a fixed function checked instead of the
    family's members.  ``screen``, when set, maps a uint16 array of codes
    of dimension n <= DENSE_MAX_DIM to a mask that holds at least where
    ``check`` finds a violation; the sweep runs ``check`` only there.  Its
    third argument is a dict that lives for one sweep, in which a screen
    may keep what it measured for the sweep's later chunks.
    """

    check: Callable[[BooleanFunction, int], dict | None]
    max_exhaustive_n: int
    max_n: int
    constraint: str
    instance: BooleanFunction | None = None
    screen: Callable[[int, np.ndarray, dict], np.ndarray] | None = None


THEOREMS: dict[str, Theorem] = {
    "eq1": Theorem(_eq1, 4, 8, "decision tree depth search"),
    "eq2": Theorem(_eq2, 4, 8, "block sensitivity packing search"),
    "thm1": Theorem(_thm1, 4, 6, "parity tree depth search", screen=_thm1_screen),
    "thm2": Theorem(
        _thm2, 4, 4, "exact parity block sensitivity (full coset and basis enumeration)", screen=_thm2_screen
    ),
    "prop-cd": Theorem(_prop_cd, 4, 6, "parity tree depth search", screen=_prop_cd_screen),
    "eq-coplusc": Theorem(_eq_coplusc, 3, 4, "full GL(n,2) certificate sweep per function"),
    "monotone": Theorem(_monotone, 3, 4, "exact parity block sensitivity on every coset restriction"),
    "invariance": Theorem(_invariance, 3, 4, "exact parity block sensitivity per transformed function"),
    "rank-sparsity": Theorem(_rank_sparsity, 4, 6, "exact integer rank elimination on a 2^n x 2^n matrix"),
    "thmnc-cost": Theorem(_thmnc_cost, 3, 4, "protocol simulation over all 4^n input pairs"),
    "lemma-exp": Theorem(_lemma_exp, 3, 4, "linearity scan over every coset and parity"),
    "example-nonmonotone": Theorem(
        _example_nonmonotone, 4, 24, "fixed instance, family ignored", construct.zoo("example31", 3)
    ),
}

THEOREM_IDS = tuple(THEOREMS)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class VerificationResult:
    theorem: str
    family: str
    instances: int
    violations: list[dict]
    runtime_ms: int

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_jsonable(self) -> dict:
        return {
            "theorem": self.theorem,
            "family": self.family,
            "instances": self.instances,
            "passed": self.passed,
            "violations": self.violations,
            "runtime_ms": self.runtime_ms,
        }


def _check_budgets(fam: Family, theorems: list[str]) -> None:
    for th in theorems:
        b = THEOREMS[th]
        if fam.kind == "exhaustive" and fam.n > b.max_exhaustive_n:
            raise BudgetExceededError(
                f"{th} over exhaustive:{fam.n} refused: {b.constraint} "
                f"(exhaustive limit n <= {b.max_exhaustive_n})"
            )
        if fam.n > b.max_n:
            raise BudgetExceededError(
                f"{th} at n = {fam.n} refused: {b.constraint} (limit n <= {b.max_n})"
            )


def _candidates(th: Theorem, n: int, tables: Sequence[int], start: int) -> Iterator[tuple[int, int]]:
    """(family index, table) of every table ``th.check`` must see: all of
    them, or up to DENSE_MAX_DIM those its screen flags, screened 4096
    at a time with one dict for the whole call."""
    if th.screen is None or n > DENSE_MAX_DIM:
        yield from enumerate(tables, start)
        return
    known: dict = {}
    for lo in range(0, len(tables), 4096):
        flagged = th.screen(n, np.array(tables[lo:lo + 4096], dtype=np.uint16), known)
        for j in np.flatnonzero(flagged).tolist():
            yield start + lo + j, tables[lo + j]


def _sweep(job: tuple[str, int, Sequence[int], int, int]) -> list[tuple[int, dict]]:
    """(family index, violation) pairs of one theorem over the tables
    that start at family index ``start``; stops at the violation cap."""
    theorem, n, tables, seed, start = job
    th = THEOREMS[theorem]
    viol = []
    for i, t in _candidates(th, n, tables, start):
        v = th.check(BooleanFunction(n, t), seed)
        if v is not None:
            viol.append((i, v))
            if len(viol) >= _VIOLATION_CAP:
                break
    return viol


def run_verification_suite(
    family: Family | str, theorems: list[str], threads: int | None = None
) -> list[VerificationResult]:
    fam = parse_family(family) if isinstance(family, str) else family
    if not theorems:
        raise ParitydtError("no theorem to check")
    for th in theorems:
        if th not in THEOREMS:
            raise ParitydtError(f"unknown theorem {th!r}; known: {', '.join(THEOREM_IDS)}")
    if threads is not None and threads < 1:
        raise ParitydtError(f"threads must be >= 1, got {threads}")
    _check_budgets(fam, theorems)
    tables = None  # built when a theorem first sweeps the family
    # workers beyond the CPU count would only contend for the same CPUs
    workers = min(threads or 1, os.cpu_count() or 1)
    results = []
    for th in theorems:
        t0 = time.perf_counter()
        fixed = THEOREMS[th].instance
        if fixed is None and tables is None:
            tables = _family_tables(fam)
        n, items = (fam.n, tables) if fixed is None else (fixed.arity, [fixed.table])
        if workers == 1 or len(items) < 4 * workers:
            found = _sweep((th, n, items, fam.seed, 0))
        else:
            step = -(-len(items) // (4 * workers))
            jobs = [(th, n, items[i : i + step], fam.seed, i) for i in range(0, len(items), step)]
            # imported here, since it pulls in multiprocessing and socket
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                found = [iv for chunk in pool.map(_sweep, jobs) for iv in chunk][:_VIOLATION_CAP]
        # the serial sweep stops at the capped violation; counting up to it
        # keeps the count independent of the chunking
        inst = found[-1][0] + 1 if len(found) == _VIOLATION_CAP else len(items)
        ms = int(1000 * (time.perf_counter() - t0))
        results.append(VerificationResult(th, fam.spec, inst, [v for _, v in found], ms))
    return results
