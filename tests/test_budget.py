"""The exact-search caps: one Budget value, its refusals, --max-exact-n's
extension, and the README table that publishes them."""

import dataclasses
import re
import sys
from pathlib import Path

import pytest

from paritydt import budget, certify, classical, comm, parity
from paritydt.budget import Budget
from paritydt.construct import zoo
from paritydt.errors import BudgetExceededError
from paritydt.gf2 import GL_ENUM_MAX, Gf2Vector

README = Path(__file__).resolve().parents[1] / "README.md"


def origin(n):
    return Gf2Vector(n, 0)


# (public call, Budget field or structural cap, the call on a function of arity n)
GUARDED = [
    ("decision_depth", "decision_depth", lambda f: classical.decision_depth(f)),
    ("certificate_complexity", "certificate", lambda f: classical.certificate_complexity(f, origin(f.arity))),
    ("certificate_profile", "certificate", lambda f: classical.certificate_profile(f)),
    ("c", "certificate", lambda f: classical.c(f)),
    ("c0", "certificate", lambda f: classical.c0(f)),
    ("c1", "certificate", lambda f: classical.c1(f)),
    ("block_sensitivity", "block_sensitivity", lambda f: classical.block_sensitivity(f, None)),
    ("bs", "block_sensitivity", lambda f: classical.bs(f)),
    ("symmetrized", "symmetrized", lambda f: classical.symmetrized("d", f)),
    ("parity_certificate", "parity_certificate", lambda f: parity.parity_certificate(f, origin(f.arity))),
    ("cxor_profile", "parity_certificate", lambda f: parity.cxor_profile(f)),
    ("c_xor", "parity_certificate", lambda f: parity.c_xor(f)),
    ("c0_xor", "parity_certificate", lambda f: parity.c0_xor(f)),
    ("c1_xor", "parity_certificate", lambda f: parity.c1_xor(f)),
    ("evaluate_via_certificates", "parity_certificate",
     lambda f: certify.evaluate_via_certificates(f, certify.ParityOracle(origin(f.arity)))),
    ("parity_depth", "parity_depth", lambda f: parity.parity_depth(f)),
    ("d_xor", "parity_depth", lambda f: parity.d_xor(f)),
    ("weak_parity_bs", "weak_parity_bs", lambda f: parity.weak_parity_bs(f, origin(f.arity))),
    ("weak_parity_bs-all", "weak_parity_bs", lambda f: parity.weak_parity_bs(f, None)),
    ("wbs_xor", "weak_parity_bs", lambda f: parity.wbs_xor(f)),
    ("sampled_weak_parity_bs", parity.BITMAP_MAX_DIM,
     lambda f: parity.sampled_weak_parity_bs(f, None, 3, 0)),
    ("parity_bs", "parity_bs", lambda f: parity.parity_bs(f)),
    ("sampled_parity_bs", "sampled_parity_bs", lambda f: parity.sampled_parity_bs(f, 3, 0)),
    ("essential_certificate_set", "essential_set", lambda f: certify.essential_certificate_set(f)),
    ("xor_matrix_rank", "xor_rank", lambda f: comm.xor_matrix_rank(f)),
]


SEARCH_MODULES = {m.__name__: m for m in (classical, parity, certify, comm)}


def search_calls(call):
    """Run ``call``; the (module, function) names it enters in the search
    modules, other than their public calls, constructors and the shared
    entry checks."""
    entered = []

    def hook(frame, event, arg):
        mod = SEARCH_MODULES.get(frame.f_globals.get("__name__"))
        name = frame.f_code.co_name
        if event == "call" and mod is not None and name not in mod.__all__:
            entered.append((mod.__name__, name))

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return [e for e in entered if e[1] not in ("__init__", "_localize", "_exact_wbs_dim")]


@pytest.mark.parametrize("name,cap,call", GUARDED, ids=[g[0] for g in GUARDED])
def test_refused_at_cap_plus_one_before_searching(name, cap, call):
    limit = cap if isinstance(cap, int) else getattr(budget.current.get(), cap)
    f = zoo("and", limit + 1)
    refusal = []

    def attempt():
        try:
            call(f)
        except BudgetExceededError as e:
            refusal.append(str(e))

    # every search starts in a private kernel or a nested helper of its module
    assert search_calls(attempt) == []
    assert refusal, f"{name} ran at arity {limit + 1}"
    assert f"<= {limit}, got {limit + 1}" in refusal[0]


def test_budget_defaults():
    assert dataclasses.astuple(Budget()) == (10, 12, 8, 4, 10, 8, 4, 4, 8, 8, 6)
    assert budget.current.get() == Budget()
    with pytest.raises(dataclasses.FrozenInstanceError):
        Budget().parity_depth = 9


def test_extended_raises_only_the_eight_wall_time_caps():
    before = budget.current.get()
    with budget.extended(20):
        inside = budget.current.get()
    assert budget.current.get() is before
    moved = {f.name for f in dataclasses.fields(Budget) if getattr(inside, f.name) != getattr(before, f.name)}
    assert moved == set(budget.EXTENDABLE) == {
        "decision_depth", "certificate", "block_sensitivity", "symmetrized",
        "parity_certificate", "parity_depth", "weak_parity_bs", "parity_bs",
    }
    assert all(getattr(inside, name) == 20 for name in moved)
    # max(cap, limit): a limit below a cap leaves it where it is
    with budget.extended(9):
        assert budget.current.get().certificate == 12
        assert budget.current.get().decision_depth == 10
        assert budget.current.get().parity_depth == 9


def test_extended_none_nesting_and_exceptions():
    before = budget.current.get()
    with budget.extended(None):
        assert budget.current.get() is before
    with pytest.raises(RuntimeError):
        with budget.extended(11):
            with budget.extended(5):
                assert budget.current.get().decision_depth == 11
            raise RuntimeError("escapes the block")
    assert budget.current.get() is before


def readme_budget_rows():
    section = README.read_text().split("## Budgets", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not re.match(r"\d", cells[1]):
            continue
        first = re.match(r"`?([\w ]+?)`?(,|\s\(|$)", cells[0]).group(1)
        sampled = re.search(r"\((\d+)\)", cells[2])
        rows[first] = (int(re.match(r"\d+", cells[1]).group()), int(sampled.group(1)) if sampled else None)
    return rows


def test_readme_budget_table_matches_budget():
    b = Budget()
    expected = {
        "decision_depth": (b.decision_depth, None),
        "certificate_complexity": (b.certificate, None),
        "block_sensitivity": (b.block_sensitivity, None),
        "symmetrized": (b.symmetrized, None),
        "parity_depth": (b.parity_depth, None),
        "parity_certificate": (b.parity_certificate, None),
        "weak_parity_bs": (b.weak_parity_bs, parity.BITMAP_MAX_DIM),
        "parity_bs": (b.parity_bs, b.sampled_parity_bs),
        "essential_certificate_set": (b.essential_set, None),
        "xor_matrix_rank": (b.xor_rank, None),
        "GL enumeration": (GL_ENUM_MAX, None),
    }
    assert readme_budget_rows() == expected
