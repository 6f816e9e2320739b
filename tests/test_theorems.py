"""The array screens of the theorem sweeps: the dense measures they read,
and sweeps that give the same results with and without them."""

import dataclasses

import numpy as np
import pytest

from paritydt import budget, parity, theorems
from paritydt.boolfn import BooleanFunction
from paritydt.budget import Budget
from paritydt.errors import BudgetExceededError


@pytest.mark.parametrize("m", range(parity.DENSE_MAX_DIM + 1))
def test_dense_measures_match_scalar_measures(m):
    d, c0, c1, c = parity._dense_measures(m, np.arange(1 << (1 << m), dtype=np.uint16))
    for t in range(1 << (1 << m)):
        f = BooleanFunction(m, t)
        assert (d[t], c[t]) == (parity.d_xor(f), parity.c_xor(f)), t
        # no 0-input (1-input) reads 0 in the array and None from the scalar
        assert (c0[t], c1[t]) == (parity.c0_xor(f) or 0, parity.c1_xor(f) or 0), t


@pytest.mark.parametrize("family", ["exhaustive:3", "exhaustive:4", "random:4:1000:42", "zoo:all:4"])
@pytest.mark.parametrize("theorem", ["thm1", "prop-cd"])
def test_screened_sweep_matches_scalar_sweep(monkeypatch, family, theorem):
    screened = theorems.run_verification_suite(family, [theorem])[0]
    monkeypatch.setitem(theorems.THEOREMS, theorem, dataclasses.replace(theorems.THEOREMS[theorem], screen=None))
    scalar = theorems.run_verification_suite(family, [theorem])[0]
    assert (screened.instances, screened.violations) == (scalar.instances, scalar.violations)


@pytest.mark.parametrize(
    "theorem,cap,message",
    [("thm1", "parity_depth", "parity_depth limited to ambient arity <= 3, got 4"),
     ("prop-cd", "parity_certificate", "parity certificate aggregates limited to ambient arity <= 3, got 4")],
)
def test_screen_refuses_past_lowered_budget(theorem, cap, message):
    # the screen refuses where the scalar check's first measure would
    token = budget.current.set(Budget(**{cap: 3}))
    try:
        with pytest.raises(BudgetExceededError) as err:
            theorems.run_verification_suite("exhaustive:4", [theorem])
    finally:
        budget.current.reset(token)
    assert str(err.value) == message


def test_thm1_screen_refuses_no_constant_family():
    # thm1 measures no constant table, so a family of constants passes
    # under any depth budget, screened or not (the seed draws 3, 3, 0, 0)
    token = budget.current.set(Budget(parity_depth=0))
    try:
        r = theorems.run_verification_suite("random:1:4:22", ["thm1"])[0]
    finally:
        budget.current.reset(token)
    assert (r.instances, r.violations) == (4, [])
