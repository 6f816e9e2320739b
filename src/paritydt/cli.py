"""Command line front end: single-function measures, verification
sweeps over function families, the seeded gap construction, protocol
simulation, and exact Fourier spectra.

Reports are JSON (sorted keys; only runtime_ms varies between runs) or,
for measures, a flat CSV.  Exit codes: 0 pass, 1 verified-property
violation, 2 usage error or budget refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__, budget, certify, classical, comm, construct, parity
from .boolfn import BooleanFunction, _table_bits, fourier, parse_function_spec
from .errors import BudgetExceededError, ParitydtError
from .gf2 import Gf2Vector, _parities
from .parity import MeasureValue
from .theorems import THEOREM_IDS, Family, VerificationResult, run_verification_suite

__all__ = [
    "VERSION",
    "MEASURE_NAMES",
    "THEOREM_IDS",
    "Family",
    "VerificationResult",
    "run_verification_suite",
    "run",
    "main",
]

VERSION = __version__

MEASURE_NAMES = (
    "d", "c", "c0", "c1", "bs",
    "dxor", "cxor", "c0xor", "c1xor", "wbsxor", "bsxor",
    "di", "ci", "bsi",
)
_SAMPLED_CAPABLE = frozenset({"wbsxor", "bsxor", "di", "ci", "bsi"})


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

_CERT_TARGETS = {"c": None, "c0": 0, "c1": 1}


def _certificate_measure(f: BooleanFunction, profile: bytes, target: int | None, certificate) -> MeasureValue:
    """The largest profile entry over the inputs where f takes ``target``
    (all inputs when None), with the certificate at the first input
    reaching it; ``certificate(x)`` gives the witness fields."""
    xb = classical.maximizing_input(profile, f.table, target)
    if xb is None:
        return MeasureValue(None, True, None, "undefined for this function")
    x = Gf2Vector(f.arity, xb)
    return MeasureValue(profile[xb], True, {"x": x.to_string(), **certificate(x)})


def _compute_measure(f: BooleanFunction, name: str) -> MeasureValue:
    """The exact measure ``name`` with its witness."""
    if name == "d":
        v, tree = classical.decision_depth(f)
        return MeasureValue(v, True, {"tree": classical.tree_jsonable(tree)})
    if name in ("c", "c0", "c1"):
        return _certificate_measure(
            f, classical.certificate_profile(f), _CERT_TARGETS[name],
            lambda x: {"certificate": classical.certificate_complexity(f, x)[1].to_jsonable()},
        )
    if name == "bs":
        v, fam = classical.block_sensitivity(f, None)
        return MeasureValue(v, True, fam.to_jsonable())
    if name == "dxor":
        v, tree = parity.parity_depth(f)
        return MeasureValue(v, True, {"tree": parity.pdt_jsonable(tree)})
    if name in ("cxor", "c0xor", "c1xor"):
        return _certificate_measure(
            f, parity.cxor_profile(f), _CERT_TARGETS[name[:-3]],
            lambda x: parity.parity_certificate(f, x)[1].to_jsonable(),
        )
    if name == "wbsxor":
        v, basis = parity.weak_parity_bs(f, None)
        return MeasureValue(v, True, {"basis": basis.to_jsonable()})
    if name == "bsxor":
        v, h = parity.parity_bs(f)
        return MeasureValue(v, True, {"coset": h.to_jsonable()})
    if name in ("di", "ci", "bsi"):
        v, b = classical.symmetrized(name[:-1], f)
        return MeasureValue(v, True, {"matrix": b.to_jsonable()})
    raise ParitydtError(f"unknown measure {name!r}; known: {', '.join(MEASURE_NAMES)}")


def _compute_measure_sampled(f: BooleanFunction, name: str, samples: int, seed: int) -> MeasureValue:
    if name == "bsxor":
        v, h = parity.sampled_parity_bs(f, samples, seed)
        return MeasureValue(v, False, {"coset": h.to_jsonable()},
                            "lower bound from sampled cosets")
    if name == "wbsxor":
        v, basis = parity.sampled_weak_parity_bs(f, None, samples, seed)
        return MeasureValue(v, False, {"basis": basis.to_jsonable()},
                            "upper bound from sampled bases")
    if name in ("di", "ci", "bsi"):
        v, b = classical.sampled_symmetrized(name[:-1], f, samples, seed)
        return MeasureValue(v, False, {"matrix": b.to_jsonable()},
                            "upper bound from sampled transformations")
    raise BudgetExceededError(f"measure {name} has no sampled variant")


def _measure_command(ns: argparse.Namespace) -> tuple[int, dict | str]:
    f = parse_function_spec(ns.fn)
    names = [m.strip() for m in ns.measures.split(",") if m.strip()]
    if not names:
        raise ParitydtError("no measure to compute")
    for m in names:
        if m not in MEASURE_NAMES:
            raise ParitydtError(f"unknown measure {m!r}; known: {', '.join(MEASURE_NAMES)}")
    out: dict[str, MeasureValue] = {}
    with budget.extended(ns.max_exact_n):
        for m in names:
            try:
                out[m] = _compute_measure(f, m)
            except BudgetExceededError:
                if ns.sample and m in _SAMPLED_CAPABLE:
                    out[m] = _compute_measure_sampled(f, m, ns.sample, ns.seed)
                else:
                    raise
    if ns.csv:
        lines = ["function,measure,value,exact"]
        for m in names:
            v = out[m]
            lines.append(f"{ns.fn},{m},{'' if v.value is None else v.value},{str(v.exact).lower()}")
        return 0, "\n".join(lines)
    body = {
        "function": {"spec": ns.fn, "canonical": f.spec, "arity": f.arity},
        "results": {m: v.to_jsonable() for m, v in out.items()},
    }
    return 0, body


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------

def _verify_command(ns: argparse.Namespace) -> tuple[int, dict]:
    theorems = [t.strip() for t in ns.theorems.split(",") if t.strip()]
    results = run_verification_suite(ns.family, theorems, ns.threads)
    code = 0 if all(r.passed for r in results) else 1
    return code, {
        "family": ns.family,
        "results": [r.to_jsonable() for r in results],
    }


def _construct_command(ns: argparse.Namespace) -> tuple[int, dict]:
    inst = construct.sample_thm_exp(ns.k, ns.seed)
    body = inst.to_jsonable()
    code = 0
    if ns.check:
        checks = _gap_instance_checks(inst)
        body["checks"] = checks
        if not all(v if isinstance(v, bool) else True for v in checks.values()):
            code = 1
    return code, {"results": body}


def _gap_instance_checks(inst: construct.GapInstance) -> dict:
    n = inst.n
    checks: dict[str, object] = {}
    checks["depth"] = parity.pdt_depth(inst.tree) == inst.k + 4
    bits = _table_bits(n, inst.f.table)
    par = _parities(n)
    inputs = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    values, _ = comm._tree_walk(inst.tree, inputs, np.zeros_like(inputs), par)  # Bob holds 0
    checks["tree_table_agree"] = bool(np.array_equal(values, bits))
    seen = np.zeros(1 << n, dtype=bool)
    disjoint = linear = True
    for leaf in inst.leaves:
        pts = np.array(leaf.coset.member_bits(), dtype=inputs.dtype)
        disjoint = disjoint and not seen[pts].any()
        seen[pts] = True
        linear = linear and np.array_equal(bits[pts], par[pts & leaf.query.bits])
    checks["leaves_partition"] = disjoint and bool(seen.all())
    checks["linear_on_leaves"] = linear
    if inst.k == 3:
        taus = [construct.tau(leaf.coset.constraints, leaf.query) for leaf in inst.leaves]
        d = classical.decision_depth(inst.f)[0]
        cv = classical.c(inst.f)
        checks["max_tau"] = max(taus)
        checks["d_of_f"] = d
        checks["c_of_f"] = cv
        checks["depth_bound"] = d >= max(taus)
        checks["certificate_bound"] = cv >= max(taus)
    return checks


def _parse_hex_vector(text: str, width: int, flag: str) -> Gf2Vector:
    try:
        bits = int(text, 16)
    except ValueError:
        raise ParitydtError(f"{flag} expects a hex string, got {text!r}")
    if not 0 <= bits < (1 << width):
        raise ParitydtError(f"{flag} value {text!r} does not fit in {width} bits")
    return Gf2Vector(width, bits)


def _comm_command(ns: argparse.Namespace) -> tuple[int, dict]:
    f = parse_function_spec(ns.fn)
    n = f.arity
    if ns.sweep:
        if ns.x is not None or ns.y is not None:
            raise ParitydtError("--sweep does not take --x/--y")
    elif ns.x is None or ns.y is None:
        raise ParitydtError("give both --x and --y, or use --sweep")
    ok = True
    if ns.protocol == "det":
        d, tree = parity.parity_depth(f)
        res = {"protocol": "det", "depth": d}
        simulate = functools.partial(comm.simulate_det_protocol, tree)
        if ns.sweep:
            correct, max_bits = comm.det_sweep(f, tree)
            res.update(all_correct=correct, max_total_bits=max_bits, bound=2 * d, within_bound=max_bits <= 2 * d)
            ok = correct and res["within_bound"]
    else:
        ess = certify.essential_certificate_set(f)
        k_bound = comm.essential_size_bound(n, ess.codim)
        res = {
            "protocol": "nondet", "codim": ess.codim, "k": ess.size, "cost": comm.nondet_cost_bound(ess),
            "k_bound": k_bound, "k_within_bound": ess.size <= k_bound,
        }
        simulate = functools.partial(comm.nondet_protocol, f, ess)
        if ns.sweep:
            res["sound_and_complete"] = comm.nondet_violation(f, ess) is None
            ok = res["sound_and_complete"] and res["k_within_bound"]
    if ns.sweep:
        res["pairs"] = 1 << (2 * n)
    else:
        x = _parse_hex_vector(ns.x, n, "--x")
        y = _parse_hex_vector(ns.y, n, "--y")
        tr = simulate(x, y)
        res.update(transcript=tr.to_jsonable(), correct=tr.output == f.value_at(x.bits ^ y.bits))
    return (0 if ok else 1), {"function": {"spec": ns.fn, "canonical": f.spec, "arity": n}, "results": res}


def _fourier_command(ns: argparse.Namespace) -> tuple[int, dict]:
    f = parse_function_spec(ns.fn)
    spec = fourier(f)
    coeffs = [
        {"w": Gf2Vector(f.arity, w).to_string(), "numerator": spec.numerator(w)}
        for w in spec.support()
    ]
    body = {
        "function": {"spec": ns.fn, "canonical": f.spec, "arity": f.arity},
        "results": {
            "denominator": 1 << f.arity,
            "sparsity": spec.sparsity,
            "log2_sparsity": math.log2(spec.sparsity) if spec.sparsity else None,
            "coefficients": coeffs,
        },
    }
    return 0, body


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="paritydt",
        description="Exact parity complexity measures of Boolean functions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="compute measures of one function")
    m.add_argument("--fn", required=True, help="tt:<n>:<bits>, anf:<n>:<poly> or zoo:<name>:<n>")
    m.add_argument("--measures", required=True, help=f"comma list of {','.join(MEASURE_NAMES)}")
    m.add_argument("--csv", action="store_true", help="flat CSV instead of JSON")
    m.add_argument("--sample", type=_positive_int, default=None,
                   help="beyond exact budgets, fall back to this many samples")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--max-exact-n", type=int, default=None,
                   help="raise the exact-computation arity guards (slow)")

    v = sub.add_parser("verify", help="run theorem checks over a family")
    v.add_argument("--family", required=True, help="exhaustive:n, random:n:count:seed or zoo:all:n")
    v.add_argument("--theorems", required=True, help=f"comma list of {','.join(THEOREM_IDS)}")
    v.add_argument("--threads", type=_positive_int, default=None)

    c = sub.add_parser("construct", help="build a named construction")
    c.add_argument("what", choices=["thm-exp"])
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--check", action="store_true")

    cm = sub.add_parser("comm", help="simulate communication protocols")
    cm.add_argument("--fn", required=True)
    cm.add_argument("--protocol", choices=["det", "nondet"], required=True)
    cm.add_argument("--x", default=None, help="Alice's input, hex")
    cm.add_argument("--y", default=None, help="Bob's input, hex")
    cm.add_argument("--sweep", action="store_true", help="check all input pairs")

    fo = sub.add_parser("fourier", help="exact Fourier spectrum")
    fo.add_argument("--fn", required=True)
    return p


def run(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        if ns.command == "measure":
            code, body = _measure_command(ns)
        elif ns.command == "verify":
            code, body = _verify_command(ns)
        elif ns.command == "construct":
            code, body = _construct_command(ns)
        elif ns.command == "comm":
            code, body = _comm_command(ns)
        else:
            code, body = _fourier_command(ns)
    except BudgetExceededError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except ParitydtError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if isinstance(body, str):
        print(body)
        return code
    report = {
        "version": VERSION,
        "command": ns.command,
        "runtime_ms": int(1000 * (time.perf_counter() - t0)),
        **body,
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
