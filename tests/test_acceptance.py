"""End-to-end acceptance checks, one per headline property.

Each test prints a single PASS/FAIL summary line (run with -s to see
them) and fails only on an actual violation, never on runtime.
"""

import math
import random
import time

from frame_oracle import reference_enumerate_subspaces
from paritydt.boolfn import BooleanFunction, fourier, restrict
from paritydt.certify import ParityOracle, essential_certificate_set, evaluate_via_certificates
from paritydt.cli import Family, run_verification_suite
from paritydt.comm import nondet_protocol, simulate_det_protocol, xor_matrix_rank
from paritydt.construct import sample_thm_exp, tau, zoo
from paritydt.classical import decision_depth
from paritydt.gf2 import (
    Coset,
    Gf2Vector,
    enumerate_gl,
    gl_order,
    subspace_count,
)
from paritydt.parity import (
    c0_xor,
    c1_xor,
    c_xor,
    parity_bs,
    parity_certificate,
    parity_depth,
    pdt_depth,
    pdt_eval,
    weak_parity_bs,
    wbs_xor,
)


def report(label: str, ok: bool, detail: str):
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def suite_violations(family: str, theorem: str) -> tuple[int, list]:
    r = run_verification_suite(family, [theorem])[0]
    return r.instances, r.violations


def test_01_depth_at_most_certificate_product():
    total = 0
    viol = []
    for fam in ("exhaustive:3", "exhaustive:4"):
        inst, v = suite_violations(fam, "thm1")
        total += inst
        viol += v
    report("1 dxor <= c0xor*c1xor on all n=3 and n=4 functions", not viol,
           f"{total} functions, {len(viol)} violations")


def test_02_parity_bs_sandwich():
    total = 0
    viol = []
    for fam in ("exhaustive:3", "random:4:1000:42"):
        inst, v = suite_violations(fam, "thm2")
        total += inst
        viol += v
    report("2 bsxor <= cxor <= bsxor^2, exhaustive n=3 plus 1000 random n=4", not viol,
           f"{total} functions, {len(viol)} violations")


def test_03_certificate_search_equals_gl_minimum():
    inst, viol = suite_violations("exhaustive:3", "eq-coplusc")
    report("3 coset search cxor equals the GL(3,2) classical minimum pointwise", not viol,
           f"{inst} functions x 8 inputs, {len(viol)} violations")


def _evaluator_violations(f: BooleanFunction, xb: int, check_all_zeros: bool) -> list[str]:
    n = f.arity
    out = []
    oracle = ParityOracle(Gf2Vector(n, xb))
    value, queries, trace = evaluate_via_certificates(f, oracle)
    if value != f.value_at(xb):
        out.append(f"value {value} != f({xb})")
    if f.is_constant():
        if queries:
            out.append("constant function queried the oracle")
        return out
    k0, k1 = c0_xor(f), c1_xor(f)
    if queries > k0 * k1:
        out.append(f"{queries} queries > {k0}*{k1}")
    # certificate sizes of surviving 0-inputs drop every mismatched round
    domains = [s.domain for s in trace] + [
        trace[-1].domain_after if trace and not trace[-1].matched else None
    ]
    prev: dict[int, int] = {}
    for dom in domains:
        if dom is None:
            continue
        rf = restrict(f, dom)
        zeros = (
            [z for z in dom.member_bits() if not f.value_at(z)]
            if check_all_zeros
            else ([xb] if not f.value_at(xb) else [])
        )
        for z in zeros:
            size = parity_certificate(rf, Gf2Vector(n, z))[0]
            if z in prev and size > prev[z] - 1:
                out.append(f"no decrease at input {z}: {prev[z]} -> {size}")
            prev[z] = size
    return out


def test_04_certificate_driven_evaluation():
    viol = []
    runs = 0
    for n in (1, 2, 3):
        for t in range(1 << (1 << n)):
            f = BooleanFunction(n, t)
            for xb in range(1 << n):
                runs += 1
                viol += [f"{f.spec}@{xb}: {m}" for m in _evaluator_violations(f, xb, True)]
    rnd = random.Random(404)
    for n in (4, 5):
        for _ in range(250):
            f = BooleanFunction(n, rnd.getrandbits(1 << n))
            xb = rnd.getrandbits(n)
            runs += 1
            viol += [f"{f.spec}@{xb}: {m}" for m in _evaluator_violations(f, xb, False)]
    report("4 evaluator correct within c0xor*c1xor queries, certificates shrinking",
           not viol, f"{runs} runs, {len(viol)} violations")


def test_05_nonmonotone_example():
    f = zoo("example31", 3)
    h = Coset.full_space(3).with_constraint(Gf2Vector(3, 0b001), 0)
    rf = restrict(f, h)
    facts = {
        "wbsxor(f) = 1": wbs_xor(f) == 1,
        "f|x1=0 is or2": rf.local.table == zoo("or", 2).table,
        "wbs at 0 of the restriction = 2": weak_parity_bs(rf.local, Gf2Vector(2, 0))[0] == 2,
        "restriction exceeds f": wbs_xor(f) < wbs_xor(rf),
        "bsxor(f) >= 2": parity_bs(f)[0] >= 2,
    }
    bad = [k for k, v in facts.items() if not v]
    report("5 x1+(x2 or x3): restricting raises the weak measure", not bad,
           f"{len(facts)} facts, failing: {bad or 'none'}")


def test_06_and_family():
    bad = []
    for m in (2, 3, 4):
        f = zoo("and", m)
        got = (wbs_xor(f), c1_xor(f), c_xor(f), parity_depth(f)[0], c0_xor(f))
        if got != (m, m, m, m, 1):
            bad.append(f"m={m}: {got}")
    report("6 and_m has wbsxor=c1xor=cxor=dxor=m and c0xor=1 for m=2,3,4",
           not bad, f"3 arities, failing: {bad or 'none'}")


def test_07_gap_instances():
    bad = []
    worst = 0.0
    for seed in range(20):
        t0 = time.perf_counter()
        inst = sample_thm_exp(3, seed)
        if pdt_depth(inst.tree) != 7:
            bad.append(f"seed {seed}: depth")
        if any(pdt_eval(inst.tree, x) != inst.f.value_at(x) for x in range(256)):
            bad.append(f"seed {seed}: tree/table")
        max_tau = max(tau(leaf.coset.constraints, leaf.query) for leaf in inst.leaves)
        d = decision_depth(inst.f)[0]
        if d < max_tau:
            bad.append(f"seed {seed}: depth {d} < tau {max_tau}")
        worst = max(worst, time.perf_counter() - t0)
    report("7 sampled gap instances: depth 7 trees computing f with d(f) >= max tau",
           not bad, f"20 seeds, worst {worst:.1f}s, failing: {bad or 'none'}")


def test_08_protocols():
    bad = []
    for t in range(256):
        f = BooleanFunction(3, t)
        d, tree = parity_depth(f)
        for xb in range(8):
            for yb in range(8):
                tr = simulate_det_protocol(tree, Gf2Vector(3, xb), Gf2Vector(3, yb))
                if tr.output != f.value_at(xb ^ yb) or tr.total_bits > 2 * d:
                    bad.append(f"det {t}@{xb},{yb}")
        if t == 0:
            continue
        ess = essential_certificate_set(f)
        k, dd = ess.size, ess.codim
        if dd != c1_xor(f) or k > (1 << dd) * (3 * 3) ** dd:
            bad.append(f"nondet {t}: set shape")
            continue
        cost = dd + math.ceil(math.log2(k + 1))
        for xb in range(8):
            for yb in range(8):
                tr = nondet_protocol(f, ess, Gf2Vector(3, xb), Gf2Vector(3, yb))
                if tr.output != f.value_at(xb ^ yb):
                    bad.append(f"nondet {t}@{xb},{yb}: output")
                elif tr.output == 1 and tr.total_bits != cost:
                    bad.append(f"nondet {t}@{xb},{yb}: bits")
    report("8 protocols on every n=3 function and input pair", not bad,
           f"256 det sweeps + 255 nondet sweeps, {len(bad)} violations")


def test_09_rank_equals_sparsity():
    bad = 0
    total = 0
    for n in (1, 2, 3):
        for t in range(1 << (1 << n)):
            total += 1
            f = BooleanFunction(n, t)
            if xor_matrix_rank(f) != fourier(f).sparsity:
                bad += 1
    rnd = random.Random(2024)
    for n in (4, 5):
        for _ in range(200):
            total += 1
            f = BooleanFunction(n, rnd.getrandbits(1 << n))
            if xor_matrix_rank(f) != fourier(f).sparsity:
                bad += 1
    report("9 xor matrix rank equals Fourier sparsity", bad == 0,
           f"{total} functions, {bad} violations")


def test_10_invariance_and_monotonicity():
    inst_i, viol_i = suite_violations("random:4:50:7", "invariance")
    inst_m, viol_m = suite_violations("exhaustive:3", "monotone")
    ok = not viol_i and not viol_m
    report("10 measures invariant under shifts/rotations, monotone under restriction",
           ok, f"{inst_i} random n=4 + {inst_m} n=3 functions, "
               f"{len(viol_i) + len(viol_m)} violations")


def test_11_group_and_subspace_counts():
    bad = []
    for n, want in ((2, 6), (3, 168), (4, 20160)):
        order = 1
        for i in range(n):
            order *= (1 << n) - (1 << i)
        cnt = sum(1 for _ in enumerate_gl(n))
        if not cnt == want == order == gl_order(n):
            bad.append(f"gl({n})")
    for n in range(1, 6):
        for k in range(n + 1):
            num, den = 1, 1
            for i in range(k):
                num *= (1 << n) - (1 << i)
                den *= (1 << k) - (1 << i)
            binom = num // den
            cnt = sum(1 for _ in reference_enumerate_subspaces(n, k))
            if not cnt == binom == subspace_count(n, k):
                bad.append(f"[{n},{k}]")
    report("11 GL orders 6/168/20160 and Gaussian binomial subspace counts",
           not bad, f"failing: {bad or 'none'}")
