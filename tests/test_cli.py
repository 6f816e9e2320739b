import concurrent.futures
import dataclasses
import itertools
import json
import random

import pytest

from paritydt import classical, cli, construct, gf2, parity, theorems
from paritydt.boolfn import BooleanFunction, rotate, shift
from paritydt.cli import run
from paritydt.errors import ParitydtError
from paritydt.gf2 import Gf2Vector
from paritydt.parity import MeasureValue


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_runtimes(report):
    report = dict(report)
    report.pop("runtime_ms", None)
    for r in report.get("results", []) if isinstance(report.get("results"), list) else []:
        r.pop("runtime_ms", None)
    return report


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def test_measure_json_values(capsys):
    code, got = run_json(
        capsys, ["measure", "--fn", "zoo:or:2", "--measures", "d,dxor,cxor,c0xor,c1xor"]
    )
    assert code == 0
    assert got["version"] == cli.VERSION and got["command"] == "measure"
    assert got["function"] == {"spec": "zoo:or:2", "canonical": "tt:2:0111", "arity": 2}
    vals = {m: got["results"][m]["value"] for m in ("d", "dxor", "cxor", "c0xor", "c1xor")}
    assert vals == {"d": 2, "dxor": 2, "cxor": 2, "c0xor": 2, "c1xor": 1}
    assert all(got["results"][m]["exact"] is True for m in vals)
    assert got["results"]["dxor"]["witness"]["tree"]["query"]


def test_measure_json_deterministic(capsys):
    argv = ["measure", "--fn", "zoo:maj:3", "--measures", "d,c,bs,dxor,cxor,bsxor,wbsxor"]
    _, a = run_json(capsys, argv)
    _, b = run_json(capsys, argv)
    assert strip_runtimes(a) == strip_runtimes(b)


def test_measure_csv(capsys):
    code = run(["measure", "--fn", "zoo:and:2", "--measures", "d,c1", "--csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "function,measure,value,exact"
    assert out[1] == "zoo:and:2,d,2,true"
    assert out[2] == "zoo:and:2,c1,2,true"


def test_measure_symmetrized(capsys):
    code, got = run_json(capsys, ["measure", "--fn", "zoo:parity:4", "--measures", "di,ci,bsi"])
    assert code == 0
    assert {m: got["results"][m]["value"] for m in ("di", "ci", "bsi")} == {
        "di": 1, "ci": 1, "bsi": 1,
    }


def test_measure_sampled_fallback(capsys):
    # arity 5 is beyond the exact budget for these two
    argv = ["measure", "--fn", "zoo:and:5", "--measures", "wbsxor,bsxor",
            "--sample", "6", "--seed", "3"]
    code, got = run_json(capsys, argv)
    assert code == 0
    for m in ("wbsxor", "bsxor"):
        assert got["results"][m]["exact"] is False
        assert "note" in got["results"][m]
    # the same request without --sample is refused
    code2 = run(["measure", "--fn", "zoo:and:5", "--measures", "wbsxor"])
    err = capsys.readouterr().err
    assert code2 == 2 and err.startswith("refused:")


@pytest.mark.parametrize("measure", ["bsxor", "wbsxor"])
@pytest.mark.parametrize("sample", ["0", "-1"])
def test_measure_rejects_non_positive_sample(capsys, measure, sample):
    argv = ["measure", "--fn", "zoo:and:5", "--measures", measure, "--sample", sample]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sample: must be >= 1" in captured.err


def test_measure_extended_budget(capsys):
    argv = ["measure", "--fn", "anf:13:x1*x2", "--measures", "c", "--max-exact-n", "13"]
    code, got = run_json(capsys, argv)
    assert code == 0
    assert got["results"]["c"]["value"] == 2
    # the guard is restored afterwards
    code2 = run(["measure", "--fn", "anf:13:x1*x2", "--measures", "c"])
    err = capsys.readouterr().err
    assert code2 == 2 and err.startswith("refused:")


def test_sampled_bsxor_draws_cosets_up_to_the_exact_wbs_cap(capsys):
    argv = ["measure", "--fn", "zoo:and:6", "--measures", "bsxor", "--sample", "6", "--seed", "5"]
    assert run_json(capsys, argv)[1]["results"]["bsxor"]["value"] == 4
    # --max-exact-n lifts the weak-parity-bs cap, so 5-dimensional cosets are drawn too
    assert run_json(capsys, argv + ["--max-exact-n", "5"])[1]["results"]["bsxor"]["value"] == 5


def test_sampled_bsxor_stays_within_block_bitmaps(capsys):
    # --max-exact-n 6 lifts the weak-parity-bs cap past the 5-dimensional
    # bitmaps; the sampled fallback still draws only cosets it can measure
    argv = ["measure", "--fn", "zoo:and:7", "--measures", "bsxor", "--sample", "6", "--max-exact-n", "6"]
    code, got = run_json(capsys, argv)
    assert code == 0
    res = got["results"]["bsxor"]
    assert res["exact"] is False and res["note"] == "lower bound from sampled cosets"
    assert 1 <= res["value"] <= 5
    assert 7 - len(res["witness"]["coset"]["constraints"]) <= parity.BITMAP_MAX_DIM


def test_constant_wbsxor_past_the_block_bitmaps(capsys):
    # a constant needs no block bitmaps, so wbsxor answers it at n = 6 as
    # bsxor does, with the identity basis
    argv = ["measure", "--fn", "tt:6:" + "1" * 64, "--measures", "wbsxor,bsxor", "--max-exact-n", "6"]
    code, got = run_json(capsys, argv)
    assert code == 0
    assert got["results"]["wbsxor"] == {"exact": True, "value": 0,
                                        "witness": {"basis": [format(1 << (5 - i), "06b") for i in range(6)]}}
    assert got["results"]["bsxor"]["value"] == 0


def test_measure_errors(capsys):
    assert run(["measure", "--fn", "zoo:or:2", "--measures", "dx"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["measure", "--fn", "tt:2:01", "--measures", "d"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["measure", "--fn", "zoo:maj:4", "--measures", "d"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # a list that names nothing computes nothing, so it is not a result
    for names in [",", " , ", ""]:
        assert run(["measure", "--fn", "zoo:or:2", "--measures", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


# ---------------------------------------------------------------------------
# measure witnesses against the per-input reference loops
# ---------------------------------------------------------------------------

_CERT_MEASURES = {
    "c": (classical.c, None), "c0": (classical.c0, 0), "c1": (classical.c1, 1),
    "cxor": (parity.c_xor, None), "c0xor": (parity.c0_xor, 0), "c1xor": (parity.c1_xor, 1),
}


def reference_measure(f, name):
    """The measure command's old witness search: the value from the
    aggregate, then a second scan of every input for the witness."""
    n = f.arity
    if name in _CERT_MEASURES:
        aggregate, target = _CERT_MEASURES[name]
        value = aggregate(f)
        if value is None:
            return MeasureValue(None, True, None, "undefined for this function")
        xor = name.endswith("xor")
        prof = parity._cxor_profile(n, f.table) if xor else classical._certificate_profile(n, f.table)
        xb = max(
            (x for x in range(1 << n) if target is None or f.value_at(x) == target),
            key=lambda x: (prof[x], -x),
        )
        x = Gf2Vector(n, xb)
        if xor:
            _, cert = parity.parity_certificate(f, x)
            wit = {"x": x.to_string(), "coset": cert.coset.to_jsonable(), "value": cert.value}
            return MeasureValue(value, True, wit)
        _, cert = classical.certificate_complexity(f, x)
        return MeasureValue(value, True, {"x": x.to_string(), "certificate": cert.to_jsonable()})
    if name == "bs":
        best, wit = -1, None
        for xb in range(1 << n):
            v, fam = classical.block_sensitivity(f, Gf2Vector(n, xb))
            if v > best:
                best, wit = v, fam
        return MeasureValue(best, True, wit.to_jsonable())
    assert name == "wbsxor"
    value = parity.wbs_xor(f)
    best, wit = -1, None
    for xb in range(1 << n):
        v, basis = parity.weak_parity_bs(f, Gf2Vector(n, xb))
        if v > best:
            best, wit = v, basis
    assert best == value
    return MeasureValue(value, True, {"basis": wit.to_jsonable()})


def reference_sampled_wbsxor(f, samples, seed):
    best, wit = -1, None
    for xb in range(1 << f.arity):
        v, basis = parity.sampled_weak_parity_bs(f, Gf2Vector(f.arity, xb), samples, seed)
        if v > best:
            best, wit = v, basis
    return MeasureValue(best, False, {"basis": wit.to_jsonable()}, "upper bound from sampled bases")


def _assert_measures_match_reference(f):
    for name in ("c", "c0", "c1", "bs", "cxor", "c0xor", "c1xor", "wbsxor"):
        got = cli._compute_measure(f, name).to_jsonable()
        assert got == reference_measure(f, name).to_jsonable(), (f.spec, name)


def test_measure_witnesses_match_reference_all_n3():
    for n in (1, 2, 3):
        for t in range(1 << (1 << n)):
            _assert_measures_match_reference(BooleanFunction(n, t))


def test_measure_witnesses_match_reference_n4_seeded():
    rnd = random.Random(404)
    for t in [0, 0xFFFF, 0x8000, 0x6996, 0xE8E8] + [rnd.getrandbits(16) for _ in range(40)]:
        _assert_measures_match_reference(BooleanFunction(4, t))


def test_sampled_wbsxor_matches_reference_n5():
    rnd = random.Random(505)
    tables = [0, 1 << 31, 0xFFFFFFFE, 0x96696996] + [rnd.getrandbits(32) for _ in range(4)]
    for t in tables:
        f = BooleanFunction(5, t)
        for samples, seed in ((1, 0), (7, 3)):
            got = cli._compute_measure_sampled(f, "wbsxor", samples, seed).to_jsonable()
            assert got == reference_sampled_wbsxor(f, samples, seed).to_jsonable(), (f.spec, samples, seed)


def test_sampled_wbsxor_draws_bases_once(capsys, monkeypatch):
    calls = []

    def counting_sample_gl_rows(n, count, seed):
        calls.append((n, count, seed))
        return gf2._sample_gl_rows(n, count, seed)

    monkeypatch.setattr(parity, "_sample_gl_rows", counting_sample_gl_rows)
    argv = ["measure", "--fn", "zoo:and:5", "--measures", "wbsxor", "--sample", "7", "--seed", "3"]
    code, got = run_json(capsys, argv)
    assert code == 0 and got["results"]["wbsxor"]["exact"] is False
    assert calls == [(5, 7, 3)]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_family(capsys):
    code, got = run_json(
        capsys, ["verify", "--family", "exhaustive:2", "--theorems", "thm1,prop-cd"]
    )
    assert code == 0
    assert [r["theorem"] for r in got["results"]] == ["thm1", "prop-cd"]
    for r in got["results"]:
        assert r["passed"] is True
        assert r["instances"] == 16
        assert r["violations"] == []
        assert r["family"] == "exhaustive:2"


@pytest.mark.parametrize("family,count", [("exhaustive:0", 2), ("random:0:3:1", 3)])
def test_verify_gl_sweeps_at_arity_0(capsys, family, count):
    # GL(0) is the one empty matrix, enumerated and sampled alike
    code, got = run_json(capsys, ["verify", "--family", family, "--theorems", "eq-coplusc,invariance"])
    assert code == 0
    assert [(r["theorem"], r["passed"], r["instances"]) for r in got["results"]] == [
        ("eq-coplusc", True, count),
        ("invariance", True, count),
    ]


def test_verify_leaves_no_small_dimension_memo_entries(capsys):
    # every table of dimension <= 4 is read from the dense tables, so the
    # sweep cannot pass on a memo hit and never looks a memo up
    memos = (parity._dxor_search, parity._cxor_scan)
    before = [memo.cache_info() for memo in memos]
    code, got = run_json(capsys, ["verify", "--family", "exhaustive:3", "--theorems", "thm1,prop-cd"])
    assert code == 0
    assert [r["instances"] for r in got["results"]] == [256, 256]
    assert [memo.cache_info() for memo in memos] == before


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize(
    "argv",
    [["measure", "--measures", "cxor,c0xor,c1xor"], ["comm", "--protocol", "nondet", "--sweep"]],
    ids=["measure", "comm"],
)
def test_certificate_witnesses_share_one_scan(capsys, argv, n):
    # the certificate witnesses of one table (cxor, c0xor and c1xor, or
    # the nondeterministic protocol's) read one scan, at every dimension
    spec = BooleanFunction(n, random.Random(n).getrandbits(1 << n)).spec
    parity._cxor_scan.cache_clear()
    code = run(argv[:1] + ["--fn", spec] + argv[1:])
    capsys.readouterr()
    assert code == 0
    info = parity._cxor_scan.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_verify_zoo_family(capsys):
    code, got = run_json(capsys, ["verify", "--family", "zoo:all:3", "--theorems", "eq1"])
    assert code == 0
    assert got["results"][0]["instances"] == 6


def test_verify_random_family_deterministic(capsys):
    argv = ["verify", "--family", "random:3:5:7", "--theorems", "eq2,thm2"]
    _, a = run_json(capsys, argv)
    _, b = run_json(capsys, argv)
    assert a["results"][0]["instances"] == 5
    assert strip_runtimes(a) == strip_runtimes(b)


_THREAD_CASES = [("exhaustive:3", "eq1", 256)] + [
    ("random:3:20:5", t, 1 if t == "example-nonmonotone" else 20) for t in cli.THEOREM_IDS
]


@pytest.mark.parametrize(
    "family,theorem,instances", _THREAD_CASES, ids=[f"{fam}-{th}" for fam, th, _ in _THREAD_CASES]
)
def test_verify_threads_match_serial(capsys, family, theorem, instances):
    base = ["verify", "--family", family, "--theorems", theorem]
    _, serial = run_json(capsys, base)
    _, parallel = run_json(capsys, base + ["--threads", "2"])
    assert strip_runtimes(serial) == strip_runtimes(parallel)
    assert serial["results"][0]["instances"] == instances


@pytest.mark.parametrize("theorem", cli.THEOREM_IDS)
def test_verify_every_theorem_exhaustive2(capsys, theorem):
    code, got = run_json(
        capsys, ["verify", "--family", "exhaustive:2", "--theorems", theorem]
    )
    assert code == 0
    r = got["results"][0]
    assert r["theorem"] == theorem
    assert r["passed"] is True
    assert r["violations"] == []
    assert r["instances"] == (1 if theorem == "example-nonmonotone" else 16)


def test_verify_refusals(capsys):
    assert run(["verify", "--family", "exhaustive:4", "--theorems", "monotone"]) == 2
    assert capsys.readouterr().err.startswith("refused:")
    assert run(["verify", "--family", "random:5:3:0", "--theorems", "eq-coplusc"]) == 2
    assert capsys.readouterr().err.startswith("refused:")


def test_verify_usage_errors(capsys):
    assert run(["verify", "--family", "exhaustive:2", "--theorems", "thm9"]) == 2
    capsys.readouterr()
    assert run(["verify", "--family", "every:2", "--theorems", "thm1"]) == 2
    capsys.readouterr()
    # negative arity or count, or no theorem: a usage error, not a
    # traceback or a pass that checked nothing
    for family, names in [("exhaustive:-1", "thm1"), ("random:-1:2:0", "thm1"),
                          ("random:4:-3:0", "thm1"), ("exhaustive:2", ","), ("exhaustive:2", " , ")]:
        assert run(["verify", "--family", family, "--theorems", names]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
    for family in ["exhaustive:-1", "random:-1:2:0", "random:4:-3:0"]:
        with pytest.raises(ParitydtError):
            theorems.parse_family(family)


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_verify_rejects_non_positive_threads(capsys, threads):
    argv = ["verify", "--family", "exhaustive:1", "--theorems", "eq1", "--threads", threads]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads: must be >= 1" in captured.err
    with pytest.raises(ParitydtError):
        theorems.run_verification_suite("exhaustive:1", ["eq1"], int(threads))


@pytest.fixture
def inline_pool(monkeypatch):
    """A stand-in executor that runs the chunks in this process, so no
    worker process starts whatever count is asked for; yields the
    worker counts asked for."""
    started = []

    class InlineExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return started


def test_verify_threads_clamped_to_cpu_count(monkeypatch, inline_pool):
    started = inline_pool
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 3)
    serial = theorems.run_verification_suite("exhaustive:3", ["eq1", "thm2"])
    wide = theorems.run_verification_suite("exhaustive:3", ["eq1", "thm2"], threads=64)
    assert started == [3, 3]
    expected = [(r.theorem, r.instances, r.violations) for r in serial]
    assert [(r.theorem, r.instances, r.violations) for r in wide] == expected


@pytest.mark.parametrize("threads", [2, 3])
def test_verify_threads_count_instances_like_serial(capsys, monkeypatch, inline_pool, threads):
    # past the violation cap the count must not depend on the chunking
    def fails_every_third(f, seed):
        return {"function": f.spec} if f.table % 3 == 0 else None

    planted = dataclasses.replace(theorems.THEOREMS["eq1"], check=fails_every_third)
    monkeypatch.setitem(theorems.THEOREMS, "eq1", planted)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: threads)
    argv = ["verify", "--family", "exhaustive:3", "--theorems", "eq1"]
    code, serial = run_json(capsys, argv)
    assert code == 1
    code, chunked = run_json(capsys, argv + ["--threads", str(threads)])
    assert code == 1
    assert inline_pool == [threads]
    assert strip_runtimes(chunked) == strip_runtimes(serial)
    r = serial["results"][0]
    assert r["instances"] == 13
    assert [v["function"] for v in r["violations"]] == [BooleanFunction(3, t).spec for t in range(0, 13, 3)]


@pytest.fixture
def planted_depth(monkeypatch):
    """Every 4-bit table t with t % 7 == 0 reads a wrong D⊕ from the dense
    depth table: one more at odd t (thm1 fails where it was tight), one
    less at even t (prop-cd fails where C⊕ = D⊕)."""
    real = parity._dense_depth
    real.cache_clear()
    depth, query = real(4)
    bad = depth.copy()
    bad[::14] -= 1
    bad[7::14] += 1
    bad.setflags(write=False)
    monkeypatch.setattr(parity, "_dense_depth", lambda m: (bad, query) if m == 4 else real(m))
    yield
    real.cache_clear()


@pytest.mark.parametrize("threads", [2, 3])
def test_verify_screen_keeps_planted_violations(capsys, monkeypatch, inline_pool, planted_depth, threads):
    argv = ["verify", "--family", "exhaustive:4", "--theorems", "thm1,prop-cd"]
    scalar_checks = {th: theorems.THEOREMS[th].check for th in ("thm1", "prop-cd")}
    calls = dict.fromkeys(scalar_checks, 0)

    def counted(name):
        def check(f, seed):
            calls[name] += 1
            return scalar_checks[name](f, seed)
        return check

    for th in scalar_checks:
        monkeypatch.setitem(theorems.THEOREMS, th, dataclasses.replace(theorems.THEOREMS[th], check=counted(th)))
    code, screened = run_json(capsys, argv)
    assert code == 1
    # the screen passes on exactly the violators, up to the cap
    assert calls == {"thm1": 5, "prop-cd": 5}
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: threads)
    code, chunked = run_json(capsys, argv + ["--threads", str(threads)])
    assert code == 1 and inline_pool == [threads, threads]
    for th in scalar_checks:
        monkeypatch.setitem(theorems.THEOREMS, th, dataclasses.replace(theorems.THEOREMS[th], screen=None))
    code, scalar = run_json(capsys, argv)
    assert code == 1
    assert strip_runtimes(screened) == strip_runtimes(scalar) == strip_runtimes(chunked)
    for r in screened["results"]:
        check = scalar_checks[r["theorem"]]
        bad = list(itertools.islice((t for t in range(1 << 16) if check(BooleanFunction(4, t), 0)), 5))
        assert [v["function"] for v in r["violations"]] == [BooleanFunction(4, t).spec for t in bad]
        assert r["instances"] == bad[-1] + 1


@pytest.mark.parametrize("threads", [2, 3])
def test_verify_thm2_screen_keeps_planted_violations(capsys, monkeypatch, inline_pool, threads):
    # every 4-bit table of weight 7 reads wbs+ 9 on the full space, so bs+
    # is 9 > C+ there; no other table violates thm2.  The screen measures
    # one table per affine orbit, so the planted fault keeps to a property
    # that every affine map keeps, the weight
    real = parity._wbs_aggregate
    monkeypatch.setattr(
        parity, "_wbs_aggregate",
        lambda m, ts: [9 if m == 4 and bin(t).count("1") == 7 else v for t, v in zip(ts, real(m, ts), strict=True)],
    )
    argv = ["verify", "--family", "random:4:200:3", "--theorems", "thm2"]
    scalar_check = theorems.THEOREMS["thm2"].check
    calls = []

    def check(f, seed):
        calls.append(f.table)
        return scalar_check(f, seed)

    monkeypatch.setitem(theorems.THEOREMS, "thm2", dataclasses.replace(theorems.THEOREMS["thm2"], check=check))
    code, screened = run_json(capsys, argv)
    assert code == 1
    # the screen passes on exactly the violators, up to the cap
    assert len(calls) == 5 and all(bin(t).count("1") == 7 for t in calls)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: threads)
    code, chunked = run_json(capsys, argv + ["--threads", str(threads)])
    assert code == 1 and inline_pool == [threads]
    monkeypatch.setitem(theorems.THEOREMS, "thm2", dataclasses.replace(theorems.THEOREMS["thm2"], screen=None))
    code, scalar = run_json(capsys, argv)
    assert code == 1
    assert strip_runtimes(screened) == strip_runtimes(scalar) == strip_runtimes(chunked)
    (r,) = screened["results"]
    bad = [t for t in theorems._family_tables(theorems.parse_family("random:4:200:3")) if bin(t).count("1") == 7][:5]
    assert [v["function"] for v in r["violations"]] == [BooleanFunction(4, t).spec for t in bad]
    assert all(v["bsxor"] == 9 for v in r["violations"])


def test_verify_reports_violations(capsys, monkeypatch):
    def fails_on_01(f, seed):
        return {"function": "tt:1:01", "detail": "planted"} if f.spec == "tt:1:01" else None

    planted = dataclasses.replace(theorems.THEOREMS["eq1"], check=fails_on_01)
    monkeypatch.setitem(theorems.THEOREMS, "eq1", planted)
    code, got = run_json(capsys, ["verify", "--family", "exhaustive:1", "--theorems", "eq1"])
    assert code == 1
    r = got["results"][0]
    assert r["passed"] is False
    assert r["violations"] == [{"function": "tt:1:01", "detail": "planted"}]


def reference_invariance(f, seed, measures):
    """The per-transform check the one rotation gather replaced: 20 seeded
    shifts, then rotate() by each of 20 sample_gl matrices, each measured
    in turn; the first change is the violation."""
    n = f.arity
    base = measures(f)
    rnd = random.Random(f"invariance:{seed}:{n}:{f.table}")
    transforms = [("shift", Gf2Vector(n, rnd.randrange(1 << n))) for _ in range(20)]
    transforms += [("rotate", b) for b in gf2.sample_gl(n, 20, rnd.getrandbits(63))]
    for kind, arg in transforms:
        got = measures(shift(f, arg) if kind == "shift" else rotate(f, arg))
        if got != base:
            return {"function": f.spec, "transform": kind,
                    "arg": arg.to_string() if kind == "shift" else arg.to_jsonable(),
                    "base": list(base), "transformed": list(got)}
    return None


def test_invariance_matches_per_transform_reference(monkeypatch):
    rnd = random.Random(11)
    fns = [BooleanFunction(n, rnd.getrandbits(1 << n)) for n in (2, 3, 3, 4, 4, 4)]
    fns += [construct.zoo("and", 4), construct.zoo("parity", 3)]
    for f in fns:
        want = reference_invariance(f, 5, lambda g: (parity.d_xor(g), parity.c_xor(g), parity.parity_bs(g)[0]))
        assert want is None and theorems._invariance(f, 5) == want
    rotated = 0
    for f in fns:
        # planted: the measures change off f's shifts, so only rotated
        # tables can fail, and the first one that leaves them is reported
        shifted = {shift(f, Gf2Vector(f.arity, c)).table for c in range(1 << f.arity)}

        def planted(g):
            return (0, 0, 0) if g.table in shifted else (1, g.table % 7, g.arity)

        want = reference_invariance(f, 5, planted)
        calls = []

        def counting(n, tables):
            calls.extend(tables)
            return [planted(BooleanFunction(n, t)) for t in tables]

        monkeypatch.setattr(theorems, "_parity_measures", counting)
        assert theorems._invariance(f, 5) == want, f.spec
        assert len(calls) == len(set(calls))  # each distinct table once
        rotated += want is not None and want["transform"] == "rotate"
    assert rotated


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_check(capsys):
    code, got = run_json(capsys, ["construct", "thm-exp", "--k", "3", "--seed", "1", "--check"])
    assert code == 0
    res = got["results"]
    assert res["k"] == 3 and res["n"] == 8 and res["depth"] == 7
    assert len(res["leaves"]) == 64
    checks = res["checks"]
    for key in ("depth", "tree_table_agree", "leaves_partition", "linear_on_leaves",
                "depth_bound", "certificate_bound"):
        assert checks[key] is True
    assert checks["d_of_f"] >= checks["max_tau"]


def _flip_first_leaf(tree):
    """The tree with the value of its leftmost leaf flipped."""
    if isinstance(tree, parity.ParityLeaf):
        return parity.ParityLeaf(1 - tree.value)
    return dataclasses.replace(tree, child0=_flip_first_leaf(tree.child0))


@pytest.mark.parametrize("k", [3, 4])
def test_gap_instance_checks_catch_faults(k):
    inst = construct.sample_thm_exp(k, 2)
    keys = ("tree_table_agree", "leaves_partition", "linear_on_leaves")

    def verdicts(**changes):
        checks = cli._gap_instance_checks(dataclasses.replace(inst, **changes))
        return tuple(checks[key] for key in keys)

    assert verdicts() == (True, True, True)
    # one flipped value of f: off the tree, and no longer linear on its leaf
    for x in (0, (1 << inst.n) - 1, 12345 % (1 << inst.n)):
        f = BooleanFunction(inst.n, inst.f.table ^ (1 << x))
        assert verdicts(f=f) == (False, True, False), x
    # one flipped tree leaf: the tree disagrees, f and the leaves still fit
    assert verdicts(tree=_flip_first_leaf(inst.tree)) == (False, True, True)
    # a repeated or a missing leaf breaks the partition
    assert verdicts(leaves=inst.leaves + inst.leaves[5:6])[1] is False
    assert verdicts(leaves=inst.leaves[1:])[1] is False


def test_construct_deterministic(capsys):
    argv = ["construct", "thm-exp", "--k", "3", "--seed", "9"]
    _, a = run_json(capsys, argv)
    _, b = run_json(capsys, argv)
    assert strip_runtimes(a) == strip_runtimes(b)


def test_construct_range_errors(capsys):
    assert run(["construct", "thm-exp", "--k", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["construct", "thm-exp", "--k", "5"]) == 2
    assert capsys.readouterr().err.startswith("refused:")
    for seed in (1 << 63, -(1 << 63) - 1):
        assert run(["construct", "thm-exp", "--k", "3", "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == f"error: seed must be a signed 64-bit integer, got {seed}\n"
    for seed in ((1 << 63) - 1, -(1 << 63)):
        code, got = run_json(capsys, ["construct", "thm-exp", "--k", "3", "--seed", str(seed)])
        assert code == 0 and got["results"]["seed"] == seed


# ---------------------------------------------------------------------------
# comm
# ---------------------------------------------------------------------------

def test_comm_det_single(capsys):
    code, got = run_json(
        capsys, ["comm", "--fn", "zoo:or:2", "--protocol", "det", "--x", "1", "--y", "1"]
    )
    assert code == 0
    res = got["results"]
    assert res["transcript"]["output"] == 0  # x + y = 00
    assert res["correct"] is True
    assert res["transcript"]["total_bits"] <= 2 * res["depth"]


def test_comm_det_sweep(capsys):
    code, got = run_json(capsys, ["comm", "--fn", "zoo:maj:3", "--protocol", "det", "--sweep"])
    assert code == 0
    res = got["results"]
    assert res["all_correct"] is True and res["within_bound"] is True
    assert res["pairs"] == 64


def test_comm_nondet_single(capsys):
    code, got = run_json(
        capsys, ["comm", "--fn", "zoo:or:2", "--protocol", "nondet", "--x", "1", "--y", "0"]
    )
    assert code == 0
    res = got["results"]
    assert res["k"] == 2 and res["cost"] == 3
    assert res["transcript"]["output"] == 1
    assert res["transcript"]["total_bits"] == 3
    assert res["correct"] is True


def test_comm_nondet_sweep(capsys):
    code, got = run_json(capsys, ["comm", "--fn", "zoo:and:2", "--protocol", "nondet", "--sweep"])
    assert code == 0
    res = got["results"]
    assert res["sound_and_complete"] is True
    assert res["k"] == 1 and res["cost"] == 3 and res["k_within_bound"] is True


@pytest.mark.parametrize("protocol, want", [
    ("det", {"all_correct": True, "bound": 10, "depth": 5, "max_total_bits": 10,
             "pairs": 65536, "protocol": "det", "within_bound": True}),
    ("nondet", {"codim": 5, "cost": 10, "k": 28, "k_bound": 254803968, "k_within_bound": True,
                "pairs": 65536, "protocol": "nondet", "sound_and_complete": True}),
])
def test_comm_sweep_at_arity_8(capsys, protocol, want):
    argv = ["comm", "--fn", "anf:8:x1*x2+x3*x4+x5*x6+x7*x8", "--protocol", protocol, "--sweep"]
    code, got = run_json(capsys, argv)
    assert code == 0
    assert got["results"] == want


def test_comm_usage_errors(capsys):
    base = ["comm", "--fn", "zoo:or:2", "--protocol", "det"]
    assert run(base + ["--sweep", "--x", "1"]) == 2
    capsys.readouterr()
    assert run(base + ["--x", "1"]) == 2
    capsys.readouterr()
    assert run(base + ["--x", "zz", "--y", "0"]) == 2
    capsys.readouterr()
    assert run(base + ["--x", "7", "--y", "0"]) == 2  # 3 bits into width 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fourier
# ---------------------------------------------------------------------------

def test_fourier_parity3(capsys):
    code, got = run_json(capsys, ["fourier", "--fn", "zoo:parity:3"])
    assert code == 0
    res = got["results"]
    assert res["denominator"] == 8
    assert res["sparsity"] == 2 and res["log2_sparsity"] == 1.0
    assert res["coefficients"] == [
        {"numerator": 4, "w": "000"},
        {"numerator": -4, "w": "111"},
    ]


def test_fourier_zero(capsys):
    code, got = run_json(capsys, ["fourier", "--fn", "tt:2:0000"])
    assert code == 0
    res = got["results"]
    assert res["sparsity"] == 0 and res["log2_sparsity"] is None
    assert res["coefficients"] == []


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def test_usage_exit_codes(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()
    assert run(["measure"]) == 2
    capsys.readouterr()
    assert run(["measure", "--fn", "zoo:or:2", "--measures", "d", "--json", "--csv"]) == 2
    capsys.readouterr()


def test_envelope_keys(capsys):
    _, got = run_json(capsys, ["fourier", "--fn", "zoo:or:2"])
    assert set(got) == {"version", "command", "runtime_ms", "function", "results"}
    _, got = run_json(capsys, ["verify", "--family", "zoo:all:2", "--theorems", "eq2"])
    assert set(got) == {"version", "command", "runtime_ms", "family", "results"}
    _, got = run_json(capsys, ["construct", "thm-exp", "--k", "3"])
    assert set(got) == {"version", "command", "runtime_ms", "results"}
