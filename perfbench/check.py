"""Correctness gate: decides which items of a workload run failed.

Every output is checked, for any seed:

- each command exits 0 and prints the JSON it should;
- ``verify`` checks every instance of its family and reports no violation;
- witnesses are replayed with this file's own code: a parity tree (``dxor``)
  or decision tree (``d``) must agree with the truth table on all inputs and
  have depth equal to the value; a parity certificate coset (``cxor``,
  ``c0xor``, ``c1xor``) must contain x, keep f constant and have codimension
  equal to the value; classical certificates and block families likewise;
- the ``comm`` sweep flags and every ``construct --check`` flag are true;
- a Fourier spectrum matches a Walsh-Hadamard transform computed here.

Values are compared exactly with expected.json wherever it holds the same
command, that is for the seed-independent commands and for the default
seeds.  Witness identity is not compared: only its validity.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _vec(s: str) -> int:
    """Packed bits of a display string, x1 leftmost."""
    return sum(1 << i for i, ch in enumerate(s) if ch == "1")


def _table_of(spec: str) -> tuple[int, int]:
    """(arity, packed truth table) of the specs the workloads use."""
    kind, name, rest = spec.split(":")
    if kind == "tt":
        return int(name), _vec(rest)
    n = int(rest)
    if kind == "zoo" and name == "maj":
        return n, sum(1 << x for x in range(1 << n) if x.bit_count() > n // 2)
    if kind == "zoo" and name == "and":
        return n, 1 << ((1 << n) - 1)
    raise ValueError(f"no reference table for {spec!r}")


def _rank(rows: list[int]) -> int:
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


def _coset_members(n: int, coset: dict) -> list[int]:
    rows = [_vec(r) for r in coset["constraints"]]
    rhs = [int(ch) for ch in coset["rhs"]]
    if len(rhs) != len(rows):
        raise ValueError("rhs width differs from the number of constraints")
    return [x for x in range(1 << n) if all(_parity(r & x) == b for r, b in zip(rows, rhs))]


def _tree_check(n: int, table: int, tree: dict, step) -> int:
    """Depth of a tree after checking it computes ``table``; ``step(node, x)``
    names the child taken at input x."""
    def depth(node):
        return 0 if "leaf" in node else 1 + max(depth(node["0"]), depth(node["1"]))

    for x in range(1 << n):
        node = tree
        while "leaf" not in node:
            node = node[step(node, x)]
        if node["leaf"] != (table >> x) & 1:
            raise ValueError(f"tree disagrees with the table at input {x}")
    return depth(tree)


def _replay_measure(name: str, n: int, table: int, res: dict) -> None:
    value, wit = res["value"], res.get("witness")
    if not res.get("exact") or not isinstance(value, int):
        raise ValueError(f"{name}: not an exact integer value: {res}")
    if name in ("dxor", "d"):
        if name == "dxor":
            step = lambda node, x: str(_parity(_vec(node["query"]) & x))
        else:
            step = lambda node, x: str((x >> (node["var"] - 1)) & 1)
        d = _tree_check(n, table, wit["tree"], step)
        if d != value:
            raise ValueError(f"{name}: tree depth {d} != value {value}")
    elif name in ("cxor", "c0xor", "c1xor"):
        x = _vec(wit["x"])
        members = _coset_members(n, wit["coset"])
        rows = [_vec(r) for r in wit["coset"]["constraints"]]
        want = (table >> x) & 1
        if x not in members:
            raise ValueError(f"{name}: x not in the witness coset")
        if any((table >> y) & 1 != want for y in members) or wit["value"] != want:
            raise ValueError(f"{name}: f is not constant {want} on the witness coset")
        if name != "cxor" and want != int(name[1]):
            raise ValueError(f"{name}: witness x has f(x) = {want}")
        if _rank(rows) != len(rows) or len(rows) != value:
            raise ValueError(f"{name}: coset codimension {_rank(rows)} != value {value}")
    elif name in ("c", "c0", "c1"):
        x = _vec(wit["x"])
        idx, vals = wit["certificate"]["indices"], wit["certificate"]["values"]
        want = (table >> x) & 1
        fixed = sum(1 << (i - 1) for i in idx)
        pinned = sum(v << (i - 1) for i, v in zip(idx, vals))
        if x & fixed != pinned or len(set(idx)) != len(idx) or len(idx) != value:
            raise ValueError(f"{name}: certificate does not fit x or has size != {value}")
        if any((table >> y) & 1 != want for y in range(1 << n) if y & fixed == pinned):
            raise ValueError(f"{name}: f is not constant on the certificate's subcube")
        if name != "c" and want != int(name[1]):
            raise ValueError(f"{name}: witness x has f(x) = {want}")
    elif name == "bs":
        x = _vec(wit["anchor"])
        masks = [sum(1 << (i - 1) for i in b) for b in wit["blocks"]]
        union = 0
        for mk in masks:
            if not mk or union & mk or (table >> x) & 1 == (table >> (x ^ mk)) & 1:
                raise ValueError("bs: blocks are empty, overlap or are not sensitive")
            union |= mk
        if len(masks) != value:
            raise ValueError(f"bs: {len(masks)} blocks != value {value}")
    elif name in ("wbsxor", "di", "ci", "bsi"):
        rows = [_vec(r) for r in (wit["basis"] if name == "wbsxor" else wit["matrix"])]
        if len(rows) != n or _rank(rows) != n:
            raise ValueError(f"{name}: witness matrix is not invertible")
    elif name == "bsxor":
        rows = [_vec(r) for r in wit["coset"]["constraints"]]
        if _rank(rows) != len(rows) or not _coset_members(n, wit["coset"]):
            raise ValueError("bsxor: witness coset is not a canonical nonempty coset")


def _walsh_numerators(n: int, table: int) -> list[int]:
    a = [(table >> x) & 1 for x in range(1 << n)]
    h = 1
    while h < len(a):
        for i in range(0, len(a), 2 * h):
            for j in range(i, i + h):
                a[j], a[j + h] = a[j] + a[j + h], a[j] - a[j + h]
        h *= 2
    return a


def summarize(argv: list[str], body: dict):
    """The values of one command's output that expected.json records."""
    cmd, res = argv[0], body["results"]
    if cmd == "measure":
        return {name: r["value"] for name, r in res.items()}
    if cmd == "verify":
        return [{"theorem": r["theorem"], "instances": r["instances"], "violations": r["violations"]} for r in res]
    if cmd == "comm":
        return res
    if cmd == "construct":
        return {"n": res["n"], "depth": res["depth"], "checks": res["checks"]}
    return {"denominator": res["denominator"], "sparsity": res["sparsity"]}


def family_size(family: str) -> int:
    kind, *rest = family.split(":")
    return 1 << (1 << int(rest[0])) if kind == "exhaustive" else int(rest[1])


def check_command(argv: list[str], out: dict, expected: dict) -> tuple[int, str | None]:
    """(items attempted, problem or None) for one command's captured output."""
    cmd = argv[0]
    items = family_size(argv[argv.index("--family") + 1]) if cmd == "verify" else 1
    try:
        if out["error"]:
            raise ValueError(f"raised:\n{out['error']}")
        if out["rc"] != 0:
            raise ValueError(f"exit code {out['rc']}: {(out['stderr'] or out['stdout']).strip()[:500]}")
        body = json.loads(out["stdout"])
        res = body["results"]
        if cmd == "verify":
            for r in res:
                if r["instances"] != items or r["violations"] or not r["passed"]:
                    raise ValueError(f"{r['theorem']}: {r['instances']} instances, violations {r['violations']}")
        elif cmd in ("measure", "fourier"):
            spec = argv[argv.index("--fn") + 1]
            n, table = _table_of(spec)
            if body["function"]["canonical"] != "tt:%d:%s" % (n, "".join(str((table >> i) & 1) for i in range(1 << n))):
                raise ValueError("canonical table differs from the spec")
            if cmd == "measure":
                names = argv[argv.index("--measures") + 1].split(",")
                if sorted(res) != sorted(names):
                    raise ValueError(f"measures {sorted(res)} != requested {names}")
                for name in names:
                    _replay_measure(name, n, table, res[name])
            else:
                nums = _walsh_numerators(n, table)
                got = {_vec(c["w"]): c["numerator"] for c in res["coefficients"]}
                want = {w: v for w, v in enumerate(nums) if v}
                if got != want or res["sparsity"] != len(want) or res["denominator"] != 1 << n:
                    raise ValueError("Fourier spectrum differs from the Walsh-Hadamard transform")
        elif cmd == "comm":
            det = argv[argv.index("--protocol") + 1] == "det"
            for key in ("all_correct", "within_bound") if det else ("sound_and_complete", "k_within_bound"):
                if res.get(key) is not True:
                    raise ValueError(f"{key} is {res.get(key)!r}, not true")
        elif cmd == "construct":
            for key, val in res["checks"].items():
                if isinstance(val, bool) and not val:
                    raise ValueError(f"construct check {key} is false")
        want = expected.get(" ".join(argv))
        if want is not None and summarize(argv, body) != want:
            raise ValueError(f"values differ from expected.json: {summarize(argv, body)} != {want}")
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        return items, f"{' '.join(argv)}: {type(e).__name__}: {e}"
    return items, None


def check_outputs(outputs: list[dict], expected: dict) -> tuple[int, int, list[str]]:
    """(items attempted, items failed, problems) over a run's outputs.

    Any fault in a command fails all its items: a verify sweep with one
    violation fails its whole family.
    """
    attempted = failed = 0
    problems = []
    for out in outputs:
        items, problem = check_command(out["argv"], out, expected)
        attempted += items
        if problem is not None:
            problems.append(problem)
            failed += items
    return attempted, failed, problems


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
