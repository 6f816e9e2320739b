"""Static checks on the package sources: every top-level import is used,
every name a module exports in ``__all__`` exists, every private
module-level function or constant is read, no function cache is
unbounded, no module-level name starts as an empty container (the shape
of a hand-rolled memo, which no bound holds), no ``np.unique`` dedupes
along an axis, and importing the CLI builds no dense table."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "paritydt"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing in the
    module reads (names listed in ``__all__`` count as read)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_top_level_imports(name):
    assert unused_imports((SRC / f"{name}.py").read_text()) == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"paritydt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and constants (``module._name``)
    that no top-level statement of any module reads, other than the one
    defining them: a recursive call is part of its definition."""
    defined, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name, node))
            reads.append((node, {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                          | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}))
    return sorted(f"{module}.{name} (line {node.lineno})" for module, name, node in defined
                  if not any(name in names for stmt, names in reads if stmt is not node))


def test_no_unread_private_names():
    sources = {name: (SRC / f"{name}.py").read_text() for name in MODULES + ["__init__"]}
    assert unread_private_names(sources) == []


def test_unread_private_name_is_reported():
    sources = {
        "a": (
            "_LIMIT = 4\n_UNUSED: int = 5\n\n"
            "def _helper(n):\n    return n + _LIMIT\n\n"
            "def _walk(n):\n    return _walk(n - 1) if n else 0\n\n"
            "def _left_behind(n):\n    return n\n\n"
            "def public(n):\n    return _helper(n)\n\n"
            "def _read_elsewhere():\n    return 1\n"
        ),
        "b": "from . import a\n\n_SEEN = a._read_elsewhere()\nprint(_SEEN)\n",
    }
    assert unread_private_names(sources) == ["a._UNUSED (line 2)", "a._left_behind (line 10)", "a._walk (line 7)"]


def unbounded_caches(source: str) -> list[str]:
    """Functions decorated with ``functools.cache`` or with an
    ``lru_cache`` whose maxsize is None."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name == "cache":
                out.append(f"{node.name} (line {dec.lineno})")
            elif name == "lru_cache" and call:
                maxsize = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                if any(isinstance(v, ast.Constant) and v.value is None for v in maxsize):
                    out.append(f"{node.name} (line {dec.lineno})")
    return out


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_unbounded_caches(name):
    assert unbounded_caches((SRC / f"{name}.py").read_text()) == []


def test_unbounded_cache_is_reported():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@lru_cache(maxsize=None)\ndef a(n): pass\n\n"
        "@functools.lru_cache(None)\ndef b(n): pass\n\n"
        "@cache\ndef c(n): pass\n\n"
        "@lru_cache(maxsize=64)\ndef d(n): pass\n\n"
        "@lru_cache\ndef e(n): pass\n"
    )
    assert unbounded_caches(source) == ["a (line 4)", "b (line 7)", "c (line 10)"]


def module_level_containers(source: str) -> list[str]:
    """Module-level names bound to an empty ``{}``, ``[]``, ``dict()``,
    ``list()`` or ``set()``: a memo that grows by hand has no size bound,
    where an ``lru_cache`` has one."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        literal = (isinstance(value, ast.Dict) and not value.keys) or (isinstance(value, ast.List) and not value.elts)
        call = (isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "list", "set")
                and not value.args and not value.keywords)
        if literal or call:
            out += [f"{n.id} (line {node.lineno})" for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_module_level_memos(name):
    assert module_level_containers((SRC / f"{name}.py").read_text()) == []


def test_module_level_memo_is_reported():
    source = (
        "from functools import lru_cache\n\n"
        "_memo: dict[int, int] = {}\n"
        "_seen = []\n"
        "_a = _b = dict()\n"
        "_keys = set()\n"
        "_lists = list()\n"
        "_CAPS = {'d': 8}\n"
        "_ORDER = [1, 2]\n"
        "_UNION = set([1])\n"
        "_hint: dict\n\n"
        "def f(n):\n    local = {}\n    return local\n"
    )
    assert module_level_containers(source) == [
        "_memo (line 3)", "_seen (line 4)", "_a (line 5)", "_b (line 5)", "_keys (line 6)", "_lists (line 7)",
    ]


def axis_uniques(source: str) -> list[str]:
    """Calls of ``unique`` (``np.unique`` or a bare import) that pass an
    ``axis``: rows are deduped as one void item each, which sorts about
    three times faster (classical._distinct_tables)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        # axis is np.unique's fifth positional parameter
        if name == "unique" and (len(node.args) >= 5 or any(k.arg == "axis" for k in node.keywords)):
            out.append(f"line {node.lineno}")
    return out


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_axis_unique(name):
    assert axis_uniques((SRC / f"{name}.py").read_text()) == []


def test_axis_unique_is_reported():
    source = (
        "import numpy as np\nfrom numpy import unique\n\n"
        "a = np.unique(x, axis=0)\n"
        "b = unique(x, return_inverse=True, axis=1)\n"
        "c = np.unique(x.view(v).ravel(), return_inverse=True)\n"
        "d = np.unique(x, False, True, False, 0)\n"
    )
    assert axis_uniques(source) == ["line 4", "line 5", "line 7"]


def test_unused_import_is_reported():
    source = "from .errors import BudgetExceededError, DomainError\nimport numpy as np\n\nraise DomainError\n"
    assert unused_imports(source) == ["BudgetExceededError (line 1)", "np (line 2)"]


def test_cli_import_builds_no_dense_table():
    # the dense tables are built on first use, so importing the CLI stays cheap
    code = (
        "import paritydt.cli\n"
        "from paritydt import parity\n"
        "print(parity._dense_depth.cache_info().currsize, parity._dense_cover.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


def test_cli_import_builds_no_packing_depth_or_weight_table():
    # the packing, depth, span-weight and wbs+ tables are built on first use, so
    # none of their cost moves into the import
    code = (
        "import paritydt.cli\n"
        "from paritydt import classical, parity\n"
        "print(*(f.cache_info().currsize for f in\n"
        "        (classical._packing_table, parity._dense_depth, parity._basis_weights, parity._wbs_table)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0", "0", "0"]


def test_cli_import_loads_no_process_pool():
    # only verify --threads N with N > 1 starts workers, so the process
    # pool and what it pulls in are imported there
    code = (
        "import sys\n"
        "import paritydt.cli\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
