"""Outside-in tracing of paritydt: call counts and self times per function,
and hit/miss counts per memo, without touching the program's source.

Each traced function is replaced, in every ``paritydt.*`` namespace that
holds the same object, by a wrapper that records a span.  A function's
self time is its spans' duration minus the part covered by spans of other
traced functions called inside it, so untraced helpers count towards the
nearest traced caller; its total time is the inclusive time of its
outermost activations.  Generator functions are timed while they are
iterated, not only when they are created.  A function or memo that no
longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# layer (module) -> traced functions; "Class.method" wraps the method on the class
TARGETS = {
    "gf2": (
        "_rref_bits", "_kernel_bits", "_solve_bits", "_span_order", "enumerate_subspaces",
        "sample_gl", "Subspace.__post_init__", "Coset.__post_init__",
    ),
    "boolfn": ("_table_xor_translate", "restrict", "rotate", "shift", "fourier"),
    "classical": ("decision_depth", "_certificate_profile", "_max_packing", "block_sensitivity", "symmetrized"),
    "parity": (
        "_cxor_profile", "_dxor", "_rebuild_tree", "parity_certificate", "_wbs_point",
        "_wbs_aggregate", "parity_bs", "parity_depth", "c_xor",
    ),
    "certify": ("essential_certificate_set", "verify_essential_set"),
    "comm": ("xor_matrix_rank", "nondet_protocol", "simulate_det_protocol"),
    "construct": ("sample_thm_exp", "tau"),
    "cli": ("run_verification_suite", "run"),
}

# memo dicts whose lookups (via .get) are counted
MEMOS = (
    ("parity", "_dxor_memo"),
    ("parity", "_profile_cache"),
    ("parity", "_wbs_agg_cache"),
    ("parity", "_split_cache"),
    ("classical", "_packing_cache"),
)


class CountingDict(dict):
    """A dict that counts hits and misses of ``get``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        if dict.__contains__(self, key):
            self.hits += 1
            return dict.__getitem__(self, key)
        self.misses += 1
        return default


class _Record:
    __slots__ = ("calls", "self_s", "total_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # inclusive time of outermost activations only
        self.active = 0


class Tracer:
    """Installs wrappers into an imported ``paritydt`` and collects their counts."""

    def __init__(self):
        self.records: dict[str, _Record] = {}
        self.absent: list[str] = []
        self.memos: dict[str, CountingDict | None] = {}
        # one child-time accumulator per open span; the process is single-threaded
        self._stack: list[float] = []

    def _span(self, rec: _Record, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        rec.active += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            rec.self_s += dt - stack.pop()
            rec.active -= 1
            if not rec.active:
                rec.total_s += dt
            if stack:
                stack[-1] += dt

    def _wrap(self, orig, rec: _Record):
        span = self._span
        if inspect.isgeneratorfunction(orig):
            def gen_wrapper(*args, **kwargs):
                rec.calls += 1
                return _TracedIterator(span(rec, orig, args, kwargs), rec, span)
            return functools.wraps(orig)(gen_wrapper)

        def wrapper(*args, **kwargs):
            rec.calls += 1
            return span(rec, orig, args, kwargs)
        return functools.wraps(orig)(wrapper)

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items() if name == "paritydt" or name.startswith("paritydt.")]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"paritydt.{layer}")
            for qual in names:
                key = f"{layer}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                orig = owner.__dict__.get(attr) if owner is not None else None
                if not callable(orig):
                    self.absent.append(key)
                    continue
                rec = self.records[key] = _Record()
                wrapped = self._wrap(orig, rec)
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in mods:
                    for name, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, name, wrapped)
        for layer, attr in MEMOS:
            key = f"{layer}.{attr}"
            home = sys.modules.get(f"paritydt.{layer}")
            orig = getattr(home, attr, None)
            # only a plain dict can be swapped for a counting one without
            # changing the program's behaviour
            if type(orig) is not dict:
                self.memos[key] = None
                self.absent.append(key)
                continue
            counted = self.memos[key] = CountingDict(orig)
            for mod in mods:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, name, counted)

    def stats(self) -> dict:
        functions = {}
        layers = {layer: 0.0 for layer in TARGETS}
        for layer, names in TARGETS.items():
            for qual in names:
                key = f"{layer}.{qual}"
                rec = self.records.get(key)
                functions[key] = {
                    "calls": rec.calls if rec else 0,
                    "self_s": rec.self_s if rec else 0.0,
                    "total_s": rec.total_s if rec else 0.0,
                    "present": rec is not None,
                }
                if rec:
                    layers[layer] += rec.self_s
        memos = {}
        for key, d in self.memos.items():
            if d is None:
                memos[key] = {"present": False, "hits": 0, "misses": 0, "entries": 0, "hit_ratio": 0.0}
                continue
            looked = d.hits + d.misses
            memos[key] = {
                "present": True, "hits": d.hits, "misses": d.misses, "entries": len(d),
                "hit_ratio": d.hits / looked if looked else 0.0,
            }
        return {"functions": functions, "layers": layers, "memos": memos, "absent": self.absent}


class _TracedIterator:
    """Times each step of a wrapped generator as a span of its function."""

    def __init__(self, it, rec: _Record, span):
        self._it = it
        self._rec = rec
        self._span = span

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(self._rec, next, (self._it,), {})
