"""Span tracer that wraps qtoken's public functions at module boundaries.

Modules bind names with ``from .core import ...``, so a function is patched
in every calling module's namespace, not only where it is defined. Functions
that other modules call as ``module.name(...)`` are patched on the defining
module. Per-element constructors (``TokenReport``, ``SparseState``,
``LazySecret.block``) are left alone; their cost lands in the caller's self
time.

Spans are kept in memory as (id, name, start, end, parent id) and written out
when the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict

# Public functions other modules reach as ``module.name(...)``; each is
# patched on its defining module. Names bound by ``from .x import name`` are
# found by ``install`` itself.
ATTRIBUTE_CALLS = {
    "qtoken.stats": ("spawn_rng", "trial_rng", "proportion_interval", "matches_rate",
                     "binomial_sigma", "uniformity_passes"),
    "qtoken.scheme": ("token_state", "mint", "report"),
    "qtoken.adversary": ("run_forgery", "eval_forgery_bound", "mint_loaded",
                         "mint_permutation_paired"),
    "qtoken.audit": ("report_prime", "report_chain", "anonymity_gap", "cheat_probability",
                     "chain_cheat_probability"),
    "qtoken.harness": ("run_scenario",),
}
CALLER_MODULES = ("qtoken.harness", "qtoken.audit", "qtoken.scheme", "qtoken.adversary",
                  "qtoken.bank", "qtoken.stats")

# Boundaries each workload must cross at least once; a traced run that misses
# one fails instead of reporting 0 s for a layer it did not see.
REQUIRED_SPANS = {
    "forgery": ("scheme.btest", "adversary.run_forgery", "stats.spawn_rng",
                "harness.run_scenario"),
    "audit": ("core.swap_test", "core.measure_register", "audit.report_prime",
              "stats.spawn_rng", "harness.run_scenario"),
    "suite": ("core.reduced_density", "core.swap_probability", "core.swap_project",
              "core.random_state", "audit.anonymity_gap", "audit.report_chain",
              "stats.spawn_rng", "harness.run_scenario"),
    "bank": ("bank.handle_line", "bank.fsync", "scheme.to_hex", "scheme.from_hex"),
}


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans from wrapped callables; thread-safe for the bank server."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        # Inputs of core.swap_test by identity; holding them keeps ids unique.
        self.swap_inputs: dict[int, object] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` adds to ``counts``."""
        spans, ids, local, counts = self.spans, self._ids, self._local, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [-1]
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent))
            if count is not None:
                counts[name] += count(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, count))
        else:
            wrapped = self.wrap(name, original, count)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Patch every cross-module boundary of the qtoken package."""
        import qtoken.scheme  # noqa: F401  (loads every module below)
        import qtoken.bank
        import qtoken.harness

        for caller in CALLER_MODULES:
            module = sys.modules[caller]
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith("qtoken.")
                        and value.__module__ != caller):
                    self.patch(module, attr, _layer_name(value), self._counter(value))
        for owner_name, attrs in ATTRIBUTE_CALLS.items():
            module = sys.modules[owner_name]
            for attr in attrs:
                fn = getattr(module, attr)
                self.patch(module, attr, _layer_name(fn), self._counter(fn))
        secret_cls = qtoken.scheme.SecretString
        self.patch(secret_cls, "to_hex", "scheme.to_hex")
        self.patch(secret_cls, "from_hex", "scheme.from_hex")
        self.patch(secret_cls, "random", "scheme.SecretString.random")
        self.patch(qtoken.bank.BankService, "handle_line", "bank.handle_line")
        self.patch(qtoken.bank.BankService, "recover", "bank.recover")
        self.patch(os, "fsync", "bank.fsync")

    def _counter(self, fn):
        name = fn.__name__
        if name == "btest":
            return lambda args, result: len(args[1])
        if name == "run_forgery":
            return lambda args, result: result[1]
        if name == "swap_test":
            swap_inputs = self.swap_inputs

            def remember(args, result):
                swap_inputs[id(args[0])] = args[0]
                return 0

            return remember
        return None

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def document(self) -> dict:
        """Spans and counts as one JSON-ready document."""
        return {"spans": self.spans, "counts": self.counts,
                "distinct_swap_inputs": len(self.swap_inputs)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.document(), fh)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                           "self_s": 0.0})
    for span_id, name, start, end, _ in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[span_id]
    return dict(out)


def missing_boundaries(workload: str, summary: dict) -> list[str]:
    return [name for name in REQUIRED_SPANS[workload] if summary.get(name, {}).get("calls", 0) < 1]
