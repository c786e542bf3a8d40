"""Scenario workloads: closed loops of ``harness.run_scenario`` calls.

Each timed call runs one scenario at a fixed trial count with a seed derived
from the benchmark seed and the call number, so call ``i`` of seed ``n``
produces the same CSV on every run. Every metric row is checked against its
expected pass flag.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import calibrate

# Rows that fail by design: the relation checked is false for random subspaces.
RED_BY_DESIGN = {("inequality-suite", "projection_chain_violation")}


@dataclass(frozen=True)
class ScenarioWorkload:
    scenario: str
    k: int | None
    trials: int  # ScenarioSpec.trials of every timed call
    warmup_trials: int


WORKLOADS = {
    "forgery": ScenarioWorkload("forgery", 16, 200, 20),
    "audit": ScenarioWorkload("tracking-audit", 4, 400, 20),
    "suite": ScenarioWorkload("inequality-suite", None, 500, 10),
}


def call_seed(seed: int, call: int) -> int:
    return seed * 1000 + call


def digest(result) -> str:
    return hashlib.sha256(result.to_csv().encode("utf-8")).hexdigest()


def warm_up(wl: ScenarioWorkload, seed: int) -> str:
    """Run the workload once at a tiny size; returns the CSV digest."""
    from qtoken import harness

    if wl.scenario == "inequality-suite":
        # The scenario's trial count leaves four checks at their full default
        # sizes, so warm up through the suite entry point with tiny sizes.
        tiny = wl.warmup_trials
        sizes = harness.SuiteSizes(tiny, tiny, tiny, tiny, tiny, tiny)
        return digest(harness.run_inequality_suite(call_seed(seed, 999), sizes))
    spec = harness.ScenarioSpec(wl.scenario, k=wl.k, trials=wl.warmup_trials,
                                seed=call_seed(seed, 999))
    return digest(harness.run_scenario(spec))


def _deterministic(row) -> bool:
    return row.relation == "le-exact" or (row.relation == "eq" and row.expected in (0.0, 1.0))


def _far_off(row) -> bool:
    """A sampled row whose estimate is implausible under its reference, not just unlucky.

    Rates use the exact binomial tail (below 1e-9 either side); bounds and
    chi-squared statistics fail beyond twice their limit; the sampled gap
    fails beyond twice its 3-sigma margin.
    """
    if row.relation == "eq":
        from scipy.stats import binom

        successes = round(row.estimate * row.trials)
        low = binom.cdf(successes, row.trials, row.expected)
        high = binom.sf(successes - 1, row.trials, row.expected)
        return min(low, high) < 1e-9
    if row.relation == "le":
        return row.estimate > 2.0 * row.expected
    margin = row.estimate - row.interval_low  # relation "ge": estimate >= -margin
    return row.estimate < -2.0 * margin


def row_failed(scenario: str, row) -> tuple[bool, bool]:
    """(failed, sampled miss) for one metric row.

    Rows decided exactly must match their expected flag. A sampled row at a
    3-sigma bound misses it on a few seeds in a thousand by chance; such a
    miss is reported but fails the run only when ``_far_off`` holds.
    """
    expected = (scenario, row.metric) not in RED_BY_DESIGN
    if bool(row.passed) == expected:
        return False, False
    if not expected or _deterministic(row):
        return True, False
    return _far_off(row), True


@dataclass
class CallRecord:
    seed: int
    wall_s: float
    slowness: float  # CPU slowness around the call, see calibrate
    sha256: str
    rows: int
    failed: list[str]
    sampled_misses: list[str]

    @property
    def normalized_wall_s(self) -> float:
        return self.wall_s / self.slowness


def timed_call(wl: ScenarioWorkload, seed: int) -> CallRecord:
    from qtoken import harness

    spec = harness.ScenarioSpec(wl.scenario, k=wl.k, trials=wl.trials, seed=seed)
    before = calibrate.cpu_slowness()
    start = time.perf_counter()
    result = harness.run_scenario(spec)
    wall = time.perf_counter() - start
    slowness = (before + calibrate.cpu_slowness()) / 2
    failed, misses = [], []
    for row in result.metrics:
        bad, miss = row_failed(wl.scenario, row)
        if bad:
            failed.append(row.metric)
        if miss:
            misses.append(row.metric)
    return CallRecord(seed, wall, slowness, digest(result), len(result.metrics), failed, misses)
