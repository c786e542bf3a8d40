"""Statistical utilities for the Monte Carlo harness.

Proportions with at least 10^4 trials get 3-sigma normal intervals; smaller
samples fall back to Wilson intervals. Goodness-of-fit checks use the
chi-squared statistic against the relevant critical value, so "passes at
significance 0.001" means the statistic stays below the 0.999 quantile.
"""

from __future__ import annotations

import math

import numpy as np

NORMAL_INTERVAL_MIN_TRIALS = 10_000
SIGMAS = 3.0
SIGNIFICANCE = 0.001


def spawn_rng(*key: int) -> np.random.Generator:
    """Independent generator for a (seed, index, ...) derivation path."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    return spawn_rng(master_seed, trial_index)


def binomial_sigma(p: float, trials: int) -> float:
    """Standard deviation of a proportion estimator under true rate ``p``."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def proportion_interval(successes: int, trials: int) -> tuple[float, float]:
    """3-sigma interval for a proportion; Wilson below 10^4 trials."""
    if trials < 1:
        raise ValueError("need at least one trial")
    p_hat = successes / trials
    z = SIGMAS
    if trials >= NORMAL_INTERVAL_MIN_TRIALS:
        half = z * binomial_sigma(p_hat, trials)
        return max(0.0, p_hat - half), min(1.0, p_hat + half)
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def matches_rate(successes: int, trials: int, expected: float) -> bool:
    """Is the empirical rate within 3 binomial standard deviations of ``expected``?

    A reference rate of exactly 0 or 1 is deterministic and must be hit exactly.
    """
    p_hat = successes / trials
    if expected in (0.0, 1.0):
        return p_hat == expected
    return abs(p_hat - expected) <= SIGMAS * binomial_sigma(expected, trials)


def chi2_critical(dof: int) -> float:
    # scipy.stats.chi2.ppf's formula; imported on first use, as scipy slows every start-up
    from scipy.special import gammaincinv

    return float(2 * gammaincinv(dof / 2, 1.0 - SIGNIFICANCE))


def uniformity_passes(counts) -> tuple[float, float, bool]:
    """(statistic, critical value, fail-to-reject?) for a chi-squared test of
    observed counts against the uniform law."""
    obs = np.asarray(counts, dtype=float)
    total = obs.sum()
    if total <= 0:
        raise ValueError("expected counts must be positive")
    exp = np.full_like(obs, total / obs.size)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    crit = chi2_critical(obs.size - 1)
    return stat, crit, stat <= crit
