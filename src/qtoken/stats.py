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


# SeedSequence's hashmix and mixing constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier (O'Neill, PCG, 2014); NEP 19 keeps both
# streams stable across numpy releases.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_M32 = 0xFFFFFFFF
_POOL_WORDS = 4


def _mulhi(a: np.ndarray, m: int) -> np.ndarray:
    """High 64 bits of each ``a * m``, from 32-bit partial products."""
    a0, a1, m0, m1 = a & _M32, a >> 32, m & _M32, m >> 32
    lo, mid_a, mid_b = a0 * m0, a1 * m0, a0 * m1
    carry = ((lo >> 32) + (mid_a & _M32) + (mid_b & _M32)) >> 32
    return a1 * m1 + (mid_a >> 32) + (mid_b >> 32) + carry


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: its multiplier advances by ``mult`` per call."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word with a hashed word."""
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * MULT + inc mod 2^128, on 64-bit limbs."""
    new_lo = lo * _PCG_LO + inc_lo
    carry = new_lo < inc_lo
    return _mulhi(lo, _PCG_LO) + lo * _PCG_HI + hi * _PCG_LO + inc_hi + carry, new_lo


def spawn_uniforms(prefix: tuple[int, ...], ts: range, d: int) -> np.ndarray:
    """Row ``i`` holds ``spawn_rng(*prefix, ts[i]).random(d)``, as one array.

    The seeding and the first ``d`` outputs of every row's generator run as
    32- and 64-bit array arithmetic, so no generator is built; the limb
    temporaries take a few hundred bytes per row. A key element of 2^32 or
    more spans several seed words; such keys build their generators one row
    at a time.
    """
    if not all(0 <= x <= _M32 for x in (*prefix, *ts[:1], *ts[-1:])):
        return np.array([spawn_rng(*prefix, t).random(d) for t in ts]).reshape(len(ts), d)
    t = np.arange(ts.start, ts.stop, ts.step).astype(np.uint32)
    key_words = [np.full(t.shape, x, np.uint32) for x in prefix] + [t]
    hashmix = _hasher(_INIT_A, _MULT_A)
    # SeedSequence.mix_entropy: fill the pool, cross-mix it, fold in the rest.
    zero = np.zeros_like(key_words[0])
    pool = [hashmix(key_words[i] if i < len(key_words) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in key_words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words, paired little-endian.
    hashout = _hasher(_INIT_B, _MULT_B)
    words = [hashout(pool[i % _POOL_WORDS]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    # pcg64_set_seed: inc = 2 * seq + 1, then step, add the seed, step.
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < seed_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((len(ts), d))
    for j in range(d):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output, then random()'s 53-bit double.
        rot, xored = hi >> 58, hi ^ lo
        out[:, j] = ((xored >> rot | xored << (-rot & 63)) >> 11) * 2.0**-53
    return out


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
