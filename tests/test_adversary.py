"""Forger strategy and tracking-bank tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qtoken import adversary, core, scheme, stats


def rng_for(seed=0):
    return np.random.default_rng(seed)


# -- bound calculators ---------------------------------------------------------


def test_forgery_bound_values():
    assert adversary.eval_forgery_bound(256, 1, 2**16) == 0.0390625
    assert adversary.eval_forgery_bound(256, 1, 2**16, constant=6) == 0.046875
    # Clamped once q reaches y_size / (5 N).
    assert adversary.eval_forgery_bound(4, 100, 16) == 1.0
    with pytest.raises(ValueError):
        adversary.eval_forgery_bound(-1, 0, 4)


def test_forgery_bound_constant6_matches_eps_f_at_scheme_parameters():
    # With N = cap_test, q + 1 = cap_mint + 1 = 2^(k/4) and |Y| = 2^k the
    # constant-6 bound collapses to eps_f = 6 * 2^(-k/4); needs k large
    # enough that the unclamped bound is below 1.
    for k in (16, 20):
        params = scheme.SchemeParams.for_k(k)
        bound = adversary.eval_forgery_bound(
            params.cap_test, params.cap_mint, 1 << k, constant=6
        )
        assert abs(bound - params.eps_f) <= 1e-12


def test_all_correct_bound_values():
    assert adversary.eval_all_correct_bound(0, 1, 7) == float(Fraction(1, 7))
    assert adversary.eval_all_correct_bound(1, 2, 4) == 7 / 16
    with pytest.raises(ValueError):
        adversary.eval_all_correct_bound(2, 2, 4)


def test_all_correct_bound_monotone_in_value_space():
    for q, r in ((0, 1), (1, 3), (2, 5)):
        values = [adversary.eval_all_correct_bound(q, r, y) for y in (2, 4, 8, 16, 64)]
        assert all(a >= b for a, b in zip(values, values[1:]))


# -- forger strategies --------------------------------------------------------------


def test_strategy_validation():
    with pytest.raises(ValueError):
        adversary.ForgerStrategy("x", 0, 4, policy="replay")
    with pytest.raises(ValueError):
        adversary.ForgerStrategy("x", 0, 4, policy="nope")


def test_replay_never_wins():
    strat = adversary.ForgerStrategy("replay", measured=1, guess_budget=2, policy="replay")
    rng = rng_for(1)
    for _ in range(300):
        secret = scheme.LazySecret(8, rng)
        accepted, submitted = adversary.run_forgery(secret, strat, rng)
        assert submitted == 2
        assert accepted == 1  # the replayed copy is always rejected


def test_uniform_guess_win_rate_matches_exact_union():
    """With distinct fresh indices the acceptances are independent, so the
    win probability is exactly 1 - (1 - 2^-k)^budget."""
    k = 8
    budget = scheme.SchemeParams.for_k(k).cap_test
    strat = adversary.ForgerStrategy("uniform", measured=0, guess_budget=budget)
    expected = 1 - (1 - 2.0**-k) ** budget
    trials = 20_000
    rng = rng_for(2)
    wins = 0
    for _ in range(trials):
        secret = scheme.LazySecret(k, rng)
        accepted, _ = adversary.run_forgery(secret, strat, rng)
        wins += accepted > 0
    assert abs(wins / trials - expected) <= 3 * math.sqrt(expected * (1 - expected) / trials)


def test_measured_tokens_always_accepted():
    k = 8
    strat = adversary.ForgerStrategy("mg", measured=2, guess_budget=16)
    rng = rng_for(3)
    for _ in range(200):
        secret = scheme.LazySecret(k, rng)
        accepted, submitted = adversary.run_forgery(secret, strat, rng)
        assert submitted == 16
        # Measured pairs are valid; they can only collide with each other.
        assert accepted >= 1


def test_block_collision_policy_respects_bound():
    k = 8
    params = scheme.SchemeParams.for_k(k)
    strat = adversary.ForgerStrategy(
        "bc", measured=1, guess_budget=params.cap_test, policy="block-collision"
    )
    bound = adversary.eval_forgery_bound(params.cap_test, 1, 1 << k)
    trials = 10_000
    rng = rng_for(4)
    wins = 0
    for _ in range(trials):
        secret = scheme.LazySecret(k, rng)
        accepted, _ = adversary.run_forgery(secret, strat, rng)
        wins += accepted > 1
    p_hat = wins / trials
    assert p_hat <= bound + 3 * math.sqrt(max(p_hat, 1 / trials) * (1 - p_hat) / trials)


def test_fresh_indices_are_distinct_and_fresh():
    rng = rng_for(5)
    used = {1, 2, 3}
    out = adversary._fresh_indices(rng, 16, 10, used)
    assert len(set(out)) == 10
    assert not set(out) & used


# -- tracking banks ----------------------------------------------------------------


def test_loaded_token_index_correlation():
    """Measuring the token then the bank register always yields equal indices."""
    k = 3
    secret = scheme.SecretString.random(k, rng_for(6))
    state, layout = adversary.mint_loaded(secret)
    rng = rng_for(7)
    for _ in range(100):
        bits, post = core.measure_register(state, layout, "token", rng)
        rep = scheme.TokenReport.from_wire(k, int(bits, 2))
        bank_bits, _ = core.measure_register(post, layout, "bank", rng)
        assert int(bank_bits, 2) == rep.index - 1


def test_loaded_bank_flags_unrelated_user_rarely():
    """An independent honest report matches the bank register w.p. 2^-k."""
    k = 4
    secret = scheme.SecretString.random(k, rng_for(8))
    state, layout = adversary.mint_loaded(secret)
    honest = scheme.token_state(secret)
    rng = rng_for(9)
    trials = 20_000
    flagged = 0
    for _ in range(trials):
        _, post = core.measure_register(state, layout, "token", rng)
        bank_bits, _ = core.measure_register(post, layout, "bank", rng)
        other = scheme.report(honest, rng)
        flagged += int(bank_bits, 2) == other.index - 1
    p = 2.0**-k
    assert abs(flagged / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_loaded_message_distribution_is_honest():
    k = 4
    trials = 20_000
    secret = scheme.SecretString.random(k, rng_for(10))
    state, layout = adversary.mint_loaded(secret)
    rng = rng_for(11)
    counts = np.zeros(1 << k, dtype=int)
    for _ in range(trials):
        bits, _ = core.measure_register(state, layout, "token", rng)
        rep = scheme.TokenReport.from_wire(k, int(bits, 2))
        assert secret.block(rep.index) == rep.value
        counts[rep.index - 1] += 1
    _, _, ok = stats.uniformity_passes(counts, significance=0.001)
    assert ok


def test_permutation_paired_outcomes_locked():
    k = 2
    rng = rng_for(12)
    secret = scheme.SecretString.random(k, rng)
    perm = rng.permutation(1 << k)
    state, layout = adversary.mint_permutation_paired(secret, perm)
    for _ in range(100):
        bits1, post = core.measure_register(state, layout, "token1", rng)
        r1 = scheme.TokenReport.from_wire(k, int(bits1, 2))
        bits2, _ = core.measure_register(post, layout, "token2", rng)
        r2 = scheme.TokenReport.from_wire(k, int(bits2, 2))
        assert secret.block(r1.index) == r1.value
        assert secret.block(r2.index) == r2.value
        assert r2.index - 1 == int(perm[r1.index - 1])


def test_identity_permutation_repeats_the_index():
    k = 2
    secret = scheme.SecretString.random(k, rng_for(13))
    state, layout = adversary.mint_permutation_paired(secret, list(range(1 << k)))
    rng = rng_for(14)
    for _ in range(50):
        bits1, post = core.measure_register(state, layout, "token1", rng)
        bits2, _ = core.measure_register(post, layout, "token2", rng)
        assert int(bits1, 2) >> k == int(bits2, 2) >> k


def test_permutation_requires_bijection():
    secret = scheme.SecretString.random(2, rng_for(15))
    with pytest.raises(ValueError):
        adversary.mint_permutation_paired(secret, [0, 0, 1, 2])


def test_paired_marginal_message_distribution_is_honest():
    k = 4
    trials = 20_000
    rng = rng_for(16)
    secret = scheme.SecretString.random(k, rng)
    state, layout = adversary.mint_permutation_paired(secret, rng.permutation(1 << k))
    counts = np.zeros(1 << k, dtype=int)
    for _ in range(trials):
        bits, _ = core.measure_register(state, layout, "token1", rng)
        counts[(int(bits, 2) >> k)] += 1
    _, _, ok = stats.uniformity_passes(counts, significance=0.001)
    assert ok
