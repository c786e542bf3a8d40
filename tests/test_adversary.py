"""Forger strategy and tracking-bank tests."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import refsim
from qtoken import adversary, core, scheme, stats


def rng_for(seed=0):
    return np.random.default_rng(seed)


def round_rngs(seed, count):
    """One fresh generator per forgery round, lazily, as the scenario keys them."""
    return (stats.spawn_rng(seed, t) for t in range(count))


# -- bound calculators ---------------------------------------------------------


def test_forgery_bound_values():
    assert adversary.eval_forgery_bound(256, 1, 2**16) == 0.0390625
    # Clamped once q reaches y_size / (5 N).
    assert adversary.eval_forgery_bound(4, 100, 16) == 1.0
    with pytest.raises(ValueError):
        adversary.eval_forgery_bound(-1, 0, 4)


def test_forgery_bound_constant6_matches_eps_f_at_scheme_parameters():
    # With N = cap_test, q + 1 = cap_mint + 1 = 2^(k/4) and |Y| = 2^k the
    # constant-5 bound collapses to 5 * 2^(-k/4), and the same form with the
    # constant 6 to eps_f = 6 * 2^(-k/4); needs k large enough that the
    # unclamped bound is below 1.
    for k in (16, 20):
        params = scheme.SchemeParams.for_k(k)
        bound = adversary.eval_forgery_bound(params.cap_test, params.cap_mint, 1 << k)
        assert abs(bound * 6 / 5 - params.eps_f) <= 1e-12


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


def test_replay_never_wins():
    accepted, submitted = adversary.run_forgery("replay", 8, round_rngs(1, 300))
    assert submitted == 2 * 300
    assert accepted.tolist() == [1] * 300  # the replayed copy is always rejected


def test_uniform_guess_win_rate_matches_exact_union():
    """With distinct fresh indices the acceptances are independent, so the
    win probability is exactly 1 - (1 - 2^-k)^budget."""
    k = 8
    budget = scheme.SchemeParams.for_k(k).cap_test
    expected = 1 - (1 - 2.0**-k) ** budget
    trials = 20_000
    accepted, _ = adversary.run_forgery("uniform-guess", k, round_rngs(2, trials))
    wins = np.count_nonzero(accepted > 0)
    assert abs(wins / trials - expected) <= 3 * math.sqrt(expected * (1 - expected) / trials)


def test_measured_tokens_always_accepted():
    k = 8
    accepted, submitted = adversary.run_forgery("measure-and-guess-2", k, round_rngs(3, 200))
    assert submitted == 16 * 200  # cap_test at k=8
    # Measured pairs are valid; they can only collide with each other.
    assert accepted.min() >= 1


def test_block_collision_policy_respects_bound():
    k = 8
    params = scheme.SchemeParams.for_k(k)
    bound = adversary.eval_forgery_bound(params.cap_test, 1, 1 << k)
    trials = 10_000
    accepted, _ = adversary.run_forgery("block-collision", k, round_rngs(4, trials))
    wins = np.count_nonzero(accepted > 1)
    p_hat = wins / trials
    assert p_hat <= bound + 3 * math.sqrt(max(p_hat, 1 / trials) * (1 - p_hat) / trials)


@pytest.mark.parametrize("k", [4, 8, 16])
def test_block_collision_guesses_use_distinct_unmeasured_indices(k):
    """A block-collision round submits cap_test distinct indices: the measured
    one first, then fresh ones that avoid it."""
    cap = scheme.SchemeParams.for_k(k).cap_test
    policy, q = adversary.FORGERS["block-collision"]
    rng = rng_for(5)
    for _ in range(20):
        indices, guesses = adversary._submissions(k, policy, q, rng)
        assert len(indices) == cap and len(set(indices.tolist())) == cap
        assert indices[0] not in indices[q:]
        assert 1 <= indices.min() and indices.max() <= 1 << k


# sha256 of the comma-joined accepted count of every round, each forger on the
# forgery scenario's streams (seed 3, its FORGERS position, trial), as the
# one-round-at-a-time decision counted them. The scenario CSVs see only wins,
# almost always 0 at k=16, so a stream shift that moves acceptances would pass
# them unseen.
ACCEPTED_DIGESTS = [
    (8, 2000, "uniform-guess", "7b0fa881b47497564eda9ef8ca861d1ade37b482f1cdccd641c0af8daa09826f"),
    (8, 2000, "measure-and-guess-1", "222664af0210c56bb2785cc62b5ee41d4a16744cb1640bd2a5631da782000673"),
    (8, 2000, "measure-and-guess-2", "1d7b7dfee22a3dc21502f2312af5498bc64b6dc548cd67001d6aa9ef4713797d"),
    (8, 2000, "replay", "c70bc2ed28e380d3a23bdf1b39b8ef2312a60f9f1473a6a6e6b7fb73952b5720"),
    (8, 2000, "block-collision", "15440f7d6a00faf8c66ca5cccabf4e2694703c00e013bf452e9cbc915c672a0f"),
    (16, 200, "uniform-guess", "9ba7852e1c9c113d6ea7b37986a7db9db75e4c7eca0c4396e5267d2e8c8b9c59"),
    (16, 200, "measure-and-guess-1", "659978bcda6c3ae291057213bbaeacb4dcc6bc8dd4a5227090efcf531c2f437b"),
    (16, 200, "measure-and-guess-2", "00e7c9efad71a41ac64f0c6c23304a2bab6ffed5afa364caba01bdbaef8152d1"),
    (16, 200, "replay", "659978bcda6c3ae291057213bbaeacb4dcc6bc8dd4a5227090efcf531c2f437b"),
    (16, 200, "block-collision", "2ce67c0db11c8e7cd3970bd0980bdd0beca690419735a971c33904d2eaa4eb2a"),
]


@pytest.mark.parametrize("k,trials,name,digest", ACCEPTED_DIGESTS)
def test_forgery_keeps_its_accepted_count_per_round(k, trials, name, digest):
    stream = list(adversary.FORGERS).index(name)
    rngs = (stats.spawn_rng(3, stream, t) for t in range(trials))
    accepted, _ = adversary.run_forgery(name, k, rngs)
    text = ",".join(map(str, accepted.tolist()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_forgery_batches_decide_as_rounds_of_one(monkeypatch):
    """Rounds past the batch size go through ``btest`` in batches of at most
    ``_BATCH_ROWS`` rows, and each round is decided as it is alone."""
    batch, k = adversary._BATCH_ROWS, 4
    count = 2 * batch + 3
    rows = []

    def counting_btest(k, indices, values, blocks):
        rows.append(len(indices))
        return scheme.btest(k, indices, values, blocks)

    monkeypatch.setattr(adversary, "btest", counting_btest)
    accepted, submitted = adversary.run_forgery("measure-and-guess-1", k, round_rngs(9, count))
    assert rows == [batch, batch, 3]
    assert submitted == count * scheme.SchemeParams.for_k(k).cap_test
    alone = [adversary.run_forgery("measure-and-guess-1", k, [rng])[0] for rng in round_rngs(9, count)]
    assert accepted.tolist() == np.concatenate(alone).tolist()


def test_forgery_decides_without_drawing_a_secret(monkeypatch):
    """A round reads its secret only at the blocks it touches, and each round
    is decided as against the table ``SecretString.random`` draws from its
    generator."""
    k, count = 8, 40
    want = {}
    for name, (policy, q) in adversary.FORGERS.items():
        want[name] = []
        for rng in round_rngs(23, count):
            secret = scheme.SecretString.random(k, rng)
            indices, guesses = adversary._submissions(k, policy, q, rng)
            source = adversary._value_sources(policy, q, len(indices))
            truth = secret.blocks(indices)
            values = np.where(source < 0, guesses, truth[np.maximum(source, 0)])
            want[name].append(int(np.count_nonzero(scheme.btest(k, indices, values, truth))))

    def refuse(*args, **kwargs):
        raise AssertionError("a forgery round drew its secret table")

    monkeypatch.setattr(scheme.SecretString, "random", classmethod(refuse))
    for name in adversary.FORGERS:
        accepted, _ = adversary.run_forgery(name, k, round_rngs(23, count))
        assert accepted.tolist() == want[name]


# -- tracking banks ----------------------------------------------------------------


def merged_layout(layout):
    """The layout's registers read as one register, ``all``."""
    return core.RegisterLayout([("all", layout.num_qubits)])


def test_loaded_token_index_correlation():
    """Measuring the bank and token registers together always yields equal indices."""
    k = 3
    secret = scheme.SecretString.random(k, rng_for(6))
    state, layout = adversary.mint_loaded(secret)
    rng = rng_for(7)
    for _ in range(100):
        wire = core.measure_register(state, merged_layout(layout), "all", rng.random())
        index, _ = scheme.unwire(k, wire & ((1 << 2 * k) - 1))
        assert wire >> 2 * k == index - 1


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
        bank_index = core.measure_register(state, merged_layout(layout), "all", rng.random()) >> 2 * k
        other_index, _ = scheme.report(honest, rng)
        flagged += bank_index == other_index - 1
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
        index, value = scheme.unwire(k, core.measure_register(state, layout, "token", rng.random()))
        assert secret.block(index) == value
        counts[index - 1] += 1
    _, _, ok = stats.uniformity_passes(counts)
    assert ok


def test_permutation_paired_outcomes_locked():
    k = 2
    rng = rng_for(12)
    secret = scheme.SecretString.random(k, rng)
    perm = rng.permutation(1 << k)
    state, layout = adversary.mint_permutation_paired(secret, perm)
    for _ in range(100):
        wire = core.measure_register(state, merged_layout(layout), "all", rng.random())
        i1, v1 = scheme.unwire(k, wire >> 2 * k)
        i2, v2 = scheme.unwire(k, wire & ((1 << 2 * k) - 1))
        assert secret.block(i1) == v1
        assert secret.block(i2) == v2
        assert i2 - 1 == int(perm[i1 - 1])


def test_identity_permutation_repeats_the_index():
    k = 2
    secret = scheme.SecretString.random(k, rng_for(13))
    state, layout = adversary.mint_permutation_paired(secret, list(range(1 << k)))
    rng = rng_for(14)
    for _ in range(50):
        wire = core.measure_register(state, merged_layout(layout), "all", rng.random())
        assert wire >> 3 * k == (wire >> k) & ((1 << k) - 1)


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
        counts[core.measure_register(state, layout, "token1", rng.random()) >> k] += 1
    _, _, ok = stats.uniformity_passes(counts)
    assert ok


# -- token builders --------------------------------------------------------------


def assert_same_amplitudes(state, reference):
    """Same keys in the same insertion order and bit-equal complex values."""
    assert list(state.amplitudes.items()) == list(reference.amplitudes.items())
    assert all(type(a) is complex for a in state.amplitudes.values())


@pytest.mark.parametrize("k", [1, 4, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_token_builders_match_the_per_block_construction(k, seed):
    rng = rng_for(seed)
    secret = scheme.SecretString.random(k, rng)
    perm = rng.permutation(1 << k)
    assert_same_amplitudes(
        scheme.token_state(secret),
        core.SparseState(2 * k, refsim.token_amplitudes(secret)),
    )
    loaded, _ = adversary.mint_loaded(secret)
    assert_same_amplitudes(loaded, core.SparseState(3 * k, refsim.loaded_amplitudes(secret)))
    paired, _ = adversary.mint_permutation_paired(secret, perm)
    assert_same_amplitudes(
        paired, core.SparseState(4 * k, refsim.paired_amplitudes(secret, perm))
    )
