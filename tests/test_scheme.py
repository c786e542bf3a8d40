"""Token scheme tests: parameters, minting, reporting, verification."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refsim
from qtoken import core, scheme, stats


def rng_for(seed=0):
    return np.random.default_rng(seed)


# -- parameters ----------------------------------------------------------------


def test_scheme_params_formulas():
    p = scheme.SchemeParams.for_k(4)
    assert (p.n, p.m, p.cap_mint, p.cap_test, p.t) == (8, 64, 1, 4, 8)
    assert p.eps_l == 0.25 and p.eps_f == 3.0
    p = scheme.SchemeParams.for_k(16)
    assert (p.n, p.m, p.cap_mint, p.cap_test, p.t) == (32, 16 * 65536, 15, 256, 32)
    assert p.eps_l == 2.0**-8 and p.eps_f == 6.0 * 2.0**-4


def test_scheme_params_require_multiple_of_four():
    for bad in (0, 2, 6, -4):
        with pytest.raises(ValueError):
            scheme.SchemeParams.for_k(bad)


# -- secrets ------------------------------------------------------------------------


def test_secret_block_extraction_matches_bit_slicing():
    k = 4
    secret = scheme.SecretString.random(k, rng_for(1))
    bits = secret.bits()
    assert len(bits) == k * 2**k
    for i in range(1, 2**k + 1):
        assert secret.block(i) == int(bits[k * (i - 1) : k * i], 2)


def test_secret_hex_roundtrip():
    secret = scheme.SecretString.random(4, rng_for(2), "abc")
    back = scheme.SecretString.from_hex(4, secret.to_hex(), "abc")
    assert back.bits() == secret.bits()


def test_secret_hex_roundtrip_at_k20():
    """2^20 blocks of 20 bits: a codec quadratic in the secret length would
    take minutes here."""
    secret = scheme.SecretString.random(20, rng_for(2), "big")
    text = secret.to_hex()
    assert len(text) == 20 * 2**20 // 4
    assert text[:5] == format(secret.block(1), "05x")
    back = scheme.SecretString.from_hex(20, text, "big")
    assert np.array_equal(back._blocks, secret._blocks)


def test_secret_hex_length_and_width_checks():
    with pytest.raises(ValueError):
        scheme.SecretString.from_hex(8, "abc")
    with pytest.raises(ValueError):
        scheme.SecretString(1, [1, 0]).to_hex()  # 2 bits fill no hex digit
    assert scheme.SecretString.from_hex(2, "0f").bits() == "00001111"


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
def test_secret_is_exactly_a_2k_block_table(k, seed):
    """A random table round-trips through hex; one block or one hex digit
    too few or too many is refused."""
    rng = rng_for(seed)
    secret = scheme.SecretString.random(k, rng)
    text = secret.to_hex()
    assert len(text) * 4 == k * 2**k
    assert np.array_equal(scheme.SecretString.from_hex(k, text)._blocks, secret._blocks)
    for count in (2**k - 1, 2**k + 1):
        with pytest.raises(ValueError):
            scheme.SecretString(k, rng.integers(0, 1 << k, size=count, dtype=np.uint64))
    for bad in (text[:-1], text + "0"):
        with pytest.raises(ValueError):
            scheme.SecretString.from_hex(k, bad)


def test_secret_block_bounds():
    secret = scheme.SecretString.random(4, rng_for(3))
    with pytest.raises(ValueError):
        secret.block(0)
    with pytest.raises(ValueError):
        secret.block(17)


def test_lazy_secret_is_consistent_and_in_range():
    lazy = scheme.LazySecret(16, rng_for(4))
    values = [lazy.block(i) for i in (1, 5, 65536, 5, 1)]
    assert values[1] == values[3] and values[0] == values[4]
    assert all(0 <= v < 2**16 for v in values)
    with pytest.raises(ValueError):
        lazy.block(65537)


# -- reports -------------------------------------------------------------------------


def test_report_serialization_is_exactly_2k_bits():
    rep = scheme.TokenReport(index=3, value=0b1010, k=4)
    assert rep.bits() == "0010" + "1010"
    assert len(rep.bits()) == 8
    assert rep.to_hex() == "2a"
    assert scheme.TokenReport.from_hex(4, "2a") == rep


def test_report_validation():
    with pytest.raises(ValueError):
        scheme.TokenReport(0, 0, 4)
    with pytest.raises(ValueError):
        scheme.TokenReport(17, 0, 4)
    with pytest.raises(ValueError):
        scheme.TokenReport(1, 16, 4)


# -- minting ------------------------------------------------------------------------


def test_mint_token_support_and_amplitudes():
    secret = scheme.SecretString.random(4, rng_for(5))
    tokens = scheme.mint(secret, 1)
    token = tokens[0]
    assert token.num_qubits == 8
    assert len(token) == 16
    assert all(abs(a - 0.25) <= 1e-9 for a in token.amplitudes.values())
    for idx in token.amplitudes:
        assert secret.block((idx >> 4) + 1) == idx & 0xF


def test_minted_tokens_are_identical():
    secret = scheme.SecretString.random(8, rng_for(6))
    with pytest.warns(scheme.MintCapExceeded):
        tokens = scheme.mint(secret, 5)  # cap at k=8 is 3
    for a, b in itertools.combinations(tokens, 2):
        assert abs(core.inner_product(a, b) - 1.0) <= 1e-9


def test_all_zero_secret_reports_zero_value():
    secret = scheme.SecretString(4, [0] * 16)
    token = scheme.token_state(secret)
    rng = rng_for(7)
    for _ in range(50):
        assert scheme.report(token, rng).value == 0


# -- report distribution ---------------------------------------------------------------


def test_report_is_always_valid_and_uniform():
    k = 4
    trials = 30_000
    secret = scheme.SecretString.random(k, rng_for(9))
    token = scheme.token_state(secret)
    rng = rng_for(10)
    counts = np.zeros(1 << k, dtype=int)
    for _ in range(trials):
        rep = scheme.report(token, rng)
        assert secret.block(rep.index) == rep.value
        counts[rep.index - 1] += 1
    p = 2.0**-k
    sigma = math.sqrt(p * (1 - p) * trials)
    assert np.all(np.abs(counts - trials * p) <= 3.5 * sigma)


def test_report_on_basis_state_token():
    token = core.SparseState.basis(8, (0b0110 << 4) | 0b0011)
    rep = scheme.report(token, rng_for(11))
    assert rep == scheme.TokenReport(0b0110 + 1, 0b0011, 4)


def test_report_emulated_accepted_at_large_k():
    secret = scheme.LazySecret(16, rng_for(12))
    rep = scheme.report_emulated(secret, rng_for(13))
    assert scheme.test(scheme.Ledger(secret), rep)


def test_report_emulated_deterministic_for_fixed_seed():
    secret = scheme.SecretString.random(4, rng_for(14))
    a = scheme.report_emulated(secret, rng_for(99))
    b = scheme.report_emulated(secret, rng_for(99))
    assert a == b


def test_report_emulated_matches_report_distribution():
    """The classical sampler and the quantum measurement target the same law:
    two-sample chi-squared on the index at significance 0.001."""
    k = 4
    trials = 100_000
    secret = scheme.SecretString.random(k, rng_for(15))
    token = scheme.token_state(secret)
    rng = rng_for(16)
    counts_q = np.zeros(1 << k, dtype=int)
    counts_e = np.zeros(1 << k, dtype=int)
    for _ in range(trials):
        counts_q[scheme.report(token, rng).index - 1] += 1
        counts_e[scheme.report_emulated(secret, rng).index - 1] += 1
    stat, dof = refsim.chi_squared_two_sample(counts_q, counts_e)
    assert stat <= stats.chi2_critical(dof, 0.001)


# -- verification -----------------------------------------------------------------------


def test_test_accepts_fresh_matching_pair():
    secret = scheme.SecretString(4, list(range(16)))
    ledger = scheme.Ledger(secret)
    rep = scheme.TokenReport(3, secret.block(3), 4)
    assert scheme.test(ledger, rep)
    assert scheme.test(ledger, rep)  # referentially transparent
    assert ledger.attempts == 0 and not ledger.spent  # never mutates the ledger


def test_test_rejects_duplicates_and_mismatches():
    secret = scheme.SecretString(4, list(range(16)))
    ledger = scheme.Ledger(secret)
    rep = scheme.TokenReport(3, secret.block(3), 4)
    ledger.record(rep.index, rep.value)
    assert not scheme.test(ledger, rep)
    bad = scheme.TokenReport(3, secret.block(3) ^ 1, 4)
    assert not scheme.test(scheme.Ledger(secret), bad)


def test_btest_examples():
    secret = scheme.SecretString(4, list(range(16)))
    fresh = [scheme.TokenReport(i, secret.block(i), 4) for i in (1, 2, 3)]
    assert scheme.btest(secret, fresh) == "111"
    rep = fresh[0]
    assert scheme.btest(secret, [rep, rep]) == "10"
    guesses = [scheme.TokenReport(i, secret.block(i) ^ 1, 4) for i in (1, 2, 3)]
    assert scheme.btest(secret, guesses) == "000"


def test_btest_budget_enforced():
    secret = scheme.SecretString.random(4, rng_for(17))
    reports = [scheme.TokenReport(1, 0, 4)] * 5  # budget is 2^(k/2) = 4
    with pytest.raises(ValueError):
        scheme.btest(secret, reports)


def test_btest_accept_count_bounded_by_distinct_valid_pairs():
    rng = rng_for(18)
    secret = scheme.SecretString.random(4, rng)
    for _ in range(50):
        reports = [
            scheme.TokenReport(int(rng.integers(1, 17)), int(rng.integers(0, 16)), 4)
            for _ in range(4)
        ]
        accepted = scheme.btest(secret, reports).count("1")
        distinct_valid = len(
            {r.wire() for r in reports if secret.block(r.index) == r.value}
        )
        assert accepted <= distinct_valid


def test_monotone_rejection():
    secret = scheme.SecretString(4, list(range(16)))
    rep = scheme.TokenReport(5, secret.block(5), 4)
    ledger = scheme.Ledger(secret)
    ledger.record(rep.index, rep.value)
    for _ in range(3):
        assert not scheme.test(ledger, rep)
        ledger.record(rep.index, rep.value)


# -- honest correctness against adversarial histories ---------------------------------


def same_series_rejection_exact(secret, history_indices, k):
    """Brute-force oracle: enumerate the honest index and count collisions."""
    hits = sum(1 for i in range(1, 2**k + 1) if i in history_indices)
    return hits / 2**k


def test_same_series_history_rejection_rate():
    """A history of j same-series valid pairs rejects a fresh honest report
    with probability exactly j/2^k (j <= cap_test - 1)."""
    k = 4
    j = 3
    trials = 20_000
    rng = rng_for(19)
    secret = scheme.SecretString.random(k, rng)
    token = scheme.token_state(secret)
    indices = [int(i) + 1 for i in rng.permutation(1 << k)[:j]]
    ledger = scheme.Ledger(secret)
    for i in indices:
        ledger.record(i, secret.block(i))
    expected = same_series_rejection_exact(secret, set(indices), k)
    assert expected == j / 2**k < scheme.SchemeParams.for_k(k).eps_l
    rejected = sum(
        not scheme.test(ledger, scheme.report(token, rng))
        for _ in range(trials)
    )
    assert abs(rejected / trials - expected) <= 3 * math.sqrt(expected * (1 - expected) / trials)


def foreign_pair_rejection_bruteforce(k, decoy_pairs):
    """Enumerate every secret and honest index; count exact pair collisions."""
    size = 1 << k
    hits = 0
    total = 0
    for blocks in itertools.product(range(size), repeat=size):
        for i in range(1, size + 1):
            total += 1
            hits += (i, blocks[i - 1]) in decoy_pairs
    return hits / total


def test_foreign_pair_rejection_probability_bruteforce():
    """Pairs independent of the secret collide with an honest report with
    probability exactly j/2^(2k); frozen by full enumeration at k = 2."""
    k = 2
    decoy_pairs = {(1, 0b01), (2, 0b11), (4, 0b00)}
    exact = foreign_pair_rejection_bruteforce(k, decoy_pairs)
    assert abs(exact - len(decoy_pairs) / 2 ** (2 * k)) <= 1e-12
