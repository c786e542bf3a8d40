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
    bits = format(int(secret.to_hex(), 16), f"0{k << k}b")
    assert len(bits) == k * 2**k
    for i in range(1, 2**k + 1):
        assert secret.block(i) == int(bits[k * (i - 1) : k * i], 2)


def test_secret_hex_roundtrip():
    secret = scheme.SecretString.random(4, rng_for(2), "abc")
    back = scheme.SecretString.from_hex(4, secret.to_hex(), "abc")
    assert np.array_equal(back.blocks(), secret.blocks()) and back.series_id == "abc"


def test_secret_hex_roundtrip_at_k20():
    """2^20 blocks of 20 bits: a codec quadratic in the secret length would
    take minutes here."""
    secret = scheme.SecretString.random(20, rng_for(2), "big")
    text = secret.to_hex()
    assert text == refsim.secret_hex(secret)
    assert text[:5] == format(secret.block(1), "05x")
    back = scheme.SecretString.from_hex(20, text, "big")
    assert np.array_equal(back.blocks(), secret.blocks())


def test_secret_hex_length_and_width_checks():
    with pytest.raises(ValueError):
        scheme.SecretString.from_hex(8, "abc")
    with pytest.raises(ValueError):
        scheme.SecretString(1, [1, 0]).to_hex()  # 2 bits fill no hex digit
    assert scheme.SecretString.from_hex(2, "0f").blocks().tolist() == [0, 0, 3, 3]


@pytest.mark.parametrize(
    "text", ["-123456789abcdef", "012_456789abcdef", "0x23456789abcdef", " 123456789abcde ",
             "0123456789abcdeg", "0123456789abcd\u0663f"],
    ids=["sign", "underscore", "0x", "spaces", "g", "arabic-digit"],
)
def test_secret_hex_refuses_non_hex_digits(text):
    """int(text, 16) takes each of these; read as a secret, it would be
    another table than the digits spell."""
    assert len(text) == 16
    with pytest.raises(ValueError, match="only the digits"):
        scheme.SecretString.from_hex(4, text)


def test_secret_hex_takes_both_cases():
    assert scheme.SecretString.from_hex(4, "0123456789ABCDEF").blocks().tolist() == list(range(16))


@pytest.mark.parametrize(
    "blocks", [[0.7] * 16, [-1] + [0] * 15, [True] * 16, ["1"] * 16],
    ids=["float", "negative", "bool", "str"],
)
def test_secret_refuses_a_table_of_non_block_values(blocks):
    with pytest.raises(ValueError):
        scheme.SecretString(4, blocks)


@pytest.mark.parametrize("k", range(1, 21))
def test_secret_draw_is_the_integers_table(k):
    """The raw-word draw gives the table and the generator state that
    ``integers`` gives, on PCG64 and on both fallbacks: another bit
    generator, and a PCG64 holding a pending 32-bit half."""
    seeds = np.random.default_rng(1000 + k).integers(0, 2**63, size=3).tolist()
    for seed in seeds:
        for make, pending in (
            (lambda s: np.random.default_rng(s), False),
            (lambda s: np.random.Generator(np.random.Philox(s)), False),
            (lambda s: np.random.default_rng(s), True),
        ):
            rng, ref = make(seed), make(seed)
            if pending:
                for g in (rng, ref):
                    g.integers(0, 2**32, dtype=np.uint32)
            secret = scheme.SecretString.random(k, rng)
            want = ref.integers(0, 1 << k, size=1 << k, dtype=np.uint64)
            assert secret.blocks().dtype == np.uint64
            assert np.array_equal(secret.blocks(), want)
            assert rng.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)
            assert rng.random() == ref.random()


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 20), seed=st.integers(0, 2**32 - 1))
def test_secret_is_exactly_a_2k_block_table(k, seed):
    """A random table's hex is the bit-string reference's and round-trips;
    one block or one hex digit too few or too many is refused."""
    rng = rng_for(seed)
    secret = scheme.SecretString.random(k, rng)
    text = secret.to_hex()
    assert text == refsim.secret_hex(secret)
    assert np.array_equal(scheme.SecretString.from_hex(k, text).blocks(), secret.blocks())
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


# -- reports -------------------------------------------------------------------------


def test_report_serialization_is_exactly_2k_bits():
    wire = scheme.wire(4, 3, 0b1010)
    assert format(wire, "08b") == "0010" + "1010"
    assert wire == 0x2a < 2**8
    assert scheme.unwire(4, 0x2a) == (3, 0b1010)


# -- minting ------------------------------------------------------------------------


def test_mint_token_support_and_amplitudes():
    secret = scheme.SecretString.random(4, rng_for(5))
    tokens = scheme.mint(secret, 1)
    token = tokens[0]
    assert token.num_qubits == 8
    assert len(token.amplitudes) == 16
    assert all(abs(a - 0.25) <= 1e-9 for a in token.amplitudes.values())
    for idx in token.amplitudes:
        assert secret.block((idx >> 4) + 1) == idx & 0xF


def test_minted_tokens_are_identical():
    secret = scheme.SecretString.random(8, rng_for(6))
    with pytest.warns(scheme.MintCapExceeded):
        tokens = scheme.mint(secret, 5)  # cap at k=8 is 3
    for a, b in itertools.combinations(tokens, 2):
        assert abs(np.vdot(refsim.dense(a), refsim.dense(b)) - 1.0) <= 1e-9


def test_mint_returns_one_shared_token_state():
    secret = scheme.SecretString.random(8, rng_for(6))
    tokens = scheme.mint(secret, 3)
    assert len(tokens) == 3 and all(t is tokens[0] for t in tokens)
    assert tokens[0].amplitudes == scheme.token_state(secret).amplitudes


def test_all_zero_secret_reports_zero_value():
    secret = scheme.SecretString(4, [0] * 16)
    token = scheme.token_state(secret)
    rng = rng_for(7)
    for _ in range(50):
        assert scheme.report(token, rng)[1] == 0


# -- report distribution ---------------------------------------------------------------


def test_report_is_always_valid_and_uniform():
    k = 4
    trials = 30_000
    secret = scheme.SecretString.random(k, rng_for(9))
    token = scheme.token_state(secret)
    rng = rng_for(10)
    counts = np.zeros(1 << k, dtype=int)
    for _ in range(trials):
        index, value = scheme.report(token, rng)
        assert secret.block(index) == value
        counts[index - 1] += 1
    p = 2.0**-k
    sigma = math.sqrt(p * (1 - p) * trials)
    assert np.all(np.abs(counts - trials * p) <= 3.5 * sigma)


def test_report_on_basis_state_token():
    token = core.SparseState(8, {(0b0110 << 4) | 0b0011: 1.0})
    assert scheme.report(token, rng_for(11)) == (0b0110 + 1, 0b0011)


def test_report_emulated_accepted_at_large_k():
    secret = scheme.SecretString.random(16, rng_for(12))
    (index,), (value,) = scheme.report_emulated(secret, rng_for(13), 1)
    assert scheme.Ledger(secret).check(int(index), int(value)) is None


def test_report_emulated_deterministic_for_fixed_seed():
    secret = scheme.SecretString.random(4, rng_for(14))
    a = scheme.report_emulated(secret, rng_for(99), 5)
    b = scheme.report_emulated(secret, rng_for(99), 5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_report_emulated_batch_equals_single_draws():
    """One call for n reports reads the generator exactly as n calls for one."""
    secret = scheme.SecretString.random(8, rng_for(20))
    batch_rng, single_rng = rng_for(21), rng_for(21)
    indices, values = scheme.report_emulated(secret, batch_rng, 50)
    singles = [scheme.report_emulated(secret, single_rng, 1) for _ in range(50)]
    assert indices.tolist() == [int(i[0]) for i, _ in singles]
    assert values.tolist() == [int(v[0]) for _, v in singles]
    assert all(secret.block(int(i)) == int(v) for i, v in zip(indices, values))
    assert batch_rng.integers(2**62) == single_rng.integers(2**62)


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
        counts_q[scheme.report(token, rng)[0] - 1] += 1
        counts_e[scheme.report_emulated(secret, rng, 1)[0][0] - 1] += 1
    stat, dof = refsim.chi_squared_two_sample(counts_q, counts_e)
    assert stat <= stats.chi2_critical(dof)


# -- verification -----------------------------------------------------------------------


def test_test_accepts_fresh_matching_pair():
    secret = scheme.SecretString(4, list(range(16)))
    ledger = scheme.Ledger(secret)
    assert ledger.check(3, secret.block(3)) is None
    assert ledger.check(3, secret.block(3)) is None  # referentially transparent
    assert ledger.attempts == 0 and not ledger.spent  # never mutates the ledger


def test_test_rejects_duplicates_and_mismatches():
    secret = scheme.SecretString(4, list(range(16)))
    ledger = scheme.Ledger(secret)
    assert ledger.verify(3, secret.block(3)) is None
    assert ledger.check(3, secret.block(3)) == "double-spend"
    assert scheme.Ledger(secret).check(3, secret.block(3) ^ 1) == "bad-value"


def test_ledger_refuses_out_of_range_values():
    """A value of 2^k or more would OR into the index bits of its wire form:
    at k=4, verifying (1, 16) used to spend the honest pair (2, 0)."""
    secret = scheme.SecretString(4, [5, 0] + list(range(14)))
    ledger = scheme.Ledger(secret)
    for value in (16, -1):
        with pytest.raises(ValueError, match="out of range"):
            ledger.verify(1, value)
        with pytest.raises(ValueError, match="out of range"):
            ledger.check(1, value)
    assert ledger.attempts == 0 and not ledger.spent
    assert ledger.verify(2, 0) is None


def test_btest_examples():
    secret = scheme.SecretString(4, list(range(16)))
    fresh = [1, 2, 3]
    assert scheme.btest(secret, fresh, [secret.block(i) for i in fresh]).tolist() == [True] * 3
    assert scheme.btest(secret, [1, 1], [secret.block(1)] * 2).tolist() == [True, False]
    assert scheme.btest(secret, fresh, [secret.block(i) ^ 1 for i in fresh]).tolist() == [False] * 3
    assert scheme.btest(secret, [], []).tolist() == []


def test_btest_refuses_out_of_range_pairs():
    """An out-of-range value would OR into the index bits of its wire form
    and spend another pair: (1, 16) has the wire form of the honest (2, 0)."""
    secret = scheme.SecretString(4, [5, 0] + [1] * 14)
    assert scheme.btest(secret, [2], [0]).tolist() == [True]
    for indices, values in (([1, 2], [16, 0]), ([1, 2], [-1, 0]), ([0], [5]), ([17], [1])):
        with pytest.raises(ValueError, match="out of range"):
            scheme.btest(secret, indices, values)


def test_btest_budget_enforced():
    secret = scheme.SecretString.random(4, rng_for(17))
    with pytest.raises(ValueError):
        scheme.btest(secret, [1] * 5, [0] * 5)  # budget is 2^(k/2) = 4


def test_btest_accept_count_bounded_by_distinct_valid_pairs():
    rng = rng_for(18)
    secret = scheme.SecretString.random(4, rng)
    for _ in range(50):
        pairs = [(int(rng.integers(1, 17)), int(rng.integers(0, 16))) for _ in range(4)]
        accepted = np.count_nonzero(scheme.btest(secret, *zip(*pairs)))
        distinct_valid = len({(i, v) for i, v in pairs if secret.block(i) == v})
        assert accepted <= distinct_valid


@settings(max_examples=200, deadline=None)
@given(
    k=st.sampled_from([4, 8]),
    seed=st.integers(0, 2**32 - 1),
    draws=st.lists(st.tuples(st.integers(1, 6), st.booleans(), st.integers(1, 2**8)),
                   max_size=16),
    bad=st.none() | st.tuples(st.integers(0, 15), st.integers(-300, 300)),
)
def test_btest_decides_like_a_sequential_ledger(k, seed, draws, bad):
    """Array ``btest`` accepts exactly the positions that ``Ledger.verify``
    accepts one by one; a batch with an out-of-range value is refused."""
    secret = scheme.SecretString.random(k, rng_for(seed))
    cap = scheme.SchemeParams.for_k(k).cap_test
    draws = draws[:cap]
    size = 1 << k
    indices, values = [], []
    for pool_index, honest, noise in draws:  # indices from a small pool, so pairs repeat
        index = 1 + (pool_index * 37) % size
        indices.append(index)
        values.append(secret.block(index) ^ (0 if honest else noise % size or 1))
    if bad is not None and draws:
        position, offset = bad
        values[position % len(values)] = size + offset if offset >= 0 else offset
        with pytest.raises(ValueError, match="out of range"):
            scheme.btest(secret, indices, values)
        return
    ledger = scheme.Ledger(secret, cap)
    want = [ledger.verify(i, v) is None for i, v in zip(indices, values)]
    got = scheme.btest(secret, np.array(indices), np.array(values, dtype=np.uint64))
    assert got.dtype == bool and got.tolist() == want


@settings(max_examples=150, deadline=None)
@given(k=st.sampled_from([4, 8]), seed=st.integers(0, 2**32 - 1), shared=st.booleans(),
       data=st.data())
def test_2d_btest_decides_each_row_like_its_own_sequential_ledger(k, seed, shared, data):
    """Each row of a 2-d ``btest`` is decided as a fresh ``Ledger.verify``
    would decide it, and as the 1-d call on that row alone. Rows hold repeated
    pairs, wrong values and repeated indices; they check either one shared
    secret or, through ``blocks``, a secret of their own."""
    cap = scheme.SchemeParams.for_k(k).cap_test
    size = 1 << k
    width = data.draw(st.integers(0, cap))
    draw = st.tuples(st.integers(1, 6), st.booleans(), st.integers(1, 2**8))
    draws = data.draw(st.lists(st.lists(draw, min_size=width, max_size=width),
                               min_size=1, max_size=5))
    rng = rng_for(seed)
    first = scheme.SecretString.random(k, rng)
    secrets = [first if shared or r == 0 else scheme.SecretString.random(k, rng)
               for r in range(len(draws))]
    indices, values, want = [], [], []
    for secret, row in zip(secrets, draws):
        ledger = scheme.Ledger(secret, cap)
        idx = [1 + (pool_index * 37) % size for pool_index, _, _ in row]
        val = [secret.block(i) ^ (0 if honest else noise % size or 1)
               for i, (_, honest, noise) in zip(idx, row)]
        want.append([ledger.verify(i, v) is None for i, v in zip(idx, val)])
        indices.append(idx)
        values.append(val)
    indices = np.array(indices, dtype=np.int64).reshape(len(draws), width)
    values = np.array(values, dtype=np.uint64).reshape(len(draws), width)
    blocks = None if shared else np.stack([s.blocks(i) for s, i in zip(secrets, indices)])
    got = scheme.btest(first, indices, values, blocks)
    assert got.dtype == bool and got.shape == indices.shape and got.tolist() == want
    for secret, idx, val, row in zip(secrets, indices, values, got):
        assert scheme.btest(secret, idx, val).tolist() == row.tolist()


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([4, 8]), rows=st.integers(1, 4), data=st.data(),
       fault=st.sampled_from(["index 0", "index 2^k+1", "value -1", "value 2^k", "shape",
                              "budget"]))
def test_2d_btest_refuses_what_the_1d_call_refuses(k, rows, data, fault):
    """A bad index, value, shape or budget in any row raises the ``ValueError``
    that the 1-d call on that row raises."""
    secret = scheme.SecretString.random(k, rng_for(k))
    cap = scheme.SchemeParams.for_k(k).cap_test
    size = 1 << k
    width = cap + 1 if fault == "budget" else cap
    indices = rng_for(rows).integers(1, size + 1, size=(rows, width))
    values = secret.blocks(indices).astype(np.int64)
    row = data.draw(st.integers(0, rows - 1))
    col = data.draw(st.integers(0, width - 1))
    if fault == "index 0":
        indices[row, col] = 0
    elif fault == "index 2^k+1":
        indices[row, col] = size + 1
    elif fault == "value -1":
        values[row, col] = -1
    elif fault == "value 2^k":
        values[row, col] = size
    elif fault == "shape":
        values = values[:, :-1]
    with pytest.raises(ValueError) as alone:
        scheme.btest(secret, indices[row], values[row])
    with pytest.raises(ValueError) as batched:
        scheme.btest(secret, indices, values)
    assert str(batched.value) == str(alone.value)


def test_monotone_rejection():
    secret = scheme.SecretString(4, list(range(16)))
    pair = (5, secret.block(5))
    ledger = scheme.Ledger(secret)
    ledger.verify(*pair)
    for _ in range(3):
        assert ledger.check(*pair) is not None
        ledger.verify(*pair)


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
        ledger.verify(i, secret.block(i))
    expected = same_series_rejection_exact(secret, set(indices), k)
    assert expected == j / 2**k < scheme.SchemeParams.for_k(k).eps_l
    rejected = sum(
        ledger.check(*scheme.report(token, rng)) is not None
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
