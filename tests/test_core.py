"""Sparse-state engine tests against dense numpy oracles and known values."""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import refsim
from qtoken import core, scheme

TOL = 1e-9


def rng_for(seed=0):
    return np.random.default_rng(seed)


def swap_sample(state, layout, reg_a, reg_b, draw):
    """What a swap test at ``draw`` leaves: None when it fires, else the
    symmetric projection."""
    if core.swap_test(state, layout, reg_a, reg_b, draw):
        return None
    return core.swap_project(state, layout, reg_a, reg_b)


def plus_state():
    s = 1 / math.sqrt(2)
    return core.SparseState(1, {0: s, 1: s})


def engine_swap(state, layout, reg_a, reg_b) -> np.ndarray:
    """SWAP v = 2 P0 v - v, built from the engine's exact symmetric projection."""
    p1 = core.swap_probability(state, layout, reg_a, reg_b)
    out = -refsim.dense(state)
    if p1 < 1 - 1e-12:
        out += 2 * math.sqrt(1 - p1) * refsim.dense(core.swap_project(state, layout, reg_a, reg_b))
    return out


def dense_close(a: np.ndarray, b: np.ndarray) -> bool:
    return np.allclose(a, b, rtol=0.0, atol=TOL)


# -- construction and invariants ------------------------------------------------


def test_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        core.SparseState(1, {0: 1.0, 1: 1.0})


def test_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        core.SparseState(1, {2: 1.0})


@pytest.mark.parametrize(
    "bad", [float("nan"), complex(0.0, float("nan")), float("inf"), float("-inf")]
)
def test_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="not finite"):
        core.SparseState(1, {0: 1.0, 1: bad})


def test_uniform_state_keeps_key_order_and_refuses_repeats():
    state = core.uniform_state(2, [3, 0])
    assert list(state.amplitudes.items()) == [(3, 2**-0.5 + 0j), (0, 2**-0.5 + 0j)]
    with pytest.raises(ValueError, match="distinct"):
        core.uniform_state(2, [3, 0, 3])


def test_prunes_tiny_amplitudes():
    s = core.SparseState(1, {0: 1.0, 1: 1e-13})
    assert 1 not in s.amplitudes


def test_every_operation_preserves_normalization():
    rng = rng_for(7)
    layout = core.RegisterLayout([("a", 2), ("b", 2)])
    for _ in range(20):
        state = core.random_state(4, rng)
        assert abs(np.linalg.norm(refsim.dense(state)) ** 2 - 1.0) <= TOL
        post = swap_sample(state, layout, "a", "b", rng.random())
        if post is not None:
            assert abs(np.linalg.norm(refsim.dense(post)) ** 2 - 1.0) <= TOL
        post = core.swap_project(state, layout, "a", "b")
        assert abs(np.linalg.norm(refsim.dense(post)) ** 2 - 1.0) <= TOL


def test_random_state_equals_the_original_normalisation_bit_for_bit():
    """random_state scales through the engine's one normaliser, and every
    amplitude keeps the bits of the original prune-sum-scale construction."""
    for seed in range(2000):
        n = 1 + seed % 6
        got = core.random_state(n, rng_for(seed)).amplitudes
        want = refsim.haar_amplitudes(n, rng_for(seed))
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


# -- tensor -----------------------------------------------------------------------


def test_tensor_basis_states():
    out = core.tensor(core.SparseState(1, {0: 1.0}), core.SparseState(1, {1: 1.0}))
    assert out.amplitudes == {0b01: 1.0 + 0j}


def test_tensor_plus_plus():
    out = core.tensor(plus_state(), plus_state())
    assert len(out.amplitudes) == 4
    assert all(abs(a - 0.5) <= TOL for a in out.amplitudes.values())


def test_tensor_two_tokens_k2():
    # Enumerate the joint support of two identical tokens directly.
    secret = scheme.SecretString.random(2, rng_for(3))
    token = scheme.token_state(secret)
    joint = core.tensor(token, token)
    expected = {
        (x << 4) | y: 0.25
        for x in token.amplitudes
        for y in token.amplitudes
    }
    assert len(joint.amplitudes) == 16
    for idx, amp in expected.items():
        assert abs(joint.amplitudes[idx] - amp) <= TOL


def test_tensor_matches_kron_oracle():
    rng = rng_for(11)
    for _ in range(10):
        a = core.random_state(2, rng)
        b = core.random_state(3, rng)
        kron = np.kron(refsim.dense(a), refsim.dense(b))
        assert np.allclose(refsim.dense(core.tensor(a, b)), kron)


# -- inner product -----------------------------------------------------------------


def test_inner_product_normalization_and_orthogonality():
    rng = rng_for(5)
    phi = core.random_state(3, rng)
    assert abs(np.vdot(refsim.dense(phi), refsim.dense(phi)) - 1.0) <= TOL
    a, b = core.SparseState(2, {0b00: 1.0}), core.SparseState(2, {0b11: 1.0})
    assert np.vdot(refsim.dense(a), refsim.dense(b)) == 0


def test_inner_product_token_overlap_one_block_differs():
    # Count agreeing support points: tokens sharing all but one block overlap
    # in 2^k - 1 of their 2^k terms of weight 2^-k each.
    for k in (2, 4):
        rng = rng_for(k)
        secret = scheme.SecretString.random(k, rng)
        blocks = [secret.block(i + 1) for i in range(1 << k)]
        blocks[0] ^= 1
        other = scheme.SecretString(k, blocks)
        overlap = np.vdot(
            refsim.dense(scheme.token_state(secret)), refsim.dense(scheme.token_state(other))
        )
        assert abs(overlap - (1 - 2.0**-k)) <= TOL


# -- measurement ---------------------------------------------------------------------


def test_measure_basis_state_is_deterministic():
    layout = core.RegisterLayout([("all", 2)])
    for seed in range(5):
        outcome = core.measure_register(core.SparseState(2, {0b01: 1.0}), layout, "all",
                                       rng_for(seed).random())
        assert outcome == 0b01


def test_measure_second_register_after_collapse():
    """Measuring (index, value) as one merged register yields the pair a
    collapse of the index would: the value is always the index's block."""
    secret = scheme.SecretString.random(4, rng_for(9))
    token = scheme.token_state(secret)
    layout = core.RegisterLayout([("index_value", 8)])
    rng = rng_for(10)
    for _ in range(50):
        wire = core.measure_register(token, layout, "index_value", rng.random())
        assert wire & 0xF == secret.block((wire >> 4) + 1)


def test_measure_index_register_uniform():
    """Outcome frequencies match the |amplitude|^2 marginals within 3 sigma."""
    k = 4
    trials = 100_000
    secret = scheme.SecretString.random(k, rng_for(12))
    token = scheme.token_state(secret)
    layout = core.RegisterLayout([("index", k), ("value", k)])
    rng = rng_for(13)
    counts = np.bincount(core.measure_register(token, layout, "index", rng.random(trials)),
                         minlength=1 << k)
    p = 2.0**-k
    sigma = math.sqrt(p * (1 - p) * trials)
    assert np.all(np.abs(counts - trials * p) <= 3 * sigma)


def test_measure_marginals_match_dense_oracle():
    rng = rng_for(14)
    layout = core.RegisterLayout([("a", 2), ("b", 3)])
    state = core.random_state(5, rng)
    probs = refsim.dense_register_probabilities(refsim.dense(state), layout, "b")
    trials = 40_000
    counts = np.bincount(core.measure_register(state, layout, "b", rng.random(trials)), minlength=8)
    sigma = np.sqrt(np.maximum(probs * (1 - probs) * trials, 1.0))
    assert np.all(np.abs(counts - trials * probs) <= 4 * sigma)


# -- register swap ----------------------------------------------------------------------


def test_register_swap_basis():
    layout = core.RegisterLayout([("a", 1), ("b", 1)])
    out = engine_swap(core.SparseState(2, {0b01: 1.0}), layout, "a", "b")
    assert dense_close(out, refsim.dense(core.SparseState(2, {0b10: 1.0})))


def test_register_swap_symmetric_input_fixed():
    rng = rng_for(15)
    phi = core.random_state(2, rng)
    joint = core.tensor(phi, phi)
    layout = core.RegisterLayout([("a", 2), ("b", 2)])
    vec = refsim.dense(joint)
    assert dense_close(engine_swap(joint, layout, "a", "b"), vec)
    assert dense_close(refsim.dense_swap(vec, layout, "a", "b"), vec)


def test_register_swap_is_involution_and_matches_oracle():
    rng = rng_for(16)
    layout = core.RegisterLayout([("x", 2), ("mid", 1), ("y", 2)])
    state = core.random_state(5, rng)
    once = engine_swap(state, layout, "x", "y")
    assert dense_close(once, refsim.dense_swap(refsim.dense(state), layout, "x", "y"))
    twice = refsim.dense_swap(once, layout, "x", "y")
    assert dense_close(twice, refsim.dense(state))


def test_register_swap_exchanges_pairing_roles():
    """Swapping the two halves of a permutation-paired state realizes the
    inverse pairing: amplitude maps match the directly permuted indices."""
    from qtoken import adversary

    k = 2
    secret = scheme.SecretString.random(k, rng_for(17))
    perm = rng_for(18).permutation(1 << k)
    state, layout = adversary.mint_permutation_paired(secret, perm)
    swapped = engine_swap(state, layout, "token1", "token2")
    n = 2 * k
    expected = np.zeros(1 << (2 * n), dtype=complex)
    for idx, amp in state.amplitudes.items():
        expected[((idx & ((1 << n) - 1)) << n) | (idx >> n)] = amp
    assert dense_close(swapped, expected)


def test_register_swap_width_mismatch():
    layout = core.RegisterLayout([("a", 1), ("b", 2)])
    with pytest.raises(ValueError):
        core.swap_probability(core.SparseState(3, {0: 1.0}), layout, "a", "b")


# -- swap test -----------------------------------------------------------------------


def test_swap_test_identical_product_always_zero():
    rng = rng_for(19)
    phi = core.random_state(2, rng)
    joint = core.tensor(phi, phi)
    layout = core.RegisterLayout([("a", 2), ("b", 2)])
    assert not core.swap_test(joint, layout, "a", "b", rng.random(50)).any()
    post = core.swap_project(joint, layout, "a", "b")
    assert dense_close(refsim.dense(post), refsim.dense(joint))


def test_swap_probability_orthogonal_and_known_values():
    layout = core.RegisterLayout([("a", 1), ("b", 1)])
    orth = core.tensor(core.SparseState(1, {0: 1.0}), core.SparseState(1, {1: 1.0}))
    assert abs(core.swap_probability(orth, layout, "a", "b") - 0.5) <= TOL
    plus_zero = core.tensor(plus_state(), core.SparseState(1, {0: 1.0}))
    # Pr[0] = ||(I + SWAP)v/2||^2 = 3/4 for |+>|0>, so Pr[1] = 1/4.
    assert abs(core.swap_probability(plus_zero, layout, "a", "b") - 0.25) <= TOL

    layout2 = core.RegisterLayout([("a", 2), ("b", 2)])
    phi = core.random_state(2, rng_for(20))
    same = core.tensor(phi, phi)
    assert core.swap_probability(same, layout2, "a", "b") <= TOL


def test_swap_law_on_random_product_pairs():
    """Pr[outcome 1] equals (1 - |<phi|psi>|^2) / 2 for product inputs."""
    rng = rng_for(21)
    for _ in range(60):
        k = int(rng.integers(1, 4))
        phi, psi = core.random_state(k, rng), core.random_state(k, rng)
        joint = core.tensor(phi, psi)
        layout = core.RegisterLayout([("a", k), ("b", k)])
        expected = (1 - abs(np.vdot(refsim.dense(phi), refsim.dense(psi))) ** 2) / 2
        assert abs(core.swap_probability(joint, layout, "a", "b") - expected) <= TOL


def test_swap_probability_matches_dense_oracle_on_entangled_states():
    rng = rng_for(22)
    layout = core.RegisterLayout([("a", 2), ("b", 2)])
    for _ in range(25):
        state = core.random_state(4, rng)
        got = core.swap_probability(state, layout, "a", "b")
        want = refsim.dense_swap_probability(refsim.dense(state), layout, "a", "b")
        assert abs(got - want) <= TOL


def test_swap_test_projective_structure():
    """Pass post-states are swap-invariant, and repeating the test on one
    passes with certainty; on random states the test both passes and fires."""
    rng = rng_for(23)
    layout = core.RegisterLayout([("a", 2), ("b", 2)])
    seen = set()
    while seen != {True, False}:
        state = core.random_state(4, rng)
        post_state = swap_sample(state, layout, "a", "b", rng.random())
        seen.add(post_state is None)
        if post_state is None:
            continue
        post = refsim.dense(post_state)
        assert dense_close(refsim.dense_swap(post, layout, "a", "b"), post)
        assert core.swap_probability(post_state, layout, "a", "b") <= TOL
        repeat = swap_sample(post_state, layout, "a", "b", rng.random())
        assert repeat is not None
        assert dense_close(refsim.dense(repeat), post)


def test_swap_test_sampled_frequency():
    rng = rng_for(24)
    layout = core.RegisterLayout([("a", 1), ("b", 1)])
    state = core.tensor(plus_state(), core.SparseState(1, {0: 1.0}))
    p1 = core.swap_probability(state, layout, "a", "b")
    trials = 20_000
    hits = np.count_nonzero(core.swap_test(state, layout, "a", "b", rng.random(trials)))
    assert abs(hits / trials - p1) <= 3 * math.sqrt(p1 * (1 - p1) / trials)


def test_swap_project_matches_swap_test_posts():
    rng = rng_for(25)
    layout = core.RegisterLayout([("a", 2), ("b", 2)])
    state = core.random_state(4, rng)
    post = core.swap_project(state, layout, "a", "b")
    assert core.swap_probability(post, layout, "a", "b") <= TOL
    passed = None
    while passed is None:
        passed = swap_sample(state, layout, "a", "b", rng.random())
    assert passed is post


# -- reduced density and trace distance ------------------------------------------------


def test_reduced_density_product_state():
    rng = rng_for(26)
    phi, psi = core.random_state(2, rng), core.random_state(2, rng)
    layout = core.RegisterLayout([("a", 2), ("b", 2)])
    rho = core.reduced_density(core.tensor(phi, psi), layout, "a")
    vec = refsim.dense(phi)
    assert np.allclose(rho.entries, np.outer(vec, vec.conj()), atol=TOL)


def test_reduced_density_bell_marginal():
    s = 1 / math.sqrt(2)
    bell = core.SparseState(2, {0b00: s, 0b11: s})
    layout = core.RegisterLayout([("a", 1), ("b", 1)])
    rho = core.reduced_density(bell, layout, "a")
    assert np.allclose(rho.entries, np.eye(2) / 2, atol=TOL)


def test_reduced_density_loaded_token_marginal():
    """Tracing out the bank register of a loaded token leaves the uniform
    mixture over the honest support: 2^k eigenvalues of 2^-k each."""
    from qtoken import adversary

    k = 3
    secret = scheme.SecretString.random(k, rng_for(27))
    state, layout = adversary.mint_loaded(secret)
    rho = core.reduced_density(state, layout, "token")
    eigs = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
    assert np.allclose(eigs[: 1 << k], 2.0**-k, atol=TOL)
    assert np.allclose(eigs[1 << k :], 0.0, atol=TOL)


def test_reduced_density_matches_dense_oracle_with_reordering():
    rng = rng_for(28)
    layout = core.RegisterLayout([("r0", 2), ("r1", 2), ("r2", 2)])
    for keep in (["r1"], ["r0", "r2"], ["r2", "r0"]):
        state = core.random_state(6, rng)
        got = core.reduced_density(state, layout, keep)
        want = refsim.dense_reduced_density(refsim.dense(state), layout, keep)
        assert np.allclose(got.entries, want, atol=TOL)


@st.composite
def partial_traces(draw):
    """(state, layout, keep): a random state on a random layout, its keys in
    unsorted order, sometimes a swap pass post-state, its parts drawn with exact
    zeros of both signs, and kept registers in permuted order up to 8 qubits."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    layout = core.RegisterLayout([(f"r{i}", w) for i, w in enumerate(widths)])
    n = layout.num_qubits
    part = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)
    size = 1 << n
    if size <= 64:  # dense enough that a cell gathers terms from many groups
        support = draw(st.permutations(range(size)))[: draw(st.integers(1, size))]
    else:
        support = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=48, unique=True))
    amps = {i: complex(draw(part), draw(part)) for i in support}
    assume(max(abs(a) for a in amps.values()) > 1e-3)
    state = core.SparseState(n, refsim.normalized_amplitudes(amps))
    pairs = [(a, b) for a in layout.names for b in layout.names
             if a < b and layout.width(a) == layout.width(b)]
    if pairs and draw(st.booleans()):
        a, b = draw(st.sampled_from(pairs))
        if core.swap_probability(state, layout, a, b) < 1 - 1e-6:
            state = core.swap_project(state, layout, a, b)
    keep = []
    for name in draw(st.permutations(layout.names)):
        if sum(layout.width(k) for k in keep) + layout.width(name) > 8:
            break
        keep.append(name)
    return state, layout, keep[: draw(st.integers(1, len(keep)))]


@settings(max_examples=200, deadline=None)
@given(partial_traces())
def test_reduced_density_equals_the_scalar_walk_bit_for_bit(case):
    state, layout, keep = case
    got = core.reduced_density(state, layout, keep).entries
    want = refsim.scalar_reduced_density(state, layout, keep)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "widths", [(core.DENSE_QUBIT_LIMIT // 2, 2, core.DENSE_QUBIT_LIMIT // 2), (3, 58, 3), (3, 64, 3)]
)
def test_reduced_density_of_wide_layouts_equals_the_scalar_walk(widths):
    """A kept width of DENSE_QUBIT_LIMIT, and indices of 64 bits and more with
    the top bit set, on a small support; registers kept out of order."""
    layout = core.RegisterLayout(list(zip(("a", "env", "b"), widths)))
    n = layout.num_qubits
    rng = rng_for(31)
    support = {(1 << n) - 1} | {int.from_bytes(rng.bytes(9), "big") % (1 << n) for _ in range(23)}
    amps = {i: complex(*rng.normal(size=2)) for i in support}
    state = core.SparseState(n, refsim.normalized_amplitudes(amps))
    got = core.reduced_density(state, layout, ["b", "a"]).entries
    assert got.tobytes() == refsim.scalar_reduced_density(state, layout, ["b", "a"]).tobytes()


def test_reduced_density_respects_dense_limit():
    layout = core.RegisterLayout([("a", 7), ("b", 7)])
    state = core.SparseState(14, {0: 1.0})
    with pytest.raises(ValueError):
        core.reduced_density(state, layout, ["a", "b"])


@pytest.mark.parametrize("dim", [300, 512])
def test_density_matrix_refuses_a_non_hermitian_pair_in_the_last_rows(dim):
    """The Hermitian check runs over blocks of rows; a pair whose two entries
    both lie in the last block, whole or cut short, is still refused."""
    entries = np.eye(dim, dtype=complex) / dim
    assert core.DensityMatrix(entries).dim == dim
    entries[dim - 1, dim - 2] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        core.DensityMatrix(entries)
    with pytest.raises(ValueError, match="not square"):
        core.DensityMatrix(entries[:, 1:])


def test_trace_distance_advantage_known_values():
    zero = core.reduced_density(
        core.SparseState(1, {0: 1.0}), core.RegisterLayout([("a", 1)]), "a"
    )
    one = core.reduced_density(
        core.SparseState(1, {1: 1.0}), core.RegisterLayout([("a", 1)]), "a"
    )
    plus = core.reduced_density(plus_state(), core.RegisterLayout([("a", 1)]), "a")
    assert abs(core.trace_distance_advantage(zero, zero) - 0.5) <= TOL
    assert abs(core.trace_distance_advantage(zero, one) - 1.0) <= TOL
    # Eigenvalues of |0><0| - |+><+| are +/- 1/sqrt(2), so the advantage is
    # 1/2 + sqrt(2)/4.
    expected = 0.5 + math.sqrt(2) / 4
    assert abs(core.trace_distance_advantage(zero, plus) - expected) <= TOL


def test_trace_distance_dim_mismatch():
    a = core.reduced_density(plus_state(), core.RegisterLayout([("a", 1)]), "a")
    b = core.reduced_density(
        core.SparseState(2, {0: 1.0}), core.RegisterLayout([("a", 2)]), "a"
    )
    with pytest.raises(ValueError):
        core.trace_distance_advantage(a, b)


def test_swap_probability_density_matches_pure_route():
    rng = rng_for(29)
    layout = core.RegisterLayout([("env", 2), ("a", 2), ("b", 2)])
    for _ in range(10):
        state = core.random_state(6, rng)
        sigma = core.reduced_density(state, layout, ["a", "b"])
        p_mixed = core.swap_probability_density(sigma)
        assert abs(p_mixed - core.swap_probability(state, layout, "a", "b")) <= TOL
        tr = 0.0  # Tr[SWAP sigma], one entry at a time in (a, b) order
        for a in range(4):
            for b in range(4):
                tr += sigma.entries[a * 4 + b, b * 4 + a].real
        assert p_mixed == min(max((1.0 - tr) / 2.0, 0.0), 1.0)


def test_loaded_joint_detection_probability_via_both_routes():
    """Pattern vs loaded-token swap probability equals (1 - Tr[rho sigma])/2,
    with Tr[rho sigma] computed independently from reduced density matrices."""
    from qtoken import adversary

    k = 4
    secret = scheme.SecretString.random(k, rng_for(30))
    pattern = scheme.token_state(secret)
    loaded, _ = adversary.mint_loaded(secret)
    joint = core.tensor(pattern, loaded)
    layout = core.RegisterLayout([("pattern", 2 * k), ("bank", k), ("token", 2 * k)])
    p1 = core.swap_probability(joint, layout, "pattern", "token")

    pat_rho = np.outer(refsim.dense(pattern), refsim.dense(pattern).conj())
    tok_rho = core.reduced_density(joint, layout, "token").entries
    overlap = float(np.trace(pat_rho @ tok_rho).real)
    assert abs(overlap - 2.0**-k) <= TOL
    assert abs(p1 - (1 - overlap) / 2) <= TOL
    assert abs(p1 - 15 / 32) <= TOL


# -- layout ------------------------------------------------------------------------


def test_layout_validation():
    with pytest.raises(ValueError):
        core.RegisterLayout([("a", 0)])
    with pytest.raises(ValueError):
        core.RegisterLayout([("a", 1), ("a", 2)])
    layout = core.RegisterLayout([("hi", 2), ("lo", 3)])
    assert layout.num_qubits == 5
    assert (0b11000 >> layout.shift("hi")) & layout.mask("hi") == 0b11
    assert (0b00101 >> layout.shift("lo")) & layout.mask("lo") == 0b101


# -- memoised samples on immutable states ------------------------------------------


@st.composite
def joint_states(draw):
    """A random state over three equal-width registers p, t1, t2, plus an
    optional register x of another width at any position."""
    width = draw(st.integers(1, 2))
    registers = [("p", width), ("t1", width), ("t2", width)]
    extra = draw(st.integers(0, 2))
    if extra:
        registers.insert(draw(st.integers(0, 3)), ("x", extra))
    layout = core.RegisterLayout(registers)
    n = layout.num_qubits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.choice(1 << n, size=draw(st.integers(1, 1 << n)), replace=False)
    if draw(st.booleans()):
        # Equal weights: the last running sum and the total can round apart.
        amps = {int(i): 1.0 for i in support}
    else:
        amps = {int(i): complex(rng.normal(), rng.normal()) for i in support}
    return core.SparseState(n, refsim.normalized_amplitudes(amps)), layout


def fresh(state):
    """An equal state that shares no memo with ``state``."""
    return core.SparseState(state.num_qubits, dict(state.amplitudes))


def reference_measure(state, layout, reg, draw):
    """measure_register as an uncached walk: the first value whose running sum
    exceeds the draw, else the last value."""
    shift, mask = layout.shift(reg), layout.mask(reg)
    weights = {}
    for idx, amp in state.amplitudes.items():
        val = (idx >> shift) & mask
        weights[val] = weights.get(val, 0.0) + abs(amp) ** 2
    x = draw * sum(weights.values())
    acc = 0.0
    for outcome, w in weights.items():
        acc += w
        if x < acc:
            break
    return outcome


def same_pass(got, want):
    """Both swap tests fired, or both passed into equal post-state amplitudes
    in the same order."""
    if got is None or want is None:
        return got is want
    return list(got.amplitudes.items()) == list(want.amplitudes.items())


@settings(max_examples=60, deadline=None)
@given(joint_states(), st.integers(0, 2**32 - 1))
def test_memoised_measurement_matches_the_uncached_walk(case, seed):
    state, layout = case
    rng = rng_for(seed)
    # Each register twice: the first call fills its memo entry, the second
    # reads it; equal-width registers must not share an entry. A batch of
    # draws samples what the draws sample one by one.
    for reg in layout.names * 2:
        draws = rng.random(5)
        assert core.measure_register(state, layout, reg, draws[0]) == reference_measure(
            state, layout, reg, draws[0])
        assert core.measure_register(state, layout, reg, draws).tolist() == [
            reference_measure(state, layout, reg, x) for x in draws]


@settings(max_examples=60, deadline=None)
@given(joint_states(), st.integers(0, 2**32 - 1))
def test_memoised_swap_test_matches_the_exact_probability(case, seed):
    state, layout = case
    p1 = core.swap_probability(state, layout, "p", "t1")
    swapped = refsim.dense_swap(refsim.dense(state), layout, "p", "t1")
    draws = rng_for(seed).random(3)
    # The first call fills the memo, the rest read it; a batch of draws
    # samples what the draws sample one by one.
    assert [core.swap_test(state, layout, "p", "t1", x) for x in draws] == (draws < p1).tolist()
    assert core.swap_test(state, layout, "p", "t1", draws).tolist() == (draws < p1).tolist()
    if p1 < 1 - 1e-15:
        post = core.swap_project(state, layout, "p", "t1")
        assert same_pass(post, core.swap_project(fresh(state), layout, "p", "t1"))
        projected = (refsim.dense(state) + swapped) / 2
        assert dense_close(refsim.dense(post), projected / np.linalg.norm(projected))


@settings(max_examples=60, deadline=None)
@given(joint_states(), st.integers(0, 2**32 - 1))
def test_one_state_on_two_register_pairs_samples_like_two_copies(case, seed):
    """The inequality suite's pattern: a chained audit on (p, t2), then a single
    audit on (p, t1) of the same state, then both again."""
    state, layout = case
    copies = {pair: fresh(state) for pair in (("p", "t2"), ("p", "t1"))}
    rng, ref_rng = rng_for(seed), rng_for(seed)
    for pair in [("p", "t2"), ("p", "t1")] * 2:
        got = swap_sample(state, layout, *pair, rng.random())
        want = swap_sample(copies[pair], layout, *pair, ref_rng.random())
        assert same_pass(got, want)
        if got is not None:
            draw, ref_draw = rng.random(), ref_rng.random()
            assert core.measure_register(got, layout, pair[1], draw) == core.measure_register(
                fresh(want), layout, pair[1], ref_draw)
    assert rng.random() == ref_rng.random()


@settings(max_examples=60, deadline=None)
@given(joint_states(), st.integers(0, 2**32 - 1))
def test_swap_project_after_swap_test_matches_a_fresh_copy(case, seed):
    state, layout = case
    core.swap_test(state, layout, "t1", "t2", rng_for(seed).random())
    if 1.0 - core.swap_probability(state, layout, "t1", "t2") < 1e-15:
        with pytest.raises(ValueError, match="zero weight"):
            core.swap_project(state, layout, "t1", "t2")
        return
    got = core.swap_project(state, layout, "t1", "t2")
    assert same_pass(got, core.swap_project(fresh(state), layout, "t1", "t2"))


@settings(max_examples=40, deadline=None)
@given(joint_states(), st.integers(0, 2**32 - 1))
def test_post_states_memoise_like_constructed_states(case, seed):
    """Pass post-states are built without the validating constructor; they
    keep a memo of their own and sample like an equal constructed state."""
    state, layout = case
    posts = [core.swap_project(state, layout, *pair)
             for pair in (("p", "t2"), ("t1", "t2"))
             if core.swap_probability(state, layout, *pair) < 1 - 1e-15]
    for post in posts:
        copy = fresh(post)
        for _ in range(2):
            assert core.swap_probability(post, layout, "p", "t1") == core.swap_probability(
                copy, layout, "p", "t1")
            draw = rng_for(seed).random()
            assert core.swap_test(post, layout, "p", "t1", draw) == core.swap_test(
                copy, layout, "p", "t1", draw)
            assert core.measure_register(post, layout, "t2", draw) == core.measure_register(
                copy, layout, "t2", draw)


def test_a_draw_at_or_above_the_last_running_sum_takes_the_last_outcome():
    state = core.SparseState(3, refsim.normalized_amplitudes({i: 1.0 for i in range(5)}))
    layout = core.RegisterLayout([("all", 3)])
    weights = [abs(a) ** 2 for a in state.amplitudes.values()]
    # A draw of 1.0 lands on the total, which is not below the last running sum.
    assert sum(weights) >= list(accumulate(weights))[-1]
    for _ in range(2):
        outcome = core.measure_register(state, layout, "all", 1.0)
        assert outcome == 4 == reference_measure(state, layout, "all", 1.0)
        assert core.measure_register(state, layout, "all", 0.0) == 0
