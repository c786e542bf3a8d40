"""Adversarial strategies on both sides of the token protocol.

Forgers attack unforgeability: they measure some number of honest tokens and
then try to get more reports accepted than tokens measured, within the
series' verification budget. The theoretical ceiling for *any* such attack
is min(1, 5 * N * (q+1) / |Y|) for a forger who measured q tokens and
submits at most N distinct pairs over a value space Y, and the concrete
forgers below, one row each of ``FORGERS``, are Monte Carlo checks that stay
under it.

Tracking banks attack anonymity: instead of the honest identical tokens they
mint states that stay correlated with something the bank keeps (an entangled
register, or a secret pairing between two tokens). Both constructions leave
the per-token measurement statistics exactly honest, which is the point: the
verification messages alone reveal nothing, and only the swap-test audit can
catch the bank.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .core import RegisterLayout, SparseState, uniform_state
from .scheme import SchemeParams, SecretString, btest, read_blocks, skip_secret, token_wires

# name: (policy, measured tokens q). A row's position keys its RNG streams in
# the forgery scenario, so new forgers go at the end.
FORGERS = {
    "uniform-guess": ("uniform-fresh-index", 0),
    "measure-and-guess-1": ("uniform-fresh-index", 1),
    "measure-and-guess-2": ("uniform-fresh-index", 2),
    "replay": ("replay", 1),
    "block-collision": ("block-collision", 1),
}


# Rounds per ``btest`` call. It bounds the (rounds, N) arrays at any trial count;
# at k=16 larger batches ran no faster and took more memory.
_BATCH_ROWS = 256


def run_forgery(
    name: str, k: int, rngs: Iterable[np.random.Generator]
) -> tuple[np.ndarray, int]:
    """Play the forger ``name`` in ``FORGERS`` once per generator, each a
    round at security level k; returns (accepted per round, submitted in all).

    A round's series secret is ``SecretString.random(k, rng)``, and its
    forger then measures its q honest tokens (the emulated honest sampler's
    uniform indices). A replay forger resubmits those q pairs; every other
    forger fills the series' attempt budget cap_test with guesses per its
    policy. The secret is only skipped (``skip_secret``): up to
    ``_BATCH_ROWS`` rounds have every true block they touch read at once
    (``read_blocks``) and go through one ``btest``, each row a fresh ledger
    of its own series; a round is a win when more reports are accepted than
    tokens were measured. A generator must be fresh enough to hold no pending
    32-bit half (``skip_secret`` refuses one), so rounds do not share one.
    """
    policy, q = FORGERS[name]
    rngs = iter(rngs)
    accepted, submitted = [np.zeros(0, dtype=np.int64)], 0
    while True:
        starts, rows = [], []
        for rng in itertools.islice(rngs, _BATCH_ROWS):
            starts.append(skip_secret(k, rng))
            rows.append(_submissions(k, policy, q, rng))
        if not rows:
            return np.concatenate(accepted), submitted
        indices, guesses = (np.stack(column) for column in zip(*rows))
        blocks = read_blocks(k, starts, indices)
        source = _value_sources(policy, q, indices.shape[1])
        values = np.where(source < 0, guesses, blocks[:, np.maximum(source, 0)])
        accepted.append(np.count_nonzero(btest(k, indices, values, blocks), axis=1))
        submitted += indices.size


def _submissions(
    k: int, policy: str, q: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One round's submitted indices, its q measured pairs first, and its
    drawn guesses, 0 at each position whose value ``_value_sources`` copies."""
    # report_emulated's index draw, without reading the measured blocks.
    indices = rng.integers(0, 1 << k, size=q) + 1
    if policy == "replay":
        return np.concatenate([indices, indices]), np.zeros(2 * q, dtype=np.uint64)
    extra = SchemeParams.for_k(k).cap_test - q
    # Distinct uniform indices minus the (at most q) measured ones are
    # uniform over the unmeasured indices, and at least ``extra`` remain.
    fresh = rng.choice(1 << k, extra + q, replace=False) + 1
    for index in indices:
        fresh = fresh[fresh != index]
    guesses = np.zeros(extra + q, dtype=np.uint64)
    if policy == "uniform-fresh-index":
        guesses[q:] = rng.integers(0, 1 << k, size=extra, dtype=np.uint64)
    return np.concatenate([indices, fresh[:extra]]), guesses


def _value_sources(policy: str, q: int, width: int) -> np.ndarray:
    """Per submitted position, the position whose true block is submitted
    there, or -1 for a drawn guess: measured pairs are their own blocks, a
    replay copies them, and block-collision bets that another block repeats
    a seen value."""
    measured = np.arange(q)
    if policy == "replay":
        return np.concatenate([measured, measured])
    extra = np.full(width - q, -1) if policy == "uniform-fresh-index" else np.arange(width - q) % q
    return np.concatenate([measured, extra])


def eval_forgery_bound(n_reports: int, q: int, y_size: int) -> float:
    """Ceiling min(1, 5 * N * (q+1) / |Y|) on Pr[more than q correct pairs
    among N = n_reports distinct guesses].

    With the constant 6 in place of 5 and the scheme's N, q and |Y| the same
    form gives eps_f; ``bounds_rows`` prints both constants.
    """
    if n_reports < 0 or q < 0 or y_size < 1:
        raise ValueError("need n_reports, q >= 0 and y_size >= 1")
    return min(1.0, 5 * n_reports * (q + 1) / y_size)


def eval_all_correct_bound(q: int, r: int, y_size: int) -> float:
    """Exact ceiling on Pr[all r output pairs correct after q queries].

    Evaluates sum_{i=0}^{q} C(r, i) * (|Y|-1)^i / |Y|^r in exact rational
    arithmetic before converting to float.
    """
    if q < 0 or y_size < 1:
        raise ValueError("need q >= 0 and y_size >= 1")
    if r <= q:
        raise ValueError("the bound requires r > q")
    total = sum(comb(r, i) * (y_size - 1) ** i for i in range(q + 1))
    return float(Fraction(total, y_size**r))


def mint_loaded(secret: SecretString) -> tuple[SparseState, RegisterLayout]:
    """Traced token entangled with a k-qubit register the bank keeps.

    The state is uniform over |i>_bank |i, block_i>_token, so the token's
    marginal is exactly the honest uniform mixture while the bank register
    stays perfectly correlated with the index the user will report.
    """
    k = secret.k
    keys = [(i << 2 * k) | w for i, w in enumerate(token_wires(secret))]
    layout = RegisterLayout([("bank", k), ("token", 2 * k)])
    return uniform_state(3 * k, keys), layout


def mint_permutation_paired(
    secret: SecretString, perm: Sequence[int] | np.ndarray
) -> tuple[SparseState, RegisterLayout]:
    """Two tokens whose measured indices are locked together by a permutation.

    ``perm`` is a 0-based permutation of [0, 2^k); the joint state is uniform
    over |i, block_{i+1}> |perm[i], block_{perm[i]+1}>. Each token's marginal
    is honest, but the pair (i, perm[i]) showing up together in a
    verification history is the bank's needle: it does not rely on keeping
    any quantum state around.
    """
    k = secret.k
    size = 1 << k
    arr = np.asarray(perm, dtype=np.int64)
    if arr.shape != (size,) or sorted(int(v) for v in arr) != list(range(size)):
        raise ValueError("perm must be a permutation of [0, 2^k)")
    n = 2 * k
    wires = token_wires(secret)
    keys = [(w << n) | wires[j] for w, j in zip(wires, arr.tolist())]
    layout = RegisterLayout([("token1", n), ("token2", n)])
    return uniform_state(2 * n, keys), layout

