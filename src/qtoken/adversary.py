"""Adversarial strategies on both sides of the token protocol.

Forgers attack unforgeability: they measure some number of honest tokens and
then try to get more reports accepted than tokens measured, within the
series' verification budget. The theoretical ceiling for *any* such attack
is min(1, c * N * (q+1) / |Y|) for a forger who measured q tokens and
submits at most N distinct pairs over a value space Y; both the constant-5
and the constant-6 form of that ceiling are exposed here, and the concrete
strategies below are Monte Carlo checks that stay under it.

Tracking banks attack anonymity: instead of the honest identical tokens they
mint states that stay correlated with something the bank keeps (an entangled
register, or a secret pairing between two tokens). Both constructions leave
the per-token measurement statistics exactly honest, which is the point: the
verification messages alone reveal nothing, and only the swap-test audit can
catch the bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .core import RegisterLayout, SparseState
from .scheme import SecretString, TokenReport, btest, report_emulated

FORGER_POLICIES = ("uniform-fresh-index", "replay", "block-collision")


@dataclass(frozen=True)
class ForgerStrategy:
    """A concrete forgery attempt: measure q tokens, then fill a guess budget."""

    name: str
    measured: int
    guess_budget: int
    policy: str = "uniform-fresh-index"

    def __post_init__(self):
        if self.policy not in FORGER_POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.measured < 0 or self.guess_budget < self.measured:
            raise ValueError("need 0 <= measured <= guess_budget")
        if self.policy in ("replay", "block-collision") and self.measured < 1:
            raise ValueError(f"{self.policy} needs at least one measured token")


def run_forgery(
    secret, strategy: ForgerStrategy, rng: np.random.Generator
) -> tuple[int, int]:
    """Play one forgery round; returns (accepted, submitted).

    The forger measures ``strategy.measured`` honest tokens (via the emulated
    honest sampler), appends guesses per the policy up to the guess budget,
    and runs the whole batch through the bank's sequential verification. The
    round is a win when more reports are accepted than tokens were measured.
    """
    k = secret.k
    num_indices = 1 << k
    measured = [report_emulated(secret, rng) for _ in range(strategy.measured)]
    used = {r.index for r in measured}
    submissions: list[TokenReport] = list(measured)

    if strategy.policy == "replay":
        for r in measured:
            if len(submissions) >= strategy.guess_budget:
                break
            submissions.append(r)
    else:
        remaining = strategy.guess_budget - len(submissions)
        if remaining > 0:
            indices = _fresh_indices(rng, num_indices, remaining, used)
            if strategy.policy == "uniform-fresh-index":
                values = rng.integers(0, 1 << k, size=remaining, dtype=np.uint64)
                for idx, val in zip(indices, values):
                    submissions.append(TokenReport(idx, int(val), k))
            else:  # block-collision: bet that another block repeats a seen value
                for pos, idx in enumerate(indices):
                    val = measured[pos % len(measured)].value
                    submissions.append(TokenReport(idx, val, k))

    accepted = btest(secret, submissions).count("1")
    return accepted, len(submissions)


def _fresh_indices(rng, num_indices: int, count: int, used: set[int]) -> list[int]:
    """Distinct 1-based indices avoiding ``used`` (rejection sampling)."""
    if count > num_indices - len(used):
        raise ValueError("not enough fresh indices available")
    out: list[int] = []
    taken = set(used)
    while len(out) < count:
        draw = rng.integers(0, num_indices, size=count - len(out))
        for v in draw:
            idx = int(v) + 1
            if idx not in taken:
                taken.add(idx)
                out.append(idx)
                if len(out) == count:
                    break
    return out


def eval_forgery_bound(n_reports: int, q: int, y_size: int, constant: int = 5) -> float:
    """Ceiling on Pr[more than q correct pairs among n_reports distinct guesses].

    The default constant 5 is the generic query-limit form; ``constant=6``
    gives the variant used for the scheme's eps_f. Clamped to 1 outside the
    regime where the bound is meaningful.
    """
    if n_reports < 0 or q < 0 or y_size < 1:
        raise ValueError("need n_reports, q >= 0 and y_size >= 1")
    return min(1.0, constant * n_reports * (q + 1) / y_size)


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
    amp = 2.0 ** (-k / 2)
    amps = {}
    for i in range(1 << k):
        token_part = (i << k) | secret.block(i + 1)
        amps[(i << (2 * k)) | token_part] = amp
    layout = RegisterLayout([("bank", k), ("token", 2 * k)])
    return SparseState(3 * k, amps), layout


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
    amp = 2.0 ** (-k / 2)
    amps = {}
    for i in range(size):
        j = int(arr[i])
        first = (i << k) | secret.block(i + 1)
        second = (j << k) | secret.block(j + 1)
        amps[(first << n) | second] = amp
    layout = RegisterLayout([("token1", n), ("token2", n)])
    return SparseState(2 * n, amps), layout

