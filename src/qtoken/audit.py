"""Bank-auditing flows built on the swap test.

A user who wants to know whether the bank tampered with their tokens keeps
one unmeasured *pattern* token and swap-tests it against each token about to
be spent. With an honest bank all tokens of a series are identical, the swap
test returns 0 with certainty and disturbs nothing; a bank that made tokens
distinguishable gets caught with probability tied to how distinguishable it
made them.

All operations act on a single joint (possibly entangled) state so that
adversarial correlations between the bank's retained registers and the
user's tokens are expressible. Exact-probability variants are provided next
to the sampling ones: the inequality suites need 1e-9 precision.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    RegisterLayout,
    SparseState,
    measure_register,
    reduced_density,
    swap_probability,
    swap_project,
    swap_test,
    trace_distance_advantage,
)
from .scheme import unwire


class TrialDraws:
    """Uniform draws of a batch of trials, one row per trial, each row read
    left to right from its own cursor. A single trial is a batch of one."""

    __slots__ = ("matrix", "cursor")

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("draws need one row per trial")
        self.cursor = np.zeros(len(self.matrix), np.intp)

    def next(self, rows: np.ndarray) -> np.ndarray:
        """The next draw of each trial in ``rows``, advancing their cursors."""
        cols = self.cursor[rows]
        self.cursor[rows] = cols + 1
        return self.matrix[rows, cols]


def _audit(
    joint: SparseState,
    layout: RegisterLayout,
    pattern: str,
    tokens: tuple[str, ...],
    draws: TrialDraws,
) -> list[tuple[int, int] | None]:
    """Swap-test the pattern against each of ``tokens`` in turn, then measure
    the last one: per trial, None at the first fired test, else its report.

    A trial reads one draw per swap test it reaches and one for the
    measurement. Every trial that passes a test is left in the same state,
    the test's exact projection, so the batch shares one state per step.
    """
    width = layout.width(tokens[-1])
    if width % 2 != 0:
        raise ValueError("token register width must be even")
    reports: list[tuple[int, int] | None] = [None] * len(draws.matrix)
    rows = np.arange(len(draws.matrix))
    state = joint
    for tok in tokens:
        rows = rows[~swap_test(state, layout, pattern, tok, draws.next(rows))]
        if not rows.size:
            return reports
        state = swap_project(state, layout, pattern, tok)
    index, value = unwire(width // 2, measure_register(state, layout, tokens[-1], draws.next(rows)))
    for row, report in zip(rows.tolist(), zip(index.tolist(), value.tolist())):
        reports[row] = report
    return reports


def report_prime(
    joint: SparseState,
    layout: RegisterLayout,
    pattern: str,
    token: str,
    draws: TrialDraws,
) -> list[tuple[int, int] | None]:
    """Swap-test the token against the pattern, then measure it if clean.

    Per trial: a fired swap test aborts with a detected cheat, None. A passed
    one leaves the pattern register intact; the token register is then
    measured in the computational basis and parsed into an (index, value)
    report.
    """
    return _audit(joint, layout, pattern, (token,), draws)


def _chain_registers(layout: RegisterLayout) -> tuple[str, tuple[str, ...]]:
    """The pattern (first register) and the tokens of a chained audit's layout."""
    names = layout.names
    if len(names) < 2:
        raise ValueError("chained audit needs a pattern and at least one token")
    pattern, tokens = names[0], names[1:]
    width = layout.width(pattern)
    for t in tokens:
        if layout.width(t) != width:
            raise ValueError("all audited registers must match the pattern width")
    return pattern, tokens


def report_chain(
    joint: SparseState,
    layout: RegisterLayout,
    draws: TrialDraws,
) -> list[tuple[int, int] | None]:
    """Audit a pattern against every token register, then report the first.

    The layout's first register is the pattern; the remaining registers are
    the tokens, all of the pattern's width. Per trial, swap tests run against
    the last token first and walk down to the first; the first detected
    mismatch aborts with None. If all pass, the first token is measured, as
    in ``report_prime``.
    """
    pattern, tokens = _chain_registers(layout)
    return _audit(joint, layout, pattern, tokens[::-1], draws)


def cheat_probability(
    joint: SparseState, layout: RegisterLayout, pattern: str, token: str
) -> float:
    """Exact abort probability of a single pattern-vs-token audit."""
    return swap_probability(joint, layout, pattern, token)


def chain_cheat_probability(joint: SparseState, layout: RegisterLayout) -> float:
    """Exact abort probability of the chained audit, via exact pass post-states."""
    pattern, tokens = _chain_registers(layout)
    total = 0.0
    reach = 1.0
    state = joint
    for tok in reversed(tokens):
        p1 = swap_probability(state, layout, pattern, tok)
        total += reach * p1
        pass_mass = reach * (1.0 - p1)
        if pass_mass < 1e-15:
            break
        state = swap_project(state, layout, pattern, tok)
        reach *= 1.0 - p1
    return min(total, 1.0)


class AnonymityGap(NamedTuple):
    advantage: float
    detection_bound: float


def anonymity_gap(
    chi: SparseState,
    layout: RegisterLayout,
    bank: str,
    token_a: str,
    token_b: str,
) -> AnonymityGap:
    """Distinguishing advantage between two token slots versus its audit bound.

    ``advantage`` is the optimal probability of telling "bank side plus token
    a" apart from "bank side plus token b" (1/2 + trace distance / 4);
    ``detection_bound`` is 1/2 + sqrt(p) where p is the exact probability
    that a swap test between the two token registers fires. Callers assert
    advantage <= detection_bound.
    """
    if layout.width(token_a) != layout.width(token_b):
        raise ValueError("token registers must have equal widths")
    sigma_a = reduced_density(chi, layout, [bank, token_a])
    sigma_b = reduced_density(chi, layout, [bank, token_b])
    advantage = trace_distance_advantage(sigma_a, sigma_b)
    p_detect = swap_probability(chi, layout, token_a, token_b)
    return AnonymityGap(advantage, 0.5 + float(np.sqrt(p_detect)))
