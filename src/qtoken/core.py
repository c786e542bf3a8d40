"""Sparse pure-state simulation over named qubit registers.

A pure state on ``num_qubits`` qubits is stored as a map from basis index to
complex amplitude; amplitudes below the pruning threshold are never stored.
Token states have 2^k nonzero amplitudes inside a 2^(2k)-dimensional space,
so the sparse map keeps multi-token joint states cheap well past the point
where dense vectors give up.

Conventions:

* The register at offset 0 occupies the *most significant* bits of the basis
  index, so ``tensor(a, b)`` is a shift-and-or on indices.
* States are immutable values: every operation returns a new state and never
  mutates its inputs, so states can be shared freely across threads.
* Every sampling operation takes its uniform draws in [0, 1) explicitly: one
  float samples one trial, an array of draws samples one trial per draw, and
  both go through the same code. There is no global randomness anywhere in
  this package.

Because a state never changes, whatever is computed from it alone stays
true for as long as the state lives, so each state keeps a small memo of the
results that sampling reads again and again: the swap-test split of a
register pair (outcome-1 probability and the symmetric post-state) and the
outcome marginal of a register (values and running probability sums).
Entries are keyed by the register fields (shifts and mask), never by a
layout's identity, and the symmetric post-state is normalised the first time
it is returned. A sample is then one comparison or one sorted search of its
draw, and a batch of draws is one array operation. Two threads filling the
same entry compute the same value, so the race is benign. The sampled swap
test, its exact probability and its exact projection all read the one
memoised split, so a state's register pair is walked once.

The swap test is implemented as what it is mathematically: a two-outcome
projective measurement onto the symmetric subspace (outcome 0, projector
(I + SWAP)/2) and the antisymmetric subspace (outcome 1, (I - SWAP)/2) of a
pair of equal-width registers. Sampling it yields the outcome; the state a
passed test leaves (the pattern token of an audit) is the exact projection
``swap_project``, the same for every trial that passed. A register
measurement ends the flow, so it yields only its outcome. Exact outcome
probabilities are available alongside the sampling form, because the
inequality suites need 1e-9 precision that sampling cannot deliver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

PRUNE_THRESHOLD = 1e-12
NORM_TOL = 1e-9
DENSE_QUBIT_LIMIT = 12


class SparseState:
    """Normalized pure state, stored as {basis index: amplitude}."""

    __slots__ = ("num_qubits", "amplitudes", "_memo")

    def __init__(self, num_qubits: int, amplitudes: Mapping[int, complex]):
        if num_qubits < 1:
            raise ValueError("state needs at least one qubit")
        dim = 1 << num_qubits
        # A NaN is kept here, not pruned, so that the norm check below sees it.
        amps = {
            int(i): complex(a)
            for i, a in amplitudes.items()
            if not abs(a) <= PRUNE_THRESHOLD
        }
        if not amps:
            raise ValueError("state has no amplitude above the pruning threshold")
        for i in amps:
            if not 0 <= i < dim:
                raise ValueError(f"basis index {i} out of range for {num_qubits} qubits")
        norm_sq = sum(abs(a) ** 2 for a in amps.values())
        if not math.isfinite(norm_sq):
            raise ValueError(f"state norm^2 = {norm_sq!r} is not finite")
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm_sq!r} is not 1 within {NORM_TOL}")
        self.num_qubits = num_qubits
        self.amplitudes = amps
        self._memo = None

    def __repr__(self) -> str:
        return f"SparseState(num_qubits={self.num_qubits}, nonzeros={len(self.amplitudes)})"


class RegisterLayout:
    """Named contiguous qubit registers covering a state left to right.

    Registers are laid out in declaration order starting at offset 0, so they
    are disjoint and cover the whole width by construction.
    """

    __slots__ = ("num_qubits", "_fields", "_order")

    def __init__(self, registers: Sequence[tuple[str, int]]):
        offset = 0
        fields: dict[str, tuple[int, int]] = {}
        order = []
        for name, width in registers:
            if width < 1:
                raise ValueError(f"register {name!r} must have positive width")
            if name in fields:
                raise ValueError(f"duplicate register name {name!r}")
            fields[name] = (offset, width)
            order.append(name)
            offset += width
        if not fields:
            raise ValueError("layout needs at least one register")
        self.num_qubits = offset
        self._fields = fields
        self._order = tuple(order)

    @property
    def names(self) -> tuple[str, ...]:
        return self._order

    def width(self, name: str) -> int:
        return self._fields[name][1]

    def shift(self, name: str) -> int:
        """Right-shift that brings this register's bits to the low end."""
        offset, width = self._fields[name]
        return self.num_qubits - offset - width

    def mask(self, name: str) -> int:
        return (1 << self._fields[name][1]) - 1

    def __repr__(self) -> str:
        regs = ", ".join(f"{n}:{self.width(n)}" for n in self._order)
        return f"RegisterLayout({regs})"


@dataclass(frozen=True)
class DensityMatrix:
    """Dense density matrix; Hermitian, unit trace, PSD within tolerance."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __post_init__(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries shape {m.shape} is not square")
        # Blocks of 256 rows bound the temporaries of m - m^H; the largest
        # block maximum is the maximum over the whole matrix.
        rows = 256
        worst = np.max([
            np.max(np.abs(m[r : r + rows] - m[:, r : r + rows].conj().T))
            for r in range(0, self.dim, rows)
        ])
        if worst > NORM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        trace = np.trace(m)
        if abs(trace.real - 1.0) > NORM_TOL or abs(trace.imag) > NORM_TOL:
            raise ValueError("density matrix trace is not 1 within tolerance")
        # Full eigenvalue checks get expensive; keep them for desk-scale dims.
        if self.dim <= 256 and np.linalg.eigvalsh(m).min() < -NORM_TOL:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")


def _adopt_state(num_qubits: int, amplitudes: dict[int, complex]) -> SparseState:
    """Internal constructor for amplitude maps already known to be valid."""
    state = SparseState.__new__(SparseState)
    state.num_qubits = num_qubits
    state.amplitudes = amplitudes
    state._memo = None
    return state


def uniform_state(num_qubits: int, keys: Sequence[int]) -> SparseState:
    """Equal-weight state over distinct basis indices, stored in the given order."""
    amps = dict.fromkeys(keys, complex(len(keys) ** -0.5))
    if len(amps) != len(keys):
        raise ValueError("basis indices of a uniform state must be distinct")
    return _adopt_state(num_qubits, amps)


def _memoized(state: SparseState, key: tuple, compute):
    """``compute()``, kept on ``state`` under ``key`` after the first call."""
    memo = state._memo
    if memo is None:
        memo = state._memo = {}
    value = memo.get(key)
    if value is None:
        value = memo[key] = compute()
    return value


def _normalized_state(num_qubits: int, amplitudes: dict[int, complex], norm_sq: float) -> SparseState:
    if norm_sq <= 0.0:
        raise ValueError("cannot normalize a zero state")
    scale = 1.0 / math.sqrt(norm_sq)
    out = {}
    for i, a in amplitudes.items():
        a *= scale
        if abs(a) > PRUNE_THRESHOLD:
            out[i] = a
    return _adopt_state(num_qubits, out)


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Tensor product; ``a`` occupies the high bits of the combined index."""
    shift = b.num_qubits
    amps = {}
    for x, ax in a.amplitudes.items():
        base = x << shift
        for y, by in b.amplitudes.items():
            amps[base | y] = ax * by
    return SparseState(a.num_qubits + b.num_qubits, amps)


def _marginal(state: SparseState, shift: int, mask: int) -> tuple[np.ndarray, np.ndarray, float]:
    """One register field's outcome values in first-seen order, their running
    probability sums with the last one made infinite, and the total
    probability."""
    weights: dict[int, float] = {}
    for idx, amp in state.amplitudes.items():
        val = (idx >> shift) & mask
        if val in weights:
            weights[val] += abs(amp) ** 2
        else:
            weights[val] = abs(amp) ** 2
    # Values of a register wider than 63 qubits stay Python ints.
    values = np.fromiter(weights, np.int64 if mask >> 63 == 0 else object, len(weights))
    accs = np.fromiter(accumulate(weights.values()), float, len(weights))
    accs[-1] = math.inf
    return values, accs, sum(weights.values())


def measure_register(
    state: SparseState,
    layout: RegisterLayout,
    reg: str,
    draw: float | np.ndarray,
):
    """Computational-basis measurement of one register per uniform draw: the
    register's value, or an array of values for an array of draws."""
    if layout.num_qubits != state.num_qubits:
        raise ValueError("layout width does not match state width")
    shift = layout.shift(reg)
    mask = layout.mask(reg)
    values, accs, total = _memoized(
        state, ("reg", shift, mask), lambda: _marginal(state, shift, mask)
    )
    # The first value whose running sum exceeds the draw; rounding can leave
    # the draw at or above the last sum, which is why that one is infinite.
    return values[accs.searchsorted(draw * total, "right")]


def _swap_fields(layout: RegisterLayout, reg_a: str, reg_b: str) -> tuple[int, int, int]:
    """(shift_a, shift_b, mask) of two equal-width registers."""
    if layout.width(reg_a) != layout.width(reg_b):
        raise ValueError(
            f"registers {reg_a!r} and {reg_b!r} have different widths"
        )
    return layout.shift(reg_a), layout.shift(reg_b), layout.mask(reg_a)


def _swap_parts(state: SparseState, sa: int, sb: int, mask: int) -> list:
    """[||minus||^2, plus] for the components plus/minus = (v +/- SWAP v)/2.

    Walks each orbit of the swap permutation, which exchanges the two
    register fields of an index, once: fixed points go straight to the
    symmetric part, two-element orbits split between both parts.
    """
    amps = state.amplitudes
    plus: dict[int, complex] = {}
    p1 = 0.0
    for idx, v in amps.items():
        flip = ((idx >> sa) ^ (idx >> sb)) & mask
        j = idx ^ (flip << sa) ^ (flip << sb)
        if j == idx:
            plus[idx] = v
            continue
        w = amps.get(j)
        if w is not None:
            if j < idx:
                continue
            s = (v + w) / 2.0
            d = (v - w) / 2.0
        else:
            s = v / 2.0
            d = s
        if s.real or s.imag:
            plus[idx] = s
            plus[j] = s
        if d.real or d.imag:
            p1 += 2.0 * (d.real * d.real + d.imag * d.imag)
    return [min(max(p1, 0.0), 1.0), plus]


def _split(state: SparseState, layout: RegisterLayout, reg_a: str, reg_b: str) -> list:
    """The state's memoised ``_swap_parts`` for one register pair."""
    if layout.num_qubits != state.num_qubits:
        raise ValueError("layout width does not match state width")
    fields = _swap_fields(layout, reg_a, reg_b)
    return _memoized(state, ("swap", *fields), lambda: _swap_parts(state, *fields))


def swap_probability(
    state: SparseState, layout: RegisterLayout, reg_a: str, reg_b: str
) -> float:
    """Exact probability of swap-test outcome 1, without sampling or collapse."""
    return _split(state, layout, reg_a, reg_b)[0]


def swap_test(
    state: SparseState,
    layout: RegisterLayout,
    reg_a: str,
    reg_b: str,
    draw: float | np.ndarray,
):
    """Projective swap test between two registers of a joint state, once per
    uniform draw: True where it fires, a bool array for an array of draws.

    The test fires (outcome 1, the antisymmetric subspace) when the draw is
    below ||(v - SWAP v)/2||^2. Where it passes, the state left behind is
    ``swap_project``'s renormalized projection onto the symmetric subspace.
    """
    return draw < _split(state, layout, reg_a, reg_b)[0]


def swap_project(
    state: SparseState, layout: RegisterLayout, reg_a: str, reg_b: str
) -> SparseState:
    """Exact post-measurement state of a passed swap test, normalised once and kept."""
    split = _split(state, layout, reg_a, reg_b)
    if 1.0 - split[0] < 1e-15:
        raise ValueError("symmetric component has (near) zero weight")
    if isinstance(split[1], dict):
        split[1] = _normalized_state(state.num_qubits, split[1], 1.0 - split[0])
    return split[1]


def reduced_density(
    state: SparseState,
    layout: RegisterLayout,
    keep: str | Sequence[str],
) -> DensityMatrix:
    """Partial trace keeping the named registers, in the given order.

    The kept registers may be listed in any order; the resulting matrix is
    indexed by their concatenated bit fields in that order (so callers can
    ask for "register 0 followed by register 2" and the like).
    """
    if layout.num_qubits != state.num_qubits:
        raise ValueError("layout width does not match state width")
    kept_names = [keep] if isinstance(keep, str) else list(keep)
    if not kept_names:
        raise ValueError("must keep at least one register")
    if len(set(kept_names)) != len(kept_names):
        raise ValueError("kept registers must be distinct")
    kept_width = sum(layout.width(n) for n in kept_names)
    if kept_width > DENSE_QUBIT_LIMIT:
        raise ValueError(
            f"kept registers span {kept_width} qubits, "
            f"above the dense limit {DENSE_QUBIT_LIMIT}"
        )
    amps = state.amplitudes
    # Indices wider than 64 bits stay Python ints in an object array.
    idx = np.fromiter(amps, np.uint64 if state.num_qubits <= 64 else object, len(amps))
    vals = np.fromiter(amps.values(), complex, len(amps))
    kept = np.zeros(len(amps), np.intp)
    kept_bits = 0
    for n in kept_names:
        shift, mask = layout.shift(n), layout.mask(n)
        kept = (kept << layout.width(n)) | ((idx >> shift) & mask).astype(np.intp)
        kept_bits |= mask << shift
    # The traced fields of an index are its bits outside the kept registers.
    # Amplitudes that share them form one group; groups are ranked in
    # first-seen order and stably sorted, so each keeps its state order.
    env = (idx & ((1 << state.num_qubits) - 1 - kept_bits)).tolist()
    rank = {e: r for r, e in enumerate(dict.fromkeys(env))}
    group = np.fromiter(map(rank.__getitem__, env), np.intp, len(env))
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group)
    kept, re, im = kept[order], vals.real[order], vals.imag[order]

    # Every within-group pair (a, b), a-major, in group order: the scalar
    # walk's order, so np.add.at sums each cell's terms in the same sequence.
    reps = np.repeat(sizes, sizes)
    ends = np.cumsum(reps)
    group_start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    a = np.repeat(np.arange(len(reps)), reps)
    b = np.arange(ends[-1]) + np.repeat(group_start - (ends - reps), reps)
    dim = 1 << kept_width
    cell = kept[a] * dim + kept[b]
    # Python's amp_a * amp_b.conjugate(), part by part, without fused ops,
    # added into the real and imaginary views of the matrix.
    ar, ai, br, nbi = re[a], im[a], re[b], -im[b]
    rho = np.zeros(dim * dim, complex)
    np.add.at(rho.real, cell, ar * br - ai * nbi)
    np.add.at(rho.imag, cell, ar * nbi + ai * br)
    return DensityMatrix(rho.reshape(dim, dim))


def trace_distance_advantage(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """Optimal single-measurement distinguishing probability between two states.

    Equals 1/2 + ||r1 - r2||_1 / 4, computed through the Hermitian
    eigendecomposition of the difference matrix.
    """
    if r1.dim != r2.dim:
        raise ValueError("density matrices have different dimensions")
    eigs = np.linalg.eigvalsh(r1.entries - r2.entries)
    return 0.5 + 0.25 * float(np.sum(np.abs(eigs)))


def swap_probability_density(rho: DensityMatrix) -> float:
    """Swap-test outcome-1 probability (1 - Tr[SWAP rho]) / 2 for a mixed state
    over two equal halves."""
    half_dim = math.isqrt(rho.dim)
    if half_dim * half_dim != rho.dim:
        raise ValueError("density matrix is not over two equal-width registers")
    # SWAP-diagonal entries rho[a*h + b, b*h + a], summed in (a, b) order.
    a, b = np.divmod(np.arange(rho.dim), half_dim)
    tr = 0.0
    for x in rho.entries[a * half_dim + b, b * half_dim + a].real.tolist():
        tr += x
    return min(max((1.0 - tr) / 2.0, 0.0), 1.0)


def random_state(num_qubits: int, rng: np.random.Generator) -> SparseState:
    """Haar-random pure state (dense support; meant for small widths)."""
    dim = 1 << num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    amps = dict(enumerate(vec.tolist()))
    # Summed the way the validating constructor sums, which keeps every bit.
    return _normalized_state(num_qubits, amps, sum(abs(a) ** 2 for a in amps.values()))
