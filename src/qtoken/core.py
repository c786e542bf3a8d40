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
* Every sampling operation takes an explicit ``numpy.random.Generator``;
  there is no global randomness anywhere in this package.

The swap test is implemented as what it is mathematically: a two-outcome
projective measurement onto the symmetric subspace (outcome 0, projector
(I + SWAP)/2) and the antisymmetric subspace (outcome 1, (I - SWAP)/2) of a
pair of equal-width registers. Exact outcome probabilities and exact
post-measurement states are available alongside the sampling form, because
the inequality suites need 1e-9 precision that sampling cannot deliver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

PRUNE_THRESHOLD = 1e-12
NORM_TOL = 1e-9
DENSE_QUBIT_LIMIT = 12


class SparseState:
    """Normalized pure state, stored as {basis index: amplitude}."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(
        self,
        num_qubits: int,
        amplitudes: Mapping[int, complex],
        *,
        normalize: bool = False,
    ):
        if num_qubits < 1:
            raise ValueError("state needs at least one qubit")
        dim = 1 << num_qubits
        amps = {
            int(i): complex(a)
            for i, a in amplitudes.items()
            if abs(a) > PRUNE_THRESHOLD
        }
        if not amps:
            raise ValueError("state has no amplitude above the pruning threshold")
        for i in amps:
            if not 0 <= i < dim:
                raise ValueError(f"basis index {i} out of range for {num_qubits} qubits")
        norm_sq = sum(abs(a) ** 2 for a in amps.values())
        if normalize:
            scale = 1.0 / math.sqrt(norm_sq)
            amps = {i: a * scale for i, a in amps.items()}
        elif abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm_sq!r} is not 1 within {NORM_TOL}")
        self.num_qubits = num_qubits
        self.amplitudes = amps

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> SparseState:
        return cls(num_qubits, {index: 1.0})

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def dense(self) -> np.ndarray:
        vec = np.zeros(1 << self.num_qubits, dtype=complex)
        for i, a in self.amplitudes.items():
            vec[i] = a
        return vec

    def __len__(self) -> int:
        return len(self.amplitudes)

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

    def offset(self, name: str) -> int:
        return self._fields[name][0]

    def shift(self, name: str) -> int:
        """Right-shift that brings this register's bits to the low end."""
        offset, width = self._fields[name]
        return self.num_qubits - offset - width

    def mask(self, name: str) -> int:
        return (1 << self._fields[name][1]) - 1

    def extract(self, index: int, name: str) -> int:
        return (index >> self.shift(name)) & self.mask(name)

    def __repr__(self) -> str:
        regs = ", ".join(f"{n}:{self.width(n)}" for n in self._order)
        return f"RegisterLayout({regs})"


@dataclass(frozen=True)
class DensityMatrix:
    """Dense density matrix; Hermitian, unit trace, PSD within tolerance."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = self.entries
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"entries shape {m.shape} does not match dim {self.dim}")
        if np.max(np.abs(m - m.conj().T)) > NORM_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > NORM_TOL or abs(np.trace(m).imag) > NORM_TOL:
            raise ValueError("density matrix trace is not 1 within tolerance")
        # Full eigenvalue checks get expensive; keep them for desk-scale dims.
        if self.dim <= 256 and np.linalg.eigvalsh(m).min() < -NORM_TOL:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")


@dataclass(frozen=True)
class SwapOutcome:
    """Result of one swap test: the measured bit and the collapsed state."""

    bit: int
    post_state: SparseState


def _adopt_state(num_qubits: int, amplitudes: dict[int, complex]) -> SparseState:
    """Internal constructor for amplitude maps already known to be valid."""
    state = SparseState.__new__(SparseState)
    state.num_qubits = num_qubits
    state.amplitudes = amplitudes
    return state


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


def tensor_all(states: Iterable[SparseState]) -> SparseState:
    out = None
    for s in states:
        out = s if out is None else tensor(out, s)
    if out is None:
        raise ValueError("tensor_all needs at least one state")
    return out


def inner_product(a: SparseState, b: SparseState) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("inner product requires equal qubit counts")
    small, big = (a.amplitudes, b.amplitudes)
    if len(small) > len(big):
        acc = sum(small[i].conjugate() * amp for i, amp in big.items() if i in small)
    else:
        acc = sum(amp.conjugate() * big[i] for i, amp in small.items() if i in big)
    return complex(acc)


def measure_register(
    state: SparseState,
    layout: RegisterLayout,
    reg: str,
    rng: np.random.Generator,
) -> tuple[str, SparseState]:
    """Computational-basis measurement of one register.

    Returns the outcome as a bit string of the register width plus the
    renormalized conditional state (measured register collapsed, everything
    else untouched).
    """
    if layout.num_qubits != state.num_qubits:
        raise ValueError("layout width does not match state width")
    shift = layout.shift(reg)
    mask = layout.mask(reg)
    weights: dict[int, float] = {}
    for idx, amp in state.amplitudes.items():
        val = (idx >> shift) & mask
        weights[val] = weights.get(val, 0.0) + abs(amp) ** 2
    x = rng.random() * sum(weights.values())
    acc = 0.0
    outcome = None
    for val, w in weights.items():
        outcome = val
        acc += w
        if x < acc:
            break
    kept = {}
    norm_sq = 0.0
    for idx, amp in state.amplitudes.items():
        if (idx >> shift) & mask == outcome:
            kept[idx] = amp
            norm_sq += amp.real * amp.real + amp.imag * amp.imag
    post = _normalized_state(state.num_qubits, kept, norm_sq)
    return format(outcome, f"0{layout.width(reg)}b"), post


def _swap_permuter(layout: RegisterLayout, reg_a: str, reg_b: str):
    """Index permutation exchanging the two (equal-width) register fields."""
    if layout.width(reg_a) != layout.width(reg_b):
        raise ValueError(
            f"registers {reg_a!r} and {reg_b!r} have different widths"
        )
    sa, sb = layout.shift(reg_a), layout.shift(reg_b)
    mask = layout.mask(reg_a)

    def permute(idx: int) -> int:
        d = ((idx >> sa) ^ (idx >> sb)) & mask
        return idx ^ (d << sa) ^ (d << sb)

    return permute


def _swap_parts(state, layout, reg_a, reg_b):
    """Symmetric and antisymmetric components (v +/- SWAP v)/2 plus ||minus||^2.

    Walks each orbit of the swap permutation once: fixed points go straight
    to the symmetric part, two-element orbits split between both parts.
    """
    permute = _swap_permuter(layout, reg_a, reg_b)
    amps = state.amplitudes
    plus: dict[int, complex] = {}
    minus: dict[int, complex] = {}
    p1 = 0.0
    for idx, v in amps.items():
        j = permute(idx)
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
            minus[idx] = d
            minus[j] = -d
            p1 += 2.0 * (d.real * d.real + d.imag * d.imag)
    return plus, minus, min(max(p1, 0.0), 1.0)


def swap_probability(
    state: SparseState, layout: RegisterLayout, reg_a: str, reg_b: str
) -> float:
    """Exact probability of swap-test outcome 1, without sampling or collapse."""
    if layout.num_qubits != state.num_qubits:
        raise ValueError("layout width does not match state width")
    permute = _swap_permuter(layout, reg_a, reg_b)
    amps = state.amplitudes
    p1 = 0.0
    for idx, v in amps.items():
        j = permute(idx)
        if j == idx:
            continue
        w = amps.get(j)
        if w is not None:
            if j < idx:
                continue
            d = (v - w) / 2.0
            p1 += 2.0 * (d.real * d.real + d.imag * d.imag)
        else:
            p1 += (v.real * v.real + v.imag * v.imag) / 2.0
    return min(max(p1, 0.0), 1.0)


def swap_test(
    state: SparseState,
    layout: RegisterLayout,
    reg_a: str,
    reg_b: str,
    rng: np.random.Generator,
) -> SwapOutcome:
    """Projective swap test between two registers of a joint state.

    Outcome 0 projects onto the symmetric subspace of the register pair with
    probability ||(v + SWAP v)/2||^2, outcome 1 onto the antisymmetric one;
    the post state is renormalized either way.
    """
    if layout.num_qubits != state.num_qubits:
        raise ValueError("layout width does not match state width")
    plus, minus, p1 = _swap_parts(state, layout, reg_a, reg_b)
    if rng.random() < p1:
        return SwapOutcome(1, _normalized_state(state.num_qubits, minus, p1))
    return SwapOutcome(0, _normalized_state(state.num_qubits, plus, 1.0 - p1))


def swap_project(
    state: SparseState,
    layout: RegisterLayout,
    reg_a: str,
    reg_b: str,
    outcome: int,
) -> SparseState:
    """Exact post-measurement state of the swap test for a forced outcome."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    if layout.num_qubits != state.num_qubits:
        raise ValueError("layout width does not match state width")
    plus, minus, p1 = _swap_parts(state, layout, reg_a, reg_b)
    if outcome == 1:
        if p1 < 1e-15:
            raise ValueError("antisymmetric component has (near) zero weight")
        return _normalized_state(state.num_qubits, minus, p1)
    if 1.0 - p1 < 1e-15:
        raise ValueError("symmetric component has (near) zero weight")
    return _normalized_state(state.num_qubits, plus, 1.0 - p1)


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
    traced = [n for n in layout.names if n not in kept_names]

    def split(idx: int) -> tuple[int, int]:
        kept_idx = 0
        for name in kept_names:
            kept_idx = (kept_idx << layout.width(name)) | layout.extract(idx, name)
        env_idx = 0
        for name in traced:
            env_idx = (env_idx << layout.width(name)) | layout.extract(idx, name)
        return kept_idx, env_idx

    groups: dict[int, list[tuple[int, complex]]] = {}
    for idx, amp in state.amplitudes.items():
        kept_idx, env_idx = split(idx)
        groups.setdefault(env_idx, []).append((kept_idx, amp))

    dim = 1 << kept_width
    rho = np.zeros((dim, dim), dtype=complex)
    for entries in groups.values():
        for a, amp_a in entries:
            for b, amp_b in entries:
                rho[a, b] += amp_a * amp_b.conjugate()
    return DensityMatrix(dim, rho)


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
    tr = 0.0
    for a in range(half_dim):
        for b in range(half_dim):
            tr += rho.entries[a * half_dim + b, b * half_dim + a].real
    return min(max((1.0 - tr) / 2.0, 0.0), 1.0)


def random_state(num_qubits: int, rng: np.random.Generator) -> SparseState:
    """Haar-random pure state (dense support; meant for small widths)."""
    dim = 1 << num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return SparseState(num_qubits, {i: vec[i] for i in range(dim)}, normalize=True)
