"""Dense numpy reference implementations used as independent oracles.

Everything here works on full statevectors with numpy reshapes, deliberately
sharing no code with the sparse engine under test. The token builders
return plain amplitude maps built one secret block at a time. Three pieces
are the engine's original code, kept as bit-exact references for what
replaced them: the scalar partial trace for the array kernel of
``reduced_density``, the prune-sum-scale normalisation for
``random_state``, and the bit-string hex conversion for the secret codec.
The two-sample chi-squared statistic compares sampled distributions in the
tests. Axis 0 of the reshaped vector is the most significant bit of the
basis index, matching the package's register ordering.
"""

from __future__ import annotations

import math

import numpy as np


def dense(state) -> np.ndarray:
    """A sparse state's full statevector."""
    vec = np.zeros(1 << state.num_qubits, dtype=complex)
    for i, a in state.amplitudes.items():
        vec[i] = a
    return vec


def normalized_amplitudes(amplitudes) -> dict[int, complex]:
    """Amplitudes scaled to unit norm the original way: those of modulus at
    most 1e-12 dropped, the squared moduli of the rest summed in map order,
    and each one multiplied by the inverse square root of that sum."""
    amps = {int(i): complex(a) for i, a in amplitudes.items() if not abs(a) <= 1e-12}
    scale = 1.0 / math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return {i: a * scale for i, a in amps.items()}


def haar_amplitudes(num_qubits: int, rng) -> dict[int, complex]:
    """A Haar-random state's amplitudes the original way: a complex Gaussian
    vector divided by its 2-norm, then ``normalized_amplitudes``."""
    dim = 1 << num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    return normalized_amplitudes(dict(enumerate(vec.tolist())))


def register_axes(layout, name) -> list[int]:
    start = sum(layout.width(n) for n in layout.names[: layout.names.index(name)])
    return list(range(start, start + layout.width(name)))


def dense_swap(vec: np.ndarray, layout, reg_a: str, reg_b: str) -> np.ndarray:
    n = layout.num_qubits
    psi = vec.reshape([2] * n)
    axes = list(range(n))
    for qa, qb in zip(register_axes(layout, reg_a), register_axes(layout, reg_b)):
        axes[qa], axes[qb] = axes[qb], axes[qa]
    return np.transpose(psi, axes).reshape(-1)


def dense_swap_probability(vec: np.ndarray, layout, reg_a: str, reg_b: str) -> float:
    swapped = dense_swap(vec, layout, reg_a, reg_b)
    return float(np.linalg.norm((vec - swapped) / 2.0) ** 2)


def dense_reduced_density(vec: np.ndarray, layout, keep: list[str]) -> np.ndarray:
    n = layout.num_qubits
    psi = vec.reshape([2] * n)
    kept_axes = [ax for name in keep for ax in register_axes(layout, name)]
    traced_axes = [ax for ax in range(n) if ax not in kept_axes]
    psi = np.transpose(psi, kept_axes + traced_axes)
    mat = psi.reshape(2 ** len(kept_axes), 2 ** len(traced_axes))
    return mat @ mat.conj().T


def scalar_reduced_density(state, layout, keep) -> np.ndarray:
    """The sparse engine's original partial trace: one Python walk that groups
    amplitudes by their traced fields in first-seen order and adds
    ``amp_a * amp_b.conjugate()`` cell by cell. The array kernel in
    ``core.reduced_density`` must reproduce it bit for bit."""
    kept_names = [keep] if isinstance(keep, str) else list(keep)
    kept_width = sum(layout.width(n) for n in kept_names)
    kept_fields = [(layout.shift(n), layout.mask(n), layout.width(n)) for n in kept_names]
    traced_fields = [
        (layout.shift(n), layout.mask(n), layout.width(n))
        for n in layout.names
        if n not in kept_names
    ]

    groups: dict[int, list[tuple[int, complex]]] = {}
    for idx, amp in state.amplitudes.items():
        kept_idx = 0
        for shift, mask, width in kept_fields:
            kept_idx = (kept_idx << width) | ((idx >> shift) & mask)
        env_idx = 0
        for shift, mask, width in traced_fields:
            env_idx = (env_idx << width) | ((idx >> shift) & mask)
        groups.setdefault(env_idx, []).append((kept_idx, amp))

    # Accumulate in a flat list of Python complex numbers: the same additions
    # in the same order as on the array, without per-element indexing costs.
    dim = 1 << kept_width
    acc = [0j] * (dim * dim)
    for entries in groups.values():
        for a, amp_a in entries:
            row = a * dim
            for b, amp_b in entries:
                acc[row + b] += amp_a * amp_b.conjugate()
    return np.array(acc, dtype=complex).reshape(dim, dim)


def dense_register_probabilities(vec: np.ndarray, layout, reg: str) -> np.ndarray:
    n = layout.num_qubits
    psi = vec.reshape([2] * n)
    axes = register_axes(layout, reg)
    others = tuple(ax for ax in range(n) if ax not in axes)
    probs = np.sum(np.abs(psi) ** 2, axis=others)
    return probs.reshape(-1)


def token_amplitudes(secret) -> dict[int, float]:
    """A token's amplitudes built one block at a time, in index order."""
    k = secret.k
    amp = 2.0 ** (-k / 2)
    return {(i << k) | secret.block(i + 1): amp for i in range(1 << k)}


def loaded_amplitudes(secret) -> dict[int, float]:
    """A loaded mint's amplitudes |i>_bank |i, block_i>_token, one block at a time."""
    k = secret.k
    amp = 2.0 ** (-k / 2)
    return {(i << 2 * k) | (i << k) | secret.block(i + 1): amp for i in range(1 << k)}


def paired_amplitudes(secret, perm) -> dict[int, float]:
    """A permutation-paired mint's amplitudes, one pair of blocks at a time."""
    k = secret.k
    amp = 2.0 ** (-k / 2)
    amps = {}
    for i, j in enumerate(int(j) for j in perm):
        first = (i << k) | secret.block(i + 1)
        second = (j << k) | secret.block(j + 1)
        amps[(first << 2 * k) | second] = amp
    return amps


def secret_hex(secret) -> str:
    """A secret's hex form the original way: the blocks' k-bit binary strings
    joined, read as one integer, and printed as k * 2^k / 4 hex digits."""
    bits = "".join(format(int(b), f"0{secret.k}b") for b in secret.blocks())
    return format(int(bits, 2), f"0{len(bits) // 4}x")


def chi_squared_two_sample(counts_a, counts_b) -> tuple[float, int]:
    """Homogeneity statistic for two count vectors over the same cells."""
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("count vectors must have the same shape")
    keep = (a + b) > 0
    a, b = a[keep], b[keep]
    na, nb = a.sum(), b.sum()
    pooled = (a + b) / (na + nb)
    stat = float(np.sum((a - na * pooled) ** 2 / (na * pooled)))
    stat += float(np.sum((b - nb * pooled) ** 2 / (nb * pooled)))
    return stat, int(a.size - 1)
