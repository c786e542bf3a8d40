"""The quantum token scheme with classical verification.

The bank's secret S is a table of 2^k blocks of k bits; ``SecretString``
holds exactly that shape. The bank mints a series of *identical* 2k-qubit
states

    sum over i in [2^k] of |i-1> |block_i(S)| / 2^(k/2)

Redeeming a token means measuring it in the computational basis, which yields
a classical pair (I, R) with R equal to the I-th block; the bank accepts a
report when the block matches and the exact pair has not been submitted
before. Identical tokens cannot be traced, and measurement statistics keep
double spending and forgery in check.

Parameters for security parameter k (with 4 | k):

    n = 2k qubits per token          m = k * 2^k secret bits
    cap_mint = 2^(k/4) - 1 tokens    cap_test = 2^(k/2) verification attempts
    t = 2k report bits               eps_l = 2^(-k/2), eps_f = 6 * 2^(-k/4)

``report_emulated`` samples the honest report distribution (uniform index,
matching block) without building any quantum state, which is what makes
large-k Monte Carlo runs affordable.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import RegisterLayout, SparseState, measure_register, uniform_state
from .stats import _pcg_outputs


class MintCapExceeded(UserWarning):
    """More tokens requested than the scheme's per-series cap."""


@dataclass(frozen=True)
class SchemeParams:
    """Derived parameter bundle for the quantum scheme at security level k."""

    k: int
    n: int
    m: int
    cap_mint: int
    cap_test: int
    t: int
    eps_l: float
    eps_f: float

    @classmethod
    @lru_cache(maxsize=None)
    def for_k(cls, k: int) -> SchemeParams:
        if k < 4 or k % 4 != 0:
            raise ValueError("security parameter k must be a positive multiple of 4")
        return cls(
            k=k,
            n=2 * k,
            m=k * 2**k,
            cap_mint=2 ** (k // 4) - 1,
            cap_test=2 ** (k // 2),
            t=2 * k,
            eps_l=2.0 ** (-k / 2),
            eps_f=6.0 * 2.0 ** (-k / 4),
        )


class SecretString:
    """The bank's secret for one series, viewed as its table of 2^k k-bit blocks.

    Block i (1-based) is the substring of the secret at bit offsets
    [k*(i-1), k*i). Hex serialization packs the blocks back into the flat
    bit string of k * 2^k bits. The table is a read-only ``uint64`` copy of
    the blocks it was built from.
    """

    __slots__ = ("k", "series_id", "_blocks")

    def __init__(self, k: int, blocks: Sequence[int] | np.ndarray, series_id: str = "s0"):
        if k < 1:
            raise ValueError("k must be positive")
        arr = np.asarray(blocks)
        if arr.shape != (1 << k,):
            raise ValueError(f"a secret for k={k} must be a 1-d table of 2^{k} blocks")
        if arr.dtype.kind not in "iu":
            raise ValueError(f"a secret's blocks must be integers, not {arr.dtype}")
        if int(arr.min()) < 0 or int(arr.max()) >= 1 << k:
            raise ValueError(f"block value out of range for k={k}")
        self.k = k
        self.series_id = series_id
        self._blocks = arr.astype(np.uint64)
        self._blocks.flags.writeable = False

    @classmethod
    def random(cls, k: int, rng: np.random.Generator, series_id: str = "s0") -> SecretString:
        """A uniform secret: the table ``rng.integers(0, 2^k, size=2^k, dtype=uint64)``."""
        return cls(k, rng.integers(0, 1 << k, size=1 << k, dtype=np.uint64), series_id)

    def block(self, index: int) -> int:
        """Value of block ``index`` (1-based)."""
        if not 1 <= index <= 1 << self.k:
            raise ValueError(f"block index {index} out of range")
        return int(self._blocks[index - 1])

    def blocks(self, indices=None) -> np.ndarray:
        """The ``uint64`` values of the blocks at the 1-based ``indices``, an
        array of any shape, or the whole read-only table when ``indices`` is None."""
        if indices is None:
            return self._blocks
        idx = np.asarray(indices)
        if idx.size and (idx.min() < 1 or idx.max() > self._blocks.size):
            raise ValueError(f"block index out of range [1, {self._blocks.size}]")
        return self._blocks[idx - 1]

    def to_hex(self) -> str:
        k = self.k
        if (k << k) % 4 != 0:
            raise ValueError("secret bit length is not a multiple of 4")
        # Past k = 1 the bit length is whole bytes. Each block's big-endian
        # bytes, cut to its low k bits, are packed back to back.
        raw = self.blocks().astype(">u4").view(np.uint8).reshape(-1, 4)
        bits = np.unpackbits(raw[:, (32 - k) // 8:], axis=1)[:, (32 - k) % 8:]
        return np.packbits(bits).tobytes().hex()

    @classmethod
    def from_hex(cls, k: int, hex_string: str, series_id: str = "s0") -> SecretString:
        if k < 1 or len(hex_string) * 4 != k << k:
            raise ValueError(f"hex length does not hold 2^k blocks of k={k} bits")
        # bytes.fromhex would also skip whitespace between digit pairs.
        if re.fullmatch("[0-9a-fA-F]*", hex_string) is None:
            raise ValueError("a secret's hex holds only the digits 0-9, a-f and A-F")
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(hex_string), np.uint8))
        # Each block's k bits go at the low end of a 32-bit big-endian word.
        words = np.zeros((1 << k, 32), dtype=np.uint8)
        words[:, 32 - k:] = bits.reshape(-1, k)
        return cls(k, np.packbits(words).view(">u4").astype(np.uint64), series_id)


def skip_secret(k: int, rng: np.random.Generator) -> tuple[int, int, int, int]:
    """Move ``rng`` past the secret ``SecretString.random(k, rng)`` would draw,
    without drawing it; returns the PCG64 start limbs
    ``(s_hi, s_lo, inc_hi, inc_lo)`` that ``read_blocks`` reads it from.

    ``integers`` over a power-of-two range 2^k <= 2^32 never rejects under
    Lemire's multiply-shift: each block is the top k bits of one 32-bit word,
    and each 64-bit PCG64 output gives two words, low half first. So from a
    PCG64 holding no pending 32-bit half the table is the next 2^(k-1) raw
    outputs, and ``advance`` leaves the generator where drawing them would.
    Any other bit generator, a pending half, or k outside [1, 32] raises
    ``ValueError``.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64 or not 1 <= k <= 32:
        raise ValueError("only a PCG64 secret of 1 <= k <= 32 can be skipped")
    state = bitgen.state
    if state["has_uint32"]:
        raise ValueError("the generator holds a pending 32-bit half")
    bitgen.advance(1 << (k - 1))
    start = state["state"]
    return (*divmod(start["state"], 1 << 64), *divmod(start["inc"], 1 << 64))


# Secrets per limb pass of ``read_blocks``: at k=16 a pass over 256 forgery
# rounds took about 4 MB more peak memory than passes of 32, at the same speed.
_READ_ROWS = 32


def read_blocks(k: int, starts, indices) -> np.ndarray:
    """Row r holds the blocks at the 1-based ``indices[r]`` of the secret
    ``skip_secret`` skipped at start limbs ``starts[r]``.

    Its n-th raw output is the state n LCG steps on, one jump
    (``stats._pcg_jumps``), so no table is built. An index outside [1, 2^k]
    raises ``ValueError``.
    """
    idx = np.asarray(indices)
    if idx.ndim != 2 or idx.shape[0] != len(starts):
        raise ValueError("indices need one row per start state")
    out = np.empty(idx.shape, dtype=np.uint64)
    if not idx.size:
        return out
    if idx.min() < 1 or idx.max() > 1 << k:
        raise ValueError(f"block index out of range [1, {1 << k}]")
    limbs = np.array(starts, dtype=np.uint64).T[..., None]
    # Block i is half (i-1) % 2 of output (i-1) // 2 + 1, cut to its top k bits.
    pos = idx.astype(np.uint64) - 1
    for c in range(0, len(pos), _READ_ROWS):
        rows = slice(c, c + _READ_ROWS)
        raw = _pcg_outputs(limbs[:, rows], (pos[rows] >> 1) + 1, 1 << (k - 1))
        out[rows] = (raw >> ((pos[rows] & 1) << 5) + (32 - k)) & ((1 << k) - 1)
    return out


def wire(k: int, index: int, value: int) -> int:
    """The 2k-bit serialized form of the pair (index, value): big-endian (I-1), then R.

    Integer arrays of indices and values give the array of their wire forms.
    """
    return ((index - 1) << k) | value


def unwire(k: int, wire: int) -> tuple[int, int]:
    """The pair (index, value) that a 2k-bit wire form encodes."""
    return (wire >> k) + 1, wire & ((1 << k) - 1)


class Ledger:
    """Freshness ledger of one series: every spent pair and the attempt count.

    A pair (I, R) is spent, by its 2k-bit wire form, once it has been
    submitted for verification, valid or not, or consumed as a one-time pad.
    A spent pair never authorizes anything again. ``cap`` bounds the number
    of verification attempts; ``None`` leaves them unbounded.
    """

    __slots__ = ("secret", "k", "cap", "attempts", "spent")

    def __init__(self, secret: SecretString, cap: int | None = None):
        self.secret = secret
        self.k = secret.k
        self.cap = cap
        self.attempts = 0
        self.spent: dict[int, bool] = {}  # wire -> consumed as a pad

    def check(self, index: int, value: int) -> str | None:
        """Why verifying (index, value) now would be rejected, or None. Pure.

        Within the budget, an index outside [1, 2^k] or a value outside
        [0, 2^k) raises ``ValueError``: such a value would OR into the index
        bits of its wire form and spend another pair.
        """
        if self.cap is not None and self.attempts >= self.cap:
            return "budget-exhausted"
        if not 0 <= value < 1 << self.k:
            raise ValueError(f"report value {value} out of range [0, {1 << self.k})")
        if self.secret.block(index) != value:
            return "bad-value"
        if wire(self.k, index, value) in self.spent:
            return "double-spend"
        return None

    def verify(self, index: int, value: int) -> str | None:
        """Decide one verification attempt; unless over budget, count it and spend its pair."""
        reason = self.check(index, value)
        if reason != "budget-exhausted":
            self.attempts += 1
            self.spent.setdefault(wire(self.k, index, value), False)
        return reason

    def pad(self, index: int) -> int | None:
        """The pad block_index(S), or None if its pair is already spent. Pure."""
        pad = self.secret.block(index)
        return None if wire(self.k, index, pad) in self.spent else pad

    def spend_pad(self, index: int) -> None:
        """Consume the pad block_index(S)."""
        self.spent[wire(self.k, index, self.secret.block(index))] = True

    def pads(self) -> list[int]:
        """Wire forms of the consumed pads, ascending."""
        return sorted(w for w, pad in self.spent.items() if pad)


@lru_cache(maxsize=None)
def _token_layout(k: int) -> RegisterLayout:
    return RegisterLayout([("token", 2 * k)])


def token_wires(secret: SecretString) -> list[int]:
    """Wire forms of the series' 2^k valid pairs (i, block_i), in index order."""
    indices = np.arange(1, (1 << secret.k) + 1, dtype=np.uint64)
    return wire(secret.k, indices, secret.blocks()).tolist()


def token_state(secret: SecretString) -> SparseState:
    """The series' single token state: uniform over (i-1, block_i) pairs."""
    return uniform_state(2 * secret.k, token_wires(secret))


def mint(secret: SecretString, count: int) -> list[SparseState]:
    """Mint ``count`` identical tokens for one series: one immutable state, shared.

    Requesting more than the per-series cap is allowed for experiments but
    flagged with a ``MintCapExceeded`` warning.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if secret.k % 4 == 0 and secret.k >= 4:
        cap = SchemeParams.for_k(secret.k).cap_mint
        if count > cap:
            warnings.warn(
                f"minting {count} tokens exceeds the series cap {cap}",
                MintCapExceeded,
                stacklevel=2,
            )
    return [token_state(secret)] * count


def report(token: SparseState, rng: np.random.Generator) -> tuple[int, int]:
    """Measure a token in the computational basis: one (index, value) pair."""
    if token.num_qubits % 2 != 0:
        raise ValueError("token must have an even number of qubits")
    k = token.num_qubits // 2
    return unwire(k, int(measure_register(token, _token_layout(k), "token", rng.random())))


def report_emulated(
    secret: SecretString, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` honest reports directly: uniform I, R = block_I.

    Returns the 1-based indices and their block values as two arrays.
    """
    indices = rng.integers(0, 1 << secret.k, size=count) + 1
    return indices, secret.blocks(indices)


def btest(k: int, indices, values, blocks) -> np.ndarray:
    """Run (index, value) pairs through fresh ledgers at once: one row, one ledger.

    ``indices`` and ``values`` are 1-d for one ledger, a batch of one row, or
    2-d with a fresh ledger per row, and ``blocks`` holds the true block at
    each position, so rows may come from different series of one k. Returns
    one acceptance flag per position, as a sequential ``Ledger`` would decide
    each row: a pair is accepted when its value is the block at its index and
    it is the first submission of its wire form in its row, since every
    submission is spent whether or not it is accepted.

    A row never exceeds the attempt budget, so the budget needs no check per
    pair. An index outside [1, 2^k] or a value outside [0, 2^k) raises
    ``ValueError``.
    """
    cap = SchemeParams.for_k(k).cap_test
    idx = np.asarray(indices, dtype=np.int64)
    val = np.asarray(values, dtype=np.int64)
    if idx.ndim not in (1, 2) or idx.shape != val.shape:
        raise ValueError("indices and values must be 1-d or 2-d and of equal shape")
    if idx.shape[-1] > cap:
        raise ValueError(f"{idx.shape[-1]} reports exceed the attempt budget {cap}")
    if idx.size == 0:
        return np.zeros(idx.shape, dtype=bool)
    size = 1 << k
    if idx.min() < 1 or idx.max() > size:
        raise ValueError(f"block index out of range [1, {size}]")
    if val.min() < 0 or val.max() >= size:
        raise ValueError(f"report value out of range [0, {size})")
    truth = np.asarray(blocks)
    if truth.shape != idx.shape:
        raise ValueError("blocks must match the shape of indices")
    # A stable sort per row puts each wire form's first submission first; no
    # wire form is -1, so every row's first sorted pair counts as new.
    rows = wire(k, idx, val).reshape(-1, idx.shape[-1])
    order = np.argsort(rows, axis=1, kind="stable")
    new = np.diff(np.take_along_axis(rows, order, axis=1), axis=1, prepend=-1) != 0
    fresh = np.empty_like(new)
    np.put_along_axis(fresh, order, new, axis=1)
    return (truth.astype(np.int64, copy=False) == val) & fresh.reshape(idx.shape)
