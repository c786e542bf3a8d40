"""Single-use token schemes with classical verification.

Two constructions live here. The classical one slices the bank's secret into
k-bit blocks and hands each block out as a token; it is unforgeable but every
token is unique, so the bank can trace redemptions back to users. The quantum
one mints a series of *identical* 2k-qubit states

    sum over i in [2^k] of |i-1> |block_i(S)| / 2^(k/2)

where block_i(S) is the i-th k-bit block of the secret S. Redeeming a token
means measuring it in the computational basis, which yields a classical pair
(I, R) with R equal to the I-th block; the bank accepts a report when the
block matches and the exact pair has not been submitted before. Identical
tokens cannot be traced, and measurement statistics keep double spending and
forgery in check.

Parameters for security parameter k (with 4 | k):

    n = 2k qubits per token          m = k * 2^k secret bits
    cap_mint = 2^(k/4) - 1 tokens    cap_test = 2^(k/2) verification attempts
    t = 2k report bits               eps_l = 2^(-k/2), eps_f = 6 * 2^(-k/4)

``report_emulated`` samples the honest report distribution (uniform index,
matching block) without building any quantum state, which is what makes
large-k Monte Carlo runs affordable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .core import RegisterLayout, SparseState, measure_register


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


@dataclass(frozen=True)
class ClassicalParams:
    """Parameter bundle for the classical block-voucher scheme."""

    k: int
    m: int
    cap_mint: int
    cap_test: int
    t: int
    eps_l: float
    eps_f: float

    @classmethod
    def for_k(cls, k: int) -> ClassicalParams:
        if k < 4 or k % 4 != 0:
            raise ValueError("security parameter k must be a positive multiple of 4")
        cap_mint = 2 ** (k // 4)
        return cls(
            k=k,
            m=k * cap_mint,
            cap_mint=cap_mint,
            cap_test=2 ** (k // 2),
            t=k,
            eps_l=2.0 ** (-k / 2),
            eps_f=2.0 ** (-k / 4),
        )


class SecretString:
    """The bank's secret for one series, viewed as its k-bit block table.

    Block i (1-based) is the substring of the secret at bit offsets
    [k*(i-1), k*i); the quantum scheme uses 2^k blocks, the classical one
    2^(k/4). Hex serialization packs the blocks back into the flat bit string.
    """

    __slots__ = ("k", "series_id", "_blocks")

    def __init__(self, k: int, blocks: Sequence[int] | np.ndarray, series_id: str = "s0"):
        if k < 1:
            raise ValueError("k must be positive")
        arr = np.asarray(blocks, dtype=np.uint64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("blocks must be a nonempty 1-d sequence")
        if arr.size and int(arr.max()) >= 1 << k:
            raise ValueError(f"block value out of range for k={k}")
        self.k = k
        self.series_id = series_id
        self._blocks = arr

    @classmethod
    def random(
        cls,
        k: int,
        rng: np.random.Generator,
        series_id: str = "s0",
        num_blocks: int | None = None,
    ) -> SecretString:
        count = 2**k if num_blocks is None else num_blocks
        blocks = rng.integers(0, 1 << k, size=count, dtype=np.uint64)
        return cls(k, blocks, series_id)

    @classmethod
    def random_classical(
        cls, k: int, rng: np.random.Generator, series_id: str = "s0"
    ) -> SecretString:
        return cls.random(k, rng, series_id, num_blocks=2 ** (k // 4))

    @property
    def num_blocks(self) -> int:
        return int(self._blocks.size)

    @property
    def bit_length(self) -> int:
        return self.k * self.num_blocks

    def block(self, index: int) -> int:
        """Value of block ``index`` (1-based)."""
        if not 1 <= index <= self._blocks.size:
            raise ValueError(f"block index {index} out of range")
        return int(self._blocks[index - 1])

    def bits(self) -> str:
        return "".join(format(int(b), f"0{self.k}b") for b in self._blocks)

    def to_hex(self) -> str:
        if self.bit_length % 4 != 0:
            raise ValueError("secret bit length is not a multiple of 4")
        return format(int(self.bits(), 2), f"0{self.bit_length // 4}x")

    @classmethod
    def from_hex(cls, k: int, hex_string: str, series_id: str = "s0") -> SecretString:
        bit_length = len(hex_string) * 4
        if bit_length % k != 0:
            raise ValueError("hex length does not hold a whole number of blocks")
        # int() also takes a sign or a 0x prefix; keep exactly bit_length low bits.
        value = int(hex_string, 16) & ((1 << bit_length) - 1)
        bits = format(value, f"0{bit_length}b")
        return cls(k, [int(bits[i:i + k], 2) for i in range(0, bit_length, k)], series_id)


class LazySecret:
    """Uniform block table sampled on demand.

    Statistically identical to a fresh ``SecretString.random(k, rng)`` but only
    materializes the blocks that are actually read, so forgery experiments at
    k = 16 do not pay for 2^16 blocks per trial.
    """

    __slots__ = ("k", "series_id", "num_blocks", "_cache", "_rng", "_buf", "_pos")

    def __init__(self, k: int, rng: np.random.Generator, series_id: str = "s0"):
        self.k = k
        self.series_id = series_id
        self.num_blocks = 2**k
        self._cache: dict[int, int] = {}
        self._rng = rng
        self._buf = rng.integers(0, 1 << k, size=64, dtype=np.uint64)
        self._pos = 0

    def block(self, index: int) -> int:
        if not 1 <= index <= self.num_blocks:
            raise ValueError(f"block index {index} out of range")
        value = self._cache.get(index)
        if value is None:
            if self._pos >= self._buf.size:
                self._buf = self._rng.integers(0, 1 << self.k, size=256, dtype=np.uint64)
                self._pos = 0
            value = int(self._buf[self._pos])
            self._pos += 1
            self._cache[index] = value
        return value


@dataclass(frozen=True, slots=True)
class TokenReport:
    """Classical redemption message: index I in [1, 2^k] and a k-bit value."""

    index: int
    value: int
    k: int

    def __post_init__(self):
        if not 1 <= self.index <= 1 << self.k:
            raise ValueError(f"report index {self.index} out of range for k={self.k}")
        if not 0 <= self.value < 1 << self.k:
            raise ValueError(f"report value out of range for k={self.k}")

    def wire(self) -> int:
        """The 2k-bit serialized form: big-endian (I-1) followed by R."""
        return ((self.index - 1) << self.k) | self.value

    def bits(self) -> str:
        return format(self.wire(), f"0{2 * self.k}b")

    def to_hex(self) -> str:
        if self.k % 2 != 0:
            raise ValueError("hex form needs k divisible by 2")
        return format(self.wire(), f"0{self.k // 2}x")

    @classmethod
    def from_hex(cls, k: int, hex_string: str) -> TokenReport:
        wire = int(hex_string, 16)
        return cls.from_wire(k, wire)

    @classmethod
    def from_wire(cls, k: int, wire: int) -> TokenReport:
        if not 0 <= wire < 1 << (2 * k):
            raise ValueError("serialized report out of range")
        return cls((wire >> k) + 1, wire & ((1 << k) - 1), k)


class Ledger:
    """Freshness ledger of one series: every spent pair and the attempt count.

    A pair (I, R) is spent, by its 2k-bit wire form, once it has been
    submitted for verification, valid or not, or consumed as a one-time pad.
    A spent pair never authorizes anything again. ``cap`` bounds the number
    of verification attempts; ``None`` leaves them unbounded.
    """

    __slots__ = ("secret", "k", "cap", "attempts", "spent")

    def __init__(self, secret, cap: int | None = None):
        self.secret = secret
        self.k = secret.k
        self.cap = cap
        self.attempts = 0
        self.spent: dict[int, bool] = {}  # wire -> consumed as a pad

    def check(self, index: int, value: int) -> str | None:
        """Why verifying (index, value) now would be rejected, or None. Pure."""
        if self.cap is not None and self.attempts >= self.cap:
            return "budget-exhausted"
        if self.secret.block(index) != value:
            return "bad-value"
        if (((index - 1) << self.k) | value) in self.spent:
            return "double-spend"
        return None

    def record(self, index: int, value: int) -> None:
        """Count one verification attempt and spend its pair."""
        self.attempts += 1
        self.spent.setdefault(((index - 1) << self.k) | value, False)

    def verify(self, index: int, value: int) -> str | None:
        """Decide one verification attempt and record it unless over budget."""
        reason = self.check(index, value)
        if reason != "budget-exhausted":
            self.record(index, value)
        return reason

    def spend_pad(self, index: int) -> int | None:
        """Consume the pad block_index(S); None if its pair is already spent."""
        pad = self.secret.block(index)
        wire = ((index - 1) << self.k) | pad
        if wire in self.spent:
            return None
        self.spent[wire] = True
        return pad

    def pads(self) -> list[int]:
        """Wire forms of the consumed pads, ascending."""
        return sorted(wire for wire, pad in self.spent.items() if pad)


@lru_cache(maxsize=None)
def _token_layout(k: int) -> RegisterLayout:
    return RegisterLayout([("token", 2 * k)])


def token_state(secret: SecretString) -> SparseState:
    """The series' single token state: uniform over (i-1, block_i) pairs."""
    k = secret.k
    if secret.num_blocks != 1 << k:
        raise ValueError("quantum tokens need a secret with 2^k blocks")
    amp = 2.0 ** (-k / 2)
    amps = {
        (i << k) | secret.block(i + 1): amp
        for i in range(1 << k)
    }
    return SparseState(2 * k, amps)


def mint(secret: SecretString, count: int) -> list[SparseState]:
    """Mint ``count`` structurally identical tokens for one series.

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
    proto = token_state(secret)
    return [SparseState(proto.num_qubits, dict(proto.amplitudes)) for _ in range(count)]


def mint_classical(secret: SecretString) -> list[str]:
    """Classical minting: the consecutive k-bit blocks of the secret."""
    return [format(secret.block(i + 1), f"0{secret.k}b") for i in range(secret.num_blocks)]


def report(token: SparseState, rng: np.random.Generator) -> TokenReport:
    """Measure a token in the computational basis and parse the (I, R) pair."""
    if token.num_qubits % 2 != 0:
        raise ValueError("token must have an even number of qubits")
    k = token.num_qubits // 2
    bits, _ = measure_register(token, _token_layout(k), "token", rng)
    return TokenReport.from_wire(k, int(bits, 2))


def report_emulated(secret, rng: np.random.Generator) -> TokenReport:
    """Sample the honest report distribution directly: uniform I, R = block_I."""
    index = int(rng.integers(0, secret.num_blocks)) + 1
    return TokenReport(index, secret.block(index), secret.k)


def test(ledger: Ledger, report: TokenReport) -> bool:
    """Bank's verification predicate: block match, fresh pair, budget left.

    Pure function of its inputs; never mutates the ledger.
    """
    if report.k != ledger.k:
        raise ValueError("report and secret have different k")
    return ledger.check(report.index, report.value) is None


def test_classical(secret: SecretString, history: Iterable[str], value: str) -> bool:
    """Classical verification: value is a minted block and not already spent."""
    minted = set(mint_classical(secret))
    return value in minted and value not in set(history)


def btest(secret, reports: Sequence[TokenReport], cap: int | None = None) -> str:
    """Run a batch of reports through one fresh ledger.

    Every submission is recorded whether or not it is accepted, matching the
    bank's bookkeeping; the result is one acceptance bit per position.
    """
    if cap is None and secret.k >= 4 and secret.k % 4 == 0:
        cap = SchemeParams.for_k(secret.k).cap_test
    if cap is not None and len(reports) > cap:
        raise ValueError(f"{len(reports)} reports exceed the attempt budget {cap}")
    ledger = Ledger(secret, cap)
    bits = []
    for r in reports:
        bits.append("1" if test(ledger, r) else "0")
        ledger.record(r.index, r.value)
    return "".join(bits)
