"""Bank workload: request streams with a precomputed oracle, and the client loop.

Each connection owns one series, so its expected responses follow from that
series' secret and the request order alone, whatever the interleaving with
the other connection. The oracle is an independent model of the service's
documented rules (per-series attempt budget, one freshness set shared by
verified pairs and consumed pads); it never calls ``qtoken.bank``.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

_KINDS = ("verify-fresh", "verify-replay", "verify-bad-value", "decode-fresh", "decode-reused",
          "vote-fresh", "vote-reused", "malformed", "non-numeric", "unknown-series")
# Share of the planned requests over which a series' VERIFY budget is spent.
VERIFY_BUDGET_SPAN = 0.9
ERROR_SHARES = {"malformed": 0.015, "non-numeric": 0.01, "unknown-series": 0.015}


def mix(k: int, planned: int) -> dict[str, float]:
    """Share of each request kind for a connection that sends ``planned`` requests.

    The shares are this benchmark's assumption, not measured traffic; each is
    sized to exercise one path of the service:

    * VERIFY (fresh valid 2 : replay 1 : wrong value 1). A series allows
      ``cap_test = 2**(k//2)`` verification attempts, so the VERIFY share is
      sized to spend that budget over the first ``VERIFY_BUDGET_SPAN`` of the
      planned requests: the decision path (block match, freshness) runs
      through about the first 90% of the run, and budget-exhausted
      rejections follow.
    * DECODE and VOTE, equal halves of the rest. A series has ``2**k`` pads
      against ``2**(k//2)`` attempts, so pad use is most of its life. One pad
      request in ten reuses a spent pad (``reused-pad``, ``double-vote``).
    * 4% error lines (malformed, non-numeric, unknown series), so the
      ``ERROR`` path appears in every segment.
    """
    verify = min(0.3, 2 ** (k // 2) / (VERIFY_BUDGET_SPAN * planned))
    pads = 1.0 - verify - sum(ERROR_SHARES.values())
    return {"verify-fresh": verify / 2, "verify-replay": verify / 4,
            "verify-bad-value": verify / 4,
            "decode-fresh": 0.45 * pads, "decode-reused": 0.05 * pads,
            "vote-fresh": 0.45 * pads, "vote-reused": 0.05 * pads, **ERROR_SHARES}


def response_kind(response: str) -> str:
    """A response without its payload: ``OK <plaintext>`` becomes ``OK plaintext``."""
    return "OK plaintext" if response.startswith("OK ") else response


def series_id(conn: int) -> str:
    return f"bench-{conn}"


def secret_blocks(seed: int, conn: int, k: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 17, conn])
    return rng.integers(0, 1 << k, size=1 << k, dtype=np.uint64)


class SeriesModel:
    """Expected service decisions for one series."""

    def __init__(self, k: int, blocks):
        self.k = k
        self.blocks = [int(b) for b in blocks]
        self.cap = 2 ** (k // 2)
        self.attempts = 0
        self.accepted = 0
        self.pads = 0
        self.seen: set[int] = set()

    def wire(self, index: int, value: int) -> int:
        return ((index - 1) << self.k) | value

    def verify(self, index: int, value: int) -> str:
        if self.attempts >= self.cap:
            return "REJECT budget-exhausted"
        wire = self.wire(index, value)
        valid = self.blocks[index - 1] == value
        fresh = wire not in self.seen
        self.attempts += 1
        self.seen.add(wire)
        if not valid:
            return "REJECT bad-value"
        if not fresh:
            return "REJECT double-spend"
        self.accepted += 1
        return "OK"

    def decode(self, index: int, cipher: int, vote: bool) -> str:
        pad = self.blocks[index - 1]
        wire = self.wire(index, pad)
        if wire in self.seen:
            return "REJECT double-vote" if vote else "REJECT reused-pad"
        self.seen.add(wire)
        self.pads += 1
        return "OK" if vote else f"OK {cipher ^ pad:0{self.k // 4}x}"


class RequestStream:
    """Deterministic request lines plus expected responses for one connection."""

    def __init__(self, seed: int, conn: int, k: int, planned: int):
        self.k = k
        self.sid = series_id(conn)
        self.model = SeriesModel(k, secret_blocks(seed, conn, k))
        shares = mix(k, planned)
        self._weights = np.array([shares[kind] for kind in _KINDS])
        self._rng = np.random.default_rng([seed, 29, conn])
        self._fresh = self._rng.permutation(1 << k) + 1
        self._next_fresh = 0
        self._consumed: list[int] = []  # indices whose pad is spent
        self._submitted: list[tuple[int, int]] = []  # in-budget VERIFY pairs
        self._kinds: list[int] = []
        self._picks: list[float] = []
        self._extras: list[int] = []
        self._pos = 0

    def _fresh_index(self) -> int:
        if self._next_fresh >= self._fresh.size:
            raise RuntimeError(f"{self.sid}: all {self._fresh.size} indices used; plan fewer requests")
        self._next_fresh += 1
        return int(self._fresh[self._next_fresh - 1])

    def next(self) -> tuple[bytes, str]:
        """The next request line and the response the service must give it."""
        if self._pos == len(self._kinds):
            size = 1024
            self._kinds = self._rng.choice(len(_KINDS), size=size, p=self._weights).tolist()
            self._picks = self._rng.random(size).tolist()
            self._extras = self._rng.integers(1, 1 << self.k, size=size).tolist()
            self._pos = 0
        i = self._pos
        self._pos += 1
        line, response = self._one(_KINDS[self._kinds[i]], self._picks[i], self._extras[i])
        return line.encode("ascii") + b"\n", response

    def _one(self, kind: str, pick: float, extra: int) -> tuple[str, str]:
        model, sid, width = self.model, self.sid, self.k // 4
        if kind == "verify-replay" and self._submitted:
            index, value = self._submitted[int(pick * len(self._submitted))]
            return self._verify(index, value)
        if kind in ("decode-reused", "vote-reused") and self._consumed:
            index = self._consumed[int(pick * len(self._consumed))]
            return self._decode(index, extra, kind.startswith("vote"))
        if kind == "malformed":
            return f"VERIFY {sid} {extra}", "ERROR bad-request"
        if kind == "non-numeric":
            return f"DECODE {sid} i{extra} {extra:0{width}x}", "ERROR bad-request"
        if kind == "unknown-series":
            verb = "VERIFY" if extra % 2 else "VOTE"
            return f"{verb} ghost-{sid} {extra} {1:0{width}x}", "ERROR unknown-series"
        index = self._fresh_index()
        if kind.startswith("verify"):
            value = model.blocks[index - 1]
            if kind == "verify-bad-value":
                value ^= extra
            return self._verify(index, value)
        return self._decode(index, extra, kind.startswith("vote"))

    def _verify(self, index: int, value: int) -> tuple[str, str]:
        model = self.model
        before = model.attempts
        response = model.verify(index, value)
        if model.attempts > before:
            self._submitted.append((index, value))
            if value == model.blocks[index - 1] and response == "OK":
                self._consumed.append(index)
        return f"VERIFY {self.sid} {index} {value:0{self.k // 4}x}", response

    def _decode(self, index: int, extra: int, vote: bool) -> tuple[str, str]:
        model = self.model
        pads_before = model.pads
        if vote:
            cipher = model.blocks[index - 1] ^ (extra & 1)
        else:
            cipher = model.blocks[index - 1] ^ extra
        response = model.decode(index, cipher, vote)
        if model.pads > pads_before:
            self._consumed.append(index)
        verb = "VOTE" if vote else "DECODE"
        return f"{verb} {self.sid} {index} {cipher:0{self.k // 4}x}", response


@dataclass
class ConnResult:
    sent: int = 0
    answered: int = 0
    failed: int = 0
    start: float = 0.0
    end: float = 0.0
    latencies: array = field(default_factory=lambda: array("d"))
    mismatches: list[str] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)  # expected responses by ``response_kind``


def drive(address: str, stream: RequestStream, requests: int, deadline_s: float,
          barrier: threading.Barrier, out: ConnResult) -> None:
    """Closed loop on one connection: send a line, wait for its reply, repeat.

    Sends ``requests`` lines, so every run serves the same requests; the
    deadline only guards against a server that stopped answering in time.
    The oracle advances only for lines actually sent, so after the loop its
    state is what the service should hold.
    """
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.connect(address)
        reader = sock.makefile("rb")
        barrier.wait()
        clock = time.perf_counter
        out.start = clock()
        end = out.start + deadline_s
        while out.sent < requests and clock() < end:
            line, want = stream.next()
            out.sent += 1
            out.kinds[response_kind(want)] += 1
            t0 = clock()
            sock.sendall(line)
            reply = reader.readline()
            t1 = clock()
            if not reply:
                out.failed += 1
                out.mismatches.append(f"no response to {line!r}")
                break
            out.latencies.append(t1 - t0)
            out.answered += 1
            got = reply[:-1].decode("ascii", errors="replace")
            if got != want:
                out.failed += 1
                if len(out.mismatches) < 5:
                    out.mismatches.append(f"{line!r}: got {got!r}, want {want!r}")
        out.end = clock()
        reader.close()
    finally:
        sock.close()


def run_clients(address: str, streams: list[RequestStream], requests: int,
                deadline_s: float) -> list[ConnResult]:
    """Drive every stream on its own connection for ``requests`` requests."""
    barrier = threading.Barrier(len(streams) + 1)
    results = [ConnResult() for _ in streams]
    threads = []
    errors: list[Exception] = []

    def worker(i: int) -> None:
        try:
            drive(address, streams[i], requests, deadline_s, barrier, results[i])
        except Exception as exc:  # reported by the caller as a failed connection
            errors.append(exc)
            barrier.abort()

    for i in range(len(streams)):
        thread = threading.Thread(target=worker, args=(i,))
        thread.start()
        threads.append(thread)
    try:
        barrier.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join(timeout=deadline_s + 60)
    if errors or any(t.is_alive() for t in threads):
        raise RuntimeError(f"client connection failed: {errors!r}")
    return results


def register(log_path: str, k: int, seed: int, conns: int) -> None:
    """Register one fresh k-bit series per connection into a fsynced log."""
    from qtoken import bank, scheme

    service = bank.BankService(log_path, sync=True)
    try:
        for conn in range(conns):
            secret = scheme.SecretString(k, secret_blocks(seed, conn, k), series_id(conn))
            service.register_series(secret)
    finally:
        service.close()


class ServerProcess:
    """``qtoken serve`` in its own process, started through ``serve.py``."""

    def __init__(self, root: str, env: dict, log_path: str, address: str,
                 spans_path: str | None = None):
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve.py")
        cmd = [sys.executable, launcher]
        if spans_path:
            cmd += ["--spans", spans_path]
        cmd += ["serve", "--log", log_path, "--socket", address]
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.stderr = b""
        self._wait_listening(timeout=150.0)

    def _wait_listening(self, timeout: float) -> None:
        end = time.monotonic() + timeout
        buf = b""
        fd = self.proc.stderr.fileno()
        while b"listening on" not in buf:
            remaining = end - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(remaining, 0.0))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                self.kill()
                raise RuntimeError(f"server did not start: {buf.decode(errors='replace')}")
            buf += chunk
        self.stderr = buf

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGINT for a clean shutdown; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            _, err = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        self.stderr += err
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def check_recovery(log_path: str, streams: list[RequestStream]) -> tuple[float, int, list[str]]:
    """Time ``BankService.recover`` on the log; compare its state with the oracle.

    Returns (seconds, records replayed, problems).
    """
    from qtoken import bank

    start = time.perf_counter()
    try:
        service = bank.BankService.recover(log_path, sync=False)
    except bank.CorruptLogError as exc:
        return time.perf_counter() - start, 0, [f"recovery refused to start: {exc}"]
    elapsed = time.perf_counter() - start
    problems = []
    try:
        for stream in streams:
            snap = service.snapshot(stream.sid)
            model = stream.model
            got = (snap["attempts"], snap["accepted"], len(snap["pads_used"]))
            want = (model.attempts, model.accepted, model.pads)
            if got != want:
                problems.append(f"{stream.sid}: recovered (attempts, accepted, pads) {got}, "
                                f"oracle {want}")
    finally:
        service.close()
    with open(log_path, "rb") as fh:
        records = sum(1 for _ in fh)
    return elapsed, records, problems
