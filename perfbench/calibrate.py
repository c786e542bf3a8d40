"""Reference-host normalisation for timings taken on a shared machine.

On a host shared with other tenants, the speed at which this process runs
Python drifts by 20% or more over tens of seconds, and the latency of an
fsync on the shared disk drifts with the other tenants' writes. Each timing
is divided by a slowness measured next to it, the time of a fixed piece of
work that does not involve qtoken over its time on the reference host:

* CPU slowness: a fixed calibration kernel's time over ``REFERENCE_KERNEL_S``.
  The kernel does the kind of interpreter work the workloads do (seeded
  generators, small numpy draws, dict and set bookkeeping, slotted
  dataclasses, dicts of complex amplitudes with bit arithmetic, small dense
  eigen and QR decompositions). Over 10-second windows on a shared 2-vCPU
  host, the dict/dataclass part and the complex-amplitude part scaled with
  forgery and tracking-audit call times with exponents 0.93-0.98, where a
  plain arithmetic loop scaled with exponent 1.4 and under-corrected; the
  linear-algebra part stands for the inequality suite's numpy work.
* Echo slowness, for the bank: round trips to ``echo_main``, a minimal line
  server in its own process that appends each line to a file, fsyncs it and
  sends it back over a unix socket. That is the host's part of a bank
  request (process scheduling, socket, a small durable append) without any
  of qtoken's work. Over six bank runs on a shared 2-vCPU host whose speed
  swung by 30% between runs, the run medians of requests/s spread (IQR over
  median) by 30% raw, 15% with the CPU part divided by the CPU slowness and
  fsync time scaled by a fsync probe, and 6% scaled by the echo's mean round
  trip. Over eight calmer runs they spread by 8% raw, 6% with the echo's
  mean and 5% with the mean of its fastest 90%, which is what the bank uses.
* Start-up slowness: the time to start an interpreter that imports numpy
  and scipy.stats, over ``REFERENCE_SPAWN_S``. Set-up times are divided by
  it: they are mostly interpreter start and imports, which drift with the
  host's disk and page cache more than with its CPU speed. Over eight runs
  of five forgery set-ups each, the run medians spread (IQR over median)
  by 9% raw, 19% divided by the CPU slowness and 7% divided by this one.

The raw timings are reported next to the normalised ones.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

# The reference host: the 2-vCPU Xeon (ext4 log directory) the bounds were set on.
REFERENCE_KERNEL_S = 0.030
REFERENCE_SPAWN_S = 1.3
REFERENCE_ECHO_S = 110e-6  # one echo round trip
SPAWN_CODE = "import numpy, scipy.stats"
ECHO_SAMPLES = 500


@dataclass(frozen=True, slots=True)
class _Pair:
    index: int
    value: int

    def __post_init__(self):
        if self.index < 0 or self.value < 0:
            raise ValueError("negative field")


@cache
def _inputs() -> tuple[dict[int, complex], list[np.ndarray]]:
    rng = np.random.default_rng(2)
    keys = rng.permutation(1 << 20)[:256].tolist()
    re, im = rng.normal(size=256).tolist(), rng.normal(size=256).tolist()
    amps = {k: complex(a, b) for k, a, b in zip(keys, re, im)}
    return amps, [rng.normal(size=(16, 16)) for _ in range(5)]


def _kernel() -> None:
    amps, matrices = _inputs()
    for trial in range(30):
        rng = np.random.default_rng(np.random.SeedSequence([7, trial]))
        blocks = rng.integers(0, 1 << 16, size=256, dtype=np.uint64)
        cache_, seen = {}, set()
        for j, index in enumerate(rng.integers(0, 1 << 16, size=256).tolist()):
            value = cache_.get(index)
            if value is None:
                value = cache_[index] = int(blocks[j])
            pair = _Pair(index, value)
            seen.add((pair.index << 16) | pair.value)
    for _ in range(30):
        kept, weight = {}, 0.0
        for index, amp in amps.items():
            partner = index ^ ((((index >> 4) ^ (index >> 12)) & 0xF) << 4)
            diff = (amp - amps.get(partner, 0j)) / 2.0
            weight += diff.real * diff.real + diff.imag * diff.imag
            kept[index] = diff
        _ = {i: a * 0.5 for i, a in kept.items() if abs(a) > 1e-12}
    for _ in range(25):
        for m in matrices:
            np.linalg.eigvalsh(m + m.T)
            q, _ = np.linalg.qr(m[:, :4])
            _ = q @ q.conj().T


def cpu_slowness() -> float:
    """Current CPU slowness relative to the reference (above 1 means slower)."""
    _inputs()
    start = time.perf_counter()
    _kernel()
    return (time.perf_counter() - start) / REFERENCE_KERNEL_S


def spawn_slowness(env: dict, cwd: str) -> float:
    """Current start-up slowness relative to the reference (above 1 means slower)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], env=env, cwd=cwd, check=True,
                   stdin=subprocess.DEVNULL)
    return (time.perf_counter() - start) / REFERENCE_SPAWN_S


class EchoProbe:
    """An ``echo_main`` server in its own process and one connection to it."""

    def __init__(self, directory: str):
        address = os.path.join(directory, "echo.sock")
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--echo",
                                      address, os.path.join(directory, "echo.log")],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        try:
            if self.proc.stdout.readline() != b"ready\n":
                raise RuntimeError("echo server did not start")
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.connect(address)
            self.reader = self.sock.makefile("rb")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def round_trips(self, samples: int = ECHO_SAMPLES) -> list[float]:
        """``samples`` closed-loop round trips, in seconds."""
        line = b"VERIFY bench-0 1 0000 REJECT:bad-value\n"
        clock, times = time.perf_counter, []
        for _ in range(samples):
            start = clock()
            self.sock.sendall(line)
            if self.reader.readline() != line:
                raise RuntimeError("echo server sent a wrong reply")
            times.append(clock() - start)
        return times

    def close(self) -> None:
        """Closing the connection ends the server."""
        self.reader.close()
        self.sock.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def echo_main(address: str, log_path: str) -> None:
    """Serve one connection: append, flush and fsync each line, then echo it."""
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(address)
    server.listen(1)
    print("ready", flush=True)
    conn, _ = server.accept()
    with conn, conn.makefile("rb") as reader, open(log_path, "ab") as log:
        for line in reader:
            log.write(line)
            log.flush()
            os.fsync(log.fileno())
            conn.sendall(line)
    server.close()


if __name__ == "__main__":
    if sys.argv[1:2] == ["--echo"]:
        echo_main(sys.argv[2], sys.argv[3])
