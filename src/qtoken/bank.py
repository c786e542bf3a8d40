"""The bank's classical side as a long-running, crash-safe service.

Each minted series keeps a ``scheme.Ledger`` (its secret, every spent pair
and the verification attempt count) plus a vote tally. The ledger is shared
between the money, one-time-pad and voting flows: once a pair (I, R) has been
submitted for verification or consumed as a pad, it can never authorize
anything again.

Every request goes through ``BankService.handle``, and the append-only log
follows one rule: a request is logged if and only if its decision changes
state. The record is written (and fsynced if ``sync``) before the change is
applied and before the response leaves the service, and a log the service
creates has its directory fsynced first. A decision that changes nothing (an
unknown series, a field out of range, ``budget-exhausted``, ``reused-pad``,
``double-vote``) is answered without a record. That is safe:
such an answer reads only state that was applied after its own record was
written, so replaying the log rebuilds everything it depended on. A log write
that fails is cut back and answered ``ERROR unavailable``, with nothing
changed.

Recovery replays every record through the same decision logic and refuses to
start if a replayed decision disagrees with the logged one, which is how log
corruption is detected; the no-change records of older logs replay to no
change. Bytes after the last newline are a torn record, never answered
because its write never finished: recovery cuts them off with a warning and
never replays them. A bad record that ends in a newline is refused with its
line and byte offset.

Wire protocol (one ASCII request per line, whitespace-separated fields,
binary payloads hex-encoded lowercase; a line longer than 4 KiB, its newline
not counted, is answered ``ERROR bad-request`` and not logged):

    VERIFY <series> <I> <R_hex>   ->  OK | REJECT <reason> | ERROR <reason>
    DECODE <series> <I> <C_hex>   ->  OK <M_hex> | REJECT <reason> | ERROR <reason>
    VOTE   <series> <I> <C_hex>   ->  OK | REJECT <reason> | ERROR <reason>

Log file format, one record per line:

    <verb> <series> <I> <payload_hex> <decision>

where <payload_hex> is the report's 2k-bit wire form for VERIFY and the
ciphertext otherwise, <decision> is OK, OK:<payload> or REJECT:<reason> (or
ERROR:<reason> in older logs), and series registrations are recorded as
`SERIES <series> <k> <S_hex> OK`.
"""

from __future__ import annotations

import os
import socketserver
import stat
import threading
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .scheme import Ledger, SchemeParams, SecretString, unwire, wire

# Pad verbs and the rejection each gives for an already spent pair.
_PAD_REJECTIONS = {"DECODE": "reused-pad", "VOTE": "double-vote"}

_MAX_LINE = 4096  # bytes in a request line, its newline not counted


def _open_log(path: str, sync: bool):
    """Open the log for unbuffered append; if ``sync``, a log this call
    creates has its directory fsynced before it is returned."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o666)
    except FileExistsError:
        return open(path, "ab", buffering=0)
    log = open(fd, "ab", buffering=0)
    if sync:
        try:
            dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            log.close()
            raise
    return log


class CorruptLogError(RuntimeError):
    """Raised when recovery cannot trust the log; carries the bad offset."""

    def __init__(self, message: str, line_number: int, byte_offset: int):
        super().__init__(f"{message} (line {line_number}, byte offset {byte_offset})")
        self.line_number = line_number
        self.byte_offset = byte_offset


@dataclass(frozen=True)
class Decision:
    status: str  # OK | REJECT | ERROR
    reason: str | None = None
    payload: int | None = None
    payload_width: int = 0

    def text(self, sep: str = " ") -> str:
        """The response line, or with ``sep=":"`` the log record's decision field."""
        if self.status != "OK":
            return f"{self.status}{sep}{self.reason}"
        if self.payload is None:
            return "OK"
        return f"OK{sep}{self.payload:0{self.payload_width}x}"


@dataclass
class SeriesRecord:
    ledger: Ledger
    tally: Counter = field(default_factory=Counter)
    accepted: int = 0


class BankService:
    """Linearized verification, pad decoding and vote tallying over series.

    All mutations run under one lock, so concurrent clients see a single
    serial order of decisions; with a log attached, every decision that
    changes state is persisted before it is applied or returned.
    """

    def __init__(self, log_path: str | None = None, sync: bool = True):
        self._lock = threading.Lock()
        self._series: dict[str, SeriesRecord] = {}
        self._sync = sync
        self._log = _open_log(log_path, sync) if log_path else None
        self.replayed = 0  # log records replayed by ``recover``
        self.torn_bytes = 0  # bytes of a torn final record ``recover`` cut

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def recover(cls, log_path: str, sync: bool = True) -> BankService:
        """Rebuild service state by replaying the log; verify every decision.

        A torn final record is cut off, and with ``sync`` the cut is made
        durable, before the log is opened for append.
        """
        service = cls(sync=sync)
        if os.path.exists(log_path):
            offset = 0
            with open(log_path, "rb") as fh:
                for line_no, raw in enumerate(fh, start=1):
                    if not raw.endswith(b"\n"):
                        warnings.warn(
                            f"{log_path}: cut {len(raw)} torn bytes at byte offset {offset}"
                        )
                        os.truncate(log_path, offset)
                        if sync:
                            os.fsync(fh.fileno())
                        service.torn_bytes = len(raw)
                        break
                    service._replay(raw, line_no, offset)
                    service.replayed = line_no
                    offset += len(raw)
        service._log = _open_log(log_path, sync)
        return service

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def _append_log(self, verb: str, series_id: str, index, payload: str, decision: Decision):
        """Write one record (fsynced if ``sync``), or cut the log back and raise."""
        if self._log is None:
            return
        record = f"{verb} {series_id} {index} {payload} {decision.text(':')}\n".encode("ascii")
        start = self._log.seek(0, os.SEEK_END)  # after a cut-back the position is past the end
        try:
            while record:  # unbuffered writes may be short
                record = record[self._log.write(record):]
            if self._sync:
                os.fsync(self._log.fileno())
        except BaseException:
            self._log.truncate(start)
            raise

    # -- series management --------------------------------------------------

    def register_series(self, secret: SecretString) -> str:
        sid = secret.series_id
        with self._lock:
            insert = self._register(secret, sid)
            if self._log is not None:  # spares the hex encoding when nothing is logged
                self._append_log("SERIES", sid, secret.k, secret.to_hex(), Decision("OK"))
            insert()
        return sid

    def _register(self, secret: SecretString, sid: str) -> Callable[[], None]:
        """Check a new series; returns the change that adds it, run once it is logged."""
        if not sid.isascii() or sid.split() != [sid]:
            raise ValueError(f"series id {sid!r} must be nonempty ASCII with no whitespace")
        if sid in self._series:
            raise ValueError(f"series {sid!r} already registered")
        cap = SchemeParams.for_k(secret.k).cap_test

        def insert():
            self._series[sid] = SeriesRecord(Ledger(secret, cap))

        return insert

    def series_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def snapshot(self, series_id: str) -> dict:
        """Point-in-time view of one series, for tests and inspection."""
        with self._lock:
            rec = self._series[series_id]
            return {
                "attempts": rec.ledger.attempts,
                "accepted": rec.accepted,
                "pads_used": rec.ledger.pads(),
                "tally": dict(rec.tally),
            }

    # -- decisions -------------------------------------------------------------

    def _decide(
        self, verb: str, rec: SeriesRecord | None, index: int, value: int
    ) -> tuple[Decision, Callable[[], None] | None]:
        """Decide one request without changing any state; callers hold the lock.

        ``value`` is the reported block for VERIFY and the ciphertext for DECODE
        and VOTE. Returns the decision and the change that applies it, which
        callers run only once the decision is logged, or None when the
        decision changes nothing.
        """
        if verb != "VERIFY" and verb not in _PAD_REJECTIONS:
            raise ValueError(f"unknown verb {verb!r}")
        if rec is None:
            return Decision("ERROR", "unknown-series"), None
        ledger, k = rec.ledger, rec.ledger.k
        if verb == "VERIFY":
            if not (1 <= index <= 1 << k and 0 <= value < 1 << k):
                return Decision("REJECT", "bad-value"), None
            reason = ledger.check(index, value)
            if reason == "budget-exhausted":
                return Decision("REJECT", reason), None

            def verify():
                ledger.verify(index, value)
                rec.accepted += reason is None

            return (Decision("REJECT", reason) if reason else Decision("OK")), verify
        if not 1 <= index <= 1 << k:
            return Decision("ERROR", "bad-index"), None
        if not 0 <= value < 1 << k:
            return Decision("ERROR", "bad-payload"), None
        pad = ledger.pad(index)
        if pad is None:
            return Decision("REJECT", _PAD_REJECTIONS[verb]), None

        def spend():
            ledger.spend_pad(index)
            if verb == "VOTE":
                rec.tally[value ^ pad] += 1

        if verb == "VOTE":
            return Decision("OK"), spend
        return Decision("OK", payload=value ^ pad, payload_width=k // 4), spend

    def handle(self, verb: str, series_id: str, index: int, value: int) -> Decision:
        """Decide one request, and log then apply it if it changes state.

        ``value`` is the reported block for VERIFY and the ciphertext for DECODE
        and VOTE. A failed log write raises ``OSError`` before anything changes.
        """
        with self._lock:
            rec = self._series.get(series_id)
            decision, apply = self._decide(verb, rec, index, value)
            if apply is not None:
                k = rec.ledger.k
                if verb == "VERIFY":  # the record holds the pair's 2k-bit wire form
                    payload = f"{wire(k, index, value):0{k // 2}x}"
                else:
                    payload = f"{value:0{k // 4}x}"
                self._append_log(verb, series_id, index, payload, decision)
                apply()
            return decision

    # -- wire protocol ---------------------------------------------------------

    def handle_line(self, line: str) -> str:
        parts = line.split()
        if len(parts) != 4 or not line.isascii():
            return "ERROR bad-request"
        verb, series_id, index_s, payload_hex = parts
        try:
            return self.handle(verb, series_id, int(index_s), int(payload_hex, 16)).text()
        except ValueError:  # a field that does not parse, or an unknown verb
            return "ERROR bad-request"
        except OSError:  # the log write failed and was cut back: nothing changed
            return "ERROR unavailable"

    # -- recovery ---------------------------------------------------------------

    def _replay(self, raw: bytes, line_no: int, byte_offset: int) -> None:
        if not raw.isascii():
            raise CorruptLogError("non-ASCII log record", line_no, byte_offset)
        parts = raw.decode("ascii").split()
        if len(parts) != 5:
            raise CorruptLogError("malformed log record", line_no, byte_offset)
        verb, series_id, index_s, payload, logged = parts
        try:
            if verb == "SERIES":
                secret = SecretString.from_hex(int(index_s), payload, series_id)
                decision, apply = Decision("OK"), self._register(secret, series_id)
            else:
                rec = self._series.get(series_id)
                index, value = int(index_s), int(payload, 16)
                if verb == "VERIFY" and rec is not None:  # the record holds the wire form
                    k = rec.ledger.k
                    wire_index, block = unwire(k, value)
                    if not 0 <= value < 1 << (2 * k) or wire_index != index:
                        raise ValueError("index does not match serialized report")
                    value = block
                decision, apply = self._decide(verb, rec, index, value)
        except Exception as exc:
            raise CorruptLogError(f"unreplayable record: {exc}", line_no, byte_offset)
        if decision.text(":") != logged:
            raise CorruptLogError(
                f"replayed decision {decision.text(':')} != logged {logged}",
                line_no,
                byte_offset,
            )
        if apply is not None:
            apply()


# -- socket front end ------------------------------------------------------------


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self):
        # Reads stop at the cap: a peer that never sends a newline cannot grow the buffer.
        while raw := self.rfile.readline(_MAX_LINE + 1):
            if len(raw) <= _MAX_LINE or raw.endswith(b"\n"):
                response = self.server.service.handle_line(raw.decode("utf-8", errors="replace"))
            else:  # over the cap: answered at once, the rest dropped through its newline
                response = "ERROR bad-request"
            self.wfile.write((response + "\n").encode("utf-8"))
            self.wfile.flush()
            while not raw.endswith(b"\n") and (raw := self.rfile.readline(_MAX_LINE + 1)):
                pass


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True


def _parse_address(address: str):
    if ":" in address:
        host, port_s = address.rsplit(":", 1)
        port = int(port_s)
        if not 0 <= port <= 65535:
            raise ValueError(f"TCP port {port} is outside 0-65535")
        return (host or "127.0.0.1", port), False
    return address, True


def _is_socket(path: str) -> bool:
    try:
        return stat.S_ISSOCK(os.lstat(path).st_mode)
    except FileNotFoundError:
        return False


class BankServer:
    """Serve a BankService over a local stream socket (TCP host:port or unix path).

    A stale socket at the unix path is replaced; any other file there is
    refused with ``ValueError`` and left as it is.
    """

    def __init__(self, service: BankService, address: str):
        addr, is_unix = _parse_address(address)
        if is_unix and _is_socket(addr):
            os.unlink(addr)
        elif is_unix and os.path.lexists(addr):
            raise ValueError(f"{addr} exists and is not a socket")
        server_cls = _UnixServer if is_unix else _TcpServer
        self._server = server_cls(addr, _LineHandler)
        self._server.service = service
        self._is_unix = is_unix

    @property
    def address(self) -> str:
        if self._is_unix:
            return self._server.server_address
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._is_unix and _is_socket(self._server.server_address):
            os.unlink(self._server.server_address)
