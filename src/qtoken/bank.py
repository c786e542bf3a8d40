"""The bank's classical side as a long-running, crash-safe service.

Each minted series keeps a ``scheme.Ledger`` (its secret, every spent pair
and the verification attempt count) plus a vote tally. The ledger is shared
between the money, one-time-pad and voting flows: once a pair (I, R) has been
submitted for verification or consumed as a pad, it can never authorize
anything again.

Durability comes from an append-only log with one record per request,
written (and optionally fsynced) before the response leaves the service.
Recovery replays the log through the same decision logic and refuses to
start if any replayed decision disagrees with what was logged, which is how
log corruption is detected.

Wire protocol (one ASCII request per line, whitespace-separated fields,
binary payloads hex-encoded lowercase):

    VERIFY <series> <I> <R_hex>   ->  OK | REJECT <reason> | ERROR <reason>
    DECODE <series> <I> <C_hex>   ->  OK <M_hex> | REJECT <reason> | ERROR <reason>
    VOTE   <series> <I> <C_hex>   ->  OK | REJECT <reason> | ERROR <reason>

Log file format, one record per line:

    <verb> <series> <I> <payload_hex> <decision>

where <payload_hex> is the report's wire form for VERIFY and the ciphertext
otherwise, <decision> is OK, OK:<payload>, REJECT:<reason> or ERROR:<reason>,
and series registrations are recorded as `SERIES <series> <k> <S_hex> OK`.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
from collections import Counter
from dataclasses import dataclass, field

from .scheme import Ledger, SchemeParams, SecretString, TokenReport

# Pad verbs and the rejection each gives for an already spent pair.
_PAD_REJECTIONS = {"DECODE": "reused-pad", "VOTE": "double-vote"}


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
    serial order of decisions; with a log attached, every decision is
    persisted before it is returned.
    """

    def __init__(self, log_path: str | None = None, sync: bool = True):
        self._lock = threading.Lock()
        self._series: dict[str, SeriesRecord] = {}
        self._sync = sync
        self._log = open(log_path, "a", encoding="ascii") if log_path else None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def recover(cls, log_path: str, sync: bool = True) -> BankService:
        """Rebuild service state by replaying the log; verify every decision."""
        service = cls(sync=sync)
        if os.path.exists(log_path):
            offset = 0
            with open(log_path, "r", encoding="ascii") as fh:
                for line_no, raw in enumerate(fh, start=1):
                    service._replay(raw, line_no, offset)
                    offset += len(raw.encode("ascii"))
        service._log = open(log_path, "a", encoding="ascii")
        return service

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def _append_log(self, verb: str, series_id: str, index, payload: str, decision: Decision):
        if self._log is None:
            return
        self._log.write(f"{verb} {series_id} {index} {payload} {decision.text(':')}\n")
        self._log.flush()
        if self._sync:
            os.fsync(self._log.fileno())

    # -- series management --------------------------------------------------

    def register_series(self, secret: SecretString, series_id: str | None = None) -> str:
        sid = series_id if series_id is not None else secret.series_id
        with self._lock:
            self._register(secret, sid)
            if self._log is not None:  # spares the hex encoding when nothing is logged
                self._append_log("SERIES", sid, secret.k, secret.to_hex(), Decision("OK"))
        return sid

    def _register(self, secret: SecretString, sid: str) -> None:
        if not sid.isascii() or sid.split() != [sid]:
            raise ValueError(f"series id {sid!r} must be nonempty ASCII with no whitespace")
        if sid in self._series:
            raise ValueError(f"series {sid!r} already registered")
        cap = SchemeParams.for_k(secret.k).cap_test
        self._series[sid] = SeriesRecord(Ledger(secret, cap))

    def series_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def series_k(self, series_id: str) -> int | None:
        rec = self._series.get(series_id)
        return rec.ledger.k if rec else None

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

    def tally(self, series_id: str) -> dict[int, int]:
        with self._lock:
            return dict(self._series[series_id].tally)

    # -- decisions -------------------------------------------------------------

    def _decide(self, verb: str, rec: SeriesRecord | None, index: int, value: int) -> Decision:
        """Apply one request to its series; callers hold the lock.

        ``value`` is the report's wire form for VERIFY and the ciphertext for
        DECODE and VOTE. A VERIFY wire that disagrees with ``index`` can only
        come from a damaged log and raises ``ValueError``.
        """
        if verb != "VERIFY" and verb not in _PAD_REJECTIONS:
            raise ValueError(f"unknown verb {verb!r}")
        if rec is None:
            return Decision("ERROR", "unknown-series")
        ledger, k = rec.ledger, rec.ledger.k
        if verb == "VERIFY":
            if not 0 <= value < 1 << (2 * k) or (value >> k) + 1 != index:
                raise ValueError("index does not match serialized report")
            reason = ledger.verify(index, value & ((1 << k) - 1))
            if reason is not None:
                return Decision("REJECT", reason)
            rec.accepted += 1
            return Decision("OK")
        if not 1 <= index <= 1 << k:
            return Decision("ERROR", "bad-index")
        if not 0 <= value < 1 << k:
            return Decision("ERROR", "bad-payload")
        pad = ledger.spend_pad(index)
        if pad is None:
            return Decision("REJECT", _PAD_REJECTIONS[verb])
        if verb == "VOTE":
            rec.tally[value ^ pad] += 1
            return Decision("OK")
        return Decision("OK", payload=value ^ pad, payload_width=k // 4)

    def _submit(
        self, verb: str, series_id: str, index: int, value: int, payload: str | None = None
    ) -> Decision:
        """Decide, log, reply: the one locked sequence behind every logged request.

        ``payload`` is the logged hex field; DECODE and VOTE leave it to the
        series' pad width (one digit for an unknown series).
        """
        with self._lock:
            rec = self._series.get(series_id)
            decision = self._decide(verb, rec, index, value)
            if payload is None:
                payload = f"{value:0{rec.ledger.k // 4 if rec else 1}x}"
            self._append_log(verb, series_id, index, payload, decision)
            return decision

    # -- handlers ------------------------------------------------------------

    def handle_verify(self, series_id: str, rep: TokenReport) -> Decision:
        if self.series_k(series_id) not in (None, rep.k):
            raise ValueError("report and series have different k")
        payload = rep.to_hex() if rep.k % 2 == 0 else format(rep.value, "x")
        return self._submit("VERIFY", series_id, rep.index, rep.wire(), payload)

    def handle_decode(self, series_id: str, index: int, cipher: int) -> Decision:
        return self._submit("DECODE", series_id, index, cipher)

    def handle_vote(self, series_id: str, index: int, cipher: int) -> Decision:
        return self._submit("VOTE", series_id, index, cipher)

    # -- wire protocol ---------------------------------------------------------

    def handle_line(self, line: str) -> str:
        parts = line.split()
        if len(parts) != 4 or not line.isascii():
            return "ERROR bad-request"
        verb, series_id, index_s, payload_hex = parts
        try:
            index = int(index_s)
            payload = int(payload_hex, 16)
        except ValueError:
            return "ERROR bad-request"
        if verb == "VERIFY":
            k = self.series_k(series_id)
            if k is None:
                return "ERROR unknown-series"
            try:
                rep = TokenReport(index, payload, k)
            except ValueError:
                return "REJECT bad-value"
            return self.handle_verify(series_id, rep).text()
        if verb in _PAD_REJECTIONS:
            return self._submit(verb, series_id, index, payload).text()
        return "ERROR bad-request"

    # -- recovery ---------------------------------------------------------------

    def _replay(self, raw: str, line_no: int, byte_offset: int) -> None:
        parts = raw.split()
        if len(parts) != 5:
            raise CorruptLogError("malformed log record", line_no, byte_offset)
        verb, series_id, index_s, payload, logged = parts
        try:
            if verb == "SERIES":
                self._register(SecretString.from_hex(int(index_s), payload, series_id), series_id)
                decision = Decision("OK")
            else:
                rec = self._series.get(series_id)
                decision = self._decide(verb, rec, int(index_s), int(payload, 16))
        except Exception as exc:
            raise CorruptLogError(f"unreplayable record: {exc}", line_no, byte_offset)
        if decision.text(":") != logged:
            raise CorruptLogError(
                f"replayed decision {decision.text(':')} != logged {logged}",
                line_no,
                byte_offset,
            )


# -- socket front end ------------------------------------------------------------


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace")
            response = self.server.service.handle_line(line)
            self.wfile.write((response + "\n").encode("utf-8"))
            self.wfile.flush()


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True


def _parse_address(address: str):
    if ":" in address:
        host, port = address.rsplit(":", 1)
        return (host or "127.0.0.1", int(port)), False
    return address, True


class BankServer:
    """Serve a BankService over a local stream socket (TCP host:port or unix path)."""

    def __init__(self, service: BankService, address: str):
        addr, is_unix = _parse_address(address)
        if is_unix and os.path.exists(addr):
            os.unlink(addr)
        server_cls = _UnixServer if is_unix else _TcpServer
        self._server = server_cls(addr, _LineHandler)
        self._server.service = service
        self._is_unix = is_unix
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        if self._is_unix:
            return self._server.server_address
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._is_unix and os.path.exists(self._server.server_address):
            os.unlink(self._server.server_address)
        if self._thread is not None:
            self._thread.join(timeout=5)


class BankClient:
    """Minimal line-protocol client for tests and the CLI."""

    def __init__(self, address: str):
        addr, is_unix = _parse_address(address)
        if is_unix:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.connect(addr)
        else:
            self._sock = socket.create_connection(addr)
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")

    def request(self, line: str) -> str:
        self._file.write(line.rstrip("\n") + "\n")
        self._file.flush()
        response = self._file.readline()
        if not response:
            raise ConnectionError("server closed the connection")
        return response.rstrip("\n")

    def close(self) -> None:
        self._file.close()
        self._sock.close()
