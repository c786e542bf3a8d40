"""Bank service tests: verification, pads, votes, persistence, wire protocol."""

import errno
import os
import socket
import tempfile
import threading
import warnings
from collections import Counter
from contextlib import contextmanager
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoken import bank, scheme


def rng_for(seed=0):
    return np.random.default_rng(seed)


def fresh_service(k=4, seed=0, **kwargs):
    service = bank.BankService(**kwargs)
    secret = scheme.SecretString.random(k, rng_for(seed), "s1")
    sid = service.register_series(secret)
    return service, secret, sid


def valid_report(secret, index=1):
    return index, secret.block(index)


@contextmanager
def serving(service, address):
    """A ``BankServer`` answering on ``address`` from a thread until the block
    ends; then it is stopped and its thread joined."""
    server = bank.BankServer(service, address)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield server
    finally:
        server.stop()
        thread.join(timeout=5)
        assert not thread.is_alive()


class LineClient:
    """One connection to a ``BankServer``: send a request line, read its response line."""

    def __init__(self, address):
        if ":" in address:
            host, port = address.rsplit(":", 1)
            self._sock = socket.create_connection((host, int(port)))
        else:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.connect(address)
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")

    def request(self, line):
        self._file.write(line + "\n")
        self._file.flush()
        response = self._file.readline()
        if not response:
            raise ConnectionError("server closed the connection")
        return response.rstrip("\n")

    def close(self):
        self._file.close()
        self._sock.close()


# -- verify ---------------------------------------------------------------------


def test_verify_accept_then_double_spend():
    service, secret, sid = fresh_service()
    rep = valid_report(secret, 3)
    assert service.handle("VERIFY", sid, *rep).status == "OK"
    again = service.handle("VERIFY", sid, *rep)
    assert (again.status, again.reason) == ("REJECT", "double-spend")


def test_verify_bad_value():
    service, secret, sid = fresh_service()
    bad = (3, secret.block(3) ^ 1)
    decision = service.handle("VERIFY", sid, *bad)
    assert (decision.status, decision.reason) == ("REJECT", "bad-value")


def test_decisions_read_single_blocks_and_never_the_whole_table(monkeypatch):
    """A request reads the blocks it needs; building the 2^k table is for
    registration (the hex record) only."""
    service, secret, sid = fresh_service(k=16, seed=7)

    def no_table(self, indices=None):
        raise AssertionError("a request built block values in bulk")

    monkeypatch.setattr(scheme.SecretString, "blocks", no_table)
    assert service.handle_line(f"VERIFY {sid} 9 {secret.block(9):04x}") == "OK"
    assert service.handle_line(f"VERIFY {sid} 9 {secret.block(9):04x}").startswith("REJECT")
    assert service.handle_line(f"DECODE {sid} 10 0") == f"OK {secret.block(10):04x}"


def test_verify_unknown_series():
    service, secret, _ = fresh_service()
    decision = service.handle("VERIFY", "nope", *valid_report(secret))
    assert (decision.status, decision.reason) == ("ERROR", "unknown-series")


def test_verify_out_of_range_pair_is_an_unlogged_reject(tmp_path):
    log = tmp_path / "bank.log"
    service, _, sid = fresh_service(log_path=str(log))  # k = 4
    logged = log.read_bytes()
    for index, value in ((17, 0), (1, 16)):
        decision = service.handle("VERIFY", sid, index, value)
        assert (decision.status, decision.reason) == ("REJECT", "bad-value")
    assert log.read_bytes() == logged
    assert service.snapshot(sid)["attempts"] == 0
    service.close()


def test_requests_that_change_nothing_leave_the_log_as_it_was(tmp_path):
    log = tmp_path / "bank.log"
    service, secret, sid = fresh_service(log_path=str(log))  # k = 4, cap_test = 4
    for i in range(1, 5):
        assert service.handle("VERIFY", sid, i, secret.block(i)).status == "OK"
    assert service.handle_line("DECODE s1 5 0").startswith("OK")
    assert service.handle_line("VOTE s1 6 0") == "OK"
    logged, state = log.read_bytes(), service.snapshot(sid)
    for line, response in [
        ("VERIFY nope 1 0", "ERROR unknown-series"),
        ("DECODE nope 1 0", "ERROR unknown-series"),
        ("VOTE nope 1 0", "ERROR unknown-series"),
        ("VERIFY s1 17 0", "REJECT bad-value"),
        ("VERIFY s1 7 10", "REJECT bad-value"),
        ("DECODE s1 0 0", "ERROR bad-index"),
        ("DECODE s1 7 10", "ERROR bad-payload"),
        ("VOTE s1 17 0", "ERROR bad-index"),
        ("VOTE s1 7 -1", "ERROR bad-payload"),
        (f"VERIFY s1 7 {secret.block(7):x}", "REJECT budget-exhausted"),
        ("DECODE s1 5 0", "REJECT reused-pad"),
        ("VOTE s1 6 0", "REJECT double-vote"),
    ]:
        assert service.handle_line(line) == response
        assert log.read_bytes() == logged
    assert service.snapshot(sid) == state
    service.close()


def test_verify_budget_enforced_exactly():
    service, secret, sid = fresh_service()  # cap_test = 4 at k = 4
    for i in range(1, 5):
        decision = service.handle("VERIFY", sid, *valid_report(secret, i))
        assert decision.status == "OK"
    over = service.handle("VERIFY", sid, *valid_report(secret, 5))
    assert (over.status, over.reason) == ("REJECT", "budget-exhausted")
    snap = service.snapshot(sid)
    assert snap["attempts"] == 4 and snap["accepted"] == 4


def test_rejected_submissions_count_against_budget():
    service, secret, sid = fresh_service()
    bad = (1, secret.block(1) ^ 1)
    for _ in range(4):
        assert service.handle("VERIFY", sid, *bad).reason in ("bad-value", "double-spend")
    assert service.handle("VERIFY", sid, *valid_report(secret, 2)).reason == "budget-exhausted"


def test_accepts_never_exceed_distinct_valid_pairs():
    service, secret, sid = fresh_service(k=8, seed=3)
    rng = rng_for(4)
    submitted = []
    for _ in range(scheme.SchemeParams.for_k(8).cap_test):
        rep = (int(rng.integers(1, 257)), int(rng.integers(0, 256)))
        submitted.append(rep)
        service.handle("VERIFY", sid, *rep)
    distinct_valid = len({(i, v) for i, v in submitted if secret.block(i) == v})
    assert service.snapshot(sid)["accepted"] <= distinct_valid


# -- decode and vote -------------------------------------------------------------


def test_decode_roundtrip_and_zero_cipher():
    service, secret, sid = fresh_service(k=8, seed=5)
    message = 0b10110100
    pad = secret.block(7)
    decision = service.handle("DECODE", sid, 7, pad ^ message)
    assert decision.status == "OK" and decision.payload == message
    zero = service.handle("DECODE", sid, 9, secret.block(9))
    assert zero.status == "OK" and zero.payload == 0


def test_decode_consumes_the_pad():
    service, secret, sid = fresh_service(k=8, seed=6)
    pad = secret.block(2)
    assert service.handle("DECODE", sid, 2, pad ^ 0x5A).status == "OK"
    again = service.handle("DECODE", sid, 2, pad ^ 0x33)
    assert (again.status, again.reason) == ("REJECT", "reused-pad")


def test_money_and_pad_flows_share_freshness():
    service, secret, sid = fresh_service(k=8, seed=7)
    # decode first, same pair can no longer pass verification
    service.handle("DECODE", sid, 4, secret.block(4))
    verify = service.handle("VERIFY", sid, *valid_report(secret, 4))
    assert (verify.status, verify.reason) == ("REJECT", "double-spend")
    # verify first, pad is burned for decoding
    assert service.handle("VERIFY", sid, *valid_report(secret, 5)).status == "OK"
    decode = service.handle("DECODE", sid, 5, secret.block(5))
    assert (decode.status, decode.reason) == ("REJECT", "reused-pad")


def test_decode_index_out_of_range():
    service, _, sid = fresh_service(k=8, seed=8)
    decision = service.handle("DECODE", sid, 257, 0)
    assert (decision.status, decision.reason) == ("ERROR", "bad-index")


def test_vote_tally_and_double_vote():
    service, secret, sid = fresh_service(k=8, seed=9)
    assert service.handle("VOTE", sid, 1, secret.block(1) ^ 1).status == "OK"
    assert service.handle("VOTE", sid, 2, secret.block(2) ^ 0).status == "OK"
    assert service.handle("VOTE", sid, 3, secret.block(3) ^ 1).status == "OK"
    assert service.snapshot(sid)["tally"] == {1: 2, 0: 1}
    double = service.handle("VOTE", sid, 1, secret.block(1) ^ 0)
    assert (double.status, double.reason) == ("REJECT", "double-vote")
    assert service.snapshot(sid)["tally"] == {1: 2, 0: 1}


def test_vote_payload_decodes_to_cast_choice():
    service, secret, sid = fresh_service(k=8, seed=10)
    rng = rng_for(11)
    choices = [int(rng.integers(0, 256)) for _ in range(20)]
    for i, choice in enumerate(choices, start=1):
        assert service.handle("VOTE", sid, i, secret.block(i) ^ choice).status == "OK"
    tally = service.snapshot(sid)["tally"]
    assert sum(tally.values()) == len(choices)
    for choice in choices:
        assert tally[choice] == choices.count(choice)


# -- wire protocol ------------------------------------------------------------------


def test_wire_protocol_lines():
    service, secret, sid = fresh_service(k=8, seed=12)
    r_hex = format(secret.block(3), "02x")
    assert service.handle_line(f"VERIFY {sid} 3 {r_hex}") == "OK"
    assert service.handle_line(f"VERIFY {sid} 3 {r_hex}") == "REJECT double-spend"
    pad = secret.block(4)
    line = f"DECODE {sid} 4 {pad ^ 0xAB:02x}"
    assert service.handle_line(line) == "OK ab"
    assert service.handle_line(f"VOTE {sid} 5 {secret.block(5) ^ 1:02x}") == "OK"
    assert service.handle_line(f"VERIFY nope 1 00") == "ERROR unknown-series"
    assert service.handle_line("VERIFY") == "ERROR bad-request"
    assert service.handle_line(f"VERIFY {sid} 999 00") == "REJECT bad-value"
    assert service.handle_line(f"PING {sid} 1 00") == "ERROR bad-request"
    assert service.handle_line(f"VERIFY {sid} x yz") == "ERROR bad-request"


# Non-ASCII lines: a non-ASCII series id, and a non-ASCII digit that int() reads.
NON_ASCII_LINES = ("DECODE é 1 0", "VOTE sé 1 0", "VERIFY é 1 00", "VOTE s1 \u0661 0")


def test_non_ascii_line_is_an_unlogged_bad_request(tmp_path):
    log = tmp_path / "bank.log"
    service, _, sid = fresh_service(k=4, seed=12, log_path=str(log))
    logged = log.read_bytes()
    for line in NON_ASCII_LINES:
        assert service.handle_line(line) == "ERROR bad-request"
    assert log.read_bytes() == logged
    assert service.series_ids() == [sid]
    assert service.snapshot(sid) == {"attempts": 0, "accepted": 0, "pads_used": [], "tally": {}}
    service.close()


def test_non_ascii_line_keeps_the_socket_connection(tmp_path):
    service, secret, sid = fresh_service(k=8, seed=13, log_path=str(tmp_path / "bank.log"))
    with serving(service, str(tmp_path / "bank.sock")) as server:
        client = LineClient(server.address)
        for index, line in enumerate(NON_ASCII_LINES, start=1):
            assert client.request(line) == "ERROR bad-request"
            assert client.request(f"DECODE {sid} {index} {secret.block(index):02x}") == "OK 00"
        client.close()
    service.close()


def test_request_line_past_4_kib_is_answered_before_its_newline(tmp_path):
    """A line of exactly 4 KiB is served; a longer one gets one unlogged
    ERROR bad-request as soon as it passes the cap, and the connection serves
    the line after it."""
    log = tmp_path / "bank.log"
    service, secret, sid = fresh_service(k=8, seed=13, log_path=str(log))
    with serving(service, str(tmp_path / "bank.sock")) as server:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(5)
            sock.connect(server.address)
            replies = sock.makefile("rb")
            prefix = f"VERIFY {sid} 2 "
            at_cap = prefix + format(secret.block(2), f"0{4096 - len(prefix)}x")
            sock.sendall(at_cap.encode() + b"\n")
            assert replies.readline() == b"OK\n"
            logged = log.read_bytes()
            sock.sendall(b"x" * 5000)
            assert replies.readline() == b"ERROR bad-request\n"
            sock.sendall(b"x" * 3000 + f"\nVERIFY {sid} 3 {secret.block(3):02x}\n".encode())
            assert replies.readline() == b"OK\n"
            replies.close()
    record = f"VERIFY {sid} 3 {scheme.wire(8, 3, secret.block(3)):04x} OK\n"
    assert log.read_bytes() == logged + record.encode()
    assert service.snapshot(sid)["attempts"] == 2
    service.close()


def test_failed_log_write_answers_unavailable_and_keeps_the_connection(tmp_path):
    """A log write that stores half its record and fails gets ERROR unavailable;
    the record is cut back, and the retry on the same connection succeeds."""
    log = tmp_path / "bank.log"
    service, secret, sid = fresh_service(k=8, seed=13, log_path=str(log))
    before = log.read_bytes()
    write = service._log.write

    def half_then_full(record):
        write(record[: len(record) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    with serving(service, str(tmp_path / "bank.sock")) as server:
        client = LineClient(server.address)
        line = f"VERIFY {sid} 3 {secret.block(3):02x}"
        service._log.write = half_then_full
        assert client.request(line) == "ERROR unavailable"
        assert log.read_bytes() == before
        service._log.write = write
        assert client.request(line) == "OK"
        client.close()
    service.close()
    record = f"VERIFY {sid} 3 {scheme.wire(8, 3, secret.block(3)):04x} OK\n"
    assert log.read_bytes() == before + record.encode()


def test_socket_server_roundtrip(tmp_path):
    service, secret, sid = fresh_service(k=8, seed=13)
    with serving(service, str(tmp_path / "bank.sock")) as server:
        client = LineClient(server.address)
        assert client.request(f"VERIFY {sid} 2 {secret.block(2):02x}") == "OK"
        assert client.request(f"VERIFY {sid} 2 {secret.block(2):02x}") == "REJECT double-spend"
        assert client.request(f"DECODE {sid} 3 {secret.block(3):02x}") == "OK 00"
        client.close()


def test_tcp_server_roundtrip():
    service, secret, sid = fresh_service(k=8, seed=14)
    with serving(service, "127.0.0.1:0") as server:
        client = LineClient(server.address)
        assert client.request(f"VERIFY {sid} 2 {secret.block(2):02x}") == "OK"
        client.close()


def test_server_refuses_a_regular_file_and_replaces_a_stale_socket(tmp_path):
    service, secret, sid = fresh_service(k=8, seed=16)
    taken = tmp_path / "bank.log"
    taken.write_bytes(b"SERIES s1 8 00\n")
    with pytest.raises(ValueError, match="not a socket"):
        bank.BankServer(service, str(taken))
    assert taken.read_bytes() == b"SERIES s1 8 00\n"

    stale = tmp_path / "bank.sock"
    leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    leftover.bind(str(stale))
    leftover.close()
    with serving(service, str(stale)) as server:
        client = LineClient(server.address)
        assert client.request(f"VERIFY {sid} 2 {secret.block(2):02x}") == "OK"
        client.close()
    assert not stale.exists()


def test_concurrent_socket_clients_single_accept(tmp_path):
    service, secret, sid = fresh_service(k=8, seed=15)
    line = f"VERIFY {sid} 1 {secret.block(1):02x}"
    barrier = threading.Barrier(8)

    def worker(address):
        client = LineClient(address)
        barrier.wait()
        results = [client.request(line) for _ in range(5)]
        client.close()
        return results

    with serving(service, str(tmp_path / "bank.sock")) as server:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, server.address) for _ in range(8)]
            all_results = [r for f in futures for r in f.result()]
    assert all_results.count("OK") == 1


# -- persistence and recovery --------------------------------------------------------


def test_recovery_preserves_double_spend(tmp_path):
    log = str(tmp_path / "bank.log")
    service, secret, sid = fresh_service(k=8, seed=16, log_path=log)
    rep = valid_report(secret, 3)
    assert service.handle("VERIFY", sid, *rep).status == "OK"
    service.close()  # crash between the two duplicate submissions

    recovered = bank.BankService.recover(log)
    decision = recovered.handle("VERIFY", sid, *rep)
    assert (decision.status, decision.reason) == ("REJECT", "double-spend")
    recovered.close()


def test_recovery_of_empty_and_single_entry_logs(tmp_path):
    log = str(tmp_path / "empty.log")
    service = bank.BankService.recover(log)
    assert service.series_ids() == []
    service.close()

    log2 = str(tmp_path / "one.log")
    service, secret, sid = fresh_service(k=8, seed=17, log_path=log2)
    service.handle("VERIFY", sid, *valid_report(secret, 1))
    service.close()
    recovered = bank.BankService.recover(log2)
    snap = recovered.snapshot(sid)
    assert snap["attempts"] == 1 and snap["accepted"] == 1
    recovered.close()


def test_recovery_restores_full_state(tmp_path):
    log = str(tmp_path / "full.log")
    service, secret, sid = fresh_service(k=8, seed=18, log_path=log)
    service.handle("VERIFY", sid, *valid_report(secret, 1))
    service.handle("VERIFY", sid, 2, secret.block(2) ^ 1)
    service.handle("DECODE", sid, 3, secret.block(3) ^ 0x7E)
    service.handle("VOTE", sid, 4, secret.block(4) ^ 1)
    before = service.snapshot(sid)
    service.close()
    recovered = bank.BankService.recover(log)
    assert recovered.snapshot(sid) == before
    recovered.close()


def trace_opens_and_fsyncs(monkeypatch):
    """Record every ``os.open`` and ``os.fsync`` as ("open" | "fsync", path), in order."""
    events, paths = [], {}
    real_open, real_fsync = os.open, os.fsync

    def traced_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        paths[fd] = os.fspath(path)
        events.append(("open", paths[fd]))
        return fd

    def traced_fsync(fd):
        events.append(("fsync", paths.get(fd)))
        real_fsync(fd)

    monkeypatch.setattr(os, "open", traced_open)
    monkeypatch.setattr(os, "fsync", traced_fsync)
    return events


@pytest.mark.parametrize("make", [bank.BankService, bank.BankService.recover],
                         ids=["init", "recover"])
def test_a_created_log_has_its_directory_fsynced_before_any_record(tmp_path, monkeypatch, make):
    """A crash cannot lose the directory entry of a log whose first record was
    acknowledged; reopening an existing log, or not syncing, adds no fsync."""
    log = str(tmp_path / "bank.log")
    events = trace_opens_and_fsyncs(monkeypatch)
    service = make(log)
    service.register_series(scheme.SecretString.random(4, rng_for(0), "s1"))
    service.close()
    assert events == [("open", log), ("open", str(tmp_path)),
                      ("fsync", str(tmp_path)), ("fsync", log)]

    events.clear()
    make(log).close()
    make(str(tmp_path / "unsynced.log"), sync=False).close()
    assert [event for event in events if event[0] == "fsync"] == []


@pytest.mark.parametrize("sync", [True, False], ids=["sync", "no-sync"])
def test_a_torn_tail_cut_is_fsynced_before_the_log_reopens(tmp_path, monkeypatch, sync):
    """With ``sync``, the cut of a torn final record is fsynced before the log
    is reopened for append; without it, or with nothing to cut, no fsync runs."""
    log = str(tmp_path / "bank.log")
    service = bank.BankService(log, sync=False)
    service.register_series(scheme.SecretString.random(4, rng_for(0), "s1"))
    service.close()
    size = os.path.getsize(log)
    events = []
    real_truncate, real_fsync, real_open_log = os.truncate, os.fsync, bank._open_log

    def traced_truncate(path, length):
        events.append(("truncate", length))
        real_truncate(path, length)

    def traced_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_size))
        real_fsync(fd)

    def traced_open_log(path, sync):
        events.append(("reopen", os.path.getsize(path)))
        return real_open_log(path, sync)

    monkeypatch.setattr(os, "truncate", traced_truncate)
    monkeypatch.setattr(os, "fsync", traced_fsync)
    monkeypatch.setattr(bank, "_open_log", traced_open_log)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for tail, expected in [(b"VERIFY s1 1", [("truncate", size)] + [("fsync", size)] * sync),
                               (b"", [])]:
            with open(log, "ab") as fh:
                fh.write(tail)
            events.clear()
            service = bank.BankService.recover(log, sync=sync)
            service.close()
            assert events == expected + [("reopen", size)]
            assert service.torn_bytes == len(tail)


def test_interrupted_run_decisions_match_uninterrupted(tmp_path):
    """The same request stream produces identical decisions whether or not the
    service crashed and recovered halfway through."""
    k = 8
    rng = rng_for(19)
    secret = scheme.SecretString.random(k, rng_for(20), "s1")
    requests = []
    for _ in range(24):
        verb = ("VERIFY", "DECODE", "VOTE")[int(rng.integers(0, 3))]
        index = int(rng.integers(1, 9))
        payload = (
            secret.block(index) if rng.random() < 0.7 else int(rng.integers(0, 256))
        )
        requests.append(f"{verb} s1 {index} {payload:02x}")

    log_a = str(tmp_path / "a.log")
    service = bank.BankService(log_path=log_a)
    service.register_series(secret)
    uninterrupted = [service.handle_line(line) for line in requests]
    service.close()

    log_b = str(tmp_path / "b.log")
    service = bank.BankService(log_path=log_b)
    service.register_series(
        scheme.SecretString.from_hex(k, secret.to_hex(), "s1")
    )
    first = [service.handle_line(line) for line in requests[:12]]
    service.close()  # crash here
    service = bank.BankService.recover(log_b)
    second = [service.handle_line(line) for line in requests[12:]]
    service.close()
    assert first + second == uninterrupted


def test_corrupt_log_refused_with_offset(tmp_path):
    log = str(tmp_path / "bad.log")
    service, secret, sid = fresh_service(k=8, seed=21, log_path=log)
    service.handle("VERIFY", sid, *valid_report(secret, 1))
    service.handle("VERIFY", sid, *valid_report(secret, 2))
    service.close()
    lines = open(log).read().splitlines()
    lines[2] = lines[2].replace("OK", "REJECT:double-spend")
    with open(log, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(bank.CorruptLogError) as err:
        bank.BankService.recover(log)
    assert err.value.line_number == 3


def test_malformed_log_line_refused(tmp_path):
    log = tmp_path / "trunc.log"
    log.write_text("VERIFY s1 1\n")
    with pytest.raises(bank.CorruptLogError):
        bank.BankService.recover(str(log))


def test_recovery_refuses_a_secret_that_is_not_2k_blocks(tmp_path):
    """16 blocks registered at k=8 would leave DECODE c 200 0 with no block."""
    log = tmp_path / "short.log"
    short = "".join(f"{b:02x}" for b in range(16))
    log.write_text(f"SERIES c 8 {short} OK\nDECODE c 200 0 OK:00\n")
    with pytest.raises(bank.CorruptLogError) as err:
        bank.BankService.recover(str(log))
    assert (err.value.line_number, err.value.byte_offset) == (1, 0)


@pytest.mark.parametrize("text", ["-123456789abcdef", "012_456789abcdef"])
def test_recovery_refuses_a_secret_hex_with_non_hex_digits(tmp_path, text):
    """The sign or separator would register a secret other than the one logged."""
    log = tmp_path / "sign.log"
    log.write_text(f"SERIES s 4 {text} OK\n")
    with pytest.raises(bank.CorruptLogError) as err:
        bank.BankService.recover(str(log))
    assert (err.value.line_number, err.value.byte_offset) == (1, 0)


def test_failed_log_writes_in_a_row_leave_the_log_as_it_was(tmp_path):
    """Each failed write cuts its half record back off, including when the
    previous write failed too."""
    log = tmp_path / "full.log"
    service, secret, sid = fresh_service(log_path=str(log), sync=False)
    before = log.read_bytes()
    write = service._log.write

    def half_then_full(record):
        write(record[: len(record) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    service._log.write = half_then_full
    line = f"VERIFY s1 3 {secret.block(3):x}"
    for _ in range(2):
        assert service.handle_line(line) == "ERROR unavailable"
        assert log.read_bytes() == before
    service._log.write = write
    assert service.handle_line(line) == "OK"
    service.close()
    assert bank.BankService.recover(str(log)).snapshot(sid)["accepted"] == 1


def test_recovery_refuses_a_non_ascii_record_with_its_offset(tmp_path):
    log = tmp_path / "utf8.log"
    first = b"VERIFY nope 1 00 ERROR:unknown-series\n"
    log.write_bytes(first + "VERIFY sé 1 00 ERROR:unknown-series\n".encode("utf-8"))
    with pytest.raises(bank.CorruptLogError) as err:
        bank.BankService.recover(str(log))
    assert (err.value.line_number, err.value.byte_offset) == (2, len(first))


@pytest.mark.parametrize("bad_id", ["", "a b", "tab\tid", "é"])
def test_register_refuses_bad_series_id_before_any_change(tmp_path, bad_id):
    log = tmp_path / "bank.log"
    service = bank.BankService(str(log))
    with pytest.raises(ValueError):
        service.register_series(scheme.SecretString.random(4, rng_for(0), bad_id))
    assert service.series_ids() == []
    service.close()
    assert log.read_bytes() == b""
    assert bank.BankService.recover(str(log)).series_ids() == []


# -- concurrency --------------------------------------------------------------------


def test_shared_report_accepted_exactly_once_under_contention():
    service, secret, sid = fresh_service(k=12, seed=22)
    rep = valid_report(secret, 1)
    barrier = threading.Barrier(16)

    def worker():
        barrier.wait()
        return [service.handle("VERIFY", sid, *rep).status for _ in range(20)]

    with ThreadPoolExecutor(max_workers=16) as pool:
        results = [s for f in [pool.submit(worker) for _ in range(16)] for s in f.result()]
    assert results.count("OK") == 1


def test_fresh_series_rounds_have_one_accept_each():
    service = bank.BankService()
    rng = rng_for(23)
    for round_no in range(50):
        secret = scheme.SecretString.random(8, rng, f"r{round_no}")
        sid = service.register_series(secret)
        rep = valid_report(secret, 1)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: service.handle("VERIFY", sid, *rep).status, range(8)))
        assert results.count("OK") == 1


# -- golden transcript ----------------------------------------------------------------

GOLDEN_S1 = scheme.SecretString(4, [(5 * i + 3) % 16 for i in range(16)], "s1")
GOLDEN_S2 = scheme.SecretString(8, [(37 * i + 11) % 256 for i in range(256)], "s2")

# Every verb x decision, malformed lines, unknown series and out-of-range VERIFY
# fields; only decisions that change state are logged. s1 has k = 4 (cap_test = 4, blocks 3, 8, 13, 2, 7, 12, 1, 6, ...);
# s2 has k = 8 (blocks 5-9 are 9f, c4, e9, 0e, 33).
GOLDEN_TRANSCRIPT = [
    ("VERIFY s1 1 3", "OK"),
    ("VERIFY s1 1 3", "REJECT double-spend"),
    ("VERIFY s1 2 9", "REJECT bad-value"),
    ("VERIFY s1 17 0", "REJECT bad-value"),  # out of range
    ("VERIFY s1 2 1f", "REJECT bad-value"),  # out of range
    ("VERIFY nope 1 00", "ERROR unknown-series"),
    ("DECODE s1 3 a", "OK 7"),
    ("VERIFY s1 3 d", "REJECT double-spend"),  # the pad spent the pair
    ("VERIFY s1 4 2", "REJECT budget-exhausted"),
    ("DECODE s1 3 0", "REJECT reused-pad"),
    ("DECODE s1 1 0", "REJECT reused-pad"),  # verified pair burns the pad
    ("DECODE s1 0 0", "ERROR bad-index"),
    ("DECODE s1 17 0", "ERROR bad-index"),
    ("DECODE s1 5 10", "ERROR bad-payload"),
    ("DECODE s1 5 -1", "ERROR bad-payload"),
    ("DECODE nope 2 ab", "ERROR unknown-series"),
    ("VOTE s1 5 6", "OK"),
    ("VOTE s1 5 7", "REJECT double-vote"),
    ("VOTE s1 6 c", "OK"),
    ("VOTE s1 2 8", "OK"),  # the rejected (2, 9) report spent another pair
    ("VOTE s1 99 0", "ERROR bad-index"),
    ("VOTE s1 7 ff", "ERROR bad-payload"),
    ("VOTE nope 1 0", "ERROR unknown-series"),
    ("VOTE s1 1 0", "REJECT double-vote"),
    ("VERIFY s2 5 9f", "OK"),
    ("DECODE s2 6 f8", "OK 3c"),
    ("DECODE s2 7 e9", "OK 00"),
    ("VOTE s2 8 ab", "OK"),
    ("VERIFY s2 6 c4", "REJECT double-spend"),
    ("", "ERROR bad-request"),
    ("VERIFY", "ERROR bad-request"),
    ("VERIFY s1 1", "ERROR bad-request"),
    ("VERIFY s1 1 3 extra", "ERROR bad-request"),
    ("PING s1 1 0", "ERROR bad-request"),
    ("VERIFY s1 x 3", "ERROR bad-request"),
    ("DECODE s1 1 zz", "ERROR bad-request"),
    ("verify s1 1 3", "ERROR bad-request"),
    ("  VERIFY   s2   9   33  \n", "OK"),
    ("DECODE s1 +8 0x6", "OK 0"),
]

GOLDEN_LOG = (
    "SERIES s1 4 38d27c16b05af49e OK\n"
    "SERIES s2 8 "
    "0b30557a9fc4e90e33587da2c7ec11365b80a5caef14395e83a8cdf2173c6186"
    "abd0f51a3f6489aed3f81d42678cb1d6fb20456a8fb4d9fe23486d92b7dc0126"
    "4b7095badf04294e7398bde2072c51769bc0e50a2f54799ec3e80d32577ca1c6"
    "eb10355a7fa4c9ee13385d82a7ccf1163b6085aacff4193e6388add2f71c4166"
    "8bb0d5fa1f44698eb3d8fd22476c91b6db00254a6f94b9de03284d7297bce106"
    "2b50759abfe4092e53789dc2e70c31567ba0c5ea0f34597ea3c8ed12375c81a6"
    "cbf0153a5f84a9cef3183d6287acd1f61b40658aafd4f91e43688db2d7fc2146"
    "6b90b5daff24496e93b8dd02274c7196bbe0052a4f7499bee3082d52779cc1e6"
    " OK\n"
    "VERIFY s1 1 03 OK\n"
    "VERIFY s1 1 03 REJECT:double-spend\n"
    "VERIFY s1 2 19 REJECT:bad-value\n"
    "DECODE s1 3 a OK:7\n"
    "VERIFY s1 3 2d REJECT:double-spend\n"
    "VOTE s1 5 6 OK\n"
    "VOTE s1 6 c OK\n"
    "VOTE s1 2 8 OK\n"
    "VERIFY s2 5 049f OK\n"
    "DECODE s2 6 f8 OK:3c\n"
    "DECODE s2 7 e9 OK:00\n"
    "VOTE s2 8 ab OK\n"
    "VERIFY s2 6 05c4 REJECT:double-spend\n"
    "VERIFY s2 9 0833 OK\n"
    "DECODE s1 8 6 OK:0\n"
)

# The same transcript's log from before requests that change nothing went
# unlogged: it holds 13 more records, and such logs still recover.
PRE_CHANGE_GOLDEN_LOG = (
    "SERIES s1 4 38d27c16b05af49e OK\n"
    "SERIES s2 8 "
    "0b30557a9fc4e90e33587da2c7ec11365b80a5caef14395e83a8cdf2173c6186"
    "abd0f51a3f6489aed3f81d42678cb1d6fb20456a8fb4d9fe23486d92b7dc0126"
    "4b7095badf04294e7398bde2072c51769bc0e50a2f54799ec3e80d32577ca1c6"
    "eb10355a7fa4c9ee13385d82a7ccf1163b6085aacff4193e6388add2f71c4166"
    "8bb0d5fa1f44698eb3d8fd22476c91b6db00254a6f94b9de03284d7297bce106"
    "2b50759abfe4092e53789dc2e70c31567ba0c5ea0f34597ea3c8ed12375c81a6"
    "cbf0153a5f84a9cef3183d6287acd1f61b40658aafd4f91e43688db2d7fc2146"
    "6b90b5daff24496e93b8dd02274c7196bbe0052a4f7499bee3082d52779cc1e6"
    " OK\n"
    "VERIFY s1 1 03 OK\n"
    "VERIFY s1 1 03 REJECT:double-spend\n"
    "VERIFY s1 2 19 REJECT:bad-value\n"
    "DECODE s1 3 a OK:7\n"
    "VERIFY s1 3 2d REJECT:double-spend\n"
    "VERIFY s1 4 32 REJECT:budget-exhausted\n"
    "DECODE s1 3 0 REJECT:reused-pad\n"
    "DECODE s1 1 0 REJECT:reused-pad\n"
    "DECODE s1 0 0 ERROR:bad-index\n"
    "DECODE s1 17 0 ERROR:bad-index\n"
    "DECODE s1 5 10 ERROR:bad-payload\n"
    "DECODE s1 5 -1 ERROR:bad-payload\n"
    "DECODE nope 2 ab ERROR:unknown-series\n"
    "VOTE s1 5 6 OK\n"
    "VOTE s1 5 7 REJECT:double-vote\n"
    "VOTE s1 6 c OK\n"
    "VOTE s1 2 8 OK\n"
    "VOTE s1 99 0 ERROR:bad-index\n"
    "VOTE s1 7 ff ERROR:bad-payload\n"
    "VOTE nope 1 0 ERROR:unknown-series\n"
    "VOTE s1 1 0 REJECT:double-vote\n"
    "VERIFY s2 5 049f OK\n"
    "DECODE s2 6 f8 OK:3c\n"
    "DECODE s2 7 e9 OK:00\n"
    "VOTE s2 8 ab OK\n"
    "VERIFY s2 6 05c4 REJECT:double-spend\n"
    "VERIFY s2 9 0833 OK\n"
    "DECODE s1 8 6 OK:0\n"
)

# Older still, a direct unknown-series VERIFY call was logged too.
GOLDEN_LOG_WITH_UNKNOWN_VERIFY = PRE_CHANGE_GOLDEN_LOG + "VERIFY nope 2 15 ERROR:unknown-series\n"

GOLDEN_S1_STATE = {"attempts": 4, "accepted": 1, "pads_used": [24, 45, 71, 92, 118],
                   "tally": {1: 1, 0: 2}}


def series_state(service, sid):
    snap = service.snapshot(sid)
    return {key: snap[key] for key in ("attempts", "accepted", "pads_used", "tally")}


def test_golden_transcript_responses_and_log(tmp_path):
    log = str(tmp_path / "golden.log")
    service = bank.BankService(log_path=log, sync=False)
    service.register_series(GOLDEN_S1)
    service.register_series(GOLDEN_S2)
    responses = [(line, service.handle_line(line)) for line, _ in GOLDEN_TRANSCRIPT]
    direct = service.handle("VERIFY", "nope", 2, 5)  # not logged
    assert (direct.status, direct.reason) == ("ERROR", "unknown-series")
    assert series_state(service, "s1") == GOLDEN_S1_STATE
    service.close()
    assert responses == GOLDEN_TRANSCRIPT
    with open(log, encoding="ascii", newline="") as fh:
        assert fh.read() == GOLDEN_LOG

    recovered = bank.BankService.recover(log, sync=False)
    assert series_state(recovered, "s1") == GOLDEN_S1_STATE
    assert recovered.handle_line("VERIFY s2 10 58") == "OK"
    recovered.close()
    with open(log, encoding="ascii", newline="") as fh:
        assert fh.read() == GOLDEN_LOG + "VERIFY s2 10 0958 OK\n"


def test_log_with_an_unknown_series_verify_record_recovers(tmp_path):
    """Logs written with records that change nothing recover to the same state."""
    for text in (PRE_CHANGE_GOLDEN_LOG, GOLDEN_LOG_WITH_UNKNOWN_VERIFY):
        log = tmp_path / "golden.log"
        log.write_text(text, encoding="ascii")
        recovered = bank.BankService.recover(str(log), sync=False)
        assert series_state(recovered, "s1") == GOLDEN_S1_STATE
        assert recovered.handle_line("VERIFY s2 10 58") == "OK"
        recovered.close()


# -- model-based property test ------------------------------------------------------------

MODEL_K = 4  # cap_test = 4 and 16 indices, so budgets run out and pairs collide


def model_responses(secret, cap, requests):
    """What the service must answer, from sets and counters only, and how
    many of the requests change state."""
    spent, tally, attempts, out, changes = set(), Counter(), 0, [], 0
    for verb, sid, index, value in requests:
        if sid != secret.series_id:
            out.append("ERROR unknown-series")
        elif verb == "VERIFY":
            if not (1 <= index <= 1 << MODEL_K and 0 <= value < 1 << MODEL_K):
                out.append("REJECT bad-value")
            elif attempts >= cap:
                out.append("REJECT budget-exhausted")
            else:
                attempts += 1
                changes += 1
                fresh = (index, value) not in spent
                spent.add((index, value))
                if secret.block(index) != value:
                    out.append("REJECT bad-value")
                else:
                    out.append("OK" if fresh else "REJECT double-spend")
        elif not 1 <= index <= 1 << MODEL_K:
            out.append("ERROR bad-index")
        elif not 0 <= value < 1 << MODEL_K:
            out.append("ERROR bad-payload")
        elif (index, secret.block(index)) in spent:
            out.append("REJECT double-vote" if verb == "VOTE" else "REJECT reused-pad")
        else:
            pad = secret.block(index)
            spent.add((index, pad))
            changes += 1
            if verb == "VOTE":
                tally[value ^ pad] += 1
                out.append("OK")
            else:
                out.append(f"OK {value ^ pad:x}")
    return out, dict(tally), changes


MODEL_SECRET = scheme.SecretString.random(MODEL_K, rng_for(31), "m1")


def model_request(verb, sid, index, value):
    """A value of None stands for the true block at ``index`` (0 out of range)."""
    if value is None:
        value = MODEL_SECRET.block(index) if 1 <= index <= 1 << MODEL_K else 0
    return verb, sid, index, value


request_strategy = st.builds(
    model_request,
    st.sampled_from(["VERIFY", "DECODE", "VOTE"]),
    st.sampled_from(["m1", "m1", "m1", "other"]),
    st.integers(min_value=-1, max_value=(1 << MODEL_K) + 1),
    st.none() | st.integers(min_value=-1, max_value=1 << MODEL_K),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(request_strategy, max_size=40), st.data())
def test_service_matches_model_and_recovery_is_transparent(requests, data):
    cap = scheme.SchemeParams.for_k(MODEL_K).cap_test
    lines = [f"{verb} {sid} {index} {value:x}" for verb, sid, index, value in requests]
    expected, expected_tally, changes = model_responses(MODEL_SECRET, cap, requests)
    split = data.draw(st.integers(min_value=0, max_value=len(lines)), label="split")
    with tempfile.TemporaryDirectory() as tmp:
        whole = bank.BankService(log_path=os.path.join(tmp, "whole.log"), sync=False)
        whole.register_series(MODEL_SECRET)
        assert [whole.handle_line(line) for line in lines] == expected
        assert whole.snapshot("m1")["tally"] == expected_tally
        whole.close()
        with open(os.path.join(tmp, "whole.log"), "rb") as fh:
            assert len(fh.readlines()) == 1 + changes  # the SERIES record, then one per change

        log = os.path.join(tmp, "split.log")
        first = bank.BankService(log_path=log, sync=False)
        first.register_series(MODEL_SECRET)
        responses = [first.handle_line(line) for line in lines[:split]]
        first.close()
        second = bank.BankService.recover(log, sync=False)
        responses += [second.handle_line(line) for line in lines[split:]]
        second.close()
        assert responses == expected
        with open(log, encoding="ascii") as a, open(os.path.join(tmp, "whole.log")) as b:
            assert a.read() == b.read()

        # One log write stores half its record and fails with ENOSPC: the
        # SERIES record's (crash = -1) or the first logged request's from
        # request ``crash`` on. The failed request is answered ERROR
        # unavailable and changes nothing, so every later response is the
        # model's for the stream without it.
        crash = data.draw(st.integers(min_value=-1, max_value=len(lines) - 1), label="crash")
        log = os.path.join(tmp, "crash.log")
        service = bank.BankService(log_path=log, sync=False)
        write, armed = service._log.write, crash == -1

        def failing_write(record):
            nonlocal armed
            if armed:
                armed = False
                write(record[: len(record) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(record)

        service._log.write = failing_write
        if crash == -1:
            with pytest.raises(OSError):
                service.register_series(MODEL_SECRET)
            assert service.series_ids() == []
        service.register_series(MODEL_SECRET)
        sent, responses = [], []
        for j, (line, request) in enumerate(zip(lines, requests)):
            armed = armed or j == crash
            response = service.handle_line(line)
            if response == "ERROR unavailable":
                continue
            responses.append(response)
            sent.append(request)
        assert len(sent) >= len(lines) - 1
        expected, expected_tally, changes = model_responses(MODEL_SECRET, cap, sent)
        assert responses == expected
        assert service.snapshot("m1")["tally"] == expected_tally
        snapshot = service.snapshot("m1")
        service.close()
        with open(log, "rb") as fh:
            assert len(fh.readlines()) == 1 + changes
        recovered = bank.BankService.recover(log, sync=False)
        assert recovered.snapshot("m1") == snapshot
        recovered.close()


OTHER_SECRET = scheme.SecretString.random(MODEL_K, rng_for(32), "m2")


def all_states(service):
    return {sid: service.snapshot(sid) for sid in service.series_ids()}


@settings(max_examples=60, deadline=None)
@given(st.lists(request_strategy, max_size=40), st.data())
def test_log_cut_at_any_byte_recovers_its_complete_records(requests, data):
    """Bytes after the last newline are a torn record: recovery cuts them off
    with a warning and never replays them, and the log recovers again after
    more records are appended."""
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "bank.log")
        service = bank.BankService(log_path=log, sync=False)
        service.register_series(MODEL_SECRET)
        for verb, sid, index, value in requests:
            service.handle_line(f"{verb} {sid} {index} {value:x}")
        service.close()
        with open(log, "rb") as fh:
            text = fh.read()
        cut = data.draw(st.integers(min_value=0, max_value=len(text)), label="cut")
        complete = text[: text.rfind(b"\n", 0, cut) + 1]
        prefix = os.path.join(tmp, "prefix.log")
        with open(prefix, "wb") as fh:
            fh.write(complete)
        replayed = bank.BankService.recover(prefix, sync=False)
        expected = all_states(replayed)
        replayed.close()

        os.truncate(log, cut)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            service = bank.BankService.recover(log, sync=False)
        torn = cut - len(complete)
        assert [str(w.message) for w in caught] == (
            [f"{log}: cut {torn} torn bytes at byte offset {len(complete)}"] if torn else []
        )
        assert all_states(service) == expected
        assert service.torn_bytes == torn
        service.register_series(OTHER_SECRET)
        assert service.handle("VERIFY", "m2", 1, OTHER_SECRET.block(1)).status == "OK"
        after = all_states(service)
        service.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = bank.BankService.recover(log, sync=False)
        assert all_states(again) == after
        again.close()
