"""Bank service tests: verification, pads, votes, persistence, wire protocol."""

import os
import tempfile
import threading
from collections import Counter
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
    return scheme.TokenReport(index, secret.block(index), secret.k)


# -- verify ---------------------------------------------------------------------


def test_verify_accept_then_double_spend():
    service, secret, sid = fresh_service()
    rep = valid_report(secret, 3)
    assert service.handle_verify(sid, rep).status == "OK"
    again = service.handle_verify(sid, rep)
    assert (again.status, again.reason) == ("REJECT", "double-spend")


def test_verify_bad_value():
    service, secret, sid = fresh_service()
    bad = scheme.TokenReport(3, secret.block(3) ^ 1, secret.k)
    decision = service.handle_verify(sid, bad)
    assert (decision.status, decision.reason) == ("REJECT", "bad-value")


def test_verify_unknown_series():
    service, secret, _ = fresh_service()
    decision = service.handle_verify("nope", valid_report(secret))
    assert (decision.status, decision.reason) == ("ERROR", "unknown-series")


def test_verify_mismatched_k_is_a_caller_error():
    service, _, sid = fresh_service()
    with pytest.raises(ValueError):
        service.handle_verify(sid, scheme.TokenReport(1, 0, 8))


def test_verify_budget_enforced_exactly():
    service, secret, sid = fresh_service()  # cap_test = 4 at k = 4
    for i in range(1, 5):
        decision = service.handle_verify(sid, valid_report(secret, i))
        assert decision.status == "OK"
    over = service.handle_verify(sid, valid_report(secret, 5))
    assert (over.status, over.reason) == ("REJECT", "budget-exhausted")
    snap = service.snapshot(sid)
    assert snap["attempts"] == 4 and snap["accepted"] == 4


def test_rejected_submissions_count_against_budget():
    service, secret, sid = fresh_service()
    bad = scheme.TokenReport(1, secret.block(1) ^ 1, secret.k)
    for _ in range(4):
        assert service.handle_verify(sid, bad).reason in ("bad-value", "double-spend")
    assert service.handle_verify(sid, valid_report(secret, 2)).reason == "budget-exhausted"


def test_accepts_never_exceed_distinct_valid_pairs():
    service, secret, sid = fresh_service(k=8, seed=3)
    rng = rng_for(4)
    submitted = []
    for _ in range(scheme.SchemeParams.for_k(8).cap_test):
        rep = scheme.TokenReport(int(rng.integers(1, 257)), int(rng.integers(0, 256)), 8)
        submitted.append(rep)
        service.handle_verify(sid, rep)
    distinct_valid = len(
        {r.wire() for r in submitted if secret.block(r.index) == r.value}
    )
    assert service.snapshot(sid)["accepted"] <= distinct_valid


# -- decode and vote -------------------------------------------------------------


def test_decode_roundtrip_and_zero_cipher():
    service, secret, sid = fresh_service(k=8, seed=5)
    message = 0b10110100
    pad = secret.block(7)
    decision = service.handle_decode(sid, 7, pad ^ message)
    assert decision.status == "OK" and decision.payload == message
    zero = service.handle_decode(sid, 9, secret.block(9))
    assert zero.status == "OK" and zero.payload == 0


def test_decode_consumes_the_pad():
    service, secret, sid = fresh_service(k=8, seed=6)
    pad = secret.block(2)
    assert service.handle_decode(sid, 2, pad ^ 0x5A).status == "OK"
    again = service.handle_decode(sid, 2, pad ^ 0x33)
    assert (again.status, again.reason) == ("REJECT", "reused-pad")


def test_money_and_pad_flows_share_freshness():
    service, secret, sid = fresh_service(k=8, seed=7)
    # decode first, same pair can no longer pass verification
    service.handle_decode(sid, 4, secret.block(4))
    verify = service.handle_verify(sid, valid_report(secret, 4))
    assert (verify.status, verify.reason) == ("REJECT", "double-spend")
    # verify first, pad is burned for decoding
    assert service.handle_verify(sid, valid_report(secret, 5)).status == "OK"
    decode = service.handle_decode(sid, 5, secret.block(5))
    assert (decode.status, decode.reason) == ("REJECT", "reused-pad")


def test_decode_index_out_of_range():
    service, _, sid = fresh_service(k=8, seed=8)
    decision = service.handle_decode(sid, 257, 0)
    assert (decision.status, decision.reason) == ("ERROR", "bad-index")


def test_vote_tally_and_double_vote():
    service, secret, sid = fresh_service(k=8, seed=9)
    assert service.handle_vote(sid, 1, secret.block(1) ^ 1).status == "OK"
    assert service.handle_vote(sid, 2, secret.block(2) ^ 0).status == "OK"
    assert service.handle_vote(sid, 3, secret.block(3) ^ 1).status == "OK"
    assert service.tally(sid) == {1: 2, 0: 1}
    double = service.handle_vote(sid, 1, secret.block(1) ^ 0)
    assert (double.status, double.reason) == ("REJECT", "double-vote")
    assert service.tally(sid) == {1: 2, 0: 1}


def test_vote_payload_decodes_to_cast_choice():
    service, secret, sid = fresh_service(k=8, seed=10)
    rng = rng_for(11)
    choices = [int(rng.integers(0, 256)) for _ in range(20)]
    for i, choice in enumerate(choices, start=1):
        assert service.handle_vote(sid, i, secret.block(i) ^ choice).status == "OK"
    tally = service.tally(sid)
    assert sum(tally.values()) == len(choices)
    for choice in choices:
        assert tally[choice] == choices.count(choice)


# -- wire protocol ------------------------------------------------------------------


def test_wire_protocol_lines():
    service, secret, sid = fresh_service(k=8, seed=12)
    rep = valid_report(secret, 3)
    r_hex = format(rep.value, "02x")
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
    server = bank.BankServer(service, str(tmp_path / "bank.sock"))
    server.start()
    try:
        client = bank.BankClient(server.address)
        for index, line in enumerate(NON_ASCII_LINES, start=1):
            assert client.request(line) == "ERROR bad-request"
            assert client.request(f"DECODE {sid} {index} {secret.block(index):02x}") == "OK 00"
        client.close()
    finally:
        server.stop()
        service.close()


def test_socket_server_roundtrip(tmp_path):
    service, secret, sid = fresh_service(k=8, seed=13)
    server = bank.BankServer(service, str(tmp_path / "bank.sock"))
    server.start()
    try:
        client = bank.BankClient(server.address)
        rep = valid_report(secret, 2)
        assert client.request(f"VERIFY {sid} 2 {rep.value:02x}") == "OK"
        assert client.request(f"VERIFY {sid} 2 {rep.value:02x}") == "REJECT double-spend"
        assert client.request(f"DECODE {sid} 3 {secret.block(3):02x}") == "OK 00"
        client.close()
    finally:
        server.stop()


def test_tcp_server_roundtrip():
    service, secret, sid = fresh_service(k=8, seed=14)
    server = bank.BankServer(service, "127.0.0.1:0")
    server.start()
    try:
        client = bank.BankClient(server.address)
        rep = valid_report(secret, 2)
        assert client.request(f"VERIFY {sid} 2 {rep.value:02x}") == "OK"
        client.close()
    finally:
        server.stop()


def test_concurrent_socket_clients_single_accept(tmp_path):
    service, secret, sid = fresh_service(k=8, seed=15)
    server = bank.BankServer(service, str(tmp_path / "bank.sock"))
    server.start()
    rep = valid_report(secret, 1)
    line = f"VERIFY {sid} 1 {rep.value:02x}"
    barrier = threading.Barrier(8)

    def worker():
        client = bank.BankClient(server.address)
        barrier.wait()
        results = [client.request(line) for _ in range(5)]
        client.close()
        return results

    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            all_results = [r for f in [pool.submit(worker) for _ in range(8)] for r in f.result()]
    finally:
        server.stop()
    assert all_results.count("OK") == 1


# -- persistence and recovery --------------------------------------------------------


def test_recovery_preserves_double_spend(tmp_path):
    log = str(tmp_path / "bank.log")
    service, secret, sid = fresh_service(k=8, seed=16, log_path=log)
    rep = valid_report(secret, 3)
    assert service.handle_verify(sid, rep).status == "OK"
    service.close()  # crash between the two duplicate submissions

    recovered = bank.BankService.recover(log)
    decision = recovered.handle_verify(sid, rep)
    assert (decision.status, decision.reason) == ("REJECT", "double-spend")
    recovered.close()


def test_recovery_of_empty_and_single_entry_logs(tmp_path):
    log = str(tmp_path / "empty.log")
    service = bank.BankService.recover(log)
    assert service.series_ids() == []
    service.close()

    log2 = str(tmp_path / "one.log")
    service, secret, sid = fresh_service(k=8, seed=17, log_path=log2)
    service.handle_verify(sid, valid_report(secret, 1))
    service.close()
    recovered = bank.BankService.recover(log2)
    snap = recovered.snapshot(sid)
    assert snap["attempts"] == 1 and snap["accepted"] == 1
    recovered.close()


def test_recovery_restores_full_state(tmp_path):
    log = str(tmp_path / "full.log")
    service, secret, sid = fresh_service(k=8, seed=18, log_path=log)
    service.handle_verify(sid, valid_report(secret, 1))
    service.handle_verify(sid, scheme.TokenReport(2, secret.block(2) ^ 1, 8))
    service.handle_decode(sid, 3, secret.block(3) ^ 0x7E)
    service.handle_vote(sid, 4, secret.block(4) ^ 1)
    before = service.snapshot(sid)
    service.close()
    recovered = bank.BankService.recover(log)
    assert recovered.snapshot(sid) == before
    recovered.close()


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
    service.handle_verify(sid, valid_report(secret, 1))
    service.handle_verify(sid, valid_report(secret, 2))
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


@pytest.mark.parametrize("bad_id", ["", "a b", "tab\tid", "é"])
def test_register_refuses_bad_series_id_before_any_change(tmp_path, bad_id):
    log = tmp_path / "bank.log"
    service = bank.BankService(str(log))
    with pytest.raises(ValueError):
        service.register_series(scheme.SecretString.random(4, rng_for(0)), bad_id)
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
        return [service.handle_verify(sid, rep).status for _ in range(20)]

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
            results = list(pool.map(lambda _: service.handle_verify(sid, rep).status, range(8)))
        assert results.count("OK") == 1


# -- golden transcript ----------------------------------------------------------------

GOLDEN_S1 = scheme.SecretString(4, [(5 * i + 3) % 16 for i in range(16)], "s1")
GOLDEN_S2 = scheme.SecretString(8, [(37 * i + 11) % 256 for i in range(256)], "s2")

# Every verb x decision, malformed lines, unknown series and out-of-range VERIFY
# fields. s1 has k = 4 (cap_test = 4, blocks 3, 8, 13, 2, 7, 12, 1, 6, ...);
# s2 has k = 8 (blocks 5-9 are 9f, c4, e9, 0e, 33).
GOLDEN_TRANSCRIPT = [
    ("VERIFY s1 1 3", "OK"),
    ("VERIFY s1 1 3", "REJECT double-spend"),
    ("VERIFY s1 2 9", "REJECT bad-value"),
    ("VERIFY s1 17 0", "REJECT bad-value"),  # out of range: not logged
    ("VERIFY s1 2 1f", "REJECT bad-value"),  # out of range: not logged
    ("VERIFY nope 1 00", "ERROR unknown-series"),  # not logged
    ("DECODE s1 3 a", "OK 7"),
    ("VERIFY s1 3 d", "REJECT double-spend"),  # the pad spent the pair
    ("VERIFY s1 4 2", "REJECT budget-exhausted"),
    ("DECODE s1 3 0", "REJECT reused-pad"),
    ("DECODE s1 1 0", "REJECT reused-pad"),  # verified pair burns the pad
    ("DECODE s1 0 0", "ERROR bad-index"),
    ("DECODE s1 17 0", "ERROR bad-index"),
    ("DECODE s1 5 10", "ERROR bad-payload"),
    ("DECODE s1 5 -1", "ERROR bad-payload"),
    ("DECODE nope 2 ab", "ERROR unknown-series"),  # logged
    ("VOTE s1 5 6", "OK"),
    ("VOTE s1 5 7", "REJECT double-vote"),
    ("VOTE s1 6 c", "OK"),
    ("VOTE s1 2 8", "OK"),  # the rejected (2, 9) report spent another pair
    ("VOTE s1 99 0", "ERROR bad-index"),
    ("VOTE s1 7 ff", "ERROR bad-payload"),
    ("VOTE nope 1 0", "ERROR unknown-series"),  # logged
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
    "VERIFY nope 2 15 ERROR:unknown-series\n"
)

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
    direct = service.handle_verify("nope", scheme.TokenReport(2, 5, 4))
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


# -- model-based property test ------------------------------------------------------------

MODEL_K = 4  # cap_test = 4 and 16 indices, so budgets run out and pairs collide


def model_responses(secret, cap, requests):
    """What the service must answer, from sets and counters only."""
    spent, tally, attempts, out = set(), Counter(), 0, []
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
            if verb == "VOTE":
                tally[value ^ pad] += 1
                out.append("OK")
            else:
                out.append(f"OK {value ^ pad:x}")
    return out, dict(tally)


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
    expected, expected_tally = model_responses(MODEL_SECRET, cap, requests)
    split = data.draw(st.integers(min_value=0, max_value=len(lines)), label="split")
    with tempfile.TemporaryDirectory() as tmp:
        whole = bank.BankService(log_path=os.path.join(tmp, "whole.log"), sync=False)
        whole.register_series(MODEL_SECRET)
        assert [whole.handle_line(line) for line in lines] == expected
        assert whole.tally("m1") == expected_tally
        whole.close()

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
