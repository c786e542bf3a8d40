"""Command-line interface tests."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qtoken import bank, cli, harness


def test_bounds_command(capsys):
    assert cli.main(["bounds", "--k", "16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("quantity,q,r,value\n")
    assert "cap_test,,,256" in out
    assert "eps_f_constant5" in out and "eps_f_constant6" in out


def test_bounds_refuses_k_above_20(capsys):
    """The exact all-correct term has k * 2^(k/2) bits; past the package's
    largest k it grows out of reach."""
    assert cli.main(["bounds", "--k", "24"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["bounds needs k <= 20"]


def test_run_command_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "result.csv"
    code = cli.main([
        "run", "voting", "--k", "8", "--trials", "30", "--seed", "5",
        "--out", str(out_path),
    ])
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0].startswith("scenario,k,seed,metric")
    assert "voting" in text


def test_run_command_stdout(capsys):
    code = cli.main(["run", "otp-roundtrip", "--k", "8", "--trials", "16", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "roundtrip_identity" in out


def test_run_reports_its_timing_on_stderr_only(capsys):
    """The last stderr line gives the run's elapsed seconds and trials/s;
    stdout is the scenario's CSV byte for byte."""
    code = cli.main(["run", "forgery", "--k", "8", "--trials", "50", "--seed", "1"])
    assert code == 0
    captured = capsys.readouterr()
    spec = harness.ScenarioSpec("forgery", k=8, trials=50, seed=1)
    assert captured.out == harness.run_scenario(spec).to_csv()
    last = captured.err.splitlines()[-1]
    assert re.fullmatch(r"forgery: 50 trials in \d+\.\d{3} s, \d+\.\d trials/s", last), last


def test_mint_then_recover_log(tmp_path, capsys):
    log = str(tmp_path / "bank.log")
    assert cli.main(["mint", "--log", log, "--k", "8", "--series", "demo", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "registered series demo" in out
    verify_lines = [l for l in out.splitlines() if l.startswith("VERIFY demo")]
    pairs = ("105 36", "68 ee", "126 c0", "147 56")
    assert verify_lines == [f"VERIFY demo {pair}" for pair in pairs]

    service = bank.BankService.recover(log)
    assert service.series_ids() == ["demo"]
    # The printed sample reports verify against the recovered service.
    response = service.handle_line(verify_lines[0])
    assert response == "OK"
    service.close()


def test_run_command_stderr_metrics_are_plain_floats(tmp_path, capsys):
    code = cli.main(["run", "inequality-suite", "--trials", "20", "--out",
                     str(tmp_path / "suite.csv")])
    assert code == 1  # the projection_chain_violation row is red by design
    err = capsys.readouterr().err
    assert "projection_chain_violation: estimate=" in err
    assert "np.float64" not in err


@pytest.mark.parametrize("k", ["0", "-4", "6"])
def test_mint_refuses_bad_k_before_creating_the_log(tmp_path, capsys, k):
    log = tmp_path / "bank.log"
    assert cli.main(["mint", "--log", str(log), "--k", k]) == 2
    assert "positive multiple of 4" in capsys.readouterr().err
    assert not log.exists()


def test_mint_refuses_negative_reports_before_creating_the_log(tmp_path, capsys):
    log = tmp_path / "bank.log"
    assert cli.main(["mint", "--log", str(log), "--k", "8", "--reports", "-1"]) == 2
    assert "--reports" in capsys.readouterr().err
    assert not log.exists()


@pytest.mark.parametrize(
    "series_args, message",
    [([], "already registered"), (["--series", "a b"], "no whitespace")],
    ids=["taken", "malformed"],
)
def test_mint_refuses_a_taken_or_malformed_series_id(tmp_path, capsys, series_args, message):
    log = tmp_path / "bank.log"
    assert cli.main(["mint", "--log", str(log), "--k", "4"]) == 0
    logged = log.read_bytes()
    capsys.readouterr()
    assert cli.main(["mint", "--log", str(log), "--k", "4", *series_args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1
    assert log.read_bytes() == logged


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "forgery", "--k", "6"], "positive multiple of 4"),
        (["run", "honest-flow", "--k", "12"], "needs k <= 8"),
        (["run", "voting", "--k", "8", "--trials", "300"], "more voters than distinct pad indices"),
        (["run", "forgery", "--trials", "0"], "trials must be >= 1"),
        (["bounds", "--k", "6"], "positive multiple of 4"),
        (["run", "tracking-audit", "--k", "5", "--trials", "5"], "positive multiple of 4"),
    ],
)
def test_bad_arguments_exit_2_without_a_traceback(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_serve_refuses_an_existing_file_at_the_socket_path(tmp_path, capsys):
    log = tmp_path / "bank.log"
    assert cli.main(["mint", "--log", str(log), "--k", "4"]) == 0
    logged = log.read_bytes()
    capsys.readouterr()
    assert cli.main(["serve", "--log", str(log), "--socket", str(log)]) == 2
    assert capsys.readouterr().err.endswith(f"{log} exists and is not a socket\n")
    assert log.read_bytes() == logged
    service = bank.BankService.recover(str(log))
    assert service.series_ids() == ["series-0"]
    service.close()


@pytest.mark.parametrize("command", ["mint", "serve"])
def test_corrupt_log_is_reported_without_a_traceback(tmp_path, capsys, command):
    log = tmp_path / "bank.log"
    log.write_text("VERIFY s1 1 00 OK\n")
    socket_args = ["--socket", str(tmp_path / "bank.sock")] if command == "serve" else []
    assert cli.main([command, "--log", str(log), *socket_args]) == 2
    assert capsys.readouterr().err == (
        f"cannot recover {log}: replayed decision ERROR:unknown-series != logged OK "
        "(line 1, byte offset 0)\n"
    )
    assert log.read_text() == "VERIFY s1 1 00 OK\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "voting", "--k", "8", "--trials", "5", "--out", "{missing}"],
         "[Errno 2] No such file or directory: '{missing}'"),
        (["bounds", "--k", "4", "--out", "{missing}"],
         "[Errno 2] No such file or directory: '{missing}'"),
        (["mint", "--log", "{missing}"], "cannot recover {missing}: "),
        (["serve", "--log", "{dir}", "--socket", "{dir}/bank.sock"], "cannot recover {dir}: "),
        (["serve", "--log", "{dir}/bank.log", "--socket", "{missing}"],
         "cannot listen on {missing}: "),
    ],
    ids=["run-out", "bounds-out", "mint-log", "serve-log-dir", "serve-socket"],
)
def test_unusable_paths_exit_2_without_a_traceback(tmp_path, capsys, argv, message):
    """A missing directory or a directory in place of a file is refused on
    one stderr line with exit 2; exit 1 means a metric failed."""
    paths = {"missing": tmp_path / "missing" / "x", "dir": tmp_path}
    assert cli.main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(**paths)) and captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_run_refuses_a_missing_out_directory_before_the_run(tmp_path, capsys, monkeypatch):
    """A mistyped --out directory, or a directory given as --out, costs no run,
    and an existing --out file is neither opened nor truncated by a refused run."""

    def no_run(spec):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli.harness, "run_scenario", no_run)
    missing = tmp_path / "missing" / "x.csv"
    assert cli.main(["run", "voting", "--out", str(missing)]) == 2
    assert capsys.readouterr().err == f"[Errno 2] No such file or directory: '{missing}'\n"
    assert not missing.parent.exists()
    assert cli.main(["run", "voting", "--k", "8", "--trials", "5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"[Errno 21] Is a directory: '{tmp_path}'\n"

    monkeypatch.undo()
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier results\n")
    assert cli.main(["run", "forgery", "--k", "6", "--out", str(kept)]) == 2
    assert kept.read_text() == "earlier results\n"


@pytest.mark.parametrize("port", ["99999", "65536", "-1"])
def test_serve_refuses_a_tcp_port_out_of_range(tmp_path, capsys, port):
    address = f"127.0.0.1:{port}"
    assert cli.main(["serve", "--log", str(tmp_path / "bank.log"), "--socket", address]) == 2
    assert capsys.readouterr().err == (
        f"cannot listen on {address}: TCP port {port} is outside 0-65535\n"
    )


def test_serve_reports_what_recovery_replayed_before_listening(tmp_path, capsys):
    """The recovery line gives the series, the records replayed, the torn bytes
    cut and the seconds recovery took; ``listening on`` stays the last
    start-up line, and a torn log prints no warning."""
    log = tmp_path / "bank.log"
    assert cli.main(["mint", "--log", str(log), "--k", "4", "--series", "a"]) == 0
    assert cli.main(["mint", "--log", str(log), "--k", "4", "--series", "b"]) == 0
    sample = [l for l in capsys.readouterr().out.splitlines() if l.startswith("VERIFY b ")]
    service = bank.BankService.recover(str(log))
    assert service.handle_line(sample[0]) == "OK"
    service.close()

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for tail in (b"", b"VERIFY b 1"):  # a clean log, then one with a torn final record
        with open(log, "ab") as fh:
            fh.write(tail)
        sock = tmp_path / f"bank{len(tail)}.sock"
        server = subprocess.Popen(
            [sys.executable, "-m", "qtoken.cli", "serve", "--log", str(log), "--socket", str(sock)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            err = [server.stderr.readline().rstrip("\n")]
            while not err[-1].startswith("listening on") and len(err) < 10:
                err.append(server.stderr.readline().rstrip("\n"))
        finally:
            server.kill()
            server.communicate(timeout=30)
        assert re.fullmatch(
            rf"recovered 2 series from {re.escape(str(log))} "
            rf"\(3 records replayed, {len(tail)} torn bytes cut, in \d+\.\d{{3}} s\)", err[-2]), err
        assert err[-1] == f"listening on {sock}"
        assert not [line for line in err if "Warning" in line], err
