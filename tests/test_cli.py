"""Command-line interface tests."""

import pytest

from qtoken import bank, cli


def test_bounds_command(capsys):
    assert cli.main(["bounds", "--k", "16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("quantity,q,r,value\n")
    assert "cap_test,,,256" in out
    assert "eps_f_constant5" in out and "eps_f_constant6" in out


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


def test_mint_then_recover_log(tmp_path, capsys):
    log = str(tmp_path / "bank.log")
    assert cli.main(["mint", "--log", log, "--k", "8", "--series", "demo", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "registered series demo" in out
    verify_lines = [l for l in out.splitlines() if l.startswith("VERIFY demo")]
    assert len(verify_lines) == 4

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
