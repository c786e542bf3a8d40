"""Fast self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every workload reports exactly the metric names and units
that BENCHMARK.json declares, in both the untraced and the traced run, that
the correctness checks pass on the current code, and that they catch a
wrong answer: a deliberately wrong expected bank response and a wrong pass
flag must each be counted as failed. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402  (needs the paths above)
import run  # noqa: E402
import scenarios  # noqa: E402

TINY = {
    "forgery": scenarios.ScenarioWorkload("forgery", 8, 20, 5),
    "audit": scenarios.ScenarioWorkload("tracking-audit", 4, 20, 5),
    "suite": scenarios.ScenarioWorkload("inequality-suite", None, 10, 5),
}
TINY_BANK = run.BankConfig(k=8, conns=2, traced_requests=200)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def declared() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_declared_metrics_match_code() -> None:
    end_to_end, per_layer = declared()
    expect(end_to_end == run.END_TO_END, f"end_to_end {end_to_end} != {run.END_TO_END}")
    expect(per_layer == run.PER_LAYER, f"per_layer {per_layer} != {run.PER_LAYER}")


def _run_tiny(workload: str, trace: bool) -> tuple[dict, run.Outcome]:
    outcome, info = run.Outcome(), {}
    if workload == "bank":
        values = run.run_bank_workload(3, 0.5, trace, outcome, info, TINY_BANK, setup_repeats=1)
    else:
        values = run.run_scenario_workload(workload, 3, 0.01, trace, outcome, info,
                                           TINY[workload], setup_repeats=1)
    return values, outcome


def test_every_workload_reports_its_metrics() -> None:
    for workload in run.WORKLOADS:
        for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            values, outcome = _run_tiny(workload, trace)
            expect(set(values) == set(names), f"{workload} trace={trace}: names {sorted(values)}")
            expect(outcome.failed == 0, f"{workload} trace={trace}: {outcome.problems}")
            expect(outcome.attempted > 0, f"{workload} trace={trace}: nothing checked")
            if not trace:
                expect(all(values[n] > 0 for n in names), f"{workload}: zero metric {values}")


def test_wrong_expected_response_is_counted() -> None:
    import bankload

    work = run.WORK_DIR / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    address = str(Path(work / "s.sock").relative_to(ROOT))
    log = str(work / "bank.log")
    Path(log).unlink(missing_ok=True)
    bankload.register(log, 8, 5, 1)
    server = bankload.ServerProcess(str(ROOT), run._child_env(), log, address)
    echo = calibrate.EchoProbe(os.path.relpath(work, ROOT))
    try:
        stream = bankload.RequestStream(5, 0, 8, 50)
        honest_next = stream.next
        calls = [0]

        def corrupted_next():
            line, want = honest_next()
            calls[0] += 1
            return line, ("OK deliberately-wrong" if calls[0] == 7 else want)

        stream.next = corrupted_next
        outcome = run.Outcome()
        run._drive(address, [stream], 50, 5.0, echo, outcome)
    finally:
        echo.close()
        code = server.stop()
        shutil.rmtree(work, ignore_errors=True)
    expect(code == 0, f"server exit code {code}")
    # 50 responses plus the check that all 50 were sent before the deadline
    expect(outcome.attempted == 51, f"attempted {outcome.attempted}")
    expect(outcome.failed == 1, f"failed {outcome.failed}, want 1: {outcome.problems}")
    expect(0 < outcome.failed / outcome.attempted < 1, "failed_ratio out of range")


Row = namedtuple("Row",
                 "metric trials estimate interval_low interval_high expected relation passed")


def test_pass_flags_are_compared_with_expected_flags() -> None:
    red = Row("projection_chain_violation", 1000, 0.1, 0.1, 0.1, 1e-9, "le-exact", False)
    expect(scenarios.row_failed("inequality-suite", red) == (False, False), "red row must be red")
    green = red._replace(passed=True, estimate=0.0)
    expect(scenarios.row_failed("inequality-suite", green)[0], "a red-by-design row turned green")
    exact = Row("replay_win_rate", 200, 0.01, 0.0, 0.02, 0.0, "eq", False)
    expect(scenarios.row_failed("forgery", exact)[0], "a failed exact row must count")
    unlucky = Row("uniform_guess_win_rate", 200, 0.02, 0.0, 0.05, 2.0**-16 * 256, "eq", False)
    expect(scenarios.row_failed("forgery", unlucky) == (False, True), "3-sigma miss is a miss")
    broken = unlucky._replace(estimate=0.2)
    expect(scenarios.row_failed("forgery", broken)[0], "an implausible rate must count")


def test_command_line_result_format() -> None:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", "forgery",
                           "--seed", "2", "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {set(result)}")
    expect(result["correct"] is True and result["failed"] == 0, f"result {result}")
    end_to_end, _ = declared()
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(units == end_to_end, f"units {units}")


def main() -> int:
    os.chdir(ROOT)
    tests = [test_declared_metrics_match_code, test_pass_flags_are_compared_with_expected_flags,
             test_wrong_expected_response_is_counted, test_every_workload_reports_its_metrics,
             test_command_line_result_format]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
