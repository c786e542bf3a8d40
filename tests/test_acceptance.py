"""Acceptance criteria, each at its stated size and tolerance.

Every test prints one [PASS]/[FAIL] line (run with -s to watch them live).
The projection-chain relation of criterion 5 is mathematically false for
generic subspace pairs, so its test verifies that the suite measures it at
full size and reports it as violated, instead of weakening the check (see the
README section "The intentionally red suite row" and the counterexample test
in test_inequalities.py).
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import refsim
from qtoken import bank, core, harness, scheme, stats

SEED = 0


def announce(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@pytest.fixture(scope="module")
def inequality_suite():
    return harness.run_inequality_suite(seed=SEED)


def metric(result, name):
    return next(m for m in result.metrics if m.metric == name)


def test_criterion_1_swap_test_law():
    """Exact swap probabilities obey (1 - |<phi|psi>|^2)/2 on 100 random
    pairs (width <= 3); sampled frequencies agree within 3 sigma at 10^5."""
    rng = stats.spawn_rng(SEED, 1)
    pairs = []
    for _ in range(100):
        k = int(rng.integers(1, 4))
        phi, psi = core.random_state(k, rng), core.random_state(k, rng)
        layout = core.RegisterLayout([("a", k), ("b", k)])
        joint = core.tensor(phi, psi)
        expected = (1.0 - abs(np.vdot(refsim.dense(phi), refsim.dense(psi))) ** 2) / 2.0
        exact = core.swap_probability(joint, layout, "a", "b")
        assert abs(exact - expected) <= 1e-9
        pairs.append((joint, layout, exact))

    trials = 100_000
    for joint, layout, p1 in pairs[:3]:
        hits = np.count_nonzero(core.swap_test(joint, layout, "a", "b", rng.random(trials)))
        sigma = stats.binomial_sigma(p1, trials)
        assert abs(hits / trials - p1) <= 3 * sigma
    announce(True, "criterion 1: swap-test law, exact and sampled")


def test_criterion_2_correctness_bound():
    """Honest rejection against a 15-pair adversarial history at k=4 equals
    15/256 within 3 sigma over 10^5 trials and stays below eps_l = 1/4."""
    result = harness.run_scenario(
        harness.ScenarioSpec("adversarial-history", k=4, trials=100_000, seed=SEED)
    )
    foreign = metric(result, "foreign_history_rejection")
    below = metric(result, "foreign_rejection_below_eps_l")
    assert foreign.expected == 15 / 256
    assert below.expected == 0.25 and foreign.estimate < 0.25
    same = metric(result, "same_series_rejection")
    announce(
        foreign.passed and below.passed and same.passed,
        f"criterion 2: correctness bound (rejection {foreign.estimate:.5f} "
        f"vs 15/256 = {15 / 256:.5f}, eps_l = 0.25)",
    )


def test_criterion_3_unforgeability_bound():
    """All forger strategies stay under min(1, 5*N*(q+1)/|Y|) at k=16 over
    10^5 trials each; replay wins exactly zero."""
    result = harness.run_scenario(
        harness.ScenarioSpec("forgery", k=16, trials=100_000, seed=SEED)
    )
    replay = metric(result, "replay_win_rate")
    assert replay.estimate == 0.0
    lines = []
    for name in ("uniform-guess", "measure-and-guess-1", "measure-and-guess-2", "replay"):
        m = metric(result, f"win_rate[{name}]")
        assert m.passed and m.estimate <= m.expected
        lines.append(f"{name}: {m.estimate:.5f} <= {m.expected:.5f}")
    announce(result.all_passed(), "criterion 3: unforgeability (" + "; ".join(lines) + ")")


def test_criterion_2_correctness_bound_at_k8():
    """At k=8 honest rejection against 15-pair foreign and same-series
    histories matches 15/2^16 and 15/2^8 within 3 sigma over 10^5 trials, and
    both stay below eps_l = 1/16 with no slack."""
    result = harness.run_scenario(
        harness.ScenarioSpec("adversarial-history", k=8, trials=100_000, seed=SEED)
    )
    same = metric(result, "same_series_rejection")
    below = metric(result, "same_series_below_eps_l")
    assert same.expected == 15 / 256
    assert below.expected == 1 / 16 and below.relation == "le"
    announce(
        result.all_passed(),
        f"criterion 2 at k=8: correctness bound (same-series rejection "
        f"{same.estimate:.5f} vs 15/256 = {15 / 256:.5f}, eps_l = 0.0625)",
    )


def test_criterion_4_tracking_detection():
    """Loaded-entangled and permutation-paired banks are both caught by the
    audit at rate (1 - 2^-4)/2 = 0.46875 within 3 sigma at 10^5 trials, while
    their verification messages pass the honest chi-squared test (0.001)."""
    result = harness.run_scenario(
        harness.ScenarioSpec("tracking-audit", k=4, trials=100_000, seed=SEED)
    )
    loaded = metric(result, "loaded_detection_rate")
    paired = metric(result, "paired_detection_rate")
    assert loaded.expected == paired.expected == 15 / 32
    announce(
        result.all_passed(),
        f"criterion 4: tracking detection (loaded {loaded.estimate:.5f}, "
        f"paired {paired.estimate:.5f}, target 0.46875; message stats honest)",
    )


def test_criterion_4_tracking_detection_at_k8():
    """At k=8 both banks are caught at rate (1 - 2^-8)/2 = 255/512 within
    3 sigma at 10^5 trials, and their messages pass the honest chi-squared
    test (0.001)."""
    result = harness.run_scenario(
        harness.ScenarioSpec("tracking-audit", k=8, trials=100_000, seed=SEED)
    )
    loaded = metric(result, "loaded_detection_rate")
    paired = metric(result, "paired_detection_rate")
    assert loaded.expected == paired.expected == 255 / 512
    announce(
        result.all_passed(),
        f"criterion 4 at k=8: tracking detection (loaded {loaded.estimate:.5f}, "
        f"paired {paired.estimate:.5f}, target {255 / 512:.5f}; message stats honest)",
    )


def test_criterion_5_inequality_suites(inequality_suite):
    """Zero violations above 1e-9 for the projection-difference (1000),
    swap-chain (1000), mixed-state detection (200) and report
    indistinguishability (500) relations on their random instance suites."""
    names = (
        "projection_difference_violation",
        "swap_chain_violation",
        "mixed_detection_violation",
        "swap_probability_consistency",
        "report_indist_violation",
    )
    worst = {name: metric(inequality_suite, name).estimate for name in names}
    ok = all(v <= 1e-9 for v in worst.values())
    announce(
        ok,
        "criterion 5: inequality suites (max violations: "
        + ", ".join(f"{n.removesuffix('_violation')}={v:.1e}" for n, v in worst.items())
        + ")",
    )


def test_criterion_5_projection_chain_fact(inequality_suite):
    """The remaining criterion-5 family, norm((v|S1)|S2) <= norm(v|S2), is
    false, and the suite must report it so: the row is measured over all 1000
    random subspace pairs and comes out red with a real violation.

    Counterexample: v = e1, S1 = span((1,1)/sqrt 2), S2 = span(e2) gives
    1/2 > 0 (pinned in test_inequalities.py). At seed 0, 104 of the 1000
    pairs violate the relation, by at most 1.337; every pair obeys the true
    triangle form norm((v|S1)|S2) <= norm(v|S2) + norm(v|S1_perp). The README
    section "The intentionally red suite row" explains why the row stays red."""
    assert "projection_chain_violation" in {m.metric for m in inequality_suite.metrics}
    m = metric(inequality_suite, "projection_chain_violation")
    assert m.trials == harness.SuiteSizes().projection == 1000
    assert m.relation == "le-exact"
    announce(
        not m.passed and m.estimate > 1e-9,
        "criterion 5 (projection-chain fact): suite reports the false relation, "
        f"max violation {m.estimate:.3f} over {m.trials} pairs",
    )


def test_criterion_6_pattern_reuse(inequality_suite):
    """Chained audits abort at least as often as single audits: sampled over
    10^4 random 3-register states within combined 3 sigma, and with zero
    violations in the exact-arithmetic variant."""
    exact = metric(inequality_suite, "pattern_chain_violation")
    sampled = metric(inequality_suite, "pattern_chain_sampled_gap")
    assert exact.estimate <= 1e-9
    announce(
        exact.passed and sampled.passed,
        f"criterion 6: pattern reuse (exact max violation {exact.estimate:.1e}; "
        f"sampled abort-rate gap {sampled.estimate:+.5f} >= -3 sigma)",
    )


def test_criterion_7_service_safety(tmp_path):
    """One shared valid report submitted 1000 times by 32 concurrent clients
    yields exactly one OK; crash/recovery replays to identical decisions;
    the attempt budget is enforced exactly."""
    service = bank.BankService()
    secret = scheme.SecretString.random(12, stats.spawn_rng(SEED, 7), "stress")
    sid = service.register_series(secret)
    pair = (1, secret.block(1))
    barrier = threading.Barrier(32)

    def worker(n_requests):
        barrier.wait()
        return [service.handle("VERIFY", sid, *pair).status for _ in range(n_requests)]

    shares = [1000 // 32 + (1 if i < 1000 % 32 else 0) for i in range(32)]
    with ThreadPoolExecutor(max_workers=32) as pool:
        statuses = [s for f in [pool.submit(worker, n) for n in shares] for s in f.result()]
    assert len(statuses) == 1000
    one_ok = statuses.count("OK") == 1

    # Crash/recover equivalence on a mixed request stream.
    log_a = str(tmp_path / "a.log")
    log_b = str(tmp_path / "b.log")
    secret2 = scheme.SecretString.random(8, stats.spawn_rng(SEED, 8), "r1")
    rng = stats.spawn_rng(SEED, 9)
    requests = []
    for _ in range(40):
        verb = ("VERIFY", "DECODE", "VOTE")[int(rng.integers(0, 3))]
        index = int(rng.integers(1, 17))
        payload = secret2.block(index) if rng.random() < 0.7 else int(rng.integers(0, 256))
        requests.append(f"{verb} r1 {index} {payload:02x}")
    svc_a = bank.BankService(log_path=log_a)
    svc_a.register_series(secret2)
    uninterrupted = [svc_a.handle_line(line) for line in requests]
    svc_a.close()
    svc_b = bank.BankService(log_path=log_b)
    svc_b.register_series(scheme.SecretString.from_hex(8, secret2.to_hex(), "r1"))
    half = [svc_b.handle_line(line) for line in requests[:20]]
    svc_b.close()  # simulated crash
    svc_b = bank.BankService.recover(log_b)
    rest = [svc_b.handle_line(line) for line in requests[20:]]
    svc_b.close()
    replay_equal = half + rest == uninterrupted

    # Exact budget: cap_test submissions are decided, the next is refused.
    svc_c = bank.BankService()
    secret3 = scheme.SecretString.random(4, stats.spawn_rng(SEED, 10), "b1")
    sid3 = svc_c.register_series(secret3)
    cap = scheme.SchemeParams.for_k(4).cap_test
    for i in range(1, cap + 1):
        decision = svc_c.handle("VERIFY", sid3, i, secret3.block(i))
        assert decision.status == "OK"
    over = svc_c.handle("VERIFY", sid3, 5, secret3.block(5))
    budget_exact = (
        over.reason == "budget-exhausted" and svc_c.snapshot(sid3)["attempts"] == cap
    )
    announce(
        one_ok and replay_equal and budget_exact,
        f"criterion 7: service safety (OKs under contention: {statuses.count('OK')}; "
        f"replay decisions identical: {replay_equal}; budget exact: {budget_exact})",
    )


def test_criterion_8_otp_and_voting():
    """1000 fresh-pad encode/decode roundtrips are identities and reused pads
    never authorize; double votes are rejected every time."""
    otp = harness.run_scenario(
        harness.ScenarioSpec("otp-roundtrip", k=16, trials=1000, seed=SEED)
    )
    roundtrip = metric(otp, "roundtrip_identity")
    reuse = metric(otp, "pad_reuse_rejected")
    voting = harness.run_scenario(
        harness.ScenarioSpec("voting", k=16, trials=500, seed=SEED)
    )
    double = metric(voting, "double_votes_rejected")
    ok = (
        roundtrip.estimate == 1.0
        and reuse.estimate == 1.0
        and double.estimate == 1.0
        and voting.all_passed()
        and otp.all_passed()
    )
    announce(
        ok,
        "criterion 8: one-time pads and voting (1000/1000 roundtrips, "
        "reuse and double votes rejected 100%)",
    )
