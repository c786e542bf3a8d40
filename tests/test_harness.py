"""Scenario runner tests at reduced trial counts, plus CSV determinism."""

import numpy as np
import pytest

from qtoken import bank, harness, stats


def run(scenario, **kwargs):
    return harness.run_scenario(harness.ScenarioSpec(scenario, **kwargs))


def metric(result, name):
    return next(m for m in result.metrics if m.metric == name)


def test_honest_flow_small():
    result = run("honest-flow", trials=2000, seed=1)
    assert result.all_passed()
    assert metric(result, "acceptance_rate").estimate == 1.0
    assert metric(result, "report_validity").estimate == 1.0


def test_honest_flow_keeps_one_series_per_service(monkeypatch):
    """Each trial's series lives in its own service, so a finished trial's
    secret and ledger are freed and memory does not grow with the trials."""
    largest = [0]

    class Recording(bank.BankService):
        def register_series(self, secret):
            sid = super().register_series(secret)
            largest[0] = max(largest[0], len(self.series_ids()))
            return sid

    monkeypatch.setattr(harness, "BankService", Recording)
    assert run("honest-flow", trials=20, seed=1).all_passed()
    assert largest == [1]


def test_adversarial_history_small():
    result = run("adversarial-history", trials=5000, seed=2)
    assert result.all_passed()
    m = metric(result, "foreign_history_rejection")
    assert m.expected == 15 / 256
    same = metric(result, "same_series_rejection")
    assert same.expected == 3 / 16


def test_forgery_small_at_k8():
    result = run("forgery", k=8, trials=3000, seed=3)
    assert result.all_passed()
    assert metric(result, "replay_win_rate").estimate == 0.0


def test_forgery_single_strategy_selection():
    result = run("forgery", k=8, trials=500, seed=4, strategy="replay")
    names = {m.metric for m in result.metrics}
    assert names == {"win_rate[replay]", "replay_win_rate"}


def test_forgery_unknown_strategy():
    with pytest.raises(ValueError, match="unknown forger strategy 'psychic'"):
        run("forgery", k=8, trials=10, seed=5, strategy="psychic")


def test_tracking_audit_small():
    result = run("tracking-audit", trials=4000, seed=6)
    assert result.all_passed()
    assert metric(result, "loaded_detection_rate").expected == 15 / 32
    assert metric(result, "paired_detection_rate").expected == 15 / 32


def test_otp_roundtrip_small():
    result = run("otp-roundtrip", k=8, trials=64, seed=7)
    assert result.all_passed()
    assert metric(result, "roundtrip_identity").estimate == 1.0
    assert metric(result, "pad_reuse_rejected").estimate == 1.0


def test_voting_small():
    result = run("voting", k=8, trials=40, seed=8)
    assert result.all_passed()
    assert metric(result, "tally_matches_cast").estimate == 1.0
    assert metric(result, "double_votes_rejected").estimate == 1.0


def test_inequality_suite_small():
    sizes = harness.SuiteSizes(
        projection=60, swap_chain=60, swap_mixed=20, report_indist=30,
        pattern_chain_exact=100, pattern_chain_sampled=800,
    )
    result = harness.run_inequality_suite(seed=9, sizes=sizes)
    for m in result.metrics:
        if m.metric == "projection_chain_violation":
            # The stated relation is false for generic subspace pairs; the
            # suite reports the real violation instead of hiding it.
            assert not m.passed and m.estimate > 1e-9
        else:
            assert m.passed, m


LARGEST_K = {
    "honest-flow": 8, "adversarial-history": 8, "tracking-audit": 8,
    "forgery": 20, "otp-roundtrip": 20, "voting": 20,
}


@pytest.mark.parametrize("scenario", harness.SCENARIOS)
def test_incompatible_scenario_parameters(scenario):
    """Each scenario refuses a k past its own limit, and a strategy unless it
    is forgery, before running a trial; inequality-suite refuses any k."""
    if scenario == "inequality-suite":
        with pytest.raises(ValueError, match="takes no k"):
            run(scenario, k=4, trials=20)
    else:
        limit = LARGEST_K[scenario]
        with pytest.raises(ValueError, match=f"needs k <= {limit}"):
            run(scenario, k=limit + 4, trials=10)
    if scenario != "forgery":
        with pytest.raises(ValueError, match="takes no strategy"):
            run(scenario, trials=10, strategy="replay")


@pytest.mark.parametrize("scenario", harness.SCENARIOS)
def test_every_random_stream_of_a_run_is_distinct(monkeypatch, scenario):
    """No two derivation keys of one run seed the same stream, so no trial
    replays the set-up draws. States are compared, not keys: zero words that
    pad a key up to the SeedSequence pool size change nothing, so (s,) and
    (s, 0) are one stream."""
    keys = []
    spawn, uniforms = stats.spawn_rng, stats.spawn_uniforms

    def recording(*key):
        keys.append(key)
        return spawn(*key)

    def recording_rows(prefix, ts, d):
        keys.extend((*prefix, t) for t in ts)
        return uniforms(prefix, ts, d)

    # trial_rng derives through spawn_rng, and row t of spawn_uniforms is the
    # stream (*prefix, t), so every stream passes here.
    monkeypatch.setattr(stats, "spawn_rng", recording)
    monkeypatch.setattr(stats, "spawn_uniforms", recording_rows)
    run(scenario, trials=3, seed=3)
    states = {tuple(np.random.SeedSequence(list(key)).generate_state(4)) for key in keys}
    assert len(keys) > 1 and len(states) == len(keys)


def test_unknown_scenario_refused():
    with pytest.raises(ValueError, match="unknown scenario"):
        run("nonesuch")


def test_csv_is_byte_identical_for_identical_specs():
    csv_a = run("adversarial-history", trials=400, seed=11).to_csv()
    csv_b = run("adversarial-history", trials=400, seed=11).to_csv()
    assert csv_a == csv_b


def test_csv_shape_and_claims():
    result = run("honest-flow", trials=300, seed=12)
    lines = result.to_csv().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["scenario", "k", "seed", "metric", "trials"]
    assert len(lines) == 1 + len(result.metrics)
    for m in result.metrics:
        assert m.claim  # every row carries its claim text


def test_bounds_table_values():
    rows = {r[0]: r for r in harness.bounds_rows(16)}
    assert rows["cap_mint"][3] == "15"
    assert rows["cap_test"][3] == "256"
    assert float(rows["eps_l"][3]) == 2.0**-8
    assert float(rows["eps_f_constant5"][3]) == 5 * 2.0**-4
    assert float(rows["eps_f_constant6"][3]) == 6 * 2.0**-4
    curve = [r for r in harness.bounds_rows(16) if r[0] == "all_correct_probability"]
    assert curve and all(0.0 <= float(r[3]) <= 1.0 for r in curve)
    text = harness.bounds_csv(16)
    assert text.startswith("quantity,q,r,value\n")
