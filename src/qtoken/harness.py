"""Seeded Monte Carlo scenario runner and exact inequality suites.

Each scenario replays one quantitative story end to end (honest redemption,
adversarial histories, forgery strategies, tracking audits, one-time pads,
voting) and reduces it to metrics with confidence intervals, a reference
value or bound, and a pass flag. Runs are deterministic: every trial draws
its randomness from a stream derived from (master seed, trial index), and
result aggregation is order independent, so a spec (including its seed)
maps to a byte-identical CSV.

The inequality suite checks the closed-form relations the scheme's analysis
rests on, in exact arithmetic on exact post-measurement states; violations
beyond 1e-9 fail the run.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, replace
from math import sqrt

import numpy as np

from . import adversary, audit, scheme, stats
from .bank import BankService
from .core import (
    RegisterLayout,
    SparseState,
    measure_register,
    random_state,
    swap_probability,
    swap_probability_density,
    reduced_density,
    swap_project,
    tensor,
)

_MAX_QUANTUM_K = 8
_MAX_EMULATED_K = 20

VIOLATION_TOL = 1e-9

_DEFAULT_FORGER_SET = ("uniform-guess", "measure-and-guess-1", "measure-and-guess-2", "replay")


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: str
    k: int | None = None
    trials: int | None = None
    seed: int = 0
    strategy: str | None = None


@dataclass(frozen=True)
class MetricResult:
    metric: str
    trials: int
    estimate: float
    interval_low: float
    interval_high: float
    expected: float
    relation: str  # eq | le | ge | le-exact
    passed: bool
    claim: str


@dataclass(frozen=True)
class ExperimentResult:
    scenario: str
    k: int | None
    seed: int
    metrics: tuple[MetricResult, ...]

    def all_passed(self) -> bool:
        return all(m.passed for m in self.metrics)

    def to_csv(self) -> str:
        k_text = "" if self.k is None else str(self.k)
        return _csv(
            ("scenario", "k", "seed", "metric", "trials", "estimate", "interval_low",
             "interval_high", "expected", "relation", "pass", "claim"),
            (
                (self.scenario, k_text, self.seed, m.metric, m.trials,
                 repr(float(m.estimate)), repr(float(m.interval_low)),
                 repr(float(m.interval_high)), repr(float(m.expected)),
                 m.relation, str(m.passed).lower(), m.claim)
                for m in self.metrics
            ),
        )


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _rate_metric(name, successes, trials, expected, claim) -> MetricResult:
    lo, hi = stats.proportion_interval(successes, trials)
    return MetricResult(
        name, trials, successes / trials, lo, hi, expected, "eq",
        stats.matches_rate(successes, trials, expected), claim,
    )


def _bound_metric(name, successes, trials, bound, claim, sigmas=0.0) -> MetricResult:
    est = successes / trials
    lo, hi = stats.proportion_interval(successes, trials)
    slack = sigmas * stats.binomial_sigma(est, trials)
    return MetricResult(name, trials, est, lo, hi, bound, "le", est <= bound + slack, claim)


def _exact_metric(name, value, instances, claim) -> MetricResult:
    return MetricResult(
        name, instances, value, value, value, VIOLATION_TOL, "le-exact",
        value <= VIOLATION_TOL, claim,
    )


def _stat_metric(name, statistic, critical, trials, claim) -> MetricResult:
    return MetricResult(
        name, trials, statistic, statistic, statistic, critical, "le",
        statistic <= critical, claim,
    )


def _resolve(spec: ScenarioSpec) -> ScenarioSpec:
    try:
        _, default_k, default_trials, max_k = _SCENARIOS[spec.scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {spec.scenario!r}") from None
    if default_k is None and spec.k is not None:
        raise ValueError(f"scenario {spec.scenario!r} takes no k")
    k = default_k if spec.k is None else spec.k
    trials = default_trials if spec.trials is None else spec.trials
    if k is not None:
        scheme.SchemeParams.for_k(k)
        if k > max_k:
            raise ValueError(f"scenario {spec.scenario!r} needs k <= {max_k}")
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")
    if spec.strategy is not None and spec.scenario != "forgery":
        raise ValueError(f"scenario {spec.scenario!r} takes no strategy; only forgery does")
    if spec.strategy is not None and spec.strategy not in adversary.FORGERS:
        raise ValueError(f"unknown forger strategy {spec.strategy!r}")
    return replace(spec, k=k, trials=trials)


def load_scipy_stats() -> None:
    """Load scipy.stats before a scenario or the suite runs.

    No check here needs it, but perfbench's row check imports it into the same
    process when a sampled row misses its 3-sigma bound by chance. Loaded up
    front, a scenario process has one footprint whether a row missed or not.
    Entry points that run no scenario (import, mint, bounds, serve) stay
    scipy-free.
    """
    import scipy.stats  # noqa: F401


def run_scenario(spec: ScenarioSpec) -> ExperimentResult:
    """Execute a scenario end to end; deterministic in the spec's seed."""
    spec = _resolve(spec)
    load_scipy_stats()
    return ExperimentResult(spec.scenario, spec.k, spec.seed, _SCENARIOS[spec.scenario][0](spec))


# -- honest flows ------------------------------------------------------------


def _run_honest_flow(spec: ScenarioSpec) -> tuple[MetricResult, ...]:
    k, trials, seed = spec.k, spec.trials, spec.seed
    accepted = valid = 0
    index_counts = np.zeros(1 << k, dtype=np.int64)
    for t in range(trials):
        rng = stats.trial_rng(seed, t)
        secret = scheme.SecretString.random(k, rng, f"t{t}")
        # One service per trial, so a finished trial's secret and ledger are freed.
        service = BankService()
        sid = service.register_series(secret)
        index, value = scheme.report(scheme.token_state(secret), rng)
        accepted += service.handle("VERIFY", sid, index, value).status == "OK"
        valid += secret.block(index) == value
        index_counts[index - 1] += 1
    stat, crit, _ = stats.uniformity_passes(index_counts)
    return (
        _rate_metric("acceptance_rate", accepted, trials, 1.0,
                     "fresh valid reports are always accepted"),
        _rate_metric("report_validity", valid, trials, 1.0,
                     "honest reports always satisfy R = block_I(S)"),
        _stat_metric("index_uniformity_chi2", stat, crit, trials,
                     "honest report index is uniform over [2^k]"),
    )


def _run_adversarial_history(spec: ScenarioSpec) -> tuple[MetricResult, ...]:
    """Honest rejection rates against adversarial histories.

    Foreign pairs (valid under an independent decoy secret) each collide with
    a fresh honest report with probability 2^(-2k); same-series valid pairs
    collide with probability 1/2^k each. Both rates stay below eps_l.
    """
    k, trials, seed = spec.k, spec.trials, spec.seed
    size = 1 << k
    params = scheme.SchemeParams.for_k(k)
    j_foreign = 15
    j_same = params.cap_test - 1
    rejected = [0, 0]
    for t in range(trials):
        rng = stats.trial_rng(seed, t)
        secret = scheme.SecretString.random(k, rng)
        token = scheme.token_state(secret)
        decoy = scheme.SecretString.random(k, rng, "decoy")
        # The foreign history, then the same-series one, each on a fresh uncapped ledger.
        for h, (source, j) in enumerate(((decoy, j_foreign), (secret, j_same))):
            ledger = scheme.Ledger(secret)
            for i in rng.permutation(size)[:j]:
                ledger.verify(int(i) + 1, source.block(int(i) + 1))
            rejected[h] += ledger.check(*scheme.report(token, rng)) is not None

    rejected_foreign, rejected_same = rejected
    p_foreign = j_foreign / size**2
    p_same = j_same / size
    return (
        _rate_metric("foreign_history_rejection", rejected_foreign, trials, p_foreign,
                     "j foreign pairs collide with an honest report w.p. j/2^(2k)"),
        _bound_metric("foreign_rejection_below_eps_l", rejected_foreign, trials,
                      params.eps_l, "honest rejection stays below eps_l = 2^(-k/2)"),
        _rate_metric("same_series_rejection", rejected_same, trials, p_same,
                     "j same-series pairs collide with an honest report w.p. j/2^k"),
        _bound_metric("same_series_below_eps_l", rejected_same, trials,
                      params.eps_l, "honest rejection stays below eps_l = 2^(-k/2)"),
    )


# -- forgery -------------------------------------------------------------------


def _run_forgery_scenario(spec: ScenarioSpec) -> tuple[MetricResult, ...]:
    k, trials, seed = spec.k, spec.trials, spec.seed
    params = scheme.SchemeParams.for_k(k)
    metrics: list[MetricResult] = []
    for name in (spec.strategy,) if spec.strategy else _DEFAULT_FORGER_SET:
        _, measured = adversary.FORGERS[name]
        # Each forger draws from its own streams, keyed by its table position.
        stream = list(adversary.FORGERS).index(name)
        rngs = (stats.spawn_rng(seed, stream, t) for t in range(trials))
        accepted, _ = adversary.run_forgery(name, k, rngs)
        wins = int(np.count_nonzero(accepted > measured))
        bound = adversary.eval_forgery_bound(params.cap_test, measured, 1 << k)
        metrics.append(
            _bound_metric(f"win_rate[{name}]", wins, trials, bound,
                          "win rate <= min(1, 5*N*(q+1)/|Y|)", sigmas=3.0)
        )
        if name == "uniform-guess":
            exact = 1.0 - (1.0 - 2.0**-k) ** params.cap_test
            metrics.append(
                _rate_metric("uniform_guess_win_rate", wins, trials, exact,
                             "uniform guessing wins w.p. 1-(1-2^-k)^N")
            )
        if name == "replay":
            metrics.append(
                _rate_metric("replay_win_rate", wins, trials, 0.0,
                             "replayed pairs never add acceptances")
            )
    return tuple(metrics)


# -- tracking audits ------------------------------------------------------------


def _with_pattern(
    secret: scheme.SecretString, state: SparseState, layout: RegisterLayout
) -> tuple[SparseState, RegisterLayout]:
    """An honest ``pattern`` token in front of a minted state and its layout."""
    pattern = scheme.token_state(secret)
    registers = [("pattern", pattern.num_qubits)]
    registers += [(name, layout.width(name)) for name in layout.names]
    return tensor(pattern, state), RegisterLayout(registers)


_AUDIT_BATCH = 4096  # trials decided per array pass


def _run_tracking_audit(spec: ScenarioSpec) -> tuple[MetricResult, ...]:
    k, trials, seed = spec.k, spec.trials, spec.seed
    size = 1 << k
    setup = stats.spawn_rng(seed, 0)
    secret = scheme.SecretString.random(k, setup)
    # The (state, layout, spent register) triple of each minted cheat, loaded first.
    names = ("loaded", "paired")
    arms = (
        (*adversary.mint_loaded(secret), "token"),
        (*adversary.mint_permutation_paired(secret, setup.permutation(size)), "token1"),
    )
    joints = [(*_with_pattern(secret, state, layout), spent) for state, layout, spent in arms]

    # Trial t audits both arms on the draws of stream (seed, 1, t), in arm
    # order, and then measures both arms on those of (seed, 2, t). Trials run
    # in batches, so memory stays flat in the trial count.
    detected, valid = [0, 0], [0, 0]
    counts = np.zeros((2, size), np.int64)
    for start in range(0, trials, _AUDIT_BATCH):
        ts = range(start, min(start + _AUDIT_BATCH, trials))
        draws = audit.TrialDraws(stats.spawn_uniforms((seed, 1), ts, 4))
        for i, (joint, joint_layout, spent) in enumerate(joints):
            reports = audit.report_prime(joint, joint_layout, "pattern", spent, draws)
            detected[i] += reports.count(None)
        measure_draws = stats.spawn_uniforms((seed, 2), ts, 2)
        for i, (state, layout, spent) in enumerate(arms):
            wires = measure_register(state, layout, spent, measure_draws[:, i])
            index, value = scheme.unwire(k, wires)
            counts[i] += np.bincount(index - 1, minlength=size)
            valid[i] += int(np.count_nonzero(secret.blocks(index) == value))

    p_detect = (1.0 - 2.0**-k) / 2.0
    chi2 = [stats.uniformity_passes(row)[:2] for row in counts]
    return (
        *(_rate_metric(f"{name}_detection_rate", hits, trials, p_detect,
                       f"audit fires on a {name} token w.p. (1-2^-k)/2")
          for name, hits in zip(names, detected)),
        *(_stat_metric(f"{name}_message_uniformity", stat, crit, trials,
                       f"a {name} token's messages look honest (chi-squared, 0.001)")
          for name, (stat, crit) in zip(names, chi2)),
        *(_rate_metric(f"{name}_message_validity", hits, trials, 1.0,
                       f"a {name} token's reports always satisfy R = block_I(S)")
          for name, hits in zip(names, valid)),
    )


# -- one-time pads and voting ------------------------------------------------------


def _pad_series(spec: ScenarioSpec, tag: str, users: str):
    """The one series a pad scenario spends: its secret, an in-memory service
    holding it, its id, and a distinct pad index in [1, 2^k] per trial."""
    size = 1 << spec.k
    if spec.trials > size:
        raise ValueError(f"more {users} than distinct pad indices")
    setup = stats.spawn_rng(spec.seed, 0)
    secret = scheme.SecretString.random(spec.k, setup, tag)
    service = BankService()
    sid = service.register_series(secret)
    return secret, service, sid, setup.permutation(size)[:spec.trials] + 1


def _run_otp(spec: ScenarioSpec) -> tuple[MetricResult, ...]:
    trials = spec.trials
    secret, service, sid, indices = _pad_series(spec, "otp", "roundtrips")
    roundtrips = reuse_rejected = 0
    for t, index in enumerate(indices.tolist()):
        rng = stats.spawn_rng(spec.seed, 1, t)
        message = int(rng.integers(0, 1 << spec.k))
        pad = secret.block(index)  # the holder knows R from measuring the token
        cipher = pad ^ message
        decision = service.handle("DECODE", sid, index, cipher)
        roundtrips += decision.status == "OK" and decision.payload == message
        again = service.handle("DECODE", sid, index, cipher)
        reuse_rejected += again.status == "REJECT"
    return (
        _rate_metric("roundtrip_identity", roundtrips, trials, 1.0,
                     "decode(encode(M)) = M for every fresh pad"),
        _rate_metric("pad_reuse_rejected", reuse_rejected, trials, 1.0,
                     "a consumed pad never authorizes again"),
    )


def _run_voting(spec: ScenarioSpec) -> tuple[MetricResult, ...]:
    voters = spec.trials
    secret, service, sid, indices = _pad_series(spec, "vote", "voters")
    cast: Counter[int] = Counter()
    accepted = double_rejected = 0
    for t, index in enumerate(indices.tolist()):
        rng = stats.spawn_rng(spec.seed, 1, t)
        choice = int(rng.integers(0, 2))
        pad = secret.block(index)
        accepted += service.handle("VOTE", sid, index, pad ^ choice).status == "OK"
        cast[choice] += 1
        if t % 10 == 0:  # every tenth voter tries to vote twice with the same pad
            again = service.handle("VOTE", sid, index, pad ^ (1 - choice))
            double_rejected += again.status == "REJECT"
    double_votes = len(range(0, voters, 10))
    tally = service.snapshot(sid)["tally"]
    return (
        _rate_metric("votes_accepted", accepted, voters, 1.0,
                     "every fresh token casts exactly one vote"),
        _rate_metric("tally_matches_cast", int(tally == cast), 1, 1.0,
                     "the tally equals the multiset of cast votes"),
        _rate_metric("double_votes_rejected", double_rejected, double_votes, 1.0,
                     "double votes with a reused pad are rejected"),
    )


# -- inequality suites ---------------------------------------------------------------


@dataclass(frozen=True)
class SuiteSizes:
    projection: int = 1000
    swap_chain: int = 1000
    swap_mixed: int = 200
    report_indist: int = 500
    pattern_chain_exact: int = 10_000
    pattern_chain_sampled: int = 10_000


def _random_projector(rng, dim: int, sub_dim: int, complex_case: bool) -> np.ndarray:
    shape = (dim, sub_dim)
    mat = rng.normal(size=shape)
    if complex_case:
        mat = mat + 1j * rng.normal(size=shape)
    q, _ = np.linalg.qr(mat)
    return q @ q.conj().T


def projection_checks(rng, instances: int) -> tuple[float, float]:
    """Max violations of the two projection inequalities over random instances
    in dimensions 2 to 16."""
    worst_chain = worst_diff = 0.0
    for _ in range(instances):
        dim = int(rng.integers(2, 17))
        complex_case = bool(rng.integers(0, 2))
        v = rng.normal(size=dim)
        if complex_case:
            v = v + 1j * rng.normal(size=dim)
        p1 = _random_projector(rng, dim, int(rng.integers(1, dim + 1)), complex_case)
        p2 = _random_projector(rng, dim, int(rng.integers(1, dim + 1)), complex_case)
        v_s2 = np.linalg.norm(p2 @ v)
        v_s1_s2 = np.linalg.norm(p2 @ (p1 @ v))
        worst_chain = max(worst_chain, v_s1_s2 - v_s2)
        rest = np.linalg.norm(v - p1 @ v)
        diff = v_s2**2 - v_s1_s2**2 - 2.0 * rest * np.linalg.norm(v)
        worst_diff = max(worst_diff, diff)
    return worst_chain, worst_diff


_CHAIN_LAYOUT = RegisterLayout([("r1", 2), ("r2", 2), ("r3", 2)])


def swap_chain_checks(rng, instances: int) -> float:
    """Max violation of the swap-test chain inequality on random 3-register states."""
    worst = 0.0
    for _ in range(instances):
        chi = random_state(6, rng)
        lhs = swap_probability(chi, _CHAIN_LAYOUT, "r1", "r2")
        first = swap_probability(chi, _CHAIN_LAYOUT, "r2", "r3")
        if 1.0 - first < 1e-12:
            worst = max(worst, lhs - first)
            continue
        post = swap_project(chi, _CHAIN_LAYOUT, "r2", "r3")
        second = swap_probability(post, _CHAIN_LAYOUT, "r1", "r2")
        worst = max(worst, lhs - first - second)
    return worst


_MIXED_LAYOUT = RegisterLayout([("r0", 2), ("r1", 2), ("r2", 2)])


def swap_mixed_checks(rng, instances: int) -> tuple[float, float]:
    """Detection bound for mixed states: distinguishing advantage between the
    (side, token a) and (side, token b) marginals never beats
    1/2 + sqrt(p_swap). Also cross-checks the pure-state and density-matrix
    routes to p_swap against each other."""
    worst = worst_consistency = 0.0
    for _ in range(instances):
        chi = random_state(6, rng)
        gap = audit.anonymity_gap(chi, _MIXED_LAYOUT, "r0", "r1", "r2")
        p_pure = swap_probability(chi, _MIXED_LAYOUT, "r1", "r2")  # memoised by the gap
        p_mixed = swap_probability_density(reduced_density(chi, _MIXED_LAYOUT, ["r1", "r2"]))
        worst_consistency = max(worst_consistency, abs(p_pure - p_mixed))
        worst = max(worst, gap.advantage - gap.detection_bound)
    return worst, worst_consistency


def report_indist_checks(rng, instances: int) -> float:
    """Max violation of advantage <= 1/2 + sqrt(p_bot) across random and
    loaded-style instances (token-slot distinguishers with bank side info)."""
    worst = 0.0
    structured = max(1, instances // 10)
    for i in range(instances):
        if i < structured:
            # An honest 2-qubit pattern, then a 2-qubit loaded token fully
            # correlated with a 1-qubit bank register.
            secret = scheme.SecretString.random(1, rng)
            chi, layout = _with_pattern(secret, *adversary.mint_loaded(secret))
            gap = audit.anonymity_gap(chi, layout, "bank", "pattern", "token")
        else:
            chi = random_state(6, rng)
            gap = audit.anonymity_gap(chi, _MIXED_LAYOUT, "r0", "r1", "r2")
        worst = max(worst, gap.advantage - gap.detection_bound)
    return worst


_PATTERN_LAYOUT = RegisterLayout([("p", 2), ("t1", 2), ("t2", 2)])


def pattern_chain_exact_checks(rng, instances: int) -> float:
    """Max violation of Pr[chain aborts] >= Pr[single audit aborts], exact."""
    worst = 0.0
    for _ in range(instances):
        chi = random_state(6, rng)
        prime = audit.cheat_probability(chi, _PATTERN_LAYOUT, "p", "t1")
        chain = audit.chain_cheat_probability(chi, _PATTERN_LAYOUT)
        worst = max(worst, prime - chain)
    return worst


def pattern_chain_sampled(seed: int, trials: int) -> tuple[int, int]:
    """Sampled abort counts of (chain, single) audits on fresh random states."""
    chain_bot = prime_bot = 0
    for t in range(trials):
        rng = stats.spawn_rng(seed, 7, t)
        chi = random_state(6, rng)
        # The two audits read at most 3 + 2 draws, the rest of this generator.
        draws = audit.TrialDraws(rng.random((1, 5)))
        chain_bot += audit.report_chain(chi, _PATTERN_LAYOUT, draws)[0] is None
        prime_bot += audit.report_prime(chi, _PATTERN_LAYOUT, "p", "t1", draws)[0] is None
    return chain_bot, prime_bot


def run_inequality_suite(seed: int = 0, sizes: SuiteSizes | None = None) -> ExperimentResult:
    """Run every exact-arithmetic inequality check plus the sampled chain test."""
    load_scipy_stats()
    sizes = sizes or SuiteSizes()
    rng = stats.spawn_rng(seed, 100)
    chain_v, diff_v = projection_checks(rng, sizes.projection)
    swap_chain_v = swap_chain_checks(stats.spawn_rng(seed, 101), sizes.swap_chain)
    mixed_v, consistency_v = swap_mixed_checks(stats.spawn_rng(seed, 102), sizes.swap_mixed)
    indist_v = report_indist_checks(stats.spawn_rng(seed, 103), sizes.report_indist)
    pattern_v = pattern_chain_exact_checks(stats.spawn_rng(seed, 104), sizes.pattern_chain_exact)
    chain_bot, prime_bot = pattern_chain_sampled(seed, sizes.pattern_chain_sampled)

    n = sizes.pattern_chain_sampled
    p_chain, p_prime = chain_bot / n, prime_bot / n
    margin = 3.0 * sqrt(
        stats.binomial_sigma(p_chain, n) ** 2 + stats.binomial_sigma(p_prime, n) ** 2
    )
    diff = p_chain - p_prime
    sampled_metric = MetricResult(
        "pattern_chain_sampled_gap", n, diff, diff - margin, diff + margin,
        0.0, "ge", diff >= -margin,
        "chained audits abort at least as often as single audits",
    )
    metrics = (
        _exact_metric("projection_chain_violation", chain_v, sizes.projection,
                      "norm((v|S1)|S2) <= norm(v|S2)"),
        _exact_metric("projection_difference_violation", diff_v, sizes.projection,
                      "norm(v|S2)^2 - norm((v|S1)|S2)^2 <= 2*norm(v|S1_perp)*norm(v)"),
        _exact_metric("swap_chain_violation", swap_chain_v, sizes.swap_chain,
                      "p1(a,b) <= p1(b,c) + p1(a,b | post pass(b,c))"),
        _exact_metric("mixed_detection_violation", mixed_v, sizes.swap_mixed,
                      "advantage <= 1/2 + sqrt(p_swap) for purified mixed pairs"),
        _exact_metric("swap_probability_consistency", consistency_v, sizes.swap_mixed,
                      "pure-state and density-matrix swap probabilities agree"),
        _exact_metric("report_indist_violation", indist_v, sizes.report_indist,
                      "token-usage distinguishers obey the audit detection bound"),
        _exact_metric("pattern_chain_violation", pattern_v, sizes.pattern_chain_exact,
                      "Pr[chain audit aborts] >= Pr[single audit aborts]"),
        sampled_metric,
    )
    return ExperimentResult("inequality-suite", None, seed, metrics)


def _run_inequality_scenario(spec: ScenarioSpec) -> tuple[MetricResult, ...]:
    sizes = SuiteSizes()
    if spec.trials is not None:
        sizes = SuiteSizes(
            pattern_chain_exact=spec.trials, pattern_chain_sampled=spec.trials
        )
    return run_inequality_suite(spec.seed, sizes).metrics


# -- the scenario table ----------------------------------------------------------------

# name: (runner, default k, default trials, largest k); the order is the CLI's.
# Quantum scenarios simulate states, so they stop at a smaller k than the
# emulated ones; inequality-suite takes no k.
_SCENARIOS = {
    "honest-flow": (_run_honest_flow, 4, 100_000, _MAX_QUANTUM_K),
    "adversarial-history": (_run_adversarial_history, 4, 100_000, _MAX_QUANTUM_K),
    "forgery": (_run_forgery_scenario, 16, 100_000, _MAX_EMULATED_K),
    "tracking-audit": (_run_tracking_audit, 4, 100_000, _MAX_QUANTUM_K),
    "otp-roundtrip": (_run_otp, 16, 1000, _MAX_EMULATED_K),
    "voting": (_run_voting, 16, 500, _MAX_EMULATED_K),
    "inequality-suite": (_run_inequality_scenario, None, None, None),
}
SCENARIOS = tuple(_SCENARIOS)


# -- parameter/bound tables -----------------------------------------------------------


def bounds_rows(k: int) -> list[tuple[str, str, str, str]]:
    """(quantity, q, r, value) rows for the parameter and bound table at k.

    The exact all-correct term has k * 2^(k/2) bits, so k stops where the
    emulated scenarios do.
    """
    params = scheme.SchemeParams.for_k(k)
    if k > _MAX_EMULATED_K:
        raise ValueError(f"bounds needs k <= {_MAX_EMULATED_K}")
    rows = [
        ("n_qubits_per_token", "", "", str(params.n)),
        ("secret_bits", "", "", str(params.m)),
        ("cap_mint", "", "", str(params.cap_mint)),
        ("cap_test", "", "", str(params.cap_test)),
        ("report_bits", "", "", str(params.t)),
        ("eps_l", "", "", repr(params.eps_l)),
        ("eps_f_constant5", "", "", repr(5.0 * 2.0 ** (-k / 4))),
        ("eps_f_constant6", "", "", repr(params.eps_f)),
    ]
    y = 1 << k
    for q in range(0, min(4, params.cap_mint + 1)):
        r = q + 1
        while r <= params.cap_test:
            value = adversary.eval_all_correct_bound(q, r, y)
            rows.append(("all_correct_probability", str(q), str(r), repr(value)))
            r *= 2
    return rows


def bounds_csv(k: int) -> str:
    return _csv(("quantity", "q", "r", "value"), bounds_rows(k))
