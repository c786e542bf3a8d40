"""Every scenario's CSV at small sizes, seed 3, tracking audits at seeds of
two and three seed words, and the bound table at three k, pinned by their
sha256.

A change to the engine, the scheme or the harness that is meant to keep the
outputs must keep these bytes. The digests were taken before the partial
trace became an array kernel, and the 20,000-trial and two-word-seed
tracking audits before its trials were decided on arrays of trial streams.
``inequality-suite`` is not pinned here: its rows go through LAPACK (``eigvalsh``, ``qr``), whose last bits depend on the
build; ``test_core`` checks its partial trace bit for bit against the scalar
walk instead.
"""

import hashlib

import pytest

from qtoken import harness

DIGESTS = [
    ("honest-flow", 4, 2000, None, "92db585a057bd318d94cadf575c392387b14eed3c2c04f5f9e2756faa8ff4247"),
    ("honest-flow", 8, 200, None, "3ec00288278c94868a044bdb57eb8e5c187ff8b6c2c560280405010436879e05"),
    ("adversarial-history", 4, 2000, None, "e2f8c25a23b49957a1ec06414c7bfa53985478a7cd12685cc7e5cedc02a20c48"),
    ("adversarial-history", 8, 500, None, "978b36915bb268667e6b77a5ea1e3956cc7dec131c234f972775593ee6296f27"),
    ("forgery", 8, 2000, None, "19459bc2d86e7eb0ed38943ab53f752cc83373fab28a029e4fb9c67845fa2ee6"),
    ("forgery", 16, 200, None, "8b202bbf4a3d825ef07f24b1d78ea69b8834b4c982036702741b0b1e1f227f33"),
    ("forgery", 8, 500, "block-collision", "4de9770cbf09694956870fac5e3a25f28fe2366ea9f6141c013d4974bcd70db3"),
    ("tracking-audit", 4, 2000, None, "6282b5d67256d979d21657a795123babc6abe79a54cdd162dea5f869041d14a9"),
    ("tracking-audit", 8, 40, None, "267baf267f28f2456c53f639efdb519c2981644637c5bd93ac0252296f14307a"),
    ("tracking-audit", 4, 20_000, None, "7c3576286c103eb734607e52ae6a7dd1c1290a446d92db08bdda35e0b8bd71e4"),
    ("otp-roundtrip", 8, 64, None, "3adacea819a9c46cfeeb9410b99943ac77bb81dc9e4cd6be967254c2a7e04cd3"),
    ("voting", 8, 50, None, "eb8417b90e294f069c6e56803b82fe38f416a1b9fdb019e7495044ab9b2a5136"),
]


@pytest.mark.parametrize("scenario,k,trials,strategy,digest", DIGESTS)
def test_scenario_csv_keeps_its_digest(scenario, k, trials, strategy, digest):
    spec = harness.ScenarioSpec(scenario, k=k, trials=trials, seed=3, strategy=strategy)
    csv_text = harness.run_scenario(spec).to_csv()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == digest


def test_tracking_audit_csv_at_a_two_word_seed_keeps_its_digest():
    """A seed of 2^32 or more spans two seed words; its trial streams are
    computed as arrays, as a one-word seed's are, and keep the bytes that
    generators built one trial at a time gave."""
    spec = harness.ScenarioSpec("tracking-audit", k=4, trials=2000, seed=2**32 + 3)
    csv_text = harness.run_scenario(spec).to_csv()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "4594347e4907644512a3721f5858bc95ede258fdbb6d914b693a11da639747ae")


# The regime the benchmark runs in: call seed n*1000 + i passes 2^32 once
# n >= 4,294,968. Taken while such seeds still built one generator per trial.
MULTI_WORD_SEED_DIGESTS = [
    (8, 2**40 + 1, 400, "3032f8c5b30058fad4c4936d619ab0b2a87cd9d8a54e8fc9e23cbe6ec0fd74e6"),
    (4, 2**64 + 5, 2000, "3046c6929c1dd150d82c9f8488e7e9d5b104b708fecc3b46e911edd36ddcb36b"),
]


@pytest.mark.parametrize("k,seed,trials,digest", MULTI_WORD_SEED_DIGESTS)
def test_tracking_audit_csv_at_a_multi_word_seed_keeps_its_digest(k, seed, trials, digest):
    spec = harness.ScenarioSpec("tracking-audit", k=k, trials=trials, seed=seed)
    csv_text = harness.run_scenario(spec).to_csv()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == digest


BOUNDS_DIGESTS = [
    (4, "c7f44d98dcdf07198e15d40f2095454e66e31d0c722b97c455e59cb2dcb25b07"),
    (8, "456c6346fd4d409b7275b6a45501d772671c379d4713ba0449440d5b0e44204a"),
    (16, "359a56fecce17c4b3690c2647386923bf944fd71f96cae601067be5dc5c9f45f"),
]


@pytest.mark.parametrize("k,digest", BOUNDS_DIGESTS)
def test_bounds_csv_keeps_its_digest(k, digest):
    assert hashlib.sha256(harness.bounds_csv(k).encode()).hexdigest() == digest
