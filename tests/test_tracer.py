"""The benchmark's span tracer still finds every name it pins in the package.

``perfbench/tracer.py`` patches functions by name (``scheme.mint``,
``audit.cheat_probability``, ``stats.trial_rng``, ``adversary.run_forgery``,
...) and requires each workload to cross named boundaries. Deleting or
renaming one of them breaks traced benchmark runs, so this test installs the
tracer, runs every workload's path at tiny sizes, and uninstalls it.
"""

import importlib.util
import os
from pathlib import Path

from qtoken import adversary, bank, harness, scheme, stats

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(scenario, **kwargs):
    harness.run_scenario(harness.ScenarioSpec(scenario, seed=1, **kwargs))


def test_tracer_installs_sees_every_required_span_and_uninstalls(tmp_path):
    tracer_module = load_tracer()
    originals = [
        (adversary, "run_forgery", adversary.run_forgery),
        (adversary, "btest", adversary.btest),
        (stats, "trial_rng", stats.trial_rng),
        (harness, "run_scenario", harness.run_scenario),
        (os, "fsync", os.fsync),
    ]
    from_hex = scheme.SecretString.__dict__["from_hex"]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        run("forgery", k=8, trials=2)
        run("tracking-audit", k=4, trials=2)
        run("inequality-suite", trials=2)
        service = bank.BankService(str(tmp_path / "bank.log"))
        secret = scheme.SecretString.random(4, stats.spawn_rng(1))
        sid = service.register_series(secret)
        service.handle_line(f"VERIFY {sid} 1 {secret.block(1):x}")
        service.close()
        bank.BankService.recover(str(tmp_path / "bank.log")).close()
    finally:
        tracer.uninstall()
    summary = tracer_module.summarize(tracer.spans)
    for workload in tracer_module.REQUIRED_SPANS:
        assert tracer_module.missing_boundaries(workload, summary) == [], workload
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    assert scheme.SecretString.__dict__["from_hex"] is from_hex
