"""Statistics helpers: trial streams as arrays, the chi-squared critical value,
and what start-up loads."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtoken import stats

SRC = Path(stats.__file__).parents[1]


def test_chi2_critical_is_scipy_chi2_ppf_bit_for_bit():
    """The critical value is the 0.999 quantile scipy.stats computes, to the
    last bit: it is the CSV's ``expected`` column for the chi-squared rows."""
    for dof in [*range(1, 4097), *(2**k - 1 for k in range(1, 21))]:
        assert stats.chi2_critical(dof) == float(scipy.stats.chi2.ppf(0.999, dof)), dof


@pytest.mark.parametrize("run", [
    'harness.run_scenario(harness.ScenarioSpec("forgery", k=8, trials=5, seed=1))',
    "harness.run_inequality_suite(1, harness.SuiteSizes(5, 5, 5, 5, 5, 5))",
])
def test_only_a_scenario_run_loads_scipy(tmp_path, run):
    """Importing the package and the CLI, the bounds table and a logged bank load
    no scipy module; a scenario or suite run loads scipy.stats before it starts."""
    code = textwrap.dedent(f"""
        import sys
        import qtoken, qtoken.cli
        from qtoken import bank, harness, scheme, stats

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        harness.bounds_csv(8)
        log = {str(tmp_path / "bank.log")!r}
        service = bank.BankService(log)
        service.register_series(scheme.SecretString.random(8, stats.spawn_rng(1), "s1"))
        service.close()
        assert bank.BankService.recover(log).series_ids() == ["s1"]
        assert scipy_modules() == [], scipy_modules()

        {run}
        assert "scipy.stats" in sys.modules, scipy_modules()
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_recovered_bank_loads_no_numpy_random(tmp_path):
    """A bank that recovers its series from a log and decides on them never
    loads ``numpy.random`` (about 6 MB resident): only a drawn secret's table
    is replayed on a generator, and the bank draws none."""
    code = textwrap.dedent(f"""
        import sys
        import qtoken, qtoken.cli
        from qtoken import bank, scheme

        log = {str(tmp_path / "bank.log")!r}
        service = bank.BankService(log)
        service.register_series(scheme.SecretString(8, list(range(256)), "s1"))
        service.close()
        service = bank.BankService.recover(log)
        assert service.handle_line("VERIFY s1 3 02") == "OK", service.handle_line("VERIFY s1 3 02")
        service.close()
        assert "numpy.random" not in sys.modules
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


# Key elements of one to five seed words, and ranges that start low, cross 2^32,
# or start past 2^64: each row's seed words are the prefix's, then t's.
key_elements = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]), st.integers(0, 2**128 - 1))
starts = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32 - 40, 2**32 + 40),
                   st.integers(2**64, 2**66))


@settings(max_examples=300, deadline=None)
@given(st.lists(key_elements, min_size=1, max_size=4), starts, st.integers(0, 40),
       st.sampled_from([1, 3, 2**31 + 1]), st.booleans(), st.integers(1, 8))
@example([0, 2**32 - 1, 2**32, 2**64], 2**32 - 5, 10, 1, False, 4)
@example([2**64], 2**64 - 3, 6, 1, True, 2)
def test_spawn_uniforms_are_the_spawned_generators_draws(prefix, start, trials, step, backwards, d):
    """Row i is spawn_rng(*prefix, t).random(d) for the i-th t of the range,
    bit for bit: for empty ranges, seeds longer than the four-word pool, and
    ranges that cross a multiple of 2^32, in either direction."""
    ts = range(start, start + trials * step, step)
    ts = ts[::-1] if backwards else ts
    want = np.array([stats.spawn_rng(*prefix, t).random(d) for t in ts]).reshape(len(ts), d)
    got = stats.spawn_uniforms(tuple(prefix), ts, d)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("prefix,ts", [
    ((-1,), range(3)),
    ((5, -(2**40)), range(3)),
    ((5,), range(-2, 3)),
    ((5,), range(2, -2, -1)),
])
def test_spawn_uniforms_refuses_a_negative_key_as_seed_sequence_does(prefix, ts):
    bad = min((*prefix, *ts))
    with pytest.raises(ValueError) as seed_sequence_error:
        stats.spawn_rng(*prefix, bad)
    with pytest.raises(ValueError, match=str(seed_sequence_error.value)):
        stats.spawn_uniforms(prefix, ts, 2)


def test_spawn_uniforms_builds_no_generator_for_a_multi_word_seed(monkeypatch):
    """A benchmark call seed n*1000 + i passes 2^32 once n >= 4,294,968; its
    streams are still computed as arrays, never by a SeedSequence per row."""
    want = np.array([stats.spawn_rng(5_000_000_000, 1, t).random(4) for t in range(400)])

    def no_seed_sequence(*args, **kwargs):
        raise AssertionError("spawn_uniforms built a SeedSequence")

    monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
    assert np.array_equal(stats.spawn_uniforms((5_000_000_000, 1), range(400), 4), want)
