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
from hypothesis import given, settings
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


# Seeds below 2^32 take the array path; larger ones build generators row by row.
key_elements = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(key_elements, min_size=1, max_size=3), st.integers(0, 2**32 - 1),
       st.integers(0, 40), st.integers(1, 8))
def test_spawn_uniforms_are_the_spawned_generators_draws(prefix, start, trials, d):
    """Row i is spawn_rng(*prefix, t).random(d) for the i-th t of the range,
    bit for bit, for empty ranges, ranges that start above 0 and ranges that
    reach past 2^32."""
    ts = range(start, start + trials)
    want = np.array([stats.spawn_rng(*prefix, t).random(d) for t in ts]).reshape(len(ts), d)
    got = stats.spawn_uniforms(tuple(prefix), ts, d)
    assert got.shape == want.shape
    assert np.array_equal(got, want)

