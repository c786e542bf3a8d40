"""Anonymous single-use quantum tokens with classical verification, desk scale.

The package simulates a token scheme where a bank mints identical 2k-qubit
states, holders redeem them by a computational-basis measurement whose
outcome is verified classically against the bank's secret and a per-series
freshness ledger, and a swap-test audit lets holders catch a bank that tries to make
tokens traceable. Monte Carlo scenarios and exact inequality suites verify
the scheme's quantitative behavior.
"""

from .core import (
    DensityMatrix,
    RegisterLayout,
    SparseState,
    measure_register,
    random_state,
    reduced_density,
    swap_probability,
    swap_project,
    swap_test,
    tensor,
    trace_distance_advantage,
)
from .scheme import (
    Ledger,
    SchemeParams,
    SecretString,
    btest,
    report,
    report_emulated,
    token_state,
)
from .audit import anonymity_gap, report_chain, report_prime
from .adversary import (
    eval_all_correct_bound,
    eval_forgery_bound,
    mint_loaded,
    mint_permutation_paired,
    run_forgery,
)
from .bank import BankServer, BankService, CorruptLogError, Decision
from .harness import ExperimentResult, ScenarioSpec, run_inequality_suite, run_scenario

__version__ = "0.1.0"
