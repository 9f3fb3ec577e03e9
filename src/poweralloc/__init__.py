"""Power-aware size allocation and multiple-testing procedures.

A library and CLI for multiple hypothesis testing that exploits
differences in per-test power.  A panel of one-sided Gaussian tests is
modelled by its array of effect sizes (``RocModel``); on it sit the
optimal per-test size allocation under a weak family-wise error budget,
the derived step-down (strong FWER) and step-up (FDR) procedures with
their Sidak / Bonferroni / BH baselines, brute-force verification
oracles, and a seeded Monte Carlo harness.
"""

from .allocate import (
    AllocationError,
    SizeAllocation,
    SizeConditionReport,
    bonferroni_sizes,
    check_size_condition,
    optimal_sizes,
    sidak_sizes,
)
from .model import RocModel, roc, roc_deriv
from .numerics import (
    Bracket,
    BracketingError,
    ConvergenceError,
    RootResult,
    find_root,
)
from .oracle import (
    ConcavityReport,
    GridSearchResult,
    bernoulli_tail_enumerate,
    concavity_check,
    grid_optimal_sizes,
)
from .procedures import (
    Decision,
    ProcedureTrace,
    TruthAssignment,
    decide_bh,
    decide_bonferroni,
    decide_fdr_opt,
    decide_stepdown_sidak,
    decide_strong_fwer,
    decide_weak_fwer,
    fdr_null_bounds,
    generalized_pvalues,
)
from .sim import (
    PROCEDURE_TAGS,
    CellResult,
    Panel,
    ReplicateTable,
    RiskEstimates,
    ScenarioConfig,
    decide,
    efficiency_vs_sidak,
    generate_panel,
    run_cell,
    run_table,
)

__version__ = "0.1.0"
