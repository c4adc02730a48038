"""Straggler-resilient coded matrix-vector task assignment: constructions,
closed-form bounds, a brute-force verification oracle, and a worker
simulator with partial-progress credit."""

from .bounds import (
    BoundReport,
    bound_report,
    coded_bottom_q,
    coded_bottom_resilience,
    coded_top_q_bound,
    uncoded_q_bound,
    uncoded_resilience,
)
from .core import (
    AssignmentPlan,
    Coded,
    Placement,
    SystemParams,
    Uncoded,
    is_decodable,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    validate_plan,
)
from .oracle import (
    BudgetExceededError,
    OracleReport,
    brute_force_q,
    min_uncoded_coverage,
    straggler_resilience,
    uncoded_q_fast,
)
from .schemes import cauchy, cyclic_coded, cyclic_uncoded, mds_plan
from .sim import (
    Deterministic,
    HaltAfter,
    NotDecodableError,
    ShiftedExponential,
    SparsityAware,
    TrialResult,
    Uniform,
    numeric_decode,
    run_experiment,
    run_trial,
    split_matrix,
)

__version__ = "0.1.0"
