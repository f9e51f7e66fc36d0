"""Solver and simulator for finite-population mean-field stochastic teams
and their deterministic McKean-Vlasov limit."""

__version__ = "0.1.0"

from .lifted import (
    MeasureMDP,
    bellman_backup,
    build_measure_mdp,
    eta_kernel,
    evaluate_symmetric_policy_exact,
    exact_action_distribution,
    multinomial_count_distribution,
    multinomial_pmf_table,
    realize_exchangeable_action,
    solve_symmetric_restricted,
)
from .measures import (
    DEFAULT_ENUMERATION_CAP,
    EmpiricalJointMeasure,
    EmpiricalStateMeasure,
    EnumerationCapError,
    GriddedPolicySet,
    SimplexGrid,
    canonical_assignment,
    compositions,
    enumerate_empirical,
    enumerate_joint_actions,
    num_compositions,
    policy_grid,
    rank_compositions,
    round_to_counts,
    simplex_grid,
)
from .mkv import build_mkv_mdp, flow_trajectory, mean_field_flow
from .model import (
    DiscountedHorizon,
    EnvironmentModel,
    FiniteHorizon,
    MarginalMismatchError,
    ModelError,
    ModelValidationError,
    as_simplex,
    load_model,
    model_from_config,
    save_model,
)
from .sim import (
    ChaosGapRow,
    GapRow,
    MarkovCheckReport,
    SimConfig,
    SimReport,
    chaos_gap,
    epsilon_gap,
    simulate_n_agents,
    verify_markov_mf,
)
from .solver import ConvergenceError, KernelMDP, PolicyKernel, Solution, policy_kernels, solve
