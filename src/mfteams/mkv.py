"""Deterministic mean-field limit of the team problem.

In the infinite-population limit the empirical measure evolves
deterministically: under a joint measure theta the next measure is the
push-forward mu'(x') = sum_{x,u} T(x'|x,u,mu) theta(x,u).  The limit
control problem is quantized onto a simplex grid over measures and a
finite grid of per-state action kernels; transitions project the exact
flow back onto the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lifted import PolicyKernel, _SparseMDP, _resolve_beta, _solve_discounted, _solve_finite
from .measures import DEFAULT_ENUMERATION_CAP, policy_grid, simplex_grid
from .model import MARGINAL_TOL, MarginalMismatchError


def mean_field_flow(model, mu, theta):
    """Next measure under the limit dynamics, or one per joint measure of
    a stack theta[..., x, u]; each must have state marginal mu within the
    marginal tolerance."""
    mu = np.asarray(mu, dtype=float)
    theta = np.asarray(theta, dtype=float)
    gap = np.abs(theta.sum(axis=-1) - mu).max()
    if gap > MARGINAL_TOL:
        raise MarginalMismatchError(f"state marginal of theta deviates from mu by {gap}")
    return np.einsum("...xu,xuy->...y", theta, model.kernel_tensor_at(mu))


@dataclass(frozen=True)
class MkvMDP:
    """Quantized limit MDP: per (grid point, kernel) a stage cost and a
    deterministic successor ordinal."""

    model: object
    state_grid: object
    policy_set: object
    stage_cost: np.ndarray
    successor: np.ndarray

    @property
    def sparse(self):
        """The same MDP as a _SparseMDP: kernels are the actions of every
        grid point, and each row is one successor of probability 1."""
        G, P = self.stage_cost.shape
        return _SparseMDP(
            self.stage_cost.ravel(), np.arange(G) * P, np.arange(G * P),
            self.successor.ravel(), np.ones(G * P),
        )


def build_mkv_mdp(model, mesh, policy_mesh, cap=DEFAULT_ENUMERATION_CAP):
    state_grid = simplex_grid(mesh, model.num_states, cap=cap)
    policies = policy_grid(policy_mesh, model.num_states, model.num_actions, cap=cap)
    G, P = len(state_grid), len(policies)
    cost = np.empty((G, P))
    succ = np.empty((G, P), dtype=np.int64)
    for g, mu in enumerate(state_grid.points):
        theta = mu[:, None] * policies.kernels  # one joint measure per kernel
        cost[g] = (model.cost_matrix_at(mu) * theta).sum(axis=(1, 2))
        succ[g] = state_grid.project_many(mean_field_flow(model, mu, theta))
    cost.setflags(write=False)
    succ.setflags(write=False)
    return MkvMDP(model, state_grid, policies, cost, succ)


@dataclass(frozen=True)
class MkvSolution:
    """Values and chosen kernel ordinals per grid point, one table per
    stage (or a single stationary table)."""

    mdp: MkvMDP
    values: tuple
    choices: tuple
    stationary: bool


def solve_mkv_finite(mkv, steps, beta=None):
    b = _resolve_beta(mkv.model, beta, allow_one=True)
    values, choices = _solve_finite([mkv.sparse] * steps, b)
    return MkvSolution(mkv, tuple(values), tuple(choices), False)


def solve_mkv_discounted(mkv, beta=None, epsilon=1e-8):
    b = _resolve_beta(mkv.model, beta, allow_one=False)
    values, choices = _solve_discounted(mkv.sparse, b, epsilon)
    return MkvSolution(mkv, (values,), (choices,), True)


def extract_mf_policy(solution, stage=0):
    """Chosen kernels as a PolicyKernel over the state grid."""
    table = solution.choices[0] if solution.stationary else solution.choices[stage]
    kernels = solution.mdp.policy_set.kernels[table]
    return PolicyKernel(solution.mdp.state_grid, kernels)


def extract_stage_policies(solution):
    """One PolicyKernel per stage; a stationary solution yields one."""
    if solution.stationary:
        return [extract_mf_policy(solution)]
    return [extract_mf_policy(solution, stage=t) for t in range(len(solution.choices))]


def flow_trajectory(model, mu0, pi, steps):
    """Exact limit flow mu_0..mu_steps under shared kernels.

    `pi` is a PolicyKernel or a per-stage sequence; the kernel lookup at
    the grid point nearest mu is the only quantized element, the flow
    itself is not projected.  Each step's measure is clipped at zero and
    renormalized: rows carrying mass affine in sum(mu) would otherwise
    amplify a roundoff mass excess geometrically over long horizons.
    """
    kernels = list(pi) if isinstance(pi, (list, tuple)) else [pi] * steps
    if len(kernels) != steps:
        raise ValueError(f"got {len(kernels)} kernels for {steps} steps")
    mu = np.asarray(mu0, dtype=float)
    out = np.empty((steps + 1, mu.size))
    out[0] = mu
    for t in range(steps):
        rows = kernels[t].rows_for(out[t])
        theta = out[t][:, None] * rows
        nxt = np.clip(mean_field_flow(model, out[t], theta), 0.0, None)
        out[t + 1] = nxt / nxt.sum()
    return out
