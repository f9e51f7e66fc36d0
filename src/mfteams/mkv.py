"""Deterministic mean-field limit of the team problem.

In the infinite-population limit the empirical measure evolves
deterministically: under a joint measure theta the next measure is the
push-forward mu'(x') = sum_{x,u} T(x'|x,u,mu) theta(x,u).  The limit
control problem is quantized onto a simplex grid over measures and a
finite grid of per-state action kernels; transitions project the exact
flow back onto the grid.  `lifted.solve` solves it, and
`lifted.policy_kernels` gives the kernels a solution chooses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lifted import _SparseMDP, _per_stage
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
    return _push_forward(model, mu, theta)


def _push_forward(model, mu, theta):
    """mean_field_flow without its marginal check, for joint measures
    mu[:, None] * rows built from action laws (a policy grid's kernels or a
    PolicyKernel's validated rows), whose state marginal is mu within
    SIMPLEX_TOL, far inside MARGINAL_TOL."""
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
        succ[g] = state_grid.project_many(_push_forward(model, mu, theta))
    cost.setflags(write=False)
    succ.setflags(write=False)
    return MkvMDP(model, state_grid, policies, cost, succ)


def flow_trajectory(model, mu0, pi, steps):
    """Exact limit flow mu_0..mu_steps under shared kernels.

    `pi` is a PolicyKernel, one kernel per step or a kernel-choosing
    Solution, mapped to steps by _per_stage; the kernel lookup at the grid
    point nearest mu is the only quantized element, the flow itself is not
    projected.  Each step's measure is clipped at zero and
    renormalized: rows carrying mass affine in sum(mu) would otherwise
    amplify a roundoff mass excess geometrically over long horizons.
    """
    kernels = _per_stage(pi, steps)
    mu = np.asarray(mu0, dtype=float)
    out = np.empty((steps + 1, mu.size))
    out[0] = mu
    for t in range(steps):
        mu = out[t]
        nxt = np.clip(_push_forward(model, mu, mu[:, None] * kernels[t].rows_for(mu)), 0.0, None)
        out[t + 1] = nxt / nxt.sum()
    return out
