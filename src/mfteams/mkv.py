"""Deterministic mean-field limit of the team problem.

In the infinite-population limit the empirical measure evolves
deterministically: under a joint measure theta the next measure is the
push-forward mu'(x') = sum_{x,u} T(x'|x,u,mu) theta(x,u).  The limit
control problem is quantized onto a simplex grid over measures and a
finite grid of per-state action kernels; transitions project the exact
flow back onto the grid.  It is built into a solver.KernelMDP with a
SuccessorMDP, which `solver.solve` solves, and `solver.policy_kernels`
gives the kernels a solution chooses.
"""

from __future__ import annotations

import numpy as np

from .measures import (
    DEFAULT_ENUMERATION_CAP,
    _check_cap,
    check_positive,
    num_compositions,
    policy_grid,
    simplex_grid,
)
from .model import MARGINAL_TOL, MarginalMismatchError
from .solver import KernelMDP, SuccessorMDP, check_steps, stages


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


def build_mkv_mdp(model, mesh, policy_mesh, cap=DEFAULT_ENUMERATION_CAP):
    """The quantized limit MDP on the mesh-`mesh` simplex grid with the
    kernels of `policy_grid(policy_mesh, X, U)`, as a KernelMDP.

    Grid point g under kernel p plays the joint measure theta = mu_g[:, None]
    * kernel_p: its stage cost is sum(c(mu_g) * theta) and its successor the
    grid point `project_many` gives its push-forward (`mean_field_flow`).
    The pairs are built in blocks of grid points with the arithmetic of one
    point: the model is evaluated once on a block's stack of points, each
    push-forward is summed over (x, u) from zero, left to right, as the
    einsum of `_push_forward` sums it, and each cost over one point's
    (kernels, X, U) layout, so the tables are byte-identical to a loop over
    points.  The G P X pushed floats are checked against `cap` before
    anything is built.  A block holds max(1, cap // (P X U)) points, so its
    pushed floats and the joint measures its costs are summed from take at
    most `cap` floats each (one point's more, if it alone exceeds `cap`).
    """
    X, U = model.num_states, model.num_actions
    mesh, policy_mesh = check_positive("mesh", mesh), check_positive("policy_mesh", policy_mesh)
    _check_cap("limit MDP push-forward",
               num_compositions(mesh, X) * num_compositions(policy_mesh, U) ** X * X, cap)
    state_grid = simplex_grid(mesh, X, cap=cap)
    policies = policy_grid(policy_mesh, X, U, cap=cap)
    kernels, (G, P) = policies.kernels, (len(state_grid), len(policies))
    block = max(1, cap // (P * X * U))
    for lo in range(0, G, block):
        mus = state_grid.points[lo:lo + block]
        tensor = model.kernel_tensor_at(mus)
        pushed = np.zeros((X, len(mus), P))  # coordinate y of every push-forward
        for x, u in np.ndindex(X, U):
            theta = mus[:, x, None] * kernels[:, x, u]  # theta[g, p] at (x, u)
            for y in range(X):
                pushed[y] += theta * tensor[:, x, u, y, None]
        nearest = state_grid.project_many(pushed.reshape(X, -1).T).reshape(-1, P)
        del pushed
        if lo == 0:  # allocated after the first projection, so they do not add to its peak
            cost, succ = np.empty((G, P)), np.empty((G, P), dtype=np.int64)
        succ[lo:lo + block] = nearest
        theta = mus[:, None, :, None] * kernels
        np.multiply(theta, model.cost_matrix_at(mus)[:, None], out=theta).sum(
            axis=(2, 3), out=cost[lo:lo + block])
    cost.setflags(write=False)
    succ.setflags(write=False)
    return KernelMDP(model, state_grid, policies,
                     SuccessorMDP(cost.ravel(), np.arange(G) * P, succ.ravel()))


def flow_trajectory(model, mu0, pi, steps):
    """Exact limit flow mu_0..mu_steps under shared kernels.

    `pi` is a PolicyKernel, one kernel per step or a kernel-choosing
    Solution, mapped to steps by `stages`; the kernel lookup at the grid
    point nearest mu is the only quantized element, the flow itself is not
    projected.  Each step's measure is clipped at zero and
    renormalized: rows carrying mass affine in sum(mu) would otherwise
    amplify a roundoff mass excess geometrically over long horizons.

    From the first stage s from which every remaining stage has one block,
    that is one kernel object, each step is one pure function of the row
    before it, so once row b equals an earlier row a bit for bit, the flow
    from a on has period b - a and the remaining rows are copied from rows
    a..b-1: byte for byte what the full iteration computes, NaN payloads
    and signed zeros included.  Equal tables held in distinct objects are
    distinct blocks, so they are stepped one by one.  Each new row from s
    on is compared with one checkpoint row, moved to the current step
    whenever the steps since s reach a power of two (Brent's cycle test):
    one row of extra memory, and a flow whose first row to repeat one from
    s on is row r stops computing by row s + 3 (r - s).
    """
    steps = check_steps(steps)
    kernels, block = stages(model, pi, steps)
    start = max((t + 1 for t, b in enumerate(block) if b != block[-1]), default=0)
    mu = np.asarray(mu0, dtype=float)
    out = np.empty((steps + 1, mu.size))
    out[0] = mu
    for t, b in enumerate(block):
        if t == start:
            mark, seen = t, out[t].tobytes()
        mu = out[t]
        nxt = np.clip(_push_forward(model, mu, mu[:, None] * kernels[b].rows_for(mu)), 0.0, None)
        out[t + 1] = nxt / nxt.sum()
        if t >= start:
            row = out[t + 1].tobytes()
            if row == seen:
                left, period = steps - t, t + 1 - mark
                out[t + 1:] = np.tile(out[mark:t + 1], (-(-left // period), 1))[:left]
                break
            if not (t + 1 - start) & (t - start):  # t + 1 - start is a power of two
                mark, seen = t + 1, row
    return out
