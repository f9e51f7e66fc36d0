import numpy as np
import pytest

from mfteams import (
    DiscountedHorizon,
    EnvironmentModel,
    FiniteHorizon,
    MarginalMismatchError,
    PolicyKernel,
    build_mkv_mdp,
    flow_trajectory,
    mean_field_flow,
    policy_kernels,
    solve,
)
from mfteams.measures import rank_compositions, simplex_grid

from conftest import make_random_model


def control_free_model(rng):
    """Single action, so the flow is a plain Markov chain in mu."""
    base = rng.dirichlet(np.ones(3), size=(3, 1))
    return EnvironmentModel(
        num_states=3,
        num_actions=1,
        kernel_base=base,
        kernel_coupling=np.zeros((3, 1, 3, 3)),
        cost_const=np.ones((3, 1)),
        cost_linear=np.zeros((3, 1, 3)),
        cost_quad=np.zeros((3, 1, 3, 3)),
        discount=0.9,
        initial_dist=rng.dirichlet(np.ones(3)),
    )


# ---- flow ----


def test_flow_is_action_marginal_for_identity_dynamics(counterexample):
    # next state equals the action, so the flow is theta's action marginal
    rng = np.random.default_rng(59)
    for _ in range(20):
        mu = rng.dirichlet(np.ones(2))
        rows = rng.dirichlet(np.ones(2), size=2)
        theta = mu[:, None] * rows
        nxt = mean_field_flow(counterexample, mu, theta)
        np.testing.assert_allclose(nxt, theta.sum(axis=0), atol=1e-14)


def test_flow_rejects_bad_marginal(counterexample):
    with pytest.raises(MarginalMismatchError):
        mean_field_flow(counterexample, [0.0, 1.0], np.full((2, 2), 0.25))


def test_flow_preserves_simplex():
    rng = np.random.default_rng(61)
    for _ in range(20):
        model = make_random_model(rng, num_states=3, coupled=True)
        mu = rng.dirichlet(np.ones(3))
        rows = rng.dirichlet(np.ones(2), size=3)
        nxt = mean_field_flow(model, mu, mu[:, None] * rows)
        assert nxt.min() >= -1e-12
        assert nxt.sum() == pytest.approx(1.0, abs=1e-12)


def test_control_free_flow_matches_matrix_powers():
    rng = np.random.default_rng(67)
    model = control_free_model(rng)
    kernel = PolicyKernel.constant(np.ones((3, 1)), simplex_grid(1, 3))
    traj = flow_trajectory(model, model.initial_dist, kernel, 5)
    chain = model.kernel_base[:, 0, :]
    for t in range(6):
        expected = model.initial_dist @ np.linalg.matrix_power(chain, t)
        np.testing.assert_allclose(traj[t], expected, atol=1e-13)


def test_long_discounted_flow_keeps_unit_mass(weakly_coupled):
    # weakly_coupled rows carry mass 0.8 + 0.2 * sum(mu), which amplifies a
    # roundoff excess by about 1.2 per step unless the flow is renormalized
    mkv = build_mkv_mdp(weakly_coupled, 32, 16)
    kernel = policy_kernels(solve(mkv, DiscountedHorizon(beta=0.95)))
    traj = flow_trajectory(weakly_coupled, weakly_coupled.initial_dist, kernel, 318)
    assert np.isfinite(traj).all()
    assert traj.min() >= 0.0
    assert np.abs(traj.sum(axis=1) - 1.0).max() <= 1e-12


def test_coupled_flow_hand_case():
    # 0.2*mu(1) of mass diverted from state 0 to state 1, single action
    coupling = np.zeros((2, 1, 2, 2))
    coupling[:, 0, 0, 1] = -0.2
    coupling[:, 0, 1, 1] = 0.2
    model = EnvironmentModel(
        num_states=2,
        num_actions=1,
        kernel_base=np.tile([[[0.8, 0.2]]], (2, 1, 1)),
        kernel_coupling=coupling,
        cost_const=np.ones((2, 1)),
        cost_linear=np.zeros((2, 1, 2)),
        cost_quad=np.zeros((2, 1, 2, 2)),
        discount=0.9,
        initial_dist=[0.5, 0.5],
    )
    kernel = PolicyKernel.constant(np.ones((2, 1)), simplex_grid(1, 2))
    traj = flow_trajectory(model, model.initial_dist, kernel, 2)
    np.testing.assert_allclose(traj[1], [0.7, 0.3], atol=1e-15)
    np.testing.assert_allclose(traj[2], [0.74, 0.26], atol=1e-15)


def test_flow_trajectory_is_not_projected(decoupled):
    # mesh-1 kernel grid, but the flow itself must stay exact (off-grid)
    kernel = PolicyKernel.constant(np.array([[1.0, 0.0], [1.0, 0.0]]), simplex_grid(1, 2))
    traj = flow_trajectory(decoupled, decoupled.initial_dist, kernel, 1)
    np.testing.assert_allclose(traj[1], [0.9, 0.1], atol=1e-15)


def test_flow_trajectory_kernel_count_mismatch(decoupled):
    kernel = PolicyKernel.constant(np.array([[1.0, 0.0], [1.0, 0.0]]), simplex_grid(1, 2))
    with pytest.raises(ValueError):
        flow_trajectory(decoupled, decoupled.initial_dist, [kernel, kernel], 3)


# ---- quantized MDP ----


def test_mkv_mdp_tables(counterexample):
    mkv = build_mkv_mdp(counterexample, 2, 2)
    grid, policies = mkv.state_grid, mkv.policy_set
    assert mkv.stage_cost.shape == (3, 9)
    assert mkv.successor.shape == (3, 9)
    assert mkv.successor.min() >= 0 and mkv.successor.max() < 3
    for g in range(3):
        mu = grid.point(g)
        cmat = counterexample.cost_matrix_at(mu)
        for p in range(9):
            theta = mu[:, None] * policies.kernel(p)
            assert mkv.stage_cost[g, p] == pytest.approx(float((cmat * theta).sum()), abs=1e-14)
            nxt = mean_field_flow(counterexample, mu, theta)
            assert mkv.successor[g, p] == grid.project(nxt)


def test_limit_solution_states_are_the_grid_points(decoupled):
    sol = solve(build_mkv_mdp(decoupled, 4, 2), FiniteHorizon(2))
    grid = sol.problem.state_grid
    assert len(sol.states) == len(grid) == len(sol.values[0])
    for i, state in enumerate(sol.states):
        assert state.population == grid.mesh and state.counts == grid.counts[i]
        assert np.array_equal(state.as_distribution(), grid.point(i))


def test_mkv_finite_matches_exhaustive_two_stage(counterexample, weakly_coupled):
    for model in (counterexample, weakly_coupled):
        mkv = build_mkv_mdp(model, 4, 2)
        beta = 1.0 if model.discount == 1.0 else model.discount
        sol = solve(mkv, FiniteHorizon(2, beta=beta))
        G, P = mkv.stage_cost.shape
        for g in range(G):
            best = np.inf
            for p0 in range(P):
                g1 = mkv.successor[g, p0]
                best = min(best, mkv.stage_cost[g, p0] + beta * mkv.stage_cost[g1].min())
            assert sol.values[0][g] == pytest.approx(best, abs=1e-12)


def test_mkv_counterexample_value(counterexample):
    mkv = build_mkv_mdp(counterexample, 2, 2)
    sol = solve(mkv, FiniteHorizon(2))
    g0 = rank_compositions((0, 2))
    assert sol.values[0][g0] == pytest.approx(0.5, abs=1e-12)
    pi = policy_kernels(sol)[0]
    np.testing.assert_allclose(pi.rows_for([0.0, 1.0])[1], [0.5, 0.5], atol=1e-12)


def test_mkv_discounted_certificate(weakly_coupled):
    mkv = build_mkv_mdp(weakly_coupled, 4, 4)
    epsilon = 1e-8
    sol = solve(mkv, DiscountedHorizon(epsilon=epsilon))
    assert sol.stationary
    values = sol.values[0]
    assert (values >= 0.0).all()
    beta = weakly_coupled.discount
    q = mkv.stage_cost + beta * values[mkv.successor]
    residual = np.abs(q.min(axis=1) - values).max()
    assert residual <= epsilon * (1.0 - beta) / (2.0 * beta)


def test_policy_kernels_shapes(counterexample, weakly_coupled):
    sol = solve(build_mkv_mdp(counterexample, 2, 2), FiniteHorizon(3))
    stages = policy_kernels(sol)
    assert len(stages) == 3
    assert all(isinstance(k, PolicyKernel) for k in stages)
    # a stationary solution gives the bare kernel that serves every stage
    stat = solve(build_mkv_mdp(weakly_coupled, 2, 2), DiscountedHorizon())
    assert isinstance(policy_kernels(stat), PolicyKernel)


def test_counterexample_uniform_flow_reaches_fixed_point(counterexample):
    uniform = PolicyKernel.constant(np.full((2, 2), 0.5), simplex_grid(2, 2))
    traj = flow_trajectory(counterexample, counterexample.initial_dist, uniform, 2)
    np.testing.assert_allclose(traj, [[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def dyadic_model(rng, num_states, num_actions, denom=8):
    """A coupled model whose kernel entries are multiples of 1/denom.

    T(mu) = sum_z mu_z V_z for random stochastic vertex rows V_z, so flows
    from grid measures under gridded kernels are computed exactly and many
    land halfway between grid points: exact projection ties.
    """
    X, U = num_states, num_actions
    vertices = rng.multinomial(denom, np.ones(X) / X, size=(X, X, U)) / denom  # [z, x, u, x']
    random = make_random_model(rng, X, U)
    return EnvironmentModel(
        num_states=X,
        num_actions=U,
        kernel_base=vertices[0],
        kernel_coupling=np.moveaxis(vertices - vertices[0], 0, -1),
        cost_const=random.cost_const,
        cost_linear=random.cost_linear,
        cost_quad=random.cost_quad,
        discount=0.9,
        initial_dist=random.initial_dist,
    )


def per_pair_mkv_tables(model, grid, policies):
    """Stage costs and successors one (grid point, kernel) pair at a time,
    with the L1 argmin written out; also counts the projection ties."""
    cost = np.empty((len(grid), len(policies)))
    succ = np.empty(cost.shape, dtype=np.int64)
    ties = 0
    for g in range(len(grid)):
        mu = grid.point(g)
        cmat = model.cost_matrix_at(mu)
        for p in range(len(policies)):
            theta = mu[:, None] * policies.kernel(p)
            cost[g, p] = float((cmat * theta).sum())
            dists = np.abs(grid.points - mean_field_flow(model, mu, theta)).sum(axis=1)
            succ[g, p] = int(dists.argmin())
            ties += int(np.count_nonzero(dists == dists.min()) > 1)
    return cost, succ, ties


def test_batched_build_matches_per_pair_loop():
    rng = np.random.default_rng(67)
    ties = 0
    for X, U in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for model in (make_random_model(rng, X, U, coupled=True), dyadic_model(rng, X, U)):
            for mesh, policy_mesh in ((4, 2), (3, 3)):
                mkv = build_mkv_mdp(model, mesh, policy_mesh)
                cost, succ, n = per_pair_mkv_tables(model, mkv.state_grid, mkv.policy_set)
                np.testing.assert_array_equal(mkv.successor, succ)
                np.testing.assert_allclose(mkv.stage_cost, cost, rtol=0, atol=1e-15)
                ties += n
    assert ties > 100
