import json
from collections import Counter
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mfteams import (
    DiscountedHorizon,
    FiniteHorizon,
    PolicyKernel,
    SimConfig,
    Solution,
    build_measure_mdp,
    build_mkv_mdp,
    chaos_gap,
    enumerate_empirical,
    epsilon_gap,
    eta_kernel,
    evaluate_symmetric_policy_exact,
    flow_trajectory,
    multinomial_count_distribution,
    multinomial_pmf_table,
    policy_kernels,
    simulate_n_agents,
    solve,
    solve_symmetric_restricted,
    verify_markov_mf,
)
from mfteams import lifted
from mfteams.measures import (
    SimplexGrid,
    enumerate_joint_actions,
    num_compositions,
    policy_grid,
    rank_compositions,
    simplex_grid,
)
from mfteams.model import EnvironmentModel
from mfteams.sim import (
    _binomial_chain,
    _cell_sampler,
    _conditionals,
    _multinomial,
    _rollout,
    _stream,
)

from conftest import make_random_model


def uniform_kernel(num_states=2, num_actions=2):
    return PolicyKernel.constant(
        np.full((num_states, num_actions), 1.0 / num_actions),
        simplex_grid(2, num_states),
    )


def point_mass_kernel(action=0, num_states=2, num_actions=2):
    rows = np.zeros((num_states, num_actions))
    rows[:, action] = 1.0
    return PolicyKernel.constant(rows, simplex_grid(1, num_states))


# ---- count-level sampler ----


def test_multinomial_never_draws_a_zero_probability_category():
    rng = np.random.default_rng(3)
    n = np.full(200, 10**16)
    for row in ([0.7, 0.2, 0.1, 0.0], [1 / 3] * 3 + [0.0], [0.5, 0.0, 0.5, 0.0]):
        draws = _multinomial(rng, n, np.array(row))
        zero = np.array(row) == 0.0
        assert (draws[:, zero] == 0).all()
        assert (draws.sum(axis=1) == 10**16).all()


def test_multinomial_broadcasts_rows_against_trials():
    rng = np.random.default_rng(4)
    n = np.array([[5, 0], [7, 2]])
    p = np.array([[0.2, 0.8], [1.0, 0.0]])
    draws = _multinomial(rng, n, p)
    assert draws.shape == (2, 2, 2)
    np.testing.assert_array_equal(draws.sum(axis=2), n)
    np.testing.assert_array_equal(draws[:, 1], [[0, 0], [2, 0]])


def _clip_conditionals(p):
    """The conditional probabilities as they were written with clip and
    nan_to_num, kept to pin _multinomial's draws."""
    p = np.clip(p, 0.0, None)
    tail = np.cumsum(p[..., ::-1], axis=-1)[..., ::-1]
    with np.errstate(invalid="ignore"):
        return np.clip(np.nan_to_num(p / tail), 0.0, 1.0)


def _clip_multinomial(rng, n, p):
    cond = _clip_conditionals(p)
    left = np.array(n, dtype=np.int64)
    out = np.empty(left.shape + cond.shape[-1:], dtype=np.int64)
    for j in range(cond.shape[-1] - 1):
        out[..., j] = rng.binomial(left, cond[..., j])
        left -= out[..., j]
    out[..., -1] = left
    return out


def _awkward_rows(rng, shape, width):
    """Random rows of `width` with zero entries, -1e-17 entries and
    all-zero rows mixed in."""
    p = rng.dirichlet(np.ones(width), size=shape)
    flat = p.reshape(-1, width)
    flat[::3, 0] = 0.0
    flat[1::4, -1] = -1e-17
    flat[2::5] = 0.0
    flat[3::7, width // 2] = -0.0
    return flat.reshape(p.shape)


@pytest.mark.parametrize("n_shape, p_shape", [
    ((6,), (4,)),  # initial draw: replications x states
    ((6, 3), (6, 3, 4)),  # cells: state counts x action rows
    ((6, 3, 4), (6, 3, 4, 3)),  # next states: cell counts x kernel rows
])
def test_multinomial_draws_what_the_clip_formula_drew(n_shape, p_shape):
    rng = np.random.default_rng(41)
    for trial in range(20):
        p = _awkward_rows(rng, p_shape[:-1] or (5,), p_shape[-1])
        if len(p_shape) == 1:
            p = p[trial % 5]  # one row of each kind
        # equal as numbers (a -0.0 and a 0.0 both draw nothing without using the stream)
        np.testing.assert_array_equal(_conditionals(p), _clip_conditionals(p))
        n = rng.integers(0, 10**6, size=n_shape)
        old_rng, new_rng = np.random.default_rng(trial), np.random.default_rng(trial)
        np.testing.assert_array_equal(_multinomial(new_rng, n, p), _clip_multinomial(old_rng, n, p))
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


def _check_frequencies(next_counts, exact):
    """Empirical next-count frequencies against the exact law: an outcome of
    probability zero never occurs, and every other outcome's count is within
    5 binomial SEs plus one count (continuity slack, so that a single
    sighting of a rare outcome is not a failure)."""
    seen = Counter(map(tuple, next_counts.tolist()))
    reps = len(next_counts)
    for outcome in set(seen) | set(exact):
        p = exact.get(outcome, 0.0)
        slack = 5.0 * sqrt(max(reps * p * (1.0 - p), 0.0)) + (1.0 if p > 0.0 else 0.0)
        assert abs(seen[outcome] - reps * p) <= slack, (outcome, seen[outcome], p)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([2, 3]),
    num_actions=st.sampled_from([2, 3]),
    population=st.integers(1, 4),
    coupled=st.booleans(),
)
def test_one_step_count_law_matches_exact(seed, num_states, num_actions, population, coupled):
    rng = np.random.default_rng(seed)
    model = make_random_model(rng, num_states, num_actions, coupled=coupled)
    init = _multinomial(rng, np.full(2000, population), model.initial_dist)
    _check_frequencies(init, multinomial_pmf_table(model.initial_dist, population))

    grid = simplex_grid(2, num_states)
    shared = PolicyKernel(grid, rng.dirichlet(np.ones(num_actions), size=(len(grid), num_states)))
    mdp = build_measure_mdp(model, population)
    acts = [enumerate_joint_actions(s, num_actions) for s in mdp.states]
    table = np.array([rng.integers(len(a)) for a in acts])
    lifted = Solution(mdp, values=None, choices=(table,), stationary=True)

    def shared_law(counts):
        # each occupied state x moves by the law rows[x] @ T[x]
        mu = np.asarray(counts) / population
        rows, tens = shared.rows_for(mu), model.kernel_tensor_at(mu)
        return multinomial_count_distribution(
            [(rows[x] @ tens[x], c) for x, c in enumerate(counts) if c > 0]
        )

    def lifted_law(counts):
        # the cell counts are the chosen theta
        i = rank_compositions(counts)
        return eta_kernel(model, mdp.states[i], acts[i][table[i]])

    # two start states interleaved, so replications that mix show up
    starts = [mdp.states[i].counts for i in rng.integers(len(mdp.states), size=2)]
    start = np.array(starts * 1000)
    for policy, law in ((shared, shared_law), (lifted, lifted_law)):
        _, traj = _rollout(model, _cell_sampler(policy, 1), start, 1, 1.0, rng)
        for k, counts in enumerate(starts):
            _check_frequencies(traj[k::2, 1], law(counts))


def test_lifted_cell_counts_equal_theta(weakly_coupled):
    mdp = build_measure_mdp(weakly_coupled, 3)
    sol = solve(mdp, FiniteHorizon(2))
    draw = _cell_sampler(sol, 2)
    order = [1, 0, 3, 2, 1, 0]  # repeated and out of enumeration order
    counts = np.array([mdp.states[i].counts for i in order])
    for t in range(2):
        cells = draw(t, counts, None)
        for row, i in zip(cells, order):
            theta = enumerate_joint_actions(mdp.states[i], 2)[sol.choices[t][i]]
            assert row.tolist() == [list(r) for r in theta.counts]


def test_rollout_runs_at_a_billion_agents(counterexample):
    # nothing in a rollout is per agent, so a billion agents is as cheap as two
    config = SimConfig(population=10**9, horizon=FiniteHorizon(3),
                       policy=uniform_kernel(), replications=50, seed=5)
    report = simulate_n_agents(counterexample, config)
    assert report.chaos_series[-1] < 1e-3
    np.testing.assert_allclose(report.mean_measures.sum(axis=1), 1.0, atol=1e-12)


# ---- per-measure step laws against the per-step loop ----


def _reference_sampler(policy, steps):
    """The cell sampler as it was before the step laws were tabulated per
    measure: shared kernels project every replication's measure."""
    if isinstance(policy, Solution) and isinstance(policy.problem, lifted.MeasureMDP):
        mdp = policy.problem
        acts = [enumerate_joint_actions(s, mdp.model.num_actions) for s in mdp.states]
        cells = lifted._stage_tables(
            [np.array([acts[i][a].counts for i, a in enumerate(table)])
             for table in policy.choices], policy.stationary, steps)

        def draw(t, counts, rng):
            return cells[t][rank_compositions(counts)]

    else:
        kernels = lifted._per_stage(policy, steps)
        conds = {}
        for k in kernels:
            if id(k) not in conds:
                conds[id(k)] = _conditionals(k.table)

        def draw(t, counts, rng):
            k = kernels[t]
            cond = conds[id(k)][k.grid.project_many(counts / counts[0].sum())]
            return _binomial_chain(rng, counts, cond)

    return draw


def _reference_rollout(model, draw_cells, counts, steps, beta, rng):
    """The rollout as it was before the step laws were tabulated per
    measure: every step evaluates the costs and the kernel tensor at every
    replication's measure."""
    population = int(counts[0].sum())
    traj = [counts]
    cost = np.zeros(len(counts))
    disc = 1.0
    for t in range(steps):
        mus = counts / population
        cells = draw_cells(t, counts, rng)
        cost += disc * (cells * model.cost_matrix_at(mus)).sum(axis=(1, 2)) / population
        disc *= beta
        counts = _multinomial(rng, cells, model.kernel_tensor_at(mus)).sum(axis=(1, 2))
        traj.append(counts)
    return cost, np.stack(traj, axis=1)


def _random_policy(rng, model, kind, population, steps):
    """A lifted Solution, one shared kernel, or one kernel per stage (on
    grids of mixed meshes), with random action choices."""
    X, U = model.num_states, model.num_actions
    if kind == "lifted":
        mdp = build_measure_mdp(model, population)
        acts = [enumerate_joint_actions(s, U) for s in mdp.states]
        tables = [np.array([rng.integers(len(a)) for a in acts])
                  for _ in range(1 if steps is None else steps)]
        return Solution(mdp, values=None, choices=tuple(tables), stationary=steps is None)
    grids = [simplex_grid(mesh, X) for mesh in (1, 3, 5)]
    kernels = []
    for _ in range(1 if kind == "shared" else steps):
        grid = grids[rng.integers(len(grids))]
        rows = rng.dirichlet(np.ones(U), size=(len(grid), X))
        rows[rng.random(rows.shape[:2]) < 0.3, :] = np.eye(U)[rng.integers(U)]  # some point masses
        kernels.append(PolicyKernel(grid, rows))
    return kernels[0] if kind == "shared" else kernels


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([2, 3]),
    num_actions=st.sampled_from([2, 3]),
    population=st.integers(1, 12),
    replications=st.sampled_from([1, 2, 5, 30]),
    steps=st.integers(1, 6),
    kind=st.sampled_from(["lifted", "shared", "stages"]),
    discounted=st.booleans(),
)
def test_rollout_matches_the_per_step_loop(seed, num_states, num_actions, population,
                                           replications, steps, kind, discounted):
    rng = np.random.default_rng(seed)
    model = make_random_model(rng, num_states, num_actions, coupled=True)
    if discounted and kind == "stages":
        kind = "shared"  # a discounted horizon takes one kernel
    if kind == "lifted":
        population = min(population, 5)  # keeps the joint-action enumeration small
    policy = _random_policy(rng, model, kind, population, None if discounted else steps)
    beta = model.discount if discounted else 1.0
    tabulated = num_compositions(population, num_states) <= replications * steps
    event("measures tabulated" if tabulated else "laws evaluated per step")  # both occur
    start = _multinomial(rng, np.full(replications, population), model.initial_dist)
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    cost, traj = _rollout(model, _cell_sampler(policy, steps), start, steps, beta, new_rng)
    ref_cost, ref_traj = _reference_rollout(model, _reference_sampler(policy, steps), start, steps,
                                            beta, old_rng)
    assert cost.tobytes() == ref_cost.tobytes()
    assert traj.dtype == ref_traj.dtype and np.array_equal(traj, ref_traj)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_chaos_gap_matches_the_per_step_loop_on_both_sides_of_the_table(weakly_coupled):
    # 30 replications x 3 steps: populations up to 89 tabulate their measures,
    # 300 and 5000 evaluate each step; every population shares one sampler
    populations, steps, replications, seed = [1, 2, 8, 89, 90, 300, 5000], 3, 30, 17
    kernels = _random_policy(np.random.default_rng(5), weakly_coupled, "stages", None, steps)
    rows = chaos_gap(weakly_coupled, populations, kernels, steps, replications, seed)
    flow = flow_trajectory(weakly_coupled, weakly_coupled.initial_dist, kernels, steps)
    for row, population in zip(rows, populations):
        rng = _stream(seed, population)
        start = _multinomial(rng, np.full(replications, population), weakly_coupled.initial_dist)
        _, traj = _reference_rollout(weakly_coupled, _reference_sampler(kernels, steps), start,
                                     steps, 1.0, rng)
        gaps = np.abs(traj / population - flow).sum(axis=2)
        assert row.mean_max_gap == float(gaps.max(axis=1).mean())
        assert row.per_step_mean.tobytes() == gaps.mean(axis=0).tobytes()


@pytest.mark.parametrize("kind", ["lifted", "shared"])
def test_rollout_evaluates_the_model_once_per_measure_not_per_step(weakly_coupled, monkeypatch,
                                                                   kind):
    calls = Counter()
    in_rollout = []

    def counted(name, method):
        def wrapper(*args, **kwargs):
            if in_rollout:
                calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for cls, name in ((EnvironmentModel, "cost_matrix_at"), (EnvironmentModel, "kernel_tensor_at"),
                      (SimplexGrid, "project_many")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))

    def rollout(*args):
        in_rollout.append(True)
        try:
            return _rollout(*args)
        finally:
            in_rollout.pop()

    monkeypatch.setattr("mfteams.sim._rollout", rollout)
    rng = np.random.default_rng(8)
    policy = _random_policy(rng, weakly_coupled, kind, 16, None)
    per_steps = []
    for steps in (159, 318):
        calls.clear()
        report = simulate_n_agents(weakly_coupled, SimConfig(
            population=16, horizon=FiniteHorizon(steps), policy=policy,
            replications=20, seed=3))
        assert report.steps == steps
        per_steps.append(dict(calls))
    # the 17 measures of N=16 are evaluated in one stack, whatever the steps
    expected = {"cost_matrix_at": 1, "kernel_tensor_at": 1}
    if kind == "shared":
        expected["project_many"] = 1
    assert per_steps == [expected, expected]


# ---- simulate ----


def test_sim_config_validation(counterexample):
    with pytest.raises(ValueError):
        SimConfig(population=0, horizon=FiniteHorizon(1), policy=None,
                  replications=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(population=1, horizon=FiniteHorizon(1), policy=None,
                  replications=0, seed=0)


def test_uniform_kernel_simulation_matches_exact(counterexample):
    config = SimConfig(population=2, horizon=FiniteHorizon(2),
                       policy=uniform_kernel(), replications=20_000, seed=7)
    report = simulate_n_agents(counterexample, config)
    # exact cost of the shared uniform kernel from delta_1 is 0.75
    assert abs(report.mean_cost - 0.75) <= 3.0 * report.std_error
    assert report.steps == 2
    assert report.truncation_bound == 0.0
    assert report.chaos_series is not None


def test_lifted_optimal_rollout_is_deterministic(counterexample):
    mdp = build_measure_mdp(counterexample, 2)
    config = SimConfig(population=2, horizon=FiniteHorizon(2),
                       policy=solve(mdp, FiniteHorizon(2)), replications=50, seed=3)
    report = simulate_n_agents(counterexample, config)
    # from (0,2) the optimal play pays 0.5 then splits; every path is identical
    assert report.mean_cost == 0.5
    assert report.std_error == 0.0
    assert report.chaos_series is None


def test_restricted_solution_rollout(counterexample):
    sol = solve_symmetric_restricted(
        counterexample, 2, FiniteHorizon(2), policy_grid(2, 2, 2)
    )
    config = SimConfig(population=2, horizon=FiniteHorizon(2), policy=sol,
                       replications=4000, seed=11)
    report = simulate_n_agents(counterexample, config)
    assert abs(report.mean_cost - 0.75) <= 3.0 * report.std_error


def test_discounted_truncation_and_exact_value(decoupled):
    pi = point_mass_kernel(0)
    config = SimConfig(population=2, horizon=DiscountedHorizon(), policy=pi,
                       replications=800, seed=17, truncation_error=1e-4)
    report = simulate_n_agents(decoupled, config)
    assert report.truncation_bound <= 1e-4
    assert report.steps > 10
    # per-agent values under always-action-0 are V = (0.9, 1.9), so the
    # population-average cost from the i.i.d. start is exactly 1.4
    values = evaluate_symmetric_policy_exact(decoupled, 2, pi, DiscountedHorizon())
    index = {s.counts: i for i, s in enumerate(enumerate_empirical(2, 2))}
    start = multinomial_pmf_table(decoupled.initial_dist, 2)
    exact = sum(p * values[index[c]] for c, p in start.items())
    assert exact == pytest.approx(1.4, abs=1e-12)
    assert abs(report.mean_cost - exact) <= 3.0 * report.std_error + report.truncation_bound


def test_stage_kernel_list_rollout(counterexample):
    split = PolicyKernel.constant(
        np.array([[1.0, 0.0], [0.5, 0.5]]), simplex_grid(2, 2)
    )
    config = SimConfig(population=2, horizon=FiniteHorizon(2),
                       policy=[split, uniform_kernel()], replications=100, seed=29)
    report = simulate_n_agents(counterexample, config)
    assert report.chaos_series is not None
    with pytest.raises(ValueError):
        simulate_n_agents(
            counterexample,
            SimConfig(population=2, horizon=FiniteHorizon(3),
                      policy=[split, split], replications=10, seed=1),
        )


def test_rollouts_and_flows_refuse_steps_beyond_the_limit(counterexample, monkeypatch):
    # refused before a per-stage list of 10**14 kernels is made
    stages = []
    monkeypatch.setattr("mfteams.sim._per_stage", lambda *args: stages.append(args))
    monkeypatch.setattr("mfteams.mkv._per_stage", lambda *args: stages.append(args))
    k, limit = uniform_kernel(), "above the rollout and flow limit of 100000"
    with pytest.raises(ValueError, match=limit):
        simulate_n_agents(counterexample, SimConfig(population=2, horizon=FiniteHorizon(10**14),
                                                    policy=k, replications=10, seed=1))
    with pytest.raises(ValueError, match=limit):
        chaos_gap(counterexample, [2], k, steps=10**14, replications=10, seed=1)
    with pytest.raises(ValueError, match=limit):
        flow_trajectory(counterexample, counterexample.initial_dist, k, 10**14)
    assert stages == []


def test_stage_rule_is_the_same_for_every_rollout(counterexample, decoupled):
    # a finite horizon takes one kernel per stage: [k] does not stretch
    k = uniform_kernel()
    with pytest.raises(ValueError, match="1 kernels for 3 stages"):
        simulate_n_agents(counterexample, SimConfig(population=2, horizon=FiniteHorizon(3),
                                                    policy=[k], replications=10, seed=1))
    with pytest.raises(ValueError, match="1 kernels for 3 stages"):
        chaos_gap(counterexample, [2], [k], steps=3, replications=10, seed=1)
    # a discounted horizon takes exactly one kernel, bare or in a sequence
    reports = [
        json.dumps(simulate_n_agents(decoupled, SimConfig(
            population=4, horizon=DiscountedHorizon(), policy=pi, replications=30, seed=8,
            truncation_error=1e-3)).to_dict())
        for pi in (k, [k])
    ]
    assert reports[0] == reports[1]
    with pytest.raises(ValueError, match="2 kernels for a discounted horizon"):
        simulate_n_agents(decoupled, SimConfig(population=4, horizon=DiscountedHorizon(),
                                               policy=[k, k], replications=3, seed=8))


def test_staged_restricted_solution_needs_one_table_per_stage(counterexample):
    sol = solve_symmetric_restricted(counterexample, 2, FiniteHorizon(2), policy_grid(2, 2, 2))
    with pytest.raises(ValueError, match="2 policy tables for 3 stages"):
        simulate_n_agents(counterexample, SimConfig(population=2, horizon=FiniteHorizon(3),
                                                    policy=sol, replications=5, seed=1))


def test_discounted_limit_kernels_drive_finite_rollouts_and_flows(weakly_coupled):
    # a stationary solution's kernel serves every stage of a finite horizon
    sol = solve(build_mkv_mdp(weakly_coupled, 8, 4), DiscountedHorizon(beta=0.95))
    kernels = policy_kernels(sol)
    traj = flow_trajectory(weakly_coupled, weakly_coupled.initial_dist, kernels, 3)
    assert traj.shape == (4, 2)
    np.testing.assert_array_equal(
        flow_trajectory(weakly_coupled, weakly_coupled.initial_dist, sol, 3), traj)
    config = SimConfig(population=16, horizon=FiniteHorizon(3), policy=kernels,
                       replications=20, seed=4)
    assert simulate_n_agents(weakly_coupled, config).steps == 3


def test_restricted_solution_kernels_sit_on_its_measures(weakly_coupled):
    sol = solve_symmetric_restricted(weakly_coupled, 5, FiniteHorizon(2), policy_grid(2, 2, 2))
    kernels = sol.problem.policy_set.kernels
    for stage, kernel in enumerate(policy_kernels(sol)):
        for i, state in enumerate(sol.states):
            np.testing.assert_array_equal(kernel.rows_for(state.as_distribution()),
                                          kernels[sol.choices[stage][i]])


def test_lifted_rollout_leaves_the_rows_unbuilt(weakly_coupled):
    mdp = build_measure_mdp(weakly_coupled, 6)
    first = np.zeros(len(mdp), dtype=np.int64)
    simulate_n_agents(weakly_coupled, SimConfig(
        population=6, horizon=FiniteHorizon(3),
        policy=Solution(mdp, values=None, choices=(first,), stationary=True),
        replications=20, seed=2))
    assert "operator" not in vars(mdp)


def test_lifted_rollout_builds_no_transition_rows(weakly_coupled, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a transition row was built")

    monkeypatch.setattr(lifted, "multinomial_count_distribution", forbidden)
    mdp = build_measure_mdp(weakly_coupled, 6)
    first = np.zeros(len(mdp), dtype=np.int64)  # joint action 0 at every measure
    for policy in (Solution(mdp, values=None, choices=(first,), stationary=True),
                   Solution(mdp, values=None, choices=(first,) * 3, stationary=False)):
        report = simulate_n_agents(weakly_coupled, SimConfig(
            population=6, horizon=FiniteHorizon(3), policy=policy,
            replications=20, seed=2))
        assert report.steps == 3


def test_report_round_trips_to_dict(counterexample):
    config = SimConfig(population=2, horizon=FiniteHorizon(2),
                       policy=uniform_kernel(), replications=5, seed=1)
    payload = simulate_n_agents(counterexample, config).to_dict()
    assert payload["population"] == 2
    assert payload["replications"] == 5
    assert len(payload["mean_measures"]) == 3
    assert len(payload["chaos_series"]) == 3


# ---- propagation of chaos ----


def test_chaos_gap_decreases_with_population(counterexample):
    rows = chaos_gap(counterexample, [2, 8, 32], uniform_kernel(),
                     steps=3, replications=600, seed=99)
    gaps = [r.mean_max_gap for r in rows]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    # at t=1 the measure is Bin(N, 1/2)/N, so the L1 gap has a closed form
    for row in rows:
        n = row.population
        exact = 2.0 * sum(
            comb(n, k) * 0.5**n * abs(k / n - 0.5) for k in range(n + 1)
        )
        assert abs(row.per_step_mean[1] - exact) <= 3.0 * row.per_step_se[1]


def test_chaos_gap_rate_holds_far_past_enumerable_populations(counterexample):
    # E|Bin(N, 1/2)/N - 1/2| decays like N^-1/2; at N = 10^6 a rollout step
    # costs what it costs at N = 100
    populations = [10**2, 10**4, 10**6]
    rows = chaos_gap(counterexample, populations, uniform_kernel(),
                     steps=3, replications=400, seed=31)
    gaps = [r.mean_max_gap for r in rows]
    slope = np.polyfit(np.log(populations), np.log(gaps), 1)[0]
    assert -0.55 <= slope <= -0.45


def test_chaos_gap_zero_for_deterministic_dynamics(counterexample):
    # all agents start in state 1 and jump to state 0 together; the
    # empirical measure never leaves the flow
    rows = chaos_gap(counterexample, [2, 5], point_mass_kernel(0),
                     steps=3, replications=50, seed=1)
    assert [r.mean_max_gap for r in rows] == [0.0, 0.0]


def test_chaos_gap_needs_shared_kernels(counterexample):
    mdp = build_measure_mdp(counterexample, 2)
    with pytest.raises(TypeError):
        chaos_gap(counterexample, [2], solve(mdp, FiniteHorizon(2)),
                  steps=2, replications=10, seed=0)


def test_chaos_gap_single_replication_has_no_se(counterexample):
    rows = chaos_gap(counterexample, [2], uniform_kernel(),
                     steps=2, replications=1, seed=4)
    assert rows[0].std_error is None
    assert rows[0].per_step_se is None


def test_chaos_gap_refuses_bad_populations_and_replications_before_any_rollout(
        weakly_coupled, monkeypatch):
    monkeypatch.setattr("mfteams.sim._rollout", lambda *args: pytest.fail("rolled out"))
    for populations, replications, message in (
            ([0], 5, "population must be >= 1"), ([4, -2], 5, "population must be >= 1"),
            ([2**63], 5, "exceeds the int64 range"), ([4], 0, "replications must be >= 1")):
        with pytest.raises(ValueError, match=message):
            chaos_gap(weakly_coupled, populations, uniform_kernel(), 3, replications, 1)


NON_INTEGER_SIZES = {
    "SimConfig population": ("population", lambda model: SimConfig(
        population=2.5, horizon=FiniteHorizon(2), policy=uniform_kernel(),
        replications=3, seed=1)),
    "SimConfig replications": ("replications", lambda model: SimConfig(
        population=2, horizon=FiniteHorizon(2), policy=uniform_kernel(),
        replications=2.5, seed=1)),
    "chaos_gap population": ("population", lambda model: chaos_gap(
        model, [4, 2.5], uniform_kernel(), 3, 5, 1)),
    "chaos_gap replications": ("replications", lambda model: chaos_gap(
        model, [4], uniform_kernel(), 3, 2.5, 1)),
    "epsilon_gap population": ("population", lambda model: epsilon_gap(
        model, [2, 2.5], FiniteHorizon(2), 4, 2)),
}


@pytest.mark.parametrize("case", NON_INTEGER_SIZES)
def test_non_integer_populations_and_replications_are_refused(weakly_coupled, monkeypatch,
                                                               case):
    monkeypatch.setattr("mfteams.sim._rollout", lambda *args: pytest.fail("rolled out"))
    monkeypatch.setattr("mfteams.sim.solve", lambda *args: pytest.fail("solved"))
    name, call = NON_INTEGER_SIZES[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
        call(weakly_coupled)


def test_integer_sizes_of_any_integer_type_are_accepted():
    config = SimConfig(population=np.int64(2), horizon=FiniteHorizon(2),
                       policy=uniform_kernel(), replications=np.int32(3), seed=1)
    assert (config.population, config.replications) == (2, 3)


# ---- Markov summary check ----


def test_markov_summary_holds_for_shared_kernel(counterexample, weakly_coupled):
    rng = np.random.default_rng(71)
    for model in (counterexample, weakly_coupled):
        grid = simplex_grid(2, 2)
        table = rng.dirichlet(np.ones(2), size=(len(grid), 2))
        report = verify_markov_mf(model, 2, PolicyKernel(grid, table), t_max=2)
        assert report.max_deviation <= 1e-12
        assert len(report.per_step) == 2


def test_markov_summary_breaks_for_agent_indexed_kernels(weakly_coupled):
    grid = simplex_grid(1, 2)
    follow = PolicyKernel.constant(np.eye(2), grid)
    oppose = PolicyKernel.constant(np.eye(2)[::-1].copy(), grid)
    uniform = PolicyKernel.constant(np.full((2, 2), 0.5), grid)
    report = verify_markov_mf(weakly_coupled, 3, [follow, oppose, uniform], t_max=2)
    assert report.max_deviation > 0.01


def test_markov_check_input_guards(counterexample):
    with pytest.raises(ValueError):
        verify_markov_mf(counterexample, 5, uniform_kernel())
    with pytest.raises(ValueError):
        verify_markov_mf(counterexample, 3, [uniform_kernel()] * 2)
    for t_max in (0, -1):
        with pytest.raises(ValueError, match=f"t_max must be >= 1, got {t_max}"):
            verify_markov_mf(counterexample, 2, uniform_kernel(), t_max=t_max)


@pytest.mark.parametrize("population, message", [
    (0, "population must be >= 1"), (-1, "population must be >= 1"),
    (2.5, "population must be an integer, got 2.5"),
])
def test_markov_check_refuses_an_empty_or_fractional_team(counterexample, monkeypatch,
                                                          population, message):
    monkeypatch.setattr("mfteams.sim.product", lambda *args, **kw: pytest.fail("enumerated"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_markov_mf(counterexample, population, uniform_kernel())


# ---- optimality gap ----


def test_epsilon_gap_reproduces_counterexample(counterexample):
    rows = epsilon_gap(counterexample, [2], FiniteHorizon(2), mesh=2, policy_mesh=2)
    row = rows[0]
    assert row.status == "ok"
    assert row.optimal_value == pytest.approx(0.5, abs=1e-9)
    assert row.policy_value == pytest.approx(0.75, abs=1e-9)
    assert row.gap == pytest.approx(0.25, abs=1e-9)


def test_epsilon_gap_zero_when_decoupled(decoupled):
    # the solve accuracy bounds the measured gap, so keep it below the target
    rows = epsilon_gap(decoupled, [2, 3], DiscountedHorizon(epsilon=1e-12),
                       mesh=8, policy_mesh=8)
    for row in rows:
        assert row.status == "ok"
        assert abs(row.gap) <= 1e-9


def test_epsilon_gap_reports_capped_populations(counterexample):
    rows = epsilon_gap(counterexample, [2, 40], FiniteHorizon(2),
                       mesh=2, policy_mesh=2, cap=100)
    assert rows[0].status == "ok"
    assert rows[1].status.startswith("skipped")
    assert rows[1].gap is None
