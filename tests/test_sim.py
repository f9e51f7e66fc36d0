import json
import re
from collections import Counter
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
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
from mfteams import lifted, sim, solver
from mfteams.measures import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    SimplexGrid,
    composition_array,
    enumerate_joint_actions,
    num_compositions,
    policy_grid,
    rank_compositions,
    simplex_grid,
)
from mfteams.model import EnvironmentModel
from mfteams.sim import (
    _cell_sampler,
    _conditionals,
    _multinomial,
    _rollout,
    _step_laws,
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
        (_, traj), = _rollout(model, _cell_sampler(model, policy, 1), [start], 1, 1.0, [rng])
        for k, counts in enumerate(starts):
            _check_frequencies(traj[k::2, 1], law(counts))


def _exact_stage_data(model, population, kernel):
    """The exact-evaluation MDP of one shared kernel over every measure."""
    counts = composition_array(population, model.num_states)
    rows = kernel.table[kernel.grid.project_many(counts / population)][:, None]
    return counts, lifted._kernel_stage_data(model, counts, rows)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([2, 3]),
    num_actions=st.sampled_from([2, 3]),
    population=st.integers(1, 4),
    steps=st.integers(2, 3),
)
def test_shared_count_law_after_several_steps_matches_exact(seed, num_states, num_actions,
                                                            population, steps):
    # the counts at step t from a fixed start follow e_start P_1 ... P_t, with P_k the
    # exact-evaluation rows of stage k's kernel
    rng = np.random.default_rng(seed)
    model = make_random_model(rng, num_states, num_actions, coupled=True)
    kernels = _random_policy(rng, model, "stages", population, steps)
    start = rng.integers(num_compositions(population, num_states))
    law = np.eye(num_compositions(population, num_states))[start]
    for k in kernels:
        counts, data = _exact_stage_data(model, population, k)
        law = law @ data.rows
    (_, traj), = _rollout(model, _cell_sampler(model, kernels, steps),
                          [np.tile(counts[start], (2000, 1))], steps, 1.0, [rng])
    _check_frequencies(traj[:, steps], dict(zip(map(tuple, counts.tolist()), law)))


@pytest.mark.parametrize("replications", [40, 10])  # 21 measures: tabulated, then per step
def test_shared_rollout_cost_is_the_expected_stage_cost(replications):
    rng = np.random.default_rng(12)
    model = make_random_model(rng, 3, 3, coupled=True)  # costs depend on the action
    grid = simplex_grid(2, 3)
    kernel = PolicyKernel(grid, rng.dirichlet(np.ones(3), size=(len(grid), 3)))
    counts, data = _exact_stage_data(model, 5, kernel)
    start = np.array([2, 1, 2])
    (cost, _), = _rollout(model, _cell_sampler(model, kernel, 1),
                          [np.tile(start, (replications, 1))], 1, 1.0, [rng])
    exact = data.cost[rank_compositions(start)]
    assert (cost == cost[0]).all()
    assert abs(cost[0] - exact) <= 1e-15 * exact


def test_lifted_cell_counts_equal_theta(weakly_coupled):
    mdp = build_measure_mdp(weakly_coupled, 3)
    sol = solve(mdp, FiniteHorizon(2))
    groups = _cell_sampler(weakly_coupled, sol, 2)
    order = [1, 0, 3, 2, 1, 0]  # repeated and out of enumeration order
    counts = np.array([mdp.states[i].counts for i in order])
    for t in range(2):
        (cells, _, _), = _step_laws(weakly_coupled, groups, counts, 3, [groups.block[t]])
        for row, i in zip(cells.reshape(len(order), 2, 2), order):
            theta = enumerate_joint_actions(mdp.states[i], 2)[sol.choices[t][i]]
            assert row.tolist() == [list(r) for r in theta.counts]


def test_rollout_runs_at_a_billion_agents(counterexample):
    # nothing in a rollout is per agent, so a billion agents is as cheap as two
    config = SimConfig(population=10**9, horizon=FiniteHorizon(3),
                       policy=uniform_kernel(), replications=50, seed=5)
    report = simulate_n_agents(counterexample, config)
    assert report.chaos_series[-1] < 1e-3
    np.testing.assert_allclose(report.mean_measures.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("population, steps", [(1, 3), (4, 1)])
def test_a_rollout_whose_costs_pass_the_float_range_is_refused(counterexample, population,
                                                               steps):
    # every cost 1e308: one agent's three undiscounted stage costs (tabulated), or four
    # agents' costs summed in one stage (stacked), pass the float range; no warning, no inf
    config = counterexample.to_config()
    config["cost_const"] = np.full((2, 2), 1e308).tolist()
    model = EnvironmentModel(**config)
    sim_config = SimConfig(population=population, horizon=FiniteHorizon(steps, 1.0),
                           policy=uniform_kernel(), replications=3, seed=5)
    with pytest.raises(ValueError, match=f"the costs of N={population} agents pass the float"):
        simulate_n_agents(model, sim_config)


# ---- per-measure step laws against the per-step loop ----


def _reference_sampler(policy, steps):
    """The lifted cell sampler as it was before the step laws were
    tabulated per measure."""
    mdp = policy.problem
    acts = [enumerate_joint_actions(s, mdp.model.num_actions) for s in mdp.states]
    cells = solver.stage_tables(
        [np.array([acts[i][a].counts for i, a in enumerate(table)])
         for table in policy.choices], policy.stationary, steps)

    def draw(t, counts, rng):
        return cells[t][rank_compositions(counts)]

    return draw


def _reference_rollout(model, draw_cells, counts, steps, beta, rng):
    """The lifted rollout as it was before the step laws were tabulated per
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


def _reference_mixed_rollout(model, policy, counts, steps, beta, rng):
    """The shared-kernel rollout as a per-step loop: every step projects
    every replication's measure, moves the agents at each state x by the
    mixed law kappa(mu)(x, .) T(.|x, ., mu) and adds the expected stage
    cost."""
    population = int(counts[0].sum())
    traj = [counts]
    cost = np.zeros(len(counts))
    disc = 1.0
    kernels, block = solver.stages(model, policy, steps)
    for k in (kernels[b] for b in block):
        mus = counts / population
        rows = k.table[k.grid.project_many(mus)]
        expected = (rows * model.cost_matrix_at(mus)).sum(axis=2)
        cost += disc * (counts * expected).sum(axis=1) / population
        disc *= beta
        mixed = solver.mixed_laws(rows[:, None], model.kernel_tensor_at(mus))[:, :, 0]
        counts = _multinomial(rng, counts, mixed).sum(axis=1)
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
    num_states=st.sampled_from([2, 3, 4]),  # 4 states: three conditional columns
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
    (cost, traj), = _rollout(model, _cell_sampler(model, policy, steps), [start], steps, beta,
                             [new_rng])
    if kind == "lifted":
        ref_cost, ref_traj = _reference_rollout(model, _reference_sampler(policy, steps), start,
                                                steps, beta, old_rng)
    else:
        ref_cost, ref_traj = _reference_mixed_rollout(model, policy, start, steps, beta, old_rng)
    assert cost.tobytes() == ref_cost.tobytes()
    assert traj.dtype == ref_traj.dtype and np.array_equal(traj, ref_traj)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


# 318 steps at beta = 0.95, the length of the benchmark's discounted rollouts: the stage costs
# are discounted and summed after the loop, so only a long horizon shows that sum accumulate
# as the per-step loop's does (N = 100, not a power of 2, so that dividing by N rounds); a
# cap of 0 sends the same rollout down the stacked path
@pytest.mark.parametrize("cap", [DEFAULT_ENUMERATION_CAP, 0], ids=["tabulated", "stacked"])
@pytest.mark.parametrize("kind, population, replications",
                         [("lifted", 16, 50), ("shared", 100, 100)])
def test_long_discounted_rollout_matches_the_per_step_loop(weakly_coupled, monkeypatch, cap,
                                                           kind, population, replications):
    steps, beta, seed = 318, 0.95, 29
    policy = _random_policy(np.random.default_rng(seed), weakly_coupled, kind, population, None)
    start = _multinomial(np.random.default_rng(seed), np.full(replications, population),
                         weakly_coupled.initial_dist)
    calls = _count_rollout_calls(monkeypatch)
    monkeypatch.setattr("mfteams.sim.DEFAULT_ENUMERATION_CAP", cap)
    new_rng, old_rng = _stream(seed), _stream(seed)
    (cost, traj), = sim._rollout(weakly_coupled, _cell_sampler(weakly_coupled, policy, steps),
                                 [start], steps, beta, [new_rng])
    assert calls["kernel_tensor_at"] == (1 if cap else steps)
    if kind == "lifted":
        ref_cost, ref_traj = _reference_rollout(weakly_coupled, _reference_sampler(policy, steps),
                                                start, steps, beta, old_rng)
    else:
        ref_cost, ref_traj = _reference_mixed_rollout(weakly_coupled, policy, start, steps, beta,
                                                      old_rng)
    assert cost.tobytes() == ref_cost.tobytes()
    assert traj.dtype == ref_traj.dtype and np.array_equal(traj, ref_traj)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


# 30 replications x 3 steps: populations up to 89 tabulate their measures, and 90, 300 and
# 5000 evaluate each step in one stack; at 30 x 40 steps of one kernel 1199 tabulates its
# 1200 measures, and 1200 and 5000 are stacked
@pytest.mark.parametrize("kind, steps, populations", [
    ("stages", 3, [1, 2, 8, 89, 90, 300, 5000]),
    ("shared", 40, [1, 2, 8, 1199, 1200, 5000]),
], ids=["3 stage kernels", "one kernel over 40 steps"])
def test_chaos_gap_matches_the_per_step_loop_on_both_sides_of_the_table(weakly_coupled, kind,
                                                                        steps, populations):
    # every population shares one sampler and one rollout
    replications, seed = 30, 17
    kernels = _random_policy(np.random.default_rng(5), weakly_coupled, kind, None, steps)
    rows = chaos_gap(weakly_coupled, populations, kernels, steps, replications, seed)
    flow = flow_trajectory(weakly_coupled, weakly_coupled.initial_dist, kernels, steps)
    for row, population in zip(rows, populations):
        rng = _stream(seed, population)
        start = _multinomial(rng, np.full(replications, population), weakly_coupled.initial_dist)
        _, traj = _reference_mixed_rollout(weakly_coupled, kernels, start, steps, 1.0, rng)
        gaps = np.abs(traj / population - flow).sum(axis=2)
        assert row.mean_max_gap == float(gaps.max(axis=1).mean())
        assert row.per_step_mean.tobytes() == gaps.mean(axis=0).tobytes()


def _count_rollout_calls(monkeypatch, rows=None):
    """A Counter of the model evaluations and grid projections made inside
    _rollout from now on; with a list `rows`, the rows of each kernel_tensor_at
    call are appended to it."""
    calls = Counter()
    in_rollout = []

    def counted(name, method):
        def wrapper(*args, **kwargs):
            if in_rollout:
                calls[name] += 1
                if rows is not None and name == "kernel_tensor_at":
                    rows.append(len(args[1]))
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
    return calls


@pytest.mark.parametrize("kind", ["lifted", "shared"])
def test_rollout_evaluates_the_model_once_per_measure_not_per_step(weakly_coupled, monkeypatch,
                                                                   kind):
    calls = _count_rollout_calls(monkeypatch)
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


def test_chaos_gap_evaluates_no_cost_and_stacks_the_populations_it_does_not_tabulate(
        weakly_coupled, monkeypatch):
    # 200 replications x 5 steps: N = 2 and 8 tabulate their 3 and 9 measures once each,
    # and N = 2048 and 4096 share one evaluation per step
    calls = _count_rollout_calls(monkeypatch)
    kernels = _random_policy(np.random.default_rng(9), weakly_coupled, "stages", None, 5)
    rows = chaos_gap(weakly_coupled, [2, 8, 2048, 4096], kernels, 5, 200, 3)
    assert [row.population for row in rows] == [2, 8, 2048, 4096]
    assert (calls["cost_matrix_at"], calls["kernel_tensor_at"]) == (0, 2 + 5)


def test_chaos_gap_tables_share_their_evaluations_in_batches(weakly_coupled, monkeypatch):
    # 200 replications x 5 steps: N = 2 ... 512 tabulate 3, 9, 33, 129 and 513 measures;
    # taken in increasing N, a batch holds at most the 513 measures of N = 512, so the
    # first four share one evaluation and N = 512 has its own
    rows = []
    calls = _count_rollout_calls(monkeypatch, rows)
    kernels = _random_policy(np.random.default_rng(9), weakly_coupled, "stages", None, 5)
    chaos_gap(weakly_coupled, [2, 8, 32, 128, 512], kernels, 5, 200, 3)
    assert (calls["cost_matrix_at"], calls["kernel_tensor_at"]) == (0, 2)
    assert rows == [3 + 9 + 33 + 129, 513]
    # given out of order, the batches are the same
    rows.clear()
    chaos_gap(weakly_coupled, [512, 8, 128, 2, 32], kernels, 5, 200, 3)
    assert rows == [3 + 9 + 33 + 129, 513]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.sampled_from([2, 3]),
       populations=st.lists(st.sampled_from([1, 2, 3, 5, 8, 13, 40, 200, 5000]),
                            min_size=2, max_size=5),
       replications=st.sampled_from([2, 30, 200]), steps=st.integers(1, 4),
       kind=st.sampled_from(["shared", "stages"]))
def test_chaos_gap_rows_match_one_call_per_population(seed, num_states, populations,
                                                      replications, steps, kind):
    # streams are keyed by (seed, N), so the populations of one call, whether they
    # tabulate in batches or are stacked, give the rows of one call each
    rng = np.random.default_rng(seed)
    model = make_random_model(rng, num_states, 2, coupled=True)
    kernels = _random_policy(rng, model, kind, None, steps)
    sizes = [num_compositions(n, num_states) for n in populations]
    tabulated = sum(m <= replications * steps for m in sizes)
    event(f"{tabulated} of {len(populations)} populations tabulated")
    together = chaos_gap(model, populations, kernels, steps, replications, seed)
    for population, row in zip(populations, together):
        (alone,) = chaos_gap(model, [population], kernels, steps, replications, seed)
        assert ((row.population, row.mean_max_gap, row.std_error)
                == (alone.population, alone.mean_max_gap, alone.std_error))
        assert row.per_step_mean.tobytes() == alone.per_step_mean.tobytes()
        assert row.per_step_se.tobytes() == alone.per_step_se.tobytes()


# the 17 measures of N=16 hold G * X + 1 entries each: 4 cells x 2 states + 1 for a
# lifted policy, 2 states x 2 states + 1 for a shared kernel
@pytest.mark.parametrize("kind, entries", [("lifted", 17 * 9), ("shared", 17 * 5)])
def test_rollout_tabulates_only_a_table_within_the_cap(weakly_coupled, monkeypatch, kind,
                                                       entries):
    calls = _count_rollout_calls(monkeypatch)
    policy = _random_policy(np.random.default_rng(8), weakly_coupled, kind, 16, None)
    per_cap, reports = [], []
    for cap in (entries - 1, entries):
        monkeypatch.setattr("mfteams.sim.DEFAULT_ENUMERATION_CAP", cap)
        calls.clear()
        reports.append(json.dumps(simulate_n_agents(weakly_coupled, SimConfig(
            population=16, horizon=FiniteHorizon(30), policy=policy,
            replications=20, seed=3)).to_dict()))
        per_cap.append(set(calls.values()))
    assert per_cap == [{30}, {1}]  # every step below the cap, once at it
    assert reports[0] == reports[1]


def test_chaos_gap_tables_share_one_budget(weakly_coupled, monkeypatch):
    # one kernel, 5 replications x 3 steps: N = 2 and 3 tabulate 3 and 4 measures of
    # 2 states x 2 states + 1 entries, 15 and 20, each under a cap of 30 but not together
    kernel = _random_policy(np.random.default_rng(4), weakly_coupled, "shared", None, None)
    calls = _count_rollout_calls(monkeypatch)
    per_cap, rows = [], []
    for cap in (DEFAULT_ENUMERATION_CAP, 30):
        monkeypatch.setattr("mfteams.sim.DEFAULT_ENUMERATION_CAP", cap)
        calls.clear()
        rows.append([(row.population, row.mean_max_gap, row.std_error,
                      row.per_step_mean.tobytes(), row.per_step_se.tobytes())
                     for row in chaos_gap(weakly_coupled, [2, 3], kernel, 3, 5, 11)])
        per_cap.append(calls["kernel_tensor_at"])
    assert per_cap == [2, 1 + 3]  # N = 3 is stepped per step once N = 2 holds its table
    assert rows[0] == rows[1]


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
    monkeypatch.setattr("mfteams.sim.stages", lambda *args: stages.append(args))
    monkeypatch.setattr("mfteams.mkv.stages", lambda *args: stages.append(args))
    k, limit = uniform_kernel(), "above the rollout and flow limit of 100000"
    with pytest.raises(ValueError, match=limit):
        simulate_n_agents(counterexample, SimConfig(population=2, horizon=FiniteHorizon(10**14),
                                                    policy=k, replications=10, seed=1))
    with pytest.raises(ValueError, match=limit):
        chaos_gap(counterexample, [2], k, steps=10**14, replications=10, seed=1)
    with pytest.raises(ValueError, match="^steps must be >= 0, got -1$"):
        chaos_gap(counterexample, [2], k, steps=-1, replications=10, seed=1)
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


@pytest.mark.parametrize("horizon", [FiniteHorizon(3), DiscountedHorizon(beta=0.9)])
def test_a_kernel_choosing_solution_rolls_out_as_its_kernels(weakly_coupled, horizon):
    # the same shared-kernel rollout, chaos series included, either way it is given
    sol = solve(build_mkv_mdp(weakly_coupled, 8, 2), horizon)

    def report(policy):
        return simulate_n_agents(weakly_coupled, SimConfig(
            population=16, horizon=horizon, policy=policy, replications=20, seed=1)).to_dict()

    got = report(sol)
    assert got["chaos_series"] is not None
    assert got == report(policy_kernels(sol))


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


@pytest.mark.parametrize("seed", [-1, -3, 2**63, 2**63 + 5])
def test_seeds_outside_the_stream_range_are_refused_before_any_rollout(weakly_coupled,
                                                                        monkeypatch, seed):
    # masked to 63 bits, -1 would draw what 2**63 - 1 draws, and 2**63 + 5 what 5 draws
    monkeypatch.setattr("mfteams.sim._rollout", lambda *args: pytest.fail("rolled out"))
    message = rf"^seed must be in \[0, 2\*\*63\), got {seed}$"
    with pytest.raises(ValueError, match=message):
        SimConfig(population=4, horizon=FiniteHorizon(3), policy=uniform_kernel(),
                  replications=5, seed=seed)
    with pytest.raises(ValueError, match=message):
        chaos_gap(weakly_coupled, [4], uniform_kernel(), 3, 5, seed)


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
def test_seeds_in_range_keep_their_streams(seed):
    expected = np.random.default_rng(np.random.SeedSequence([seed, 4])).integers(2**62, size=3)
    np.testing.assert_array_equal(_stream(seed, 4).integers(2**62, size=3), expected)
    SimConfig(population=4, horizon=FiniteHorizon(3), policy=uniform_kernel(),
              replications=5, seed=seed)


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
    "SimConfig horizon steps": ("steps", lambda model: SimConfig(
        population=2, horizon=FiniteHorizon(2.5), policy=uniform_kernel(),
        replications=3, seed=1)),
    "chaos_gap steps": ("steps", lambda model: chaos_gap(
        model, [4], uniform_kernel(), 2.5, 5, 1)),
    "flow_trajectory steps": ("steps", lambda model: flow_trajectory(
        model, model.initial_dist, uniform_kernel(), 2.5)),
}


@pytest.mark.parametrize("case", NON_INTEGER_SIZES)
def test_non_integer_populations_and_replications_are_refused(weakly_coupled, monkeypatch,
                                                               case):
    monkeypatch.setattr("mfteams.sim._rollout", lambda *args: pytest.fail("rolled out"))
    monkeypatch.setattr("mfteams.sim.solve", lambda *args: pytest.fail("solved"))
    name, call = NON_INTEGER_SIZES[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
        call(weakly_coupled)


@pytest.mark.parametrize("truncation_error", [True, np.True_])
def test_sim_config_refuses_a_bool_truncation_error(truncation_error):
    with pytest.raises(ValueError, match="^truncation_error must be finite and > 0, got True$"):
        SimConfig(population=2, horizon=DiscountedHorizon(), policy=uniform_kernel(),
                  replications=3, seed=1, truncation_error=truncation_error)


KERNEL_ENTRY_POINTS = {
    "flow_trajectory": lambda model, k: flow_trajectory(model, model.initial_dist, k, 3),
    "simulate_n_agents": lambda model, k: simulate_n_agents(model, SimConfig(
        population=4, horizon=FiniteHorizon(3), policy=k, replications=5, seed=1)),
    "chaos_gap": lambda model, k: chaos_gap(model, [4], k, 3, 5, 1),
    "evaluate_symmetric_policy_exact": lambda model, k: evaluate_symmetric_policy_exact(
        model, 4, k, FiniteHorizon(3)),
    "verify_markov_mf": lambda model, k: verify_markov_mf(model, 2, k),
}


@pytest.mark.parametrize("rows, message", [
    ((1, 2), r"^table shape \(3, 1, 2\) does not hold one row per state of the grid's 2 states$"),
    ((2, 1), r"^kernel rows of shape \(2, 1\) do not match the model's "
             r"\(states, actions\) \(2, 2\)$"),
    ((2, 3), r"^kernel rows of shape \(2, 3\) do not match the model's "
             r"\(states, actions\) \(2, 2\)$"),
], ids=["one state", "one action", "three actions"])
@pytest.mark.parametrize("entry", KERNEL_ENTRY_POINTS)
def test_kernels_of_the_wrong_shape_are_refused(weakly_coupled, monkeypatch, entry, rows,
                                               message):
    # one state row on a two-state grid, or rows of another (states, actions)
    # shape than the model's, were broadcast into numbers
    monkeypatch.setattr("mfteams.sim._rollout", lambda *args: pytest.fail("rolled out"))
    grid = simplex_grid(2, 2)
    with pytest.raises(ValueError, match=message):
        KERNEL_ENTRY_POINTS[entry](weakly_coupled,
                                   PolicyKernel(grid, np.full((len(grid), *rows), 1 / rows[1])))


BUILDER_SIZES = {
    "simplex_grid mesh": ("mesh", lambda model, n: simplex_grid(n, 2)),
    "simplex_grid cardinality": ("cardinality", lambda model, n: simplex_grid(2, n)),
    "policy_grid mesh": ("mesh", lambda model, n: policy_grid(n, 2, 2)),
    "policy_grid num_states": ("num_states", lambda model, n: policy_grid(2, n, 2)),
    "policy_grid num_actions": ("num_actions", lambda model, n: policy_grid(2, 2, n)),
    "build_measure_mdp population": ("population", lambda model, n: build_measure_mdp(model, n)),
    "build_mkv_mdp mesh": ("mesh", lambda model, n: build_mkv_mdp(model, n, 2)),
    "build_mkv_mdp policy_mesh": ("policy_mesh", lambda model, n: build_mkv_mdp(model, 2, n)),
    "solve_symmetric_restricted population": ("population", lambda model, n: (
        solve_symmetric_restricted(model, n, FiniteHorizon(2), policy_grid(1, 2, 2)))),
    "evaluate_symmetric_policy_exact population": ("population", lambda model, n: (
        evaluate_symmetric_policy_exact(model, n, uniform_kernel(), FiniteHorizon(2)))),
}


@pytest.mark.parametrize("value", [True, np.True_, 2.5, 2.0])
@pytest.mark.parametrize("case", BUILDER_SIZES)
def test_builders_refuse_a_bool_or_non_integer_size(weakly_coupled, case, value):
    # a bool was taken as 1 and a float ended in a bare TypeError
    name, call = BUILDER_SIZES[case]
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(weakly_coupled, value)


@pytest.mark.parametrize("population, X", [(5, 2), (1, 2), (2, 2), (4, 2), (7, 2), (6, 3)])
def test_lifted_policies_of_another_size_are_refused(weakly_coupled, monkeypatch, population, X):
    # at 5 agents the N=6 cells ran, with measures of mass 1.2; the rest ended in IndexError
    monkeypatch.setattr("mfteams.sim._rollout", lambda *args: pytest.fail("rolled out"))
    sol6 = solve(build_measure_mdp(weakly_coupled, 6), FiniteHorizon(3))
    model = weakly_coupled if X == 2 else make_random_model(np.random.default_rng(0), X, 2)
    config = SimConfig(population=population, horizon=FiniteHorizon(3), policy=sol6,
                       replications=10, seed=1)
    with pytest.raises(ValueError, match=re.escape(
            f"solved for (agents, states, actions) (6, 2, 2), not ({population}, {X}, 2)")):
        simulate_n_agents(model, config)


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


@pytest.mark.parametrize("solve_for", ["lifted", "limit"])
def test_markov_check_refuses_a_solution(weakly_coupled, monkeypatch, solve_for):
    # a Solution ended in "'Solution' object is not iterable"
    problem = (build_measure_mdp(weakly_coupled, 2) if solve_for == "lifted"
               else build_mkv_mdp(weakly_coupled, 4, 2))
    sol = solve(problem, FiniteHorizon(2))
    monkeypatch.setattr("mfteams.sim.product", lambda *args, **kw: pytest.fail("enumerated"))
    with pytest.raises(TypeError, match="^the Markov check takes one PolicyKernel or a list or "
                                        "tuple of one per agent, got a Solution$"):
        verify_markov_mf(weakly_coupled, 2, sol)


@pytest.mark.parametrize("population, message", [
    (0, "population must be >= 1"), (-1, "population must be >= 1"),
    (2.5, "population must be an integer, got 2.5"),
])
def test_markov_check_refuses_an_empty_or_fractional_team(counterexample, monkeypatch,
                                                          population, message):
    monkeypatch.setattr("mfteams.sim.product", lambda *args, **kw: pytest.fail("enumerated"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_markov_mf(counterexample, population, uniform_kernel())


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_states=st.sampled_from([2, 3]),
    num_actions=st.sampled_from([2, 3]),
    population=st.integers(1, 3),
    t_max=st.integers(1, 2),
)
def test_markov_summary_holds_for_random_shared_kernels(seed, num_states, num_actions,
                                                        population, t_max):
    outcomes = (num_states * num_actions) ** (population * t_max) * num_states**population
    assume(outcomes <= DEFAULT_ENUMERATION_CAP)
    rng = np.random.default_rng(seed)
    model = make_random_model(rng, num_states, num_actions, coupled=True)
    grid = simplex_grid(2, num_states)
    kernel = PolicyKernel(grid, rng.dirichlet(np.ones(num_actions), size=(len(grid), num_states)))
    report = verify_markov_mf(model, population, kernel, t_max=t_max)
    assert report.max_deviation <= 1e-12
    assert len(report.per_step) == t_max
    # one kernel per agent, all the same, is the shared kernel
    copies = verify_markov_mf(model, population, [kernel] * population, t_max=t_max)
    assert copies.per_step == report.per_step


@pytest.mark.parametrize("population, t_max", [(2, 5), (1, 10)])
def test_markov_roundoff_stays_at_a_few_ulps_near_the_cap(weakly_coupled, population, t_max):
    # each group's laws summed in sequence read 1.2e-13 and 3.7e-13 here
    uniform = PolicyKernel.constant(np.full((2, 2), 0.5), simplex_grid(1, 2))
    report = verify_markov_mf(weakly_coupled, population, uniform, t_max=t_max)
    assert report.max_deviation <= 1e-15


@pytest.mark.parametrize("t_max, per_step", [
    # computed by the enumeration over nested dictionaries that this check replaced
    (2, (0.0, 0.43293866743799625)),
    (3, (0.0, 0.43293866743799625, 0.3183143523440141)),
])
def test_agent_indexed_deviations_are_pinned(weakly_coupled, t_max, per_step):
    grid = simplex_grid(1, 2)
    follow = PolicyKernel.constant(np.eye(2), grid)
    oppose = PolicyKernel.constant(np.eye(2)[::-1].copy(), grid)
    uniform = PolicyKernel.constant(np.full((2, 2), 0.5), grid)
    report = verify_markov_mf(weakly_coupled, 3, [follow, oppose, uniform], t_max=t_max)
    assert report.per_step == pytest.approx(per_step, rel=0.0, abs=1e-12)
    assert report.max_deviation == max(report.per_step)


@pytest.mark.parametrize("population, t_max, cap, count", [
    (2, 6, DEFAULT_ENUMERATION_CAP, "4^12 * 2^2"),
    (10**18, 1, DEFAULT_ENUMERATION_CAP, f"4^{10**18} * 2^{10**18}"),
    (2, 10**18, DEFAULT_ENUMERATION_CAP, f"4^{2 * 10**18} * 2^2"),
    (2, 2, 64, "4^4 * 2^2"),
])
def test_markov_check_beyond_the_cap_is_refused_before_enumerating(
        counterexample, monkeypatch, population, t_max, cap, count):
    monkeypatch.setattr("mfteams.sim.DEFAULT_ENUMERATION_CAP", cap)
    monkeypatch.setattr("mfteams.sim.product", lambda *args, **kw: pytest.fail("enumerated"))
    message = (f"the Markov check of {population} agents over {t_max} steps needs {count} "
               f"outcomes, above the cap of {cap}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_markov_mf(counterexample, population, uniform_kernel(), t_max=t_max)


def test_markov_check_at_the_cap_runs(counterexample, monkeypatch):
    monkeypatch.setattr("mfteams.sim.DEFAULT_ENUMERATION_CAP", 64)  # 4^2 * 2^2 outcomes
    report = verify_markov_mf(counterexample, 2, uniform_kernel(), t_max=1)
    assert report.per_step == (0.0,)


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


def test_epsilon_gap_skips_a_population_whose_exact_evaluation_the_cap_refuses(
        counterexample, monkeypatch):
    evaluate = evaluate_symmetric_policy_exact

    def capped(model, population, *args, **kwargs):
        if population == 3:
            raise EnumerationCapError("shared-kernel transition rows", 27, 26)
        return evaluate(model, population, *args, **kwargs)

    monkeypatch.setattr("mfteams.sim.evaluate_symmetric_policy_exact", capped)
    rows = epsilon_gap(counterexample, [2, 3, 4], FiniteHorizon(2), mesh=2, policy_mesh=2)
    assert [row.status for row in rows] == [
        "ok", "skipped: shared-kernel transition rows needs 27 entries, above the cap of 26", "ok"]
    assert (rows[1].optimal_value, rows[1].policy_value, rows[1].gap) == (None, None, None)
