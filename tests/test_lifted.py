import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfteams import (
    ConvergenceError,
    DiscountedHorizon,
    EnumerationCapError,
    FiniteHorizon,
    MarginalMismatchError,
    PolicyKernel,
    bellman_backup,
    build_measure_mdp,
    build_mkv_mdp,
    evaluate_symmetric_policy_exact,
    exact_action_distribution,
    model_from_config,
    multinomial_count_distribution,
    multinomial_pmf_table,
    policy_kernels,
    rank_compositions,
    realize_exchangeable_action,
    solve,
    solve_symmetric_restricted,
)
from mfteams import lifted
from mfteams.lifted import _backup, _greedy, _kernel_stage_data, _SparseMDP, eta_kernel
from mfteams.measures import (
    EmpiricalJointMeasure,
    EmpiricalStateMeasure,
    canonical_assignment,
    enumerate_empirical,
    policy_grid,
    simplex_grid,
)
from mfteams.model import EnvironmentModel, as_simplex

from conftest import make_random_model


# ---- multinomial tables ----


def brute_multinomial(law, trials):
    """Sum draw-sequence probabilities per count vector."""
    k = len(law)
    out = {}
    for seq in product(range(k), repeat=trials):
        p = 1.0
        for s in seq:
            p *= law[s]
        key = tuple(seq.count(j) for j in range(k))
        out[key] = out.get(key, 0.0) + p
    return out


def test_multinomial_pmf_fair_coin():
    table = multinomial_pmf_table([0.5, 0.5], 2)
    assert table == {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}


def test_multinomial_pmf_many_trials_does_not_overflow():
    # coefficients beyond the float range switch to log space
    for law in ([0.5, 0.5], [0.3, 0.7]):
        table = multinomial_pmf_table(law, 1100)
        assert len(table) == 1101
        assert math.fsum(table.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(math.isfinite(p) and p >= 0.0 for p in table.values())


def test_multinomial_pmf_matches_brute_force():
    rng = np.random.default_rng(29)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        law = rng.dirichlet(np.ones(k))
        table = multinomial_pmf_table(law, n)
        brute = brute_multinomial(law, n)
        for key, p in brute.items():
            assert table.get(key, 0.0) == pytest.approx(p, abs=1e-13)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)


def test_multinomial_pmf_skips_zero_probability_categories():
    assert multinomial_pmf_table([1.0, 0.0], 3) == {(3, 0): 1.0}


def test_convolution_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(10):
        law_a = rng.dirichlet(np.ones(3))
        law_b = rng.dirichlet(np.ones(3))
        dist = multinomial_count_distribution([(law_a, 2), (law_b, 1)])
        brute = {}
        for seq in product(range(3), range(3), range(3)):
            p = law_a[seq[0]] * law_a[seq[1]] * law_b[seq[2]]
            key = tuple(seq.count(j) for j in range(3))
            brute[key] = brute.get(key, 0.0) + p
        for key in set(brute) | set(dist):
            assert dist.get(key, 0.0) == pytest.approx(brute.get(key, 0.0), abs=1e-13)


def test_convolution_needs_cells():
    with pytest.raises(ValueError):
        multinomial_count_distribution([])


# ---- lifted transition law ----


def brute_eta(model, state, theta, shuffle_rng=None):
    """Per-agent independent transitions from an assignment consistent with
    theta; the result must not depend on which assignment is used."""
    mu = state.as_distribution()
    tens = model.kernel_tensor_at(mu)
    agents = canonical_assignment(theta)
    if shuffle_rng is not None:
        agents = [agents[i] for i in shuffle_rng.permutation(len(agents))]
    laws = [tens[x, u] for x, u in agents]
    out = {}
    for profile in product(range(model.num_states), repeat=len(agents)):
        p = 1.0
        for law, nxt in zip(laws, profile):
            p *= float(law[nxt])
        key = tuple(profile.count(x) for x in range(model.num_states))
        out[key] = out.get(key, 0.0) + p
    return out


def test_eta_matches_independent_agent_oracle():
    rng = np.random.default_rng(37)
    for trial in range(8):
        model = make_random_model(rng, num_states=2, num_actions=2, coupled=trial % 2 == 0)
        state = EmpiricalStateMeasure((2, 1), 3)
        theta = EmpiricalJointMeasure(((1, 1), (0, 1)), 3)
        dist = eta_kernel(model, state, theta)
        brute = brute_eta(model, state, theta)
        shuffled = brute_eta(model, state, theta, shuffle_rng=rng)
        for key in set(brute) | set(dist):
            assert dist.get(key, 0.0) == pytest.approx(brute.get(key, 0.0), abs=1e-13)
            assert brute.get(key, 0.0) == pytest.approx(shuffled.get(key, 0.0), abs=1e-13)


def test_eta_rows_are_distributions(counterexample, decoupled, weakly_coupled):
    for model in (counterexample, decoupled, weakly_coupled):
        mdp = build_measure_mdp(model, 4)
        for i in range(len(mdp.states)):
            for idx, probs in mdp.transitions[i]:
                assert probs.min() >= -1e-12
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
                assert idx.min() >= 0 and idx.max() < len(mdp.states)


def _rows_with_zeros(rng, shape):
    """Random stochastic rows over the last axis with some entries exactly 0."""
    mask = rng.random(shape) < 0.7
    mask.reshape(-1, shape[-1])[0, -1] = False  # at least one zero
    mask[..., 0] |= ~mask.any(axis=-1)
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1]) * mask
    return rows / rows.sum(axis=-1, keepdims=True)


def _model_with_zeros(rng, X, U):
    """A coupled model T(mu) = sum_z mu_z V_z whose vertex kernels V_z share
    their zeros, so T(mu) has the same exact zeros everywhere."""
    support = _rows_with_zeros(rng, (X, U, X)) > 0.0
    vertices = rng.dirichlet(np.ones(X), size=(X, X, U)) * support  # [z, x, u, x']
    vertices /= vertices.sum(axis=-1, keepdims=True)
    return EnvironmentModel(
        num_states=X, num_actions=U, kernel_base=vertices[0],
        kernel_coupling=np.moveaxis(vertices - vertices[0], 0, -1),
        cost_const=rng.uniform(0.5, 2.0, (X, U)),
        cost_linear=rng.uniform(-0.3, 0.3, (X, U, X)),
        cost_quad=rng.uniform(-0.1, 0.1, (X, U, X, X)),
        discount=0.9, initial_dist=rng.dirichlet(np.ones(X)),
    )


def _check_pairs(mdp, counts, refs):
    """Every pair of the _SparseMDP `mdp` against its (cost, dict law)
    reference: the support is the reference's nonzero outcomes."""
    ends = np.append(mdp.row_off, mdp.idx.size)
    assert mdp.cost.size == len(refs)
    for pair, (cost, law) in enumerate(refs):
        span = slice(ends[pair], ends[pair + 1])
        row = {counts[j]: p for j, p in zip(mdp.idx[span].tolist(), mdp.prob[span].tolist())}
        assert set(row) == {c for c, p in law.items() if p != 0.0}
        assert max(abs(p - law[c]) for c, p in row.items()) <= 1e-14
        assert abs(math.fsum(row.values()) - 1.0) <= 1e-12
        assert abs(mdp.cost[pair] - cost) <= 1e-15


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.sampled_from([2, 3]),
       num_actions=st.sampled_from([2, 3]), population=st.integers(1, 6))
@example(seed=5, num_states=3, num_actions=3, population=6)
@example(seed=6, num_states=3, num_actions=2, population=6)
def test_array_rows_match_the_dict_convolution(seed, num_states, num_actions, population):
    rng = np.random.default_rng(seed)
    model = _model_with_zeros(rng, num_states, num_actions)
    states = enumerate_empirical(population, num_states)
    counts = [s.counts for s in states]

    mdp = build_measure_mdp(model, population)
    refs = []
    for state, acts in zip(mdp.states, mdp.actions):
        cmat = model.cost_matrix_at(state.as_distribution())
        refs += [(float((cmat * theta.as_distribution()).sum()), eta_kernel(model, state, theta))
                 for theta in acts]
    _check_pairs(mdp.sparse, counts, refs)

    kernels = {c: _rows_with_zeros(rng, (3, num_states, num_actions)) for c in counts}
    refs = []
    for state in states:
        mu = state.as_distribution()
        tens, cmat = model.kernel_tensor_at(mu), model.cost_matrix_at(mu)
        occupied = [(x, c) for x, c in enumerate(state.counts) if c]
        refs += [(sum((c / population) * float(k[x] @ cmat[x]) for x, c in occupied),
                  multinomial_count_distribution([(k[x] @ tens[x], c) for x, c in occupied]))
                 for k in kernels[state.counts]]
    _check_pairs(_kernel_stage_data(model, states, lambda s: kernels[s.counts]), counts, refs)


def test_factor_beyond_the_float_range_keeps_zero_categories():
    # C(1030, 515) passes the float range, so the central outcomes with no
    # draw in the zero-probability category are computed in log space
    conv = lifted._Convolver(3)
    pmf = conv.multinomial(np.array([[0.5, 0.5, 0.0]]), 1030)[0]
    comps = conv.comps(1030)
    free = comps[:, 2] == 0
    assert not pmf[~free].any()
    binomial = multinomial_pmf_table([0.5, 0.5], 1030)
    expected = [binomial[c0, c1] for c0, c1, _ in comps[free].tolist()]
    np.testing.assert_allclose(pmf[free], expected, rtol=1e-12, atol=0.0)
    assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)


def test_eta_rejects_marginal_mismatch(counterexample):
    state = EmpiricalStateMeasure((0, 2), 2)
    theta = EmpiricalJointMeasure(((1, 0), (1, 0)), 2)
    with pytest.raises(MarginalMismatchError):
        eta_kernel(counterexample, state, theta)


# ---- value iteration ----


def test_two_agent_two_stage_values(counterexample):
    mdp = build_measure_mdp(counterexample, 2)
    sol = solve(mdp, FiniteHorizon(2))
    # from (1,1) the team holds the uniform measure at zero cost; from a
    # vertex it pays 0.5 once and then splits.
    np.testing.assert_allclose(sol.values[0], [0.5, 0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(sol.values[1], [0.5, 0.0, 0.5], atol=1e-12)
    assert not sol.stationary
    i = mdp.index[(0, 2)]
    theta = mdp.actions[i][sol.choices[0][i]]
    assert theta.counts == ((0, 0), (1, 1))


def test_finite_values_nondecreasing_in_horizon(counterexample):
    rng = np.random.default_rng(41)
    for model in (counterexample, make_random_model(rng, coupled=True)):
        mdp = build_measure_mdp(model, 3)
        prev = None
        for steps in (1, 2, 3, 4):
            head = solve(mdp, FiniteHorizon(steps, beta=0.9)).values[0]
            if prev is not None:
                assert (head >= prev - 1e-12).all()
            prev = head


def test_bellman_operator_is_contraction():
    rng = np.random.default_rng(43)
    model = make_random_model(rng, coupled=True)
    mdp = build_measure_mdp(model, 3)
    beta = 0.85
    for _ in range(20):
        j_a = rng.normal(size=len(mdp.states))
        j_b = rng.normal(size=len(mdp.states))
        out_a, _ = bellman_backup(mdp, j_a, beta=beta)
        out_b, _ = bellman_backup(mdp, j_b, beta=beta)
        assert np.abs(out_a - out_b).max() <= beta * np.abs(j_a - j_b).max() + 1e-12


def test_discounted_solution_certificate(counterexample):
    mdp = build_measure_mdp(counterexample, 2)
    epsilon = 1e-8
    beta = 0.9
    sol = solve(mdp, DiscountedHorizon(beta=beta, epsilon=epsilon))
    assert sol.stationary
    table, = sol.values
    assert (table >= 0.0).all()
    refreshed, _ = bellman_backup(mdp, table, beta=beta)
    residual = np.abs(refreshed - table).max()
    assert residual <= epsilon * (1.0 - beta) / (2.0 * beta)


def test_discounted_constant_cost_closed_form():
    # every stage costs 0.5 regardless of the measure, so J = 0.5 / (1 - beta)
    model = model_from_config(
        {
            "num_states": 2,
            "num_actions": 2,
            "kernel_base": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
            "cost_const": [[0.5, 0.5], [0.5, 0.5]],
            "discount": 0.5,
            "initial_dist": [0.0, 1.0],
        }
    )
    mdp = build_measure_mdp(model, 2)
    table = solve(mdp, DiscountedHorizon(epsilon=1e-10)).values[0]
    np.testing.assert_allclose(table, 1.0, atol=1e-9)


def reference_q(costs, sizes, rows, values, beta):
    """Q-values per state, one transition row at a time."""
    out, a = [], 0
    for size in sizes:
        q = [costs[b] + beta * float(rows[b][1] @ values[rows[b][0]]) for b in range(a, a + size)]
        out.append(np.array(q))
        a += size
    return out


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.integers(1, 6), discounted=st.booleans())
def test_flat_backup_matches_per_row_reference(seed, num_states, discounted):
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.01, 1.0)) if discounted else 0.0
    costs, rows, sizes, first = [], [], [], []
    for _ in range(num_states):
        sizes.append(int(rng.integers(1, 5)))
        for a in range(sizes[-1]):
            if a and rng.random() < 0.3:
                # an exact copy of an earlier action of this state
                src = len(costs) - int(rng.integers(1, a + 1))
                costs.append(costs[src])
                rows.append(rows[src])
                first.append(first[src])
                continue
            nnz = int(rng.integers(1, 6))
            first.append(len(costs))
            costs.append(float(rng.normal()))
            rows.append((rng.integers(num_states, size=nnz), rng.dirichlet(np.ones(nnz))))
    values = rng.normal(size=num_states)
    mdp = _SparseMDP(
        np.array(costs),
        np.cumsum([0, *sizes[:-1]]),
        np.cumsum([0, *(idx.size for idx, _ in rows[:-1])]),
        np.concatenate([idx for idx, _ in rows]),
        np.concatenate([probs for _, probs in rows]),
    )
    q, best = _backup(mdp, values, beta)
    act = _greedy(mdp, q, best)
    ref = reference_q(costs, sizes, rows, values, beta)
    np.testing.assert_allclose(q, np.concatenate(ref), rtol=0.0, atol=1e-12)
    for i, ref_q in enumerate(ref):
        assert abs(best[i] - ref_q.min()) <= 1e-12
        assert 0 <= act[i] < sizes[i]
        assert ref_q[act[i]] <= ref_q.min() + 1e-12
        pair = mdp.act_off[i] + act[i]
        assert first[pair] == pair, "a later duplicate action won the tie"


def test_discounted_rejects_beta_one(counterexample):
    mdp = build_measure_mdp(counterexample, 2)
    with pytest.raises(ValueError):
        solve(mdp, DiscountedHorizon())  # model discount is 1.0


def test_finite_solves_need_a_stage_and_fit_the_cap(counterexample, monkeypatch):
    mdp = build_measure_mdp(counterexample, 2)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        solve(mdp, FiniteHorizon(0))
    # refused before a single backup
    calls = count_backups(monkeypatch)
    mkv = build_mkv_mdp(counterexample, 2, 2)
    with pytest.raises(EnumerationCapError, match=f"{10**20}-stage horizon"):
        solve(mkv, FiniteHorizon(10**20))
    for horizon in (FiniteHorizon(10**20), FiniteHorizon(4)):
        with pytest.raises(EnumerationCapError, match="value table"):
            evaluate_symmetric_policy_exact(
                counterexample, 2, PolicyKernel.constant(np.full((2, 2), 0.5), simplex_grid(2, 2)),
                horizon, cap=10)
    assert calls == []


def count_backups(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return _backup(*args)

    monkeypatch.setattr(lifted, "_backup", counting)
    return calls


def test_hopeless_discounted_solve_fails_before_the_first_sweep(monkeypatch):
    # Costs are at least 0.1, so every update exceeds 0.099 for 10^6 sweeps.
    mkv = build_mkv_mdp(make_random_model(np.random.default_rng(71), 3, 3, coupled=True), 2, 1)
    calls = count_backups(monkeypatch)
    with pytest.raises(ConvergenceError, match="needs more than 1000000 sweeps"):
        solve(mkv, DiscountedHorizon(beta=0.99999999))
    assert calls == []


def test_refusal_never_preempts_a_converging_solve(monkeypatch):
    rng = np.random.default_rng(73)
    for beta in (0.5, 0.9, 0.99):
        mdp = build_measure_mdp(make_random_model(rng, 2, 2, coupled=True), 3)
        calls = count_backups(monkeypatch)
        table = solve(mdp, DiscountedHorizon(beta=beta)).values[0]
        sweeps = len(calls)
        monkeypatch.setattr(lifted, "_MAX_SWEEPS", sweeps)
        again = solve(mdp, DiscountedHorizon(beta=beta)).values[0]
        np.testing.assert_array_equal(again, table)
        del calls[:]
        monkeypatch.setattr(lifted, "_MAX_SWEEPS", sweeps // 2)
        with pytest.raises(ConvergenceError):
            solve(mdp, DiscountedHorizon(beta=beta))
        assert calls == []  # refused before the first sweep
        monkeypatch.undo()


# ---- action realization ----


def test_realize_matches_theta_histogram():
    rng = np.random.default_rng(47)
    for _ in range(50):
        states = rng.integers(0, 2, size=5)
        counts = np.bincount(states, minlength=2)
        rows = tuple(
            tuple(int(c) for c in rng.multinomial(n, [0.5, 0.5])) for n in counts
        )
        theta = EmpiricalJointMeasure(rows, 5)
        actions = realize_exchangeable_action(states, theta, rng)
        hist = np.zeros((2, 2), dtype=int)
        for x, u in zip(states, actions):
            hist[x, u] += 1
        assert tuple(tuple(r) for r in hist) == rows


def test_realize_rejects_wrong_states():
    theta = EmpiricalJointMeasure(((1, 0), (0, 1)), 2)
    with pytest.raises(MarginalMismatchError):
        realize_exchangeable_action([1, 1], theta, 0)


def test_realize_is_seed_deterministic():
    theta = EmpiricalJointMeasure(((2, 1), (1, 1)), 5)
    states = [0, 1, 0, 1, 0]
    a = realize_exchangeable_action(states, theta, 123)
    b = realize_exchangeable_action(states, theta, 123)
    np.testing.assert_array_equal(a, b)


def test_exact_distribution_singleton():
    theta = EmpiricalJointMeasure(((1, 0), (0, 1)), 2)
    assert exact_action_distribution([0, 1], theta) == {(0, 1): 1.0}


def test_exact_distribution_split_pair():
    theta = EmpiricalJointMeasure(((1, 0), (1, 1)), 3)
    dist = exact_action_distribution([1, 1, 0], theta)
    assert dist == {(0, 1, 0): 0.5, (1, 0, 0): 0.5}


def test_exact_distribution_counts_assignments():
    # three same-state agents split 2/1 over actions: 3!/2! = 3 assignments
    theta = EmpiricalJointMeasure(((2, 1),), 3)
    dist = exact_action_distribution([0, 0, 0], theta)
    assert len(dist) == 3
    assert all(p == pytest.approx(1 / 3) for p in dist.values())


def test_exact_distribution_permutation_invariant():
    rng = np.random.default_rng(53)
    for _ in range(10):
        states = tuple(int(s) for s in rng.integers(0, 2, size=4))
        counts = np.bincount(states, minlength=2)
        rows = tuple(
            tuple(int(c) for c in rng.multinomial(n, [0.5, 0.5])) for n in counts
        )
        theta = EmpiricalJointMeasure(rows, 4)
        dist = exact_action_distribution(states, theta)
        for sigma in permutations(range(4)):
            permuted_states = tuple(states[sigma[i]] for i in range(4))
            permuted = exact_action_distribution(permuted_states, theta)
            for outcome, p in dist.items():
                image = tuple(outcome[sigma[i]] for i in range(4))
                assert permuted.get(image, 0.0) == pytest.approx(p, abs=1e-15)


def test_realize_frequencies_match_exact_distribution():
    theta = EmpiricalJointMeasure(((1, 0), (1, 1)), 3)
    states = [1, 1, 0]
    dist = exact_action_distribution(states, theta)
    rng = np.random.default_rng(5)
    draws = 30_000
    tally = {}
    for _ in range(draws):
        key = tuple(int(u) for u in realize_exchangeable_action(states, theta, rng))
        tally[key] = tally.get(key, 0) + 1
    assert set(tally) == set(dist)
    for outcome, p in dist.items():
        se = math.sqrt(p * (1.0 - p) / draws)
        assert abs(tally[outcome] / draws - p) <= 3.0 * se


def test_exact_distribution_population_guard():
    theta = EmpiricalJointMeasure(((9, 0),), 9)
    with pytest.raises(ValueError):
        exact_action_distribution([0] * 9, theta)


# ---- symmetric restricted problem ----


def test_restricted_two_agent_values(counterexample):
    policies = policy_grid(2, 2, 2)
    sol = solve_symmetric_restricted(counterexample, 2, FiniteHorizon(2), policies)
    values = sol.values[0]
    ordered = [values[rank_compositions(c)] for c in [(2, 0), (1, 1), (0, 2)]]
    np.testing.assert_allclose(ordered, [0.75, 0.0, 0.75], atol=1e-12)
    # the chosen kernel at the vertex must randomize the occupied state
    rows = policy_kernels(sol)[0].rows_for([0.0, 1.0])
    np.testing.assert_allclose(rows[1], [0.5, 0.5], atol=1e-12)


def test_restricted_degrades_without_randomization(counterexample):
    # deterministic kernels only: the two co-located agents can never split
    sol = solve_symmetric_restricted(
        counterexample, 2, FiniteHorizon(2), policy_grid(1, 2, 2)
    )
    assert sol.values[0][rank_compositions((0, 2))] == pytest.approx(1.0, abs=1e-12)


def test_lifted_dominates_restricted(counterexample, weakly_coupled):
    for model, horizon in (
        (counterexample, FiniteHorizon(2)),
        (weakly_coupled, FiniteHorizon(3)),
    ):
        mdp = build_measure_mdp(model, 3)
        lifted_values = solve(mdp, horizon).values[0]
        sol = solve_symmetric_restricted(model, 3, horizon, policy_grid(4, 2, 2))
        for i, state in enumerate(mdp.states):
            assert lifted_values[i] <= sol.values[0][rank_compositions(state.counts)] + 1e-12


def test_cap_bounds_restricted_and_exact_evaluation_rows(counterexample):
    # 9 kernels at 3 measures: 81 row entries; one kernel per measure: 9
    policies = policy_grid(2, 2, 2)
    with pytest.raises(EnumerationCapError, match="rows needs 81 entries, above the cap of 50"):
        solve_symmetric_restricted(counterexample, 2, FiniteHorizon(2), policies, cap=50)
    sol = solve_symmetric_restricted(counterexample, 2, FiniteHorizon(2), policies, cap=81)
    assert sol.values[0][rank_compositions((0, 2))] == pytest.approx(0.75, abs=1e-12)
    kernel = PolicyKernel.constant(np.full((2, 2), 0.5), simplex_grid(2, 2))
    with pytest.raises(EnumerationCapError, match="rows needs 9 entries, above the cap of 8"):
        evaluate_symmetric_policy_exact(counterexample, 2, kernel, FiniteHorizon(2), cap=8)
    evaluate_symmetric_policy_exact(counterexample, 2, kernel, FiniteHorizon(2), cap=9)


def test_uniform_kernel_evaluation(counterexample):
    grid = simplex_grid(2, 2)
    uniform = PolicyKernel.constant(np.full((2, 2), 0.5), grid)
    values = evaluate_symmetric_policy_exact(counterexample, 2, uniform, FiniteHorizon(2))
    np.testing.assert_allclose(values, [0.75, 0.25, 0.75], atol=1e-12)


def test_restricted_solution_beats_uniform(counterexample):
    grid = simplex_grid(2, 2)
    uniform = PolicyKernel.constant(np.full((2, 2), 0.5), grid)
    values = evaluate_symmetric_policy_exact(counterexample, 2, uniform, FiniteHorizon(2))
    sol = solve_symmetric_restricted(
        counterexample, 2, FiniteHorizon(2), policy_grid(2, 2, 2)
    )
    for i in range(len(sol.states)):
        assert sol.values[0][i] <= values[i] + 1e-12


def test_discounted_evaluation_matches_long_horizon(decoupled):
    grid = simplex_grid(2, 2)
    pi = PolicyKernel.constant(np.array([[1.0, 0.0], [1.0, 0.0]]), grid)
    exact = evaluate_symmetric_policy_exact(decoupled, 3, pi, DiscountedHorizon())
    long_run = evaluate_symmetric_policy_exact(decoupled, 3, pi, FiniteHorizon(250))
    tail = decoupled.max_stage_cost() * 0.9**250 / 0.1
    np.testing.assert_allclose(exact, long_run, atol=tail + 1e-10)


def test_stagewise_kernel_list(counterexample):
    grid = simplex_grid(2, 2)
    uniform = PolicyKernel.constant(np.full((2, 2), 0.5), grid)
    split = PolicyKernel.constant(np.array([[1.0, 0.0], [0.5, 0.5]]), grid)
    mixed = evaluate_symmetric_policy_exact(
        counterexample, 2, [split, uniform, split], FiniteHorizon(3)
    )
    pure = evaluate_symmetric_policy_exact(counterexample, 2, split, FiniteHorizon(3))
    # from (2,0) the pure policy never splits the agents; the mixed one
    # randomizes at stage 1 and pays less at stage 2
    i_vertex = 0
    assert pure[i_vertex] == pytest.approx(1.5, abs=1e-12)
    assert mixed[i_vertex] == pytest.approx(1.25, abs=1e-12)
    with pytest.raises(ValueError):
        evaluate_symmetric_policy_exact(counterexample, 2, [uniform], FiniteHorizon(2))


def test_policy_kernel_validates_rows():
    grid = simplex_grid(2, 2)
    with pytest.raises(ValueError):
        PolicyKernel(grid, np.full((len(grid), 2, 2), 0.4))


def _check_rows_one_by_one(table):
    """The row-by-row validation that PolicyKernel made before its one
    vectorized pass over the table."""
    for g in range(table.shape[0]):
        for x in range(table.shape[1]):
            as_simplex(table[g, x], what=f"kernel row (grid {g}, state {x})")


@pytest.mark.parametrize("bad_rows", [
    {(1, 2): [-0.1, 1.1], (3, 0): [0.6, 0.6]},
    {(0, 1): [0.3, 0.3], (2, 0): [np.nan, 1.0], (1, 1): [-2.0, 3.0]},
    {(2, 2): [0.5, np.nan], (3, 1): [-1.0, 2.0]},
    {(3, 2): [np.inf, 0.0], (3, 1): [0.5, 0.5 + 1e-9]},
    {(0, 0): [0.5, 0.5 + 5e-13], (1, 0): [0.5 + 2e-12, 0.5]},
])
def test_policy_kernel_names_the_first_bad_row_in_c_order(bad_rows):
    grid = simplex_grid(3, 2)
    table = np.full((len(grid), 3, 2), 0.5)
    for (g, x), row in bad_rows.items():
        table[g, x] = row
    with pytest.raises(ValueError) as expected:
        _check_rows_one_by_one(table)
    with pytest.raises(ValueError) as err:
        PolicyKernel(grid, table)
    assert str(err.value) == str(expected.value)


def test_policy_kernel_accepts_rows_within_tolerance_and_refuses_empty_rows():
    grid = simplex_grid(3, 2)
    table = np.full((len(grid), 3, 2), 0.5)
    table[1, 2] = [0.5, 0.5 + 5e-13]
    table[2, 0] = [-5e-13, 1.0]
    PolicyKernel(grid, table)
    with pytest.raises(ValueError, match=r"kernel row \(grid 0, state 0\) must be a nonempty"):
        PolicyKernel(grid, np.zeros((len(grid), 3, 0)))


def test_policy_kernel_lookup_uses_nearest_point():
    grid = simplex_grid(2, 2)
    table = np.zeros((3, 2, 2))
    table[0, :, 0] = 1.0
    table[1, :, 1] = 1.0
    table[2, :, 0] = 1.0
    pi = PolicyKernel(grid, table)
    np.testing.assert_array_equal(pi.rows_for([0.95, 0.05])[0], [1.0, 0.0])
    np.testing.assert_array_equal(pi.rows_for([0.55, 0.45])[0], [0.0, 1.0])


def test_constant_policy_kernel_ignores_measure():
    grid = simplex_grid(4, 2)
    rows = np.array([[0.25, 0.75], [0.6, 0.4]])
    pi = PolicyKernel.constant(rows, grid)
    for mu in ([1.0, 0.0], [0.3, 0.7], [0.0, 1.0]):
        np.testing.assert_array_equal(pi.rows_for(mu), rows)
