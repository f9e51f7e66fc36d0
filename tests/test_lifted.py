import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import event, example, given, settings
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
from mfteams.lifted import (
    _backup,
    _DenseMDP,
    _greedy,
    _kernel_stage_data,
    _SuccessorMDP,
    eta_kernel,
)
from mfteams.measures import (
    EmpiricalJointMeasure,
    EmpiricalStateMeasure,
    SimplexGrid,
    canonical_assignment,
    composition_array,
    enumerate_empirical,
    enumerate_joint_actions,
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
    """Every pair of the _DenseMDP `mdp` against its (cost, dict law)
    reference: the entries > 0 are the reference's nonzero outcomes, and
    every other entry is 0."""
    assert mdp.cost.size == len(refs) == len(mdp.rows)
    assert (mdp.rows >= 0.0).all()
    for pair, (cost, law) in enumerate(refs):
        row = {counts[j]: p for j, p in enumerate(mdp.rows[pair].tolist()) if p > 0.0}
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
    for state in mdp.states:
        cmat = model.cost_matrix_at(state.as_distribution())
        refs += [(float((cmat * theta.as_distribution()).sum()), eta_kernel(model, state, theta))
                 for theta in enumerate_joint_actions(state, num_actions)]
    _check_pairs(mdp.operator, counts, refs)
    # the cap bounds the dense rows exactly
    assert mdp.operator.rows.size == mdp.max_entries

    kernels = {c: _rows_with_zeros(rng, (3, num_states, num_actions)) for c in counts}
    refs = []
    for state in states:
        mu = state.as_distribution()
        tens, cmat = model.kernel_tensor_at(mu), model.cost_matrix_at(mu)
        occupied = [(x, c) for x, c in enumerate(state.counts) if c]
        refs += [(sum((c / population) * float(k[x] @ cmat[x]) for x, c in occupied),
                  multinomial_count_distribution([(k[x] @ tens[x], c) for x, c in occupied]))
                 for k in kernels[state.counts]]
    restricted = _kernel_stage_data(model, composition_array(population, num_states),
                                    np.array([kernels[c] for c in counts]))
    _check_pairs(restricted, counts, refs)
    assert restricted.rows.size == len(counts) * 3 * len(counts)


def _stacked(blocks):
    """_DenseMDP of the (pair costs, dense rows) block of every state, in
    state order."""
    costs, rows = zip(*blocks)
    return _DenseMDP(np.concatenate(costs), np.cumsum([0, *map(len, costs[:-1])]),
                     np.concatenate(rows))


def _kernel_rows_per_measure(model, states, kernels):
    """The build that _kernel_stage_data replaced: per measure, its own
    kernels, a fresh _Convolver and one fold over its occupied states."""
    pop = states[0].population
    mus = np.array([s.as_distribution() for s in states])
    blocks = []
    for state, tens, cmat, ks in zip(states, model.kernel_tensor_at(mus),
                                     model.cost_matrix_at(mus), kernels):
        conv = lifted._Convolver(model.num_states)
        occupied = [(x, n) for x, n in enumerate(state.counts) if n]
        blocks.append((sum((n / pop) * (ks[:, x] @ cmat[x]) for x, n in occupied),
                       conv.fold((conv.multinomial(ks[:, x] @ tens[x], n), n)
                                 for x, n in occupied)))
    return _stacked(blocks)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.sampled_from([2, 3]),
       num_actions=st.sampled_from([2, 3]), population=st.integers(1, 6),
       num_kernels=st.integers(1, 3), shared=st.booleans())
@example(seed=3, num_states=3, num_actions=3, population=6, num_kernels=3, shared=False)
def test_kernel_rows_match_the_per_measure_loop(seed, num_states, num_actions, population,
                                                num_kernels, shared):
    rng = np.random.default_rng(seed)
    model = _model_with_zeros(rng, num_states, num_actions)
    states = enumerate_empirical(population, num_states)
    shape = (len(states), num_kernels, num_states, num_actions)
    if shared:  # the restricted problem's kernels, the same at every measure
        kernels = np.broadcast_to(_rows_with_zeros(rng, shape[1:]), shape)
    else:
        kernels = _rows_with_zeros(rng, shape)
    got = _kernel_stage_data(model, composition_array(population, num_states), kernels)
    for a, b in zip(got, _kernel_rows_per_measure(model, states, kernels)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_exact_evaluation_projects_once_per_distinct_kernel(counterexample, monkeypatch):
    projected, many = [], []
    project_many = SimplexGrid.project_many

    def counting(grid, mus):
        many.append(len(mus))
        return project_many(grid, mus)

    monkeypatch.setattr(SimplexGrid, "project", lambda grid, mu: projected.append(mu))
    monkeypatch.setattr(SimplexGrid, "project_many", counting)
    grid = simplex_grid(2, 2)
    uniform = PolicyKernel.constant(np.full((2, 2), 0.5), grid)
    split = PolicyKernel.constant(np.array([[1.0, 0.0], [0.5, 0.5]]), grid)
    values = evaluate_symmetric_policy_exact(
        counterexample, 2, [split, uniform, split], FiniteHorizon(3))
    assert projected == [] and many == [3, 3]
    assert values[0] == pytest.approx(1.25, abs=1e-12)


def test_stages_with_equal_choices_share_one_kernel(weakly_coupled, monkeypatch):
    sol = solve(build_mkv_mdp(weakly_coupled, 16, 8), FiniteHorizon(200))
    distinct = {choices.tobytes(): stage for stage, choices in enumerate(sol.choices)}
    assert 1 < len(distinct) < 200
    kernels = policy_kernels(sol)
    ids = [id(k) for k in kernels]
    assert len(set(ids)) == len(distinct)
    assert all(kernels[distinct[c.tobytes()]] is k for c, k in zip(sol.choices, kernels))
    built = []
    stage_data = lifted._kernel_stage_data
    monkeypatch.setattr(lifted, "_kernel_stage_data",
                        lambda *args: built.append(1) or stage_data(*args))
    values = evaluate_symmetric_policy_exact(weakly_coupled, 16, sol, FiniteHorizon(200))
    assert len(built) == len(distinct)
    monkeypatch.undo()
    # one kernel object per stage gives the same values
    unshared = [PolicyKernel(k.grid, k.table) for k in kernels]
    np.testing.assert_array_equal(
        values, evaluate_symmetric_policy_exact(weakly_coupled, 16, unshared, FiniteHorizon(200)))


def _per_split_factors(conv, laws, splits):
    """The loop the batched build replaced: per split of n agents over the
    actions, fold Multinomial(split[u], laws[u]) over the actions u."""
    pmfs = [conv.multinomial(laws, m) for m in range(int(splits[0].sum()) + 1)]
    return np.array([conv.fold((pmfs[m][u], m) for u, m in enumerate(split))
                     for split in splits.tolist()])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.sampled_from([2, 3]),
       num_actions=st.sampled_from([2, 3]), population=st.integers(1, 6))
@example(seed=7, num_states=3, num_actions=3, population=6)
def test_batched_build_matches_the_per_split_loop(seed, num_states, num_actions, population):
    rng = np.random.default_rng(seed)
    model = _model_with_zeros(rng, num_states, num_actions)
    mdp = build_measure_mdp(model, population)
    acts = [enumerate_joint_actions(s, num_actions) for s in mdp.states]
    thetas = [np.array([theta.counts for theta in a], dtype=np.int64) for a in acts]
    assert mdp.joint_actions.dtype == np.int64
    np.testing.assert_array_equal(mdp.joint_actions, np.concatenate(thetas))
    np.testing.assert_array_equal(np.diff(mdp.act_off, append=len(mdp.joint_actions)),
                                  [len(a) for a in acts])

    conv = lifted._Convolver(num_states)
    splits = [composition_array(n, num_actions) for n in range(population + 1)]
    mus = np.array([s.as_distribution() for s in mdp.states])
    blocks = [
        lifted._lifted_rows(conv, np.array(s.counts), theta, cmat, [
            _per_split_factors(conv, tens[x], splits[n]) if n else None
            for x, n in enumerate(s.counts)])
        for s, theta, tens, cmat in zip(mdp.states, thetas, model.kernel_tensor_at(mus),
                                        model.cost_matrix_at(mus))
    ]
    for got, want in zip(mdp.operator, _stacked(blocks)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("num_states", [1, 2, 3])
def test_split_folds_over_more_actions_match_the_loop(num_states):
    # with four or five actions a split convolves up to four times and
    # skips zero parts between its convolves; with one it never convolves
    rng = np.random.default_rng(num_states)
    for num_actions in (4, 5, 1):
        conv = lifted._Convolver(num_states)
        for n in range(1, 6):
            laws = _rows_with_zeros(rng, (3, num_actions, num_states))
            got = [f for f, in lifted._split_factors(conv, laws[:, None], np.full((3, 1), n))]
            for law, factors in zip(laws, got):
                want = _per_split_factors(conv, law, composition_array(n, num_actions))
                assert np.array_equal(factors, want)


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
    i = rank_compositions((0, 2))
    theta = enumerate_joint_actions(mdp.states[i], 2)[sol.choices[0][i]]
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


def random_dense_mdp(rng, num_states):
    """A random _DenseMDP whose states have 1-4 actions, some of them exact
    copies of an earlier action of the same state, each row summed by
    np.add.at from (index, probability) entries that repeat indices; also
    its costs, actions per state and rows as lists, and, per pair, the
    first pair with the same cost and row."""
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
            nnz = int(rng.integers(1, 2 * num_states + 1))
            first.append(len(costs))
            costs.append(float(rng.normal()))
            rows.append((rng.integers(num_states, size=nnz), rng.dirichlet(np.ones(nnz))))
    dense = np.zeros((len(rows), num_states))
    for pair, (idx, probs) in enumerate(rows):
        np.add.at(dense[pair], idx, probs)
    mdp = _DenseMDP(np.array(costs), np.cumsum([0, *sizes[:-1]]), dense)
    return mdp, costs, sizes, rows, first


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.integers(1, 70), discounted=st.booleans())
@example(seed=3, num_states=129, discounted=True)
@example(seed=4, num_states=257, discounted=True)
def test_flat_backup_matches_per_row_reference(seed, num_states, discounted):
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.01, 1.0)) if discounted else 0.0
    mdp, costs, sizes, rows, first = random_dense_mdp(rng, num_states)
    values = rng.normal(size=num_states)
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


def csr_backup(act_off, costs, rows, values, beta):
    """The backup over CSR rows: each row's (index, probability) entries,
    repeats included, gathered against `values` and summed by reduceat."""
    indptr = np.cumsum([0, *(idx.size for idx, _ in rows[:-1])])
    idx = np.concatenate([idx for idx, _ in rows])
    probs = np.concatenate([probs for _, probs in rows])
    q = np.asarray(costs) + beta * np.add.reduceat(probs * values[idx], indptr)
    return q, np.minimum.reduceat(q, act_off)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.integers(1, 70), discounted=st.booleans())
@example(seed=3, num_states=129, discounted=True)
@example(seed=4, num_states=257, discounted=True)
def test_dense_backup_matches_the_csr_backup(seed, num_states, discounted):
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.01, 1.0)) if discounted else 0.0
    mdp, costs, _, rows, first = random_dense_mdp(rng, num_states)
    assert mdp.rows.shape == (len(costs), num_states)
    values = rng.normal(size=num_states)
    q, best = _backup(mdp, values, beta)
    csr_q, csr_best = csr_backup(mdp.act_off, costs, rows, values, beta)
    np.testing.assert_allclose(q, csr_q, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(best, csr_best, rtol=0.0, atol=1e-12)
    act = _greedy(mdp, q, best)
    np.testing.assert_array_equal(act, _greedy(mdp, csr_q, csr_best))
    pairs = mdp.act_off + act
    assert all(first[pair] == pair for pair in pairs), "a later duplicate action won the tie"


def test_dense_backup_sums_identical_rows_identically():
    # BLAS matrix-vector products sum some rows of one array in another
    # order than the rest; then an exact duplicate action could win its tie
    rng = np.random.default_rng(83)
    for num_states in [*range(1, 70), 127, 128, 129, 130, 255, 256, 257]:
        for actions in (1, 2, 3):
            pairs = actions * num_states
            row = rng.dirichlet(np.ones(num_states))
            mdp = _DenseMDP(np.full(pairs, 0.5), np.arange(0, pairs, actions),
                            np.tile(row, (pairs, 1)))
            q, best = _backup(mdp, rng.normal(size=num_states), 0.9)
            assert np.unique(q).size == 1, (num_states, actions)
            assert not _greedy(mdp, q, best).any()


def test_policy_iteration_backs_up_less_than_value_iteration(monkeypatch):
    rng = np.random.default_rng(79)
    model = make_random_model(rng, 2, 3, coupled=True)
    problems = {
        "lifted": build_measure_mdp(model, 6),
        "restricted": solve_symmetric_restricted(
            model, 6, DiscountedHorizon(beta=0.9), policy_grid(3, 2, 3)).problem,
    }
    for name, problem in problems.items():
        calls = count_backups(monkeypatch)
        values, choices = lifted._solve_discounted(problem.operator, 0.9, 1e-8)
        monkeypatch.undo()
        vi_values, vi_choices, sweeps = value_iteration(problem.operator, 0.9, 1e-8)
        assert len(calls) < sweeps, name
        np.testing.assert_array_equal(choices, vi_choices, err_msg=name)
        np.testing.assert_allclose(values, vi_values, rtol=0.0, atol=0.5e-8, err_msg=name)


def test_each_problem_builds_its_operator_once(counterexample, weakly_coupled):
    # one successor per row: the lifted rows are dense all the same, and
    # hold exactly the entries the cap counts
    mdp = build_measure_mdp(counterexample, 8)
    op = mdp.operator
    assert mdp.operator is op and isinstance(op, _DenseMDP)
    assert op.rows.size == mdp.max_entries == 1485
    assert sum(idx.size for rows in mdp.transitions for idx, _ in rows) == 165
    # the limit gathers one successor per pair; its one-hot rows sum to the same
    mkv = build_mkv_mdp(weakly_coupled, 32, 16)
    op = mkv.operator
    assert mkv.operator is op and isinstance(op, _SuccessorMDP)
    assert op.cost.size == op.successor.size == 33 * 289 and op.longest_row == 1
    values = np.random.default_rng(89).normal(size=33)
    assert np.array_equal(op.expect(values), np.eye(33)[op.successor] @ values)


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


def value_iteration(mdp, beta, epsilon):
    """Value iteration from zero to the stop rule of _solve_discounted, the
    reference its policy iteration is checked against: (values, choices,
    sweeps)."""
    threshold = epsilon * (1.0 - beta) / (2.0 * beta)
    values = np.zeros(mdp.act_off.size)
    for sweeps in range(1, lifted._MAX_SWEEPS + 1):
        q, new = _backup(mdp, values, beta)
        if np.abs(new - values).max() <= threshold:
            return new, _greedy(mdp, q, new), sweeps
        values = new
    raise ConvergenceError(f"value iteration needs more than {lifted._MAX_SWEEPS} sweeps")


def count_backups(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return _backup(*args)

    monkeypatch.setattr(lifted, "_backup", counting)
    return calls


def test_hopeless_discounted_solve_fails_before_the_first_sweep(monkeypatch):
    # Costs are at least 0.1, so every update exceeds 0.099 for 10^6 sweeps
    # from zero, and rounding keeps even the stable policy's exact values
    # above the threshold.  On 153 and on 6 grid points policy iteration
    # runs until its policy is stable and makes no value-iteration sweep.
    model = make_random_model(np.random.default_rng(71), 3, 3, coupled=True)
    for mesh in (16, 2):
        mkv = build_mkv_mdp(model, mesh, 1)
        calls = count_backups(monkeypatch)
        evaluations = count_evaluations(monkeypatch)
        with pytest.raises(ConvergenceError, match="needs more than 1000000 sweeps"):
            solve(mkv, DiscountedHorizon(beta=0.99999999))
        assert len(calls) == len(evaluations) + 1
        monkeypatch.undo()


def count_evaluations(monkeypatch):
    calls = []
    for operator in (_DenseMDP, _SuccessorMDP):

        def counting(self, *args, evaluate=operator.policy_values):
            calls.append(1)
            return evaluate(self, *args)

        monkeypatch.setattr(operator, "policy_values", counting)
    return calls


def test_refusal_never_preempts_a_converging_solve(monkeypatch):
    # With _MAX_SWEEPS at the backups a solve needs, _hopeless holds for
    # these positive costs, yet the solve ends as before: it gates only the
    # sweeps after a stable policy.  One backup fewer is refused at the limit.
    rng = np.random.default_rng(73)
    problems = [(build_mkv_mdp(make_random_model(rng, 2, 2, coupled=True), 16, 1), beta)
                for beta in (0.5, 0.9, 0.99)]
    # 561 grid points and 27 kernels, where the policy switches twice
    problems.append((build_mkv_mdp(make_random_model(np.random.default_rng(5), 3, 2,
                                                     coupled=True), 32, 2), 0.95))
    for mdp, beta in problems:
        calls = count_backups(monkeypatch)
        table = solve(mdp, DiscountedHorizon(beta=beta)).values[0]
        backups = len(calls)
        monkeypatch.setattr(lifted, "_MAX_SWEEPS", backups)
        assert lifted._hopeless(mdp.operator, beta, 1e-8 * (1 - beta) / (2 * beta))
        again = solve(mdp, DiscountedHorizon(beta=beta)).values[0]
        np.testing.assert_array_equal(again, table)
        del calls[:]
        monkeypatch.setattr(lifted, "_MAX_SWEEPS", backups - 1)
        with pytest.raises(ConvergenceError, match=f"more than {backups - 1} sweeps"):
            solve(mdp, DiscountedHorizon(beta=beta))
        assert len(calls) == backups - 1
        monkeypatch.undo()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.sampled_from([2, 3]),
       num_actions=st.sampled_from([2, 3]), population=st.integers(1, 3),
       mesh=st.integers(1, 16), policy_mesh=st.integers(1, 2),
       beta=st.floats(0.5, 0.999), limit=st.booleans())
@example(seed=5, num_states=3, num_actions=3, population=4, mesh=1, policy_mesh=1, beta=0.999,
         limit=False)
# value iteration's own rounding leaves it 5.2e-9 from the exact fixed point here
@example(seed=0, num_states=2, num_actions=2, population=1, mesh=1, policy_mesh=1, beta=0.999,
         limit=False)
# 561 grid points and 27 kernels: value iteration sweeps 437 times
@example(seed=5, num_states=3, num_actions=2, population=1, mesh=32, policy_mesh=2, beta=0.95,
         limit=True)
def test_policy_iteration_matches_value_iteration(seed, num_states, num_actions, population,
                                                  mesh, policy_mesh, beta, limit):
    # the lifted rows, or a limit grid, often with fewer kernels than points
    epsilon = 1e-8
    threshold = epsilon * (1.0 - beta) / (2.0 * beta)
    model = make_random_model(np.random.default_rng(seed), num_states, num_actions, coupled=True)
    if limit:
        op = build_mkv_mdp(model, mesh, policy_mesh).operator
        if op.cost.size < op.act_off.size ** 2:
            event("a limit grid with fewer kernels than points")
    else:
        op = build_measure_mdp(model, population).operator
    values, choices = lifted._solve_discounted(op, beta, epsilon)
    vi_values, vi_choices, _ = value_iteration(op, beta, epsilon)
    q, best = _backup(op, values, beta)
    # each value-iteration sweep rounds by less than eps * (n + 2) * (|c| + |v|)
    # (see _solve_discounted), which adds up to 1 / (1 - beta) times that
    scale = max(float(np.abs(op.cost).max()) + float(np.abs(values).max()), 1.0)
    drift = np.finfo(float).eps * (op.longest_row + 2) * scale / (1.0 - beta)
    assert np.abs(values - vi_values).max() <= epsilon / 2 + drift
    assert np.abs(best - values).max() <= threshold
    for i in np.flatnonzero(choices != vi_choices):
        pairs = op.act_off[i] + np.array([choices[i], vi_choices[i]])
        assert q[pairs[1]] - q[pairs[0]] <= 1e-12 * max(1.0, abs(best[i])), (i, pairs)
        event("policy and value iteration broke a tie differently")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.sampled_from([2, 3]),
       num_actions=st.sampled_from([2, 3]), mesh=st.integers(1, 12),
       policy_mesh=st.integers(1, 2), beta=st.floats(0.5, 0.99999))
@example(seed=7, num_states=3, num_actions=3, mesh=12, policy_mesh=1, beta=0.99999)
def test_successor_doubling_matches_the_one_hot_solve(seed, num_states, num_actions, mesh,
                                                      policy_mesh, beta):
    rng = np.random.default_rng(seed)
    model = make_random_model(rng, num_states, num_actions, coupled=True)
    op = build_mkv_mdp(model, mesh, policy_mesh).operator
    n = op.act_off.size
    policy = rng.integers(0, np.diff(op.act_off, append=op.cost.size))
    values = op.policy_values(policy, beta)
    pairs = op.act_off + policy
    solved = np.linalg.solve(np.eye(n) - beta * np.eye(n)[op.successor[pairs]], op.cost[pairs])
    eps, top = np.finfo(float).eps, float(np.abs(solved).max())
    # I - beta P has sup-norm condition number at most (1 + beta) / (1 - beta),
    # and each evaluation is off by at most about that times eps * |v|max
    assert np.abs(values - solved).max() <= 2 * (1 + beta) / (1 - beta) * eps * top
    # each doubling round rounds one product and one sum per entry
    rounds, scale = 0, beta
    while scale:
        rounds, scale = rounds + 1, scale * scale
    residual = op.cost[pairs] + beta * values[op.successor[pairs]] - values
    assert np.abs(residual).max() <= rounds * eps * top


def test_policy_iteration_needs_a_handful_of_backups_at_beta_near_one(monkeypatch):
    # value iteration needs about 25,000 sweeps on this problem
    model = make_random_model(np.random.default_rng(21), 3, 3, coupled=True)
    mdp = build_measure_mdp(model, 6)
    calls = count_backups(monkeypatch)
    sol = solve(mdp, DiscountedHorizon(beta=0.999))
    assert len(calls) <= 6
    # the values are one backup of the chosen policy's exact values
    dense = mdp.operator
    exact = dense.policy_values(sol.choices[0], 0.999)
    np.testing.assert_array_equal(_backup(dense, exact, 0.999)[1], sol.values[0])
    _, best = _backup(dense, sol.values[0], 0.999)
    assert np.abs(best - sol.values[0]).max() <= 1e-8 * 0.001 / (2 * 0.999)


def test_exact_ties_never_switch_the_policy(monkeypatch):
    # Equal costs tie every Q-value in exact arithmetic; the computed ones
    # differ by rounding, which must not switch an action.  At this beta
    # rounding keeps the update above the threshold and _hopeless rules out
    # the sweeps, so the solve ends on the first policy.
    rng = np.random.default_rng(3)
    states, actions, beta = 40, 3, 0.999999
    rows = rng.dirichlet(np.ones(states), size=states * actions)
    mdp = _DenseMDP(np.full(states * actions, 0.7), np.arange(0, states * actions, actions), rows)
    q, best = _backup(mdp, mdp.policy_values(0, beta), beta)
    assert (q != np.repeat(best, actions)).any()  # rounding breaks some ties
    calls = count_backups(monkeypatch)
    evaluations = count_evaluations(monkeypatch)
    with pytest.raises(ConvergenceError):
        lifted._solve_discounted(mdp, beta, 1e-8)
    assert len(evaluations) == 1 and len(calls) == 2


@pytest.mark.parametrize("case, population, beta", [
    ("weakly_coupled", 16, 0.99999),
    ("random", 6, 0.9999),
])
def test_value_iteration_crosses_the_roundoff_floor(weakly_coupled, monkeypatch, case,
                                                    population, beta):
    # near beta = 1 the update of exactly evaluated values is about
    # eps * |v|max, above epsilon*(1-beta)/(2*beta); a few value-iteration
    # sweeps from them reach the threshold, where sweeps from zero need
    # 10^5 or more
    model = weakly_coupled
    if case == "random":
        model = make_random_model(np.random.default_rng(21), 3, 3, coupled=True)
    mdp = build_measure_mdp(model, population)
    calls = count_backups(monkeypatch)
    sol = solve(mdp, DiscountedHorizon(beta=beta))
    assert len(calls) <= 12
    monkeypatch.undo()
    dense = mdp.operator
    _, best = _backup(dense, sol.values[0], beta)
    assert np.abs(best - sol.values[0]).max() <= 1e-8 * (1 - beta) / (2 * beta)
    exact = dense.policy_values(sol.choices[0], beta)
    assert np.abs(exact - sol.values[0]).max() <= 0.5e-8


def test_a_long_finite_horizon_is_refused_before_the_rows_are_built(weakly_coupled,
                                                                    monkeypatch):
    built = []
    monkeypatch.setattr(lifted, "_lifted_rows", lambda *args: built.append(args))
    monkeypatch.setattr(lifted, "_kernel_stage_data", lambda *args: built.append(args))
    with pytest.raises(EnumerationCapError, match="200000-stage horizon"):
        solve(build_measure_mdp(weakly_coupled, 40), FiniteHorizon(200_000))
    with pytest.raises(EnumerationCapError, match="200000-stage horizon"):
        solve_symmetric_restricted(weakly_coupled, 40, FiniteHorizon(200_000), policy_grid(2, 2, 2))
    assert built == []


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
