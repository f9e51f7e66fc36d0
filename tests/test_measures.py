import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfteams import measures
from mfteams.measures import (
    EmpiricalJointMeasure,
    EmpiricalStateMeasure,
    EnumerationCapError,
    Ordinals,
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


# ---- enumeration ----


def test_compositions_two_agents_two_states():
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(total=st.integers(0, 12), parts=st.integers(1, 5))
def test_rank_inverts_compositions(total, parts):
    combos = np.array(list(compositions(total, parts)))
    assert rank_compositions(combos).tolist() == list(range(num_compositions(total, parts)))
    # a stack of stacks keeps its leading shape
    assert rank_compositions(combos[::-1][None]).tolist() == [list(range(len(combos)))[::-1]]


def test_ordinals_refuse_vectors_off_the_enumeration():
    ordinals = Ordinals(3, 2)
    assert [ordinals[c] for c in compositions(3, 2)] == [0, 1, 2, 3]
    for bad in [(1, 1), (4, -1), (3, 0, 0), (3,)]:
        with pytest.raises(KeyError):
            ordinals[bad]


def test_compositions_order_and_count():
    combos = list(compositions(4, 3))
    assert len(combos) == num_compositions(4, 3) == 15
    assert combos[0] == (4, 0, 0)
    assert combos[-1] == (0, 0, 4)
    # decreasing lexicographic order
    assert combos == sorted(combos, reverse=True)
    assert all(sum(c) == 4 for c in combos)


def test_enumerate_empirical_needs_an_agent():
    with pytest.raises(ValueError, match="population must be >= 1"):
        enumerate_empirical(0, 2)


def test_enumerate_empirical_matches_count():
    measures = enumerate_empirical(6, 3)
    assert len(measures) == num_compositions(6, 3)
    assert measures[0].counts == (6, 0, 0)
    assert all(m.population == 6 for m in measures)


def test_empirical_measure_validates_counts():
    with pytest.raises(ValueError):
        EmpiricalStateMeasure((1, 2), 4)
    with pytest.raises(ValueError):
        EmpiricalStateMeasure((-1, 5), 4)


def test_as_distribution():
    m = EmpiricalStateMeasure((1, 3), 4)
    np.testing.assert_array_equal(m.as_distribution(), [0.25, 0.75])


def test_enumerate_joint_actions_cross_product():
    mu = EmpiricalStateMeasure((1, 1), 2)
    joints = enumerate_joint_actions(mu, 2)
    assert [j.counts for j in joints] == [
        ((1, 0), (1, 0)),
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((0, 1), (0, 1)),
    ]
    assert all(j.state_marginal() == mu for j in joints)


def test_enumerate_joint_actions_zero_count_state_fixed():
    mu = EmpiricalStateMeasure((0, 2), 2)
    joints = enumerate_joint_actions(mu, 2)
    assert [j.counts for j in joints] == [((0, 0), (2, 0)), ((0, 0), (1, 1)), ((0, 0), (0, 2))]


def test_joint_measure_marginal():
    theta = EmpiricalJointMeasure(((0, 2), (1, 0)), 3)
    assert theta.state_marginal().counts == (2, 1)
    np.testing.assert_array_equal(
        theta.as_distribution(), [[0.0, 2 / 3], [1 / 3, 0.0]]
    )


def test_canonical_assignment_orders_cells():
    theta = EmpiricalJointMeasure(((0, 2), (1, 0)), 3)
    assert canonical_assignment(theta) == [(0, 1), (0, 1), (1, 0)]


def test_canonical_assignment_rehistograms():
    rng = np.random.default_rng(7)
    for _ in range(50):
        X, U, N = rng.integers(1, 4), rng.integers(1, 4), int(rng.integers(1, 9))
        flat = rng.multinomial(N, np.full(X * U, 1.0 / (X * U)))
        counts = tuple(tuple(int(c) for c in row) for row in flat.reshape(X, U))
        theta = EmpiricalJointMeasure(counts, N)
        agents = canonical_assignment(theta)
        assert len(agents) == N
        hist = np.zeros((X, U), dtype=int)
        for x, u in agents:
            hist[x, u] += 1
        assert tuple(tuple(r) for r in hist) == counts


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError) as err:
        enumerate_empirical(100, 4, cap=10)
    assert err.value.cap == 10
    assert err.value.size == num_compositions(100, 4)


# ---- simplex grids ----


def test_grid_points_mesh_two():
    grid = simplex_grid(2, 2)
    np.testing.assert_array_equal(grid.points, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    assert grid.ordinal_of((1, 1)) == 1


def test_grid_mesh_one_is_vertices():
    grid = simplex_grid(1, 3)
    np.testing.assert_array_equal(
        grid.points, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )


def test_ordinal_round_trip():
    grid = simplex_grid(3, 3)
    for g in range(len(grid)):
        assert grid.ordinal_of(grid.counts[g]) == g


def test_projection_is_nearest_point():
    rng = np.random.default_rng(19)
    grid = simplex_grid(4, 3)
    for _ in range(100):
        mu = rng.dirichlet(np.ones(3))
        g = grid.project(mu)
        dists = np.abs(grid.points - mu).sum(axis=1)
        assert dists[g] == dists.min()


def test_projection_idempotent_on_grid():
    grid = simplex_grid(5, 2)
    for g in range(len(grid)):
        assert grid.project(grid.point(g)) == g


def test_projection_tie_goes_to_smallest_ordinal():
    grid = simplex_grid(2, 2)
    # [0.75, 0.25] is L1 distance 0.5 from both [1,0] and [0.5,0.5].
    assert grid.project([0.75, 0.25]) == 0


def test_project_many_matches_project_row_by_row():
    rng = np.random.default_rng(13)
    for mesh, card in ((2, 2), (5, 3), (8, 4)):
        grid = simplex_grid(mesh, card)
        # random measures, grid points, and midpoints between grid points (ties)
        pairs = rng.integers(len(grid), size=(40, 2))
        mus = np.concatenate([
            rng.dirichlet(np.ones(card), size=60),
            grid.points,
            0.5 * (grid.points[pairs[:, 0]] + grid.points[pairs[:, 1]]),
        ])
        expected = [grid.project(mu) for mu in mus]
        assert grid.project_many(mus).tolist() == expected


def _broadcast_projection(grid, mus):
    """The projection formula that project_many replaced."""
    return np.abs(grid.points - mus[:, None]).sum(-1).argmin(-1)


def _projection_rows(grid, rng, size):
    """Random measures, grid points, and midpoints of neighbouring grid
    points (one unit of mass moved between two coordinates), where exact
    ties occur."""
    X, mesh = grid.cardinality, grid.mesh
    counts = np.array(grid.counts)[rng.integers(len(grid), size=size)]
    src, dst = rng.integers(X, size=(2, size))
    moved = counts.copy()
    has = moved[np.arange(size), src] > 0
    moved[np.arange(size)[has], src[has]] -= 1
    moved[np.arange(size)[has], dst[has]] += 1
    return np.concatenate([
        rng.dirichlet(np.ones(X), size=size),
        counts / mesh,
        0.5 * (counts + moved) / mesh,
    ])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cardinality=st.integers(2, 9), mesh=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_project_many_matches_the_broadcast_formula(cardinality, mesh, seed):
    grid = simplex_grid(mesh, cardinality)
    mus = _projection_rows(grid, np.random.default_rng(seed), 8)
    np.testing.assert_array_equal(grid.project_many(mus), _broadcast_projection(grid, mus))


def test_project_many_matches_the_broadcast_formula_across_blocks():
    grid = simplex_grid(8, 9)
    mus = _projection_rows(grid, np.random.default_rng(29), 10)
    block = measures._PROJECT_BLOCK // grid.points.size
    assert len(mus) > 2 * block
    np.testing.assert_array_equal(grid.project_many(mus), _broadcast_projection(grid, mus))


@pytest.mark.parametrize("cardinality", [2, 7, 8, 9, 16, 23, 128, 129, 136, 300])
def test_column_distances_keep_numpys_summation_order(cardinality):
    rng = np.random.default_rng(cardinality)
    points = rng.dirichlet(np.ones(cardinality), size=6)
    mus = rng.dirichlet(np.full(cardinality, 0.3), size=5)
    got = measures._l1_distances(np.ascontiguousarray(points.T), mus)
    want = np.abs(points - mus[:, None]).sum(-1)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_grid_cap():
    with pytest.raises(EnumerationCapError):
        simplex_grid(1000, 5, cap=1000)


# ---- gridded policy kernels ----


def test_policy_grid_size_and_first_kernel():
    policies = policy_grid(2, 2, 2)
    assert len(policies) == 9
    np.testing.assert_array_equal(policies.kernel(0), [[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(policies.kernel(len(policies) - 1), [[0.0, 1.0], [0.0, 1.0]])


def test_policy_grid_rows_are_stochastic():
    policies = policy_grid(3, 2, 3)
    assert policies.kernels.shape == (100, 2, 3)
    np.testing.assert_allclose(policies.kernels.sum(axis=2), 1.0, atol=1e-15)
    assert policies.kernels.min() >= 0.0


def test_policy_grid_state_zero_varies_slowest():
    policies = policy_grid(1, 2, 2)
    np.testing.assert_array_equal(
        policies.kernels,
        [
            [[1, 0], [1, 0]],
            [[1, 0], [0, 1]],
            [[0, 1], [1, 0]],
            [[0, 1], [0, 1]],
        ],
    )


# ---- rounding ----


def test_round_to_counts_exact_and_remainders():
    assert round_to_counts([0.3, 0.7], 10) == (3, 7)
    assert round_to_counts([0.25, 0.75], 2) == (1, 1)
    assert round_to_counts([1 / 3, 1 / 3, 1 / 3], 4) == (2, 1, 1)


def test_round_to_counts_tie_prefers_low_index():
    assert round_to_counts([0.5, 0.5], 3) == (2, 1)


def test_round_to_counts_is_valid_count_vector():
    rng = np.random.default_rng(23)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 40))
        dist = rng.dirichlet(np.ones(k))
        counts = round_to_counts(dist, n)
        assert sum(counts) == n
        assert min(counts) >= 0
        # never off by a full unit from the exact scaling
        assert np.abs(np.array(counts) - n * dist).max() < 1.0
