import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfteams import measures
from mfteams.measures import (
    EmpiricalJointMeasure,
    EmpiricalStateMeasure,
    EnumerationCapError,
    canonical_assignment,
    composition_array,
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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(total=st.integers(0, 20), parts=st.integers(1, 5))
def test_composition_array_holds_the_compositions_in_order(total, parts):
    combos = composition_array(total, parts)
    assert combos.dtype == np.int64
    assert combos.shape == (num_compositions(total, parts), parts)
    assert combos.tolist() == [list(c) for c in compositions(total, parts)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), parts=st.integers(1, 4), total=st.integers(0, 12))
def test_a_smaller_total_is_a_prefix_with_entry_0_lowered(data, parts, total):
    # one composition table of the largest total serves every smaller one
    n = data.draw(st.integers(0, total))
    prefix = composition_array(total, parts)[: num_compositions(n, parts)].copy()
    prefix[:, 0] -= total - n
    np.testing.assert_array_equal(composition_array(n, parts), prefix)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), parts=st.integers(1, 4), total=st.integers(0, 12))
def test_rank_ignores_entry_0(data, parts, total):
    counts = composition_array(total, parts)
    shift = data.draw(st.integers(-total, 12))
    raised = counts.copy()
    raised[:, 0] += shift  # may leave the compositions; the rank reads only tail sums
    np.testing.assert_array_equal(rank_compositions(raised), rank_compositions(counts))


def _rank_by_comb(counts):
    """rank_compositions of one count vector, in Python integers by math.comb."""
    parts = len(counts)
    return sum(math.comb(sum(counts[i + 1:]) + parts - 2 - i, parts - 1 - i)
               for i in range(parts - 1))


def _laid_out(counts, layout):
    """`counts` as rank_compositions may receive it: the array itself, a strided view into a
    larger array (as traj[:, t] is), its columns read backwards, an int32 copy or, when it
    holds any count, nested lists."""
    if layout == "view":
        traj = np.zeros(counts.shape[:-1] + (3,) + counts.shape[-1:], dtype=np.int64)
        traj[..., 1, :] = counts
        return traj[..., 1, :]
    if layout == "reversed":
        return np.ascontiguousarray(counts[..., ::-1])[..., ::-1]
    if layout == "int32":
        return counts.astype(np.int32)
    return counts.tolist() if layout == "lists" and counts.size else counts


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), parts=st.integers(0, 6),
       leading=st.lists(st.integers(0, 4), max_size=2).map(tuple),
       layout=st.sampled_from(["array", "view", "reversed", "int32", "lists"]))
def test_rank_matches_the_binomial_sum_in_any_layout(data, parts, leading, layout):
    # totals up to 10^5 at three parts or fewer; ranks stay far inside int64 either way
    high = 10**5 // max(parts, 1) if parts <= 3 else 300
    size = math.prod(leading)
    counts = np.array(data.draw(st.lists(st.integers(0, high), min_size=size * parts,
                                         max_size=size * parts)), dtype=np.int64)
    counts = counts.reshape(leading + (parts,))
    given_counts = _laid_out(counts, layout)
    kept = np.array(given_counts, copy=True)
    rank = rank_compositions(given_counts)
    assert isinstance(rank, np.ndarray) and rank.dtype == np.int64 and rank.shape == leading
    expected = [_rank_by_comb(c) for c in counts.reshape(size, parts).tolist()]
    assert rank.reshape(-1).tolist() == expected
    if isinstance(given_counts, np.ndarray):
        assert not np.shares_memory(rank, given_counts)
    rank[...] = -1  # writing the ranks leaves the counts as they were
    np.testing.assert_array_equal(given_counts, kept)


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
    assert rank_compositions((1, 1)) == 1


def test_grid_mesh_one_is_vertices():
    grid = simplex_grid(1, 3)
    np.testing.assert_array_equal(
        grid.points, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )


def test_ordinal_round_trip():
    grid = simplex_grid(3, 3)
    for g in range(len(grid)):
        assert rank_compositions(grid.counts[g]) == g


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


def _left_to_right_l1(points, mus):
    """(R, G) L1 distances with the coordinates summed strictly left to right."""
    return np.add.accumulate(np.abs(points - mus[:, None]), axis=-1)[..., -1]


def _broadcast_projection(grid, mus):
    """The projection rule by broadcasting: the first point at the least
    left-to-right L1 distance."""
    return _left_to_right_l1(grid.points, mus).argmin(-1)


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


def test_project_many_matches_the_broadcast_formula_on_a_large_stack():
    grid = simplex_grid(8, 9)
    mus = _projection_rows(grid, np.random.default_rng(29), 10)
    assert len(mus) > 2 * ((1 << 20) // grid.points.size)  # more rows than one old block
    np.testing.assert_array_equal(grid.project_many(mus), _broadcast_projection(grid, mus))


def _near_rows(grid, rng, size):
    """Rows where the candidates' rounding is tight: grid points and
    midpoints moved by 1-2 ulps per coordinate, rows with some mesh * mu_x
    within an ulp of an integer, rows summing to 1 within a few ulps and
    push-forwards of random stochastic matrices; and rows scaled off the
    simplex."""
    X, mesh = grid.cardinality, grid.mesh
    counts = np.array(grid.counts)[rng.integers(len(grid), size=(2, size))]
    exact = np.concatenate([counts[0] / mesh, (counts[0] + counts[1]) / (2 * mesh)])
    ulps = rng.integers(-2, 3, size=exact.shape)
    nudged = exact + ulps * np.spacing(exact)
    ulp_off = np.nextafter(counts[0] / mesh, rng.choice([-1.0, 2.0], size=(size, X)))
    at_integer = np.where(rng.random((size, X)) < 0.5, ulp_off, counts[0] / mesh)
    drawn = rng.dirichlet(np.full(X, 0.5), size=size)
    off_one = drawn * (1.0 + rng.integers(-4, 5, size=(size, 1)) * 2.0**-52)
    pushed = drawn @ rng.dirichlet(np.ones(X), size=X)
    off_simplex = drawn * rng.uniform(0.0, 2.0, size=(size, 1))
    return np.concatenate([nudged, at_integer, off_one, pushed, off_simplex])


def _max_mesh(cardinality, points=5000):
    """The largest mesh up to 64 whose grid has at most `points` points."""
    return max(m for m in range(1, 65) if num_compositions(m, cardinality) <= points)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 12))
def test_project_many_matches_the_broadcast_formula(data, seed, rows):
    """At every cardinality 2-12, the candidate walk, the scan and `project`
    answer like the broadcast reference, bit for bit: random rows and exact
    ties, rows within ulps of grid points and of integers of mesh * mu,
    rows summing to 1 within ulps, rows off the simplex, and empty stacks."""
    rng = np.random.default_rng(seed)
    for cardinality in range(2, 13):
        mesh = data.draw(st.integers(1, _max_mesh(cardinality)), label=f"mesh at {cardinality}")
        grid = simplex_grid(mesh, cardinality)
        mus = np.concatenate([_projection_rows(grid, rng, rows), _near_rows(grid, rng, rows)])
        want = _broadcast_projection(grid, mus)
        got = grid.project_many(mus)
        assert got.dtype == np.int64 and got.shape == (len(mus),)
        np.testing.assert_array_equal(got, want)
        assert [grid.project(mu) for mu in mus] == want.tolist()


def test_project_many_keeps_the_scan_on_rows_off_the_simplex():
    """Rows outside the candidates' window (off the simplex, negative or
    not finite) take the scan: the same ordinals as the broadcast rule, a
    NaN row to 0, with no warning."""
    grid = simplex_grid(4, 2)
    mus = np.array([[0.6, 0.6], [0.0, 0.0], [np.nan, np.nan], [np.nan, 0.5], [np.inf, 0.0],
                    [-0.1, 1.1], [0.3, 0.3], [1.2, -0.2], [0.9, 0.9], [0.2, 0.1], [0.5, 0.5 + 2**-4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grid.project_many(mus)
    assert got[:4].tolist() == [2, 0, 0, 0]
    finite = np.isfinite(mus).all(axis=1)
    np.testing.assert_array_equal(got[finite], _broadcast_projection(grid, mus[finite]))
    assert got.tolist() == [grid.project(mu) for mu in mus]
    # floors summing past the mesh: no floor/ceil candidate exists
    grid = simplex_grid(2, 3)
    mus = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.25], [0.4, 0.3, 0.1]])
    np.testing.assert_array_equal(grid.project_many(mus), _broadcast_projection(grid, mus))


@pytest.mark.parametrize("mus", [[[0.5, 0.3, 0.2]], [[1.0]], [0.5, 0.5], np.empty(0)])
def test_project_many_refuses_rows_of_another_width(mus):
    with pytest.raises(ValueError, match="need rows of 2 coordinates"):
        simplex_grid(4, 2).project_many(mus)


@pytest.mark.parametrize("mu", [[0.5, 0.3, 0.2], [1.0], [[0.5, 0.5]], []])
def test_project_refuses_a_measure_of_another_width(mu):
    with pytest.raises(ValueError, match="need rows of 2 coordinates"):
        simplex_grid(4, 2).project(mu)


@pytest.mark.parametrize("cardinality", [2, 7, 8, 9, 16, 23, 128, 129, 136, 300])
def test_column_distances_keep_numpys_summation_order(cardinality):
    """The column distances equal numpy's sequential sum, np.add.accumulate
    over the coordinates, bit for bit at every cardinality."""
    rng = np.random.default_rng(cardinality)
    points = rng.dirichlet(np.ones(cardinality), size=6)
    mus = rng.dirichlet(np.full(cardinality, 0.3), size=5)
    got = measures._l1_distances(np.ascontiguousarray(points.T), mus)
    want = _left_to_right_l1(points, mus)
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
