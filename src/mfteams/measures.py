"""Enumeration and indexing of empirical measures, simplex grids, and
gridded policy kernels.

Count vectors are enumerated in decreasing lexicographic order, so the
first entry of any enumeration puts all mass on coordinate 0.  A count
vector's ordinal in that order is computed from the vector itself
(`rank_compositions`), never looked up; ties in nearest-point projection
are broken toward the smallest ordinal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

DEFAULT_ENUMERATION_CAP = 5_000_000


class EnumerationCapError(Exception):
    """An enumeration would exceed the configured size cap."""

    def __init__(self, what, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"{what} needs {size} entries, above the cap of {cap}")


def num_compositions(total, parts):
    """Number of ways to write `total` as an ordered sum of `parts` nonnegative ints."""
    return math.comb(total + parts - 1, parts - 1)


def compositions(total, parts):
    """Yield all count vectors of length `parts` summing to `total`.

    Order is decreasing lexicographic: (total, 0, ..., 0) first.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def composition_array(total, parts):
    """The count vectors of `compositions(total, parts)` as an int64 array,
    one per row in the same order, so row i has rank i.

    Built column by column from the right.  `rest` holds the compositions
    of every total up to `total` into the parts after the first, listed by
    increasing total; the compositions of t with one more part in front
    are the rows of `rest` with sum s <= t, in order, behind a first part
    t - s.  A larger first part comes first, so t = total gives the result.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    totals = np.arange(total + 1, dtype=np.int64)
    sums, rest = np.zeros(1, dtype=np.int64), []  # one composition into no parts, of 0
    for _ in range(parts - 1):
        upto = np.searchsorted(sums, totals, side="right")  # rows of `rest` with sum <= t
        pick = np.arange(upto.sum()) - np.repeat(np.cumsum(upto) - upto, upto)
        t = np.repeat(totals, upto)
        rest = [t - sums[pick]] + [c[pick] for c in rest]
        sums = t
    return np.stack([total - sums] + rest, axis=1)


def rank_compositions(counts):
    """Ordinal of count vectors in the order of `compositions`, each among
    the compositions of its own total, by the combinatorial number system
    (Knuth, TAOCP 4A, 7.2.1.3).

    `counts` holds one vector along its last axis, in any layout; returns
    a new int64 array of the leading shape.  With t_i the sum of the
    entries after entry i and k_i their number, the vectors before c are
    those that first exceed it at some entry i, which number
    C(t_i + k_i - 1, k_i).  The tails are built back to front, each column
    added onto the last coordinate, and the rank starts as a copy of the
    last tail, C(t, 1) = t, so two parts cost one copy.
    """
    counts = np.asarray(counts, dtype=np.int64)
    parts = counts.shape[-1]
    if parts < 2:
        return np.zeros(counts.shape[:-1], dtype=np.int64)
    tails = [counts[..., -1]]
    for i in range(parts - 2, 0, -1):
        tails.append(tails[-1] + counts[..., i])
    return _add_rank_terms(tails[0].copy(), reversed(tails[1:]), parts)


def _add_rank_terms(rank, tails, parts):
    """Add to the int64 array `rank` the terms C(t_i + k_i - 1, k_i), k_i =
    parts - 1 - i, of rank_compositions in exact integers, for the tail
    sums t_i that `tails` yields one array at a time.  Returns `rank`."""
    for i, t in enumerate(tails):
        term = t  # C(t_i, 1)
        for j in range(2, parts - i):
            term = term * (t + j - 1) // j  # C(t_i + j - 1, j), exactly
        rank += term
    return rank


def check_integer(name, value):
    """`value` as a Python int; any integer type but bool, else a ValueError."""
    try:
        return operator.index(None if isinstance(value, (bool, np.bool_)) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_positive(name, value):
    """`value` as a Python int; a ValueError naming it unless an integer (check_integer) >= 1."""
    value = check_integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


def _check_cap(what, size, cap):
    """Refuse `size` above `cap`, and a cap that is not an integer
    (check_integer), None included: every bound is an integer."""
    if size > check_integer("cap", cap):
        raise EnumerationCapError(what, size, cap)


@dataclass(frozen=True)
class EmpiricalStateMeasure:
    """Empirical measure of a population over states, stored as counts."""

    counts: tuple
    population: int

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative count in {self.counts}")
        if sum(self.counts) != self.population:
            raise ValueError(
                f"counts {self.counts} sum to {sum(self.counts)}, expected {self.population}"
            )

    def as_distribution(self):
        return np.asarray(self.counts, dtype=float) / self.population


@dataclass(frozen=True)
class EmpiricalJointMeasure:
    """Joint empirical measure over state-action pairs, counts[x][u]."""

    counts: tuple  # tuple of per-state tuples
    population: int

    def __post_init__(self):
        total = sum(c for row in self.counts for c in row)
        if total != self.population:
            raise ValueError(
                f"joint counts sum to {total}, expected {self.population}"
            )

    def state_marginal(self):
        return EmpiricalStateMeasure(
            tuple(sum(row) for row in self.counts), self.population
        )

    def as_distribution(self):
        return np.asarray(self.counts, dtype=float) / self.population


def empirical_counts(population, cardinality, cap=DEFAULT_ENUMERATION_CAP):
    """The count vectors of every empirical measure of `population` agents
    over `cardinality` states, as the rows of composition_array; an empty
    population or more measures than the cap are refused."""
    check_positive("population", population)
    _check_cap("empirical measure enumeration", num_compositions(population, cardinality), cap)
    return composition_array(population, cardinality)


def enumerate_empirical(population, cardinality, cap=DEFAULT_ENUMERATION_CAP):
    """All empirical measures of `population` agents over `cardinality`
    states, in the order of empirical_counts."""
    return [EmpiricalStateMeasure(tuple(c), population)
            for c in empirical_counts(population, cardinality, cap).tolist()]


def enumerate_joint_actions(mu, num_actions, cap=DEFAULT_ENUMERATION_CAP):
    """All joint state-action measures whose state marginal equals `mu`.

    Each state's count is split over actions independently; the list is the
    cross product over states with state 0 varying slowest, each state's
    splits in decreasing lexicographic order.  A state with zero count has
    its row fixed at zero.
    """
    size = 1
    for c in mu.counts:
        size *= num_compositions(c, num_actions)
    _check_cap("joint action enumeration", size, cap)
    per_state = [list(compositions(c, num_actions)) for c in mu.counts]
    return [
        EmpiricalJointMeasure(rows, mu.population)
        for rows in product(*per_state)
    ]


def canonical_assignment(theta):
    """Expand a joint measure into an agent-indexed list of (state, action)
    pairs, cells emitted in increasing lexicographic order."""
    out = []
    for x, row in enumerate(theta.counts):
        for u, c in enumerate(row):
            out.extend([(x, u)] * c)
    return out


class SimplexGrid:
    """Uniform grid on the probability simplex with mesh 1/mesh."""

    def __init__(self, mesh, cardinality, cap=DEFAULT_ENUMERATION_CAP):
        mesh, cardinality = check_positive("mesh", mesh), check_positive("cardinality", cardinality)
        size = num_compositions(mesh, cardinality)
        _check_cap("simplex grid", size, cap)
        self.mesh = mesh
        self.cardinality = cardinality
        counts = composition_array(mesh, cardinality)
        self.counts = [tuple(c) for c in counts.tolist()]
        self.points = counts / mesh
        self._columns = np.ascontiguousarray(self.points.T)  # coordinate x of every point

    def __len__(self):
        return len(self.counts)

    def point(self, ordinal):
        return self.points[ordinal]

    def project(self, mu):
        """`project_many` of the single measure mu, by a scan of every point."""
        mu = self._rows(np.asarray(mu, dtype=float)[None])
        return int(_l1_distances(self._columns, mu).argmin())

    def _rows(self, mus):
        """mus as a float array, refused unless it is (R, cardinality)."""
        mus = np.asarray(mus, dtype=float)
        if mus.ndim != 2 or mus.shape[1] != self.cardinality:
            raise ValueError(f"need rows of {self.cardinality} coordinates, "
                             f"got an array of shape {mus.shape}")
        return mus

    def project_many(self, mus):
        """Ordinal of the L1-nearest grid point to every row of an
        (R, cardinality) array: the smallest ordinal among the points at
        the least L1 distance, that distance summed left to right over the
        coordinates (`_l1_distances`).

        A row inside the window below is projected by its candidates, any
        other row (off the simplex, negative or not finite) by a scan of
        every point; both follow the rule above, so the choice does not
        change an answer.  With m the mesh, X the cardinality, t_x = m mu_x
        and t'_x its float product, the candidates of a row are the points
        with k_x in {floor(t'_x), floor(t'_x) + 1} for every x.  They share
        the floor vector, so in ordinal order they are its 0/1 offsets in
        decreasing lexicographic order.  A row has no more candidates than
        the grid has points: with r <= m units left by the floor vector,
        C(X, r) <= C(m + X - 1, m).

        The window: mu >= 0 and |s' - 1| <= 1/(2m) - 6 X^2 u in float, with
        s' the float row sum and u = 2^-53.  Inside it every point outside
        the candidates, having some |k_x - t'_x| >= 1, is strictly farther
        in float than a candidate with every |k_x - t'_x| < 1, so the scan's
        first minimum is a candidate.  Let s = sum_x mu_x (< 2 in
        the window), d = sum_x t_x - m, eps = max_x |t_x - t'_x| <= 2 u m,
        and E(k) = sum_x |k_x/m - mu_x| exactly, D(k) its float value.
          1. A point k with some |k_x - t'_x| >= 1 has |k_x - t_x| >= 1 - eps.
             Say k_x <= t_x - 1 + eps; the excess sum_y (k_y - t_y)^+ equals
             sum_y (t_y - k_y)^+ - d >= 1 - eps - |d|, spread over the other
             X - 1 coordinates, so some y has k_y - t_y >= a = (1 - eps - |d|)
             / (X - 1).  Moving one unit from y (k_y > t_y >= 0, so k_y >= 1)
             to x lowers m E by at least 2 (a - eps): x's term falls by at
             least 1 - 2 eps, y's rises by at most 1 - 2 min(a, 1).  The case
             k_x >= t_x + 1 - eps is symmetric.  Hence the exact minimizer
             k* has every |k*_x - t'_x| < 1, and E(k) >= E(k*) + 2 (a - eps) / m.
          2. |D - E| <= eta = (3X + 2) u: each |fl(k_x/m) - mu_x| is within
             u (k_x/m + |k_x/m - mu_x|) + u^2 k_x/m of the exact term, the
             left to right sum of X terms adds at most (X - 1) u (1 + O(X u))
             times their sum, and E <= 1 + s < 3.
          3. |d| <= m |s' - 1| + 2 X u m, since any order of summing X terms
             is within (X - 1) u (1 + O(X u)) s of s.  So X eps + |d| +
             (X - 1) m eta <= m (|s' - 1| + (3X^2 + 3X - 2) u) < 1 (the float
             test is within a few ulps of m (|s' - 1| + 6 X^2 u) <= 1/2), that is
             a - eps > m eta, and D(k) >= E(k) - eta > E(k*) + eta >= D(k*).
        Each row is ranked once (`rank_compositions`), for its winner.
        """
        mus = self._rows(mus)
        m, X = self.mesh, self.cardinality
        columns = np.ascontiguousarray(mus.T)  # coordinate x of every row
        with np.errstate(invalid="ignore", over="ignore"):  # rows off the window may be inf or nan
            inside = (columns >= 0).all(axis=0) & (
                np.abs(columns.sum(axis=0) - 1.0) <= 0.5 / m - 6 * X * X * 2.0**-53)
            counts = _nearest_candidates(columns, m, inside)
        far = np.flatnonzero(~inside)
        counts[:, far] = 0  # rows off the window take the scan below
        out = rank_compositions(counts.T)
        if far.size:
            out[far] = _l1_distances(self._columns, mus[far]).argmin(axis=1)
        return out


def _nearest_candidates(columns, mesh, inside):
    """The count vector, one per column and held in floats, of the first
    candidate of `SimplexGrid.project_many` at the least float L1 distance
    from each column of the (X, R) array `columns` where `inside` holds.

    Rows are grouped by the number of units their floor vector leaves to
    place; each group walks the combinations of that many coordinates in
    lexicographic order, which is decreasing lexicographic order of the
    offsets, and keeps a candidate only when it is strictly nearer.
    """
    X, R = columns.shape
    floor = np.floor(mesh * columns)
    short = mesh - floor.sum(axis=0)
    best = np.full(R, np.inf)
    won = np.zeros((X, R), dtype=bool)  # the winner's offsets
    terms = np.empty((X, R))  # |(floor_x + up_x) / mesh - mu_x|, summed left to right
    for units in range(X + 1):
        group = inside & (short == units)
        if not group.any():
            continue
        for ups in combinations(range(X), units):
            up = np.array([[x in ups] for x in range(X)])
            np.add(floor, up, out=terms)
            terms /= mesh
            terms -= columns
            dist = np.abs(terms, out=terms)[0]
            for x in range(1, X):
                dist += terms[x]
            nearer = group & (dist < best)
            np.copyto(best, dist, where=nearer)
            np.copyto(won, up, where=nearer)
    floor += won
    return floor


def _l1_distances(columns, mus):
    """(R, G) array of sum_x |columns[x, g] - mus[r, x]|, the L1 distance
    from every row of mus to every grid point, added one coordinate at a
    time from left to right."""
    out = np.abs(columns[0] - mus[:, 0, None])
    scratch = np.empty_like(out)
    for x in range(1, len(columns)):
        d = np.subtract(columns[x], mus[:, x, None], out=scratch)
        out += np.abs(d, out=d)
    return out


def simplex_grid(mesh, cardinality, cap=DEFAULT_ENUMERATION_CAP):
    return SimplexGrid(mesh, cardinality, cap=cap)


class GriddedPolicySet:
    """All per-state action kernels with rows on a mesh-1/mesh action grid.

    kernels[p] is an (num_states, num_actions) stochastic matrix.  Kernel
    ordinals run the cross product over states, state 0 varying slowest,
    rows in decreasing lexicographic order, so ordinal 0 is the kernel
    putting every state's mass on action 0.
    """

    def __init__(self, mesh, num_states, num_actions, cap=DEFAULT_ENUMERATION_CAP):
        mesh = check_positive("mesh", mesh)
        num_states = check_positive("num_states", num_states)
        num_actions = check_positive("num_actions", num_actions)
        rows = num_compositions(mesh, num_actions)
        size = rows**num_states
        _check_cap("policy kernel grid", size, cap)
        self.mesh = mesh
        self.num_states = num_states
        self.num_actions = num_actions
        row_points = composition_array(mesh, num_actions) / mesh
        # one row ordinal per state for every kernel, state 0 varying slowest
        ordinals = np.indices((rows,) * num_states).reshape(num_states, -1).T
        self.kernels = row_points[ordinals]

    def __len__(self):
        return len(self.kernels)

    def kernel(self, ordinal):
        return self.kernels[ordinal]


def policy_grid(mesh, num_states, num_actions, cap=DEFAULT_ENUMERATION_CAP):
    return GriddedPolicySet(mesh, num_states, num_actions, cap=cap)


def round_to_counts(dist, population):
    """Largest-remainder rounding of population * dist to a valid count vector.

    Remainder ties are broken toward the smallest coordinate index.
    """
    dist = np.asarray(dist, dtype=float)
    scaled = population * dist
    base = np.floor(scaled).astype(int)
    short = population - int(base.sum())
    frac = scaled - base
    base[np.argsort(-frac, kind="stable")[:short]] += 1
    return tuple(int(c) for c in base)
