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
from dataclasses import dataclass
from itertools import chain, combinations, product

import numpy as np

DEFAULT_ENUMERATION_CAP = 5_000_000
_PROJECT_BLOCK = 1 << 20  # (row, point, coordinate) terms per block of SimplexGrid.project_many


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

    Stars and bars: a vector is the gaps between parts - 1 bars among
    total + parts - 1 slots, and bar positions in increasing lexicographic
    order give the vectors in increasing lexicographic order.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    slots = total + parts - 1
    size = num_compositions(total, parts)
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), parts - 1)),
                       dtype=np.int64, count=size * (parts - 1)).reshape(size, parts - 1)
    edges = np.hstack([np.full((size, 1), -1), bars[::-1], np.full((size, 1), slots)])
    return np.diff(edges, axis=1) - 1


def rank_compositions(counts):
    """Ordinal of count vectors in the order of `compositions`, each among
    the compositions of its own total, by the combinatorial number system
    (Knuth, TAOCP 4A, 7.2.1.3).

    `counts` holds one vector along its last axis; returns an int64 array
    of the leading shape.  With t_i the sum of the entries after entry i
    and k_i their number, the vectors before c are those that first exceed
    it at some entry i, which number C(t_i + k_i - 1, k_i).
    """
    counts = np.asarray(counts, dtype=np.int64)
    parts = counts.shape[-1]
    tails = np.cumsum(counts[..., :0:-1], axis=-1)[..., ::-1]
    rank = np.zeros(counts.shape[:-1], dtype=np.int64)
    for i in range(parts - 1):
        term = tails[..., i]  # C(t_i, 1)
        for j in range(2, parts - i):
            term = term * (tails[..., i] + j - 1) // j  # C(t_i + j - 1, j), exactly
        rank += term
    return rank


def _check_cap(what, size, cap):
    if cap is not None and size > cap:
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
    if population < 1:
        raise ValueError("population must be >= 1")
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
        if mesh < 1:
            raise ValueError("mesh must be >= 1")
        size = num_compositions(mesh, cardinality)
        _check_cap("simplex grid", size, cap)
        self.mesh = mesh
        self.cardinality = cardinality
        self.counts = list(compositions(mesh, cardinality))
        self.points = np.asarray(self.counts, dtype=float) / mesh
        self._columns = np.ascontiguousarray(self.points.T)  # coordinate x of every point

    def __len__(self):
        return len(self.counts)

    def point(self, ordinal):
        return self.points[ordinal]

    def project(self, mu):
        """`project_many` of the single measure mu, which fits one block."""
        mu = np.asarray(mu, dtype=float).reshape(1, -1)
        return int(_l1_distances(self._columns, mu).argmin())

    def project_many(self, mus):
        """Ordinal of the L1-nearest grid point to every row of an
        (R, cardinality) array; ties go to the smallest ordinal.

        Rows are processed in blocks so the distance array stays near
        _PROJECT_BLOCK / cardinality entries whatever R is.
        """
        mus = np.asarray(mus, dtype=float)
        out = np.empty(len(mus), dtype=np.int64)
        block = max(1, _PROJECT_BLOCK // self.points.size)
        for start in range(0, len(mus), block):
            chunk = mus[start : start + block]
            out[start : start + block] = _l1_distances(self._columns, chunk).argmin(axis=1)
        return out


def _l1_distances(columns, mus, lo=0, hi=None):
    """(R, G) array of sum_{lo <= x < hi} |columns[x, g] - mus[r, x]|,
    accumulated one coordinate at a time; hi defaults to every coordinate.

    The terms are added in the order numpy's pairwise summation adds a
    contiguous axis, so the result equals np.abs(points - mus[:, None])
    .sum(-1) bit for bit: left to right below 8 terms, eight strided
    partial sums up to 128 terms, and two halves (the first a multiple of
    8 long) above that.
    """
    hi = len(columns) if hi is None else hi
    n = hi - lo
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _l1_distances(columns, mus, lo, lo + half) + _l1_distances(columns, mus, lo + half, hi)

    def term(x, out=None):
        d = np.subtract(columns[x], mus[:, x, None], out=out)
        return np.abs(d, out=d)

    head = term(lo)
    scratch = np.empty_like(head)
    if n < 8:
        rest = range(lo + 1, hi)
    else:
        r = [head] + [term(lo + j) for j in range(1, 8)]
        for i in range(8, n - n % 8):
            r[i % 8] += term(lo + i, scratch)
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = range(hi - n % 8, hi)
    for x in rest:
        head += term(x, scratch)
    return head


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
        if mesh < 1:
            raise ValueError("mesh must be >= 1")
        rows = num_compositions(mesh, num_actions)
        size = rows**num_states
        _check_cap("policy kernel grid", size, cap)
        self.mesh = mesh
        self.num_states = num_states
        self.num_actions = num_actions
        row_points = np.asarray(list(compositions(mesh, num_actions)), dtype=float) / mesh
        self.kernels = np.asarray(
            [
                [row_points[i] for i in combo]
                for combo in product(range(rows), repeat=num_states)
            ]
        )

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
    order = np.argsort(-frac, kind="stable")
    for i in order[:short]:
        base[i] += 1
    return tuple(int(c) for c in base)
