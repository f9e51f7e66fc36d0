"""Exact measure-valued MDP for an N-agent team.

The lifted state is the empirical measure of agent states (a count
vector), the lifted action is a joint state-action count matrix with the
right state marginal.  Conditional on the current counts and a joint
action, agents transition independently, so the next-measure law is the
convolution of one multinomial per occupied (state, action) cell.  That
law depends on the joint action only through its counts, never through
which agent sits where, which is what makes the lift well defined.

Also provides the symmetric-kernel-restricted problem on the same state
space: agents share one per-state action kernel chosen per current
measure, drawn independently.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .measures import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    SimplexGrid,
    compositions,
    enumerate_empirical,
    enumerate_joint_actions,
)
from .model import (
    DiscountedHorizon,
    FiniteHorizon,
    MarginalMismatchError,
    as_simplex,
)

_MAX_SWEEPS = 1_000_000
_FLOAT_MAX = sys.float_info.max


def _resolve_beta(model, beta, allow_one):
    b = model.discount if beta is None else float(beta)
    if allow_one:
        if not (0.0 < b <= 1.0):
            raise ValueError(f"finite-horizon discount must lie in (0, 1], got {b}")
    else:
        if not (0.0 < b < 1.0):
            raise ValueError(f"discounted solves need a discount in (0, 1), got {b}")
    return b


class ConvergenceError(RuntimeError):
    """Discounted value iteration reached its sweep limit before the update
    fell to the stopping threshold."""


class _SparseMDP(NamedTuple):
    """A finite MDP in one flat layout.

    (state, action) pairs are numbered state-major: state i owns the pairs
    act_off[i] up to act_off[i + 1], and a pair's offset from act_off[i] is
    its action ordinal.  Pair a's transition row is idx and prob over
    row_off[a] up to row_off[a + 1]; no row is empty.
    """

    cost: np.ndarray
    act_off: np.ndarray
    row_off: np.ndarray
    idx: np.ndarray
    prob: np.ndarray


def _pack(states, num_actions, pairs):
    """_SparseMDP over `states` from the (stage cost, next-measure law) of
    every pair, listed state-major with num_actions[i] pairs for state i; a
    law is a dict over count tuples."""
    index = {s.counts: i for i, s in enumerate(states)}
    costs, nnz = [], []
    idx, prob = array("q"), array("d")
    for cost, law in pairs:
        costs.append(cost)
        nnz.append(len(law))
        idx.extend(index[c] for c in law)
        prob.extend(law.values())
    return _SparseMDP(
        np.array(costs, dtype=float),
        np.cumsum([0, *num_actions[:-1]]),
        np.cumsum([0, *nnz[:-1]]),
        np.frombuffer(idx, dtype=np.int64),
        np.frombuffer(prob, dtype=float),
    )


def _backup(mdp, values, beta):
    """One Bellman backup: (Q-value of every pair, minimum per state).

    values=None backs up the stage cost alone, as at a last stage.
    """
    q = mdp.cost
    if values is not None:
        q = q + beta * np.add.reduceat(mdp.prob * values[mdp.idx], mdp.row_off)
    return q, np.minimum.reduceat(q, mdp.act_off)


def _greedy(mdp, q, best):
    """Action ordinal attaining `best` per state; ties go to the smallest."""
    # every state has a pair attaining its minimum; take the first
    ties = np.flatnonzero(q == np.repeat(best, np.diff(mdp.act_off, append=q.size)))
    return ties[np.searchsorted(ties, mdp.act_off)] - mdp.act_off


def _solve_finite(stages, beta):
    """Backward recursion over one _SparseMDP per stage, all on the same
    states; the last stage minimizes its stage cost alone.

    Returns (values, actions), one array per stage.
    """
    values, actions = [None] * (len(stages) + 1), [None] * len(stages)
    for t in reversed(range(len(stages))):
        q, values[t] = _backup(stages[t], values[t + 1], beta)
        actions[t] = _greedy(stages[t], q, values[t])
    return values[:-1], actions


def _solve_discounted(mdp, beta, epsilon):
    """Successive approximation from zero until the sup-norm update is at
    most epsilon*(1-beta)/(2*beta), so the returned values are within
    epsilon/2 of the fixed point and the greedy actions are epsilon-optimal.

    Returns (values, actions); raises ConvergenceError when _MAX_SWEEPS
    sweeps do not suffice, before the first if _hopeless shows they cannot.
    """
    threshold = epsilon * (1.0 - beta) / (2.0 * beta)
    values = np.zeros(mdp.act_off.size)
    for _ in range(0 if _hopeless(mdp, beta, threshold) else _MAX_SWEEPS):
        q, new = _backup(mdp, values, beta)
        gap = float(np.abs(new - values).max())
        values = new
        if gap <= threshold:
            return values, _greedy(mdp, q, values)
    raise ConvergenceError(
        f"value iteration needs more than {_MAX_SWEEPS} sweeps "
        f"(beta={beta}, epsilon={epsilon})"
    )


def _hopeless(mdp, beta, threshold):
    """Whether value iteration from zero provably cannot reach `threshold`
    in _MAX_SWEEPS sweeps: with every pair cost >= m > 0, the update after
    sweep j is at least beta**(j - 1) * m, less at most eps * (longest row
    + 2) * max cost * n**2 of rounding, n = min(sweeps, 1 / (1 - beta))."""
    m, n = float(mdp.cost.min()), min(_MAX_SWEEPS, 1.0 / (1.0 - beta))
    row = int(np.diff(mdp.row_off, append=mdp.idx.size).max())
    slack = np.finfo(float).eps * (row + 2) * float(mdp.cost.max()) * n * n
    # the factor 2 also covers row masses off 1 by the 1e-12 tolerance
    return m > 0.0 and m * beta ** (_MAX_SWEEPS - 1) > 2.0 * (threshold + slack)


def _evaluate_discounted(mdp, beta):
    """Exact discounted values of a _SparseMDP with one action per state,
    from the linear system (I - beta P) v = cost."""
    n = mdp.act_off.size
    rows = np.repeat(np.arange(n), np.diff(mdp.row_off, append=mdp.idx.size))
    P = np.zeros((n, n))
    P[rows, mdp.idx] = mdp.prob
    return np.linalg.solve(np.eye(n) - beta * P, mdp.cost)


def multinomial_pmf_table(law, trials):
    """Exact multinomial pmf over count vectors for `trials` draws from `law`.

    Returns a dict mapping count tuples to probabilities; outcomes needing
    a zero-probability category are omitted.  A term whose multinomial
    coefficient exceeds the float range is computed in log space.
    """
    law = np.clip(np.asarray(law, dtype=float), 0.0, None)
    k = law.size
    factorial = [math.factorial(i) for i in range(trials + 1)]
    out = {}
    for counts in compositions(trials, k):
        if any(c and q == 0.0 for c, q in zip(counts, law)):
            continue
        coef = factorial[trials]
        prob = 1.0
        for c, q in zip(counts, law):
            if c:
                coef //= factorial[c]
                prob *= q**c
        if coef <= _FLOAT_MAX:
            out[counts] = coef * prob
        else:
            log_prob = sum(c * math.log(q) for c, q in zip(counts, law) if c)
            out[counts] = math.exp(math.log(coef) + log_prob)
    return out


def multinomial_count_distribution(cells, cap=DEFAULT_ENUMERATION_CAP):
    """Distribution of summed counts for independent cells.

    Each cell is a (law, multiplicity) pair: `multiplicity` independent
    draws from `law`.  The result is the convolution of the per-cell
    multinomial count distributions, as a dict over count tuples.
    """
    if not cells:
        raise ValueError("need at least one cell")
    k = len(np.asarray(cells[0][0]))
    dist = {(0,) * k: 1.0}
    for law, mult in cells:
        table = multinomial_pmf_table(law, mult)
        new = {}
        for base, bp in dist.items():
            for add, ap in table.items():
                key = tuple(b + a for b, a in zip(base, add))
                new[key] = new.get(key, 0.0) + bp * ap
        dist = new
        if cap is not None and len(dist) > cap:
            raise EnumerationCapError("count distribution support", len(dist), cap)
    return dist


def eta_kernel(model, mu, theta, cap=DEFAULT_ENUMERATION_CAP):
    """Law of the next empirical measure given counts `mu` and joint action
    `theta`, as a dict over count tuples."""
    if theta.state_marginal() != mu:
        raise MarginalMismatchError(
            f"joint action marginal {theta.state_marginal().counts} != {mu.counts}"
        )
    tens = model.kernel_tensor_at(mu.as_distribution())
    return multinomial_count_distribution(_cells(tens, theta), cap=cap)


def _cells(tens, theta):
    """(T[x, u], count) of every occupied cell (x, u) of the joint action theta."""
    return [(tens[x, u], c) for x, row in enumerate(theta.counts) for u, c in enumerate(row) if c]


@dataclass(frozen=True)
class ValueTable:
    """Values over the empirical-measure enumeration; stage is an int or
    "stationary"."""

    values: np.ndarray
    stage: object


@dataclass(frozen=True)
class MeasurePolicy:
    """Chosen action ordinal per measure ordinal, one table per stage."""

    tables: tuple
    stationary: bool

    def action_at(self, ordinal, stage=0):
        table = self.tables[0] if self.stationary else self.tables[stage]
        return int(table[ordinal])


class MeasureMDP:
    """The lifted MDP: enumerated measures, per-measure joint actions, and
    the stage cost and exact transition row of every (measure, joint
    action) pair, stored flat in `sparse`."""

    def __init__(self, model, population, cap=DEFAULT_ENUMERATION_CAP):
        self.model = model
        self.population = population
        self.states = enumerate_empirical(population, model.num_states, cap=cap)
        self.index = {s.counts: i for i, s in enumerate(self.states)}
        self.actions = [
            enumerate_joint_actions(s, model.num_actions, cap=cap) for s in self.states
        ]
        # Joint actions are enumerated per measure, so marginals hold.
        mus = np.array([s.as_distribution() for s in self.states])
        pairs = (
            (float((cmat * theta.as_distribution()).sum()),
             multinomial_count_distribution(_cells(tens, theta), cap=cap))
            for tens, cmat, acts in zip(
                model.kernel_tensor_at(mus), model.cost_matrix_at(mus), self.actions)
            for theta in acts
        )
        self.sparse = _pack(self.states, [len(acts) for acts in self.actions], pairs)

    @cached_property
    def transitions(self):
        """Per measure, the (successor ordinals, probabilities) row of each
        joint action, as views into `sparse`."""
        m = self.sparse
        rows = list(zip(np.split(m.idx, m.row_off[1:]), np.split(m.prob, m.row_off[1:])))
        return [rows[a : a + len(acts)] for a, acts in zip(m.act_off, self.actions)]

    def __len__(self):
        return len(self.states)


def build_measure_mdp(model, population, cap=DEFAULT_ENUMERATION_CAP):
    return MeasureMDP(model, population, cap=cap)


def bellman_backup(mdp, values, beta=None):
    """One Bellman backup; returns (new values, argmin action per state).

    Ties go to the smallest action ordinal.
    """
    b = _resolve_beta(mdp.model, beta, allow_one=True)
    q, best = _backup(mdp.sparse, np.asarray(values, dtype=float), b)
    return best, _greedy(mdp.sparse, q, best)


def value_iteration_finite(mdp, steps, beta=None):
    """Backward recursion over `steps` stages.

    Returns (list of ValueTable indexed by stage, MeasurePolicy).  The last
    stage minimizes the stage cost alone.
    """
    b = _resolve_beta(mdp.model, beta, allow_one=True)
    values, actions = _solve_finite([mdp.sparse] * steps, b)
    tables = [ValueTable(v, t) for t, v in enumerate(values)]
    return tables, MeasurePolicy(tuple(actions), stationary=False)


def value_iteration_discounted(mdp, beta=None, epsilon=1e-8):
    """Value iteration to an epsilon-optimal stationary policy; the
    returned table is within epsilon/2 of the fixed point."""
    b = _resolve_beta(mdp.model, beta, allow_one=False)
    values, act = _solve_discounted(mdp.sparse, b, epsilon)
    return ValueTable(values, "stationary"), MeasurePolicy((act,), stationary=True)


# ---- action realization ----


def realize_exchangeable_action(states, theta, rng):
    """Assign actions to agents so the joint empirical measure equals theta.

    Within each state the agents holding it are permuted uniformly at
    random and then filled action by action, which samples uniformly among
    all consistent assignments.  `rng` is a seed or a numpy Generator.
    """
    rng = np.random.default_rng(rng)
    states = np.asarray(states)
    n = states.size
    counts = np.bincount(states, minlength=len(theta.counts))
    if tuple(int(c) for c in counts) != theta.state_marginal().counts:
        raise MarginalMismatchError(
            f"state histogram {tuple(counts)} != joint action marginal "
            f"{theta.state_marginal().counts}"
        )
    out = np.empty(n, dtype=np.int64)
    for x, row in enumerate(theta.counts):
        holders = np.flatnonzero(states == x)
        if holders.size == 0:
            continue
        perm = rng.permutation(holders)
        pos = 0
        for u, c in enumerate(row):
            out[perm[pos : pos + c]] = u
            pos += c
    return out


def _group_assignments(row):
    """Distinct ordered action assignments for one state's agents."""
    total = sum(row)
    remaining = list(row)
    prefix = []

    def rec():
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for u, r in enumerate(remaining):
            if r:
                remaining[u] -= 1
                prefix.append(u)
                yield from rec()
                prefix.pop()
                remaining[u] += 1

    yield from rec()


def exact_action_distribution(states, theta, max_population=8):
    """Uniform distribution over all action vectors consistent with theta,
    as a dict from action tuples to probabilities.  Test-scale only."""
    states = np.asarray(states)
    n = states.size
    if n > max_population:
        raise ValueError(f"population {n} too large for exact enumeration")
    counts = np.bincount(states, minlength=len(theta.counts))
    if tuple(int(c) for c in counts) != theta.state_marginal().counts:
        raise MarginalMismatchError("state histogram does not match theta marginal")
    groups = []
    prob = 1.0
    for x, row in enumerate(theta.counts):
        holders = np.flatnonzero(states == x)
        if holders.size:
            assigns = list(_group_assignments(row))
            groups.append((holders, assigns))
            prob /= len(assigns)
    dist = {}

    def rec(g, current):
        if g == len(groups):
            dist[tuple(current)] = prob
            return
        holders, assigns = groups[g]
        for assign in assigns:
            for pos, u in zip(holders, assign):
                current[pos] = u
            rec(g + 1, current)

    rec(0, [0] * n)
    return dist


# ---- symmetric kernels ----


@dataclass(frozen=True)
class PolicyKernel:
    """Per-state action distributions indexed by a simplex grid over
    measures: table[g, x, :] is the action law at grid point g, state x."""

    grid: SimplexGrid
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 3 or table.shape[0] != len(self.grid):
            raise ValueError(
                f"table shape {table.shape} does not cover the {len(self.grid)}-point grid"
            )
        for g in range(table.shape[0]):
            for x in range(table.shape[1]):
                as_simplex(table[g, x], what=f"kernel row (grid {g}, state {x})")
        table = np.ascontiguousarray(table)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @classmethod
    def constant(cls, rows, grid):
        rows = np.asarray(rows, dtype=float)
        return cls(grid, np.broadcast_to(rows, (len(grid),) + rows.shape).copy())

    def rows_for(self, mu):
        """Action rows at the grid point nearest mu."""
        return self.table[self.grid.project(mu)]

    def rows_for_many(self, mus):
        """`rows_for` of every row of an (R, X) array, as an (R, X, U) array."""
        return self.table[self.grid.project_many(mus)]


def _kernel_stage_data(model, states, kernels_fn):
    """_SparseMDP over `states` whose actions at a state are the shared
    kernels kernels_fn(state), each an (X, U) array of action rows.

    All agents draw actions independently from the kernel, so the expected
    stage cost mixes the kernel into the running cost and the transition
    mixes it into each occupied state's law.
    """
    pop = states[0].population
    kernels = [kernels_fn(state) for state in states]
    mus = np.array([state.as_distribution() for state in states])

    def pairs():
        for state, tens, cmat, state_kernels in zip(
                states, model.kernel_tensor_at(mus), model.cost_matrix_at(mus), kernels):
            occupied = [(x, c) for x, c in enumerate(state.counts) if c > 0]
            for k in state_kernels:
                cost = sum((c / pop) * float(k[x] @ cmat[x]) for x, c in occupied)
                yield cost, multinomial_count_distribution([(k[x] @ tens[x], c) for x, c in occupied])

    return _pack(states, [len(k) for k in kernels], pairs())


@dataclass(frozen=True)
class SymmetricSolution:
    """Restricted-problem solve: per measure, the best kernel in the grid."""

    population: int
    states: tuple
    policy_set: object
    values: tuple
    choices: tuple
    stationary: bool

    def ordinal_of(self, counts):
        return self._index[tuple(counts)]

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {s.counts: i for i, s in enumerate(self.states)}
        )

    def kernel_rows_at(self, counts, stage=0):
        table = self.choices[0] if self.stationary else self.choices[stage]
        return self.policy_set.kernel(int(table[self.ordinal_of(counts)]))


def solve_symmetric_restricted(model, population, horizon, policies,
                               cap=DEFAULT_ENUMERATION_CAP):
    """Optimize over shared per-state kernels chosen per current measure.

    The kernels of `policies` are the actions of every measure.
    """
    if not isinstance(horizon, (FiniteHorizon, DiscountedHorizon)):
        raise TypeError(f"unsupported horizon {horizon!r}")
    states = enumerate_empirical(population, model.num_states, cap=cap)
    mdp = _kernel_stage_data(model, states, lambda s: policies.kernels)
    if isinstance(horizon, FiniteHorizon):
        b = _resolve_beta(model, horizon.beta, allow_one=True)
        values, choices = _solve_finite([mdp] * horizon.steps, b)
        return SymmetricSolution(
            population, tuple(states), policies, tuple(values), tuple(choices), False
        )
    b = _resolve_beta(model, horizon.beta, allow_one=False)
    values, choices = _solve_discounted(mdp, b, horizon.epsilon)
    return SymmetricSolution(population, tuple(states), policies, (values,), (choices,), True)


def evaluate_symmetric_policy_exact(model, population, pi, horizon,
                                    cap=DEFAULT_ENUMERATION_CAP):
    """Exact expected cost of fixed shared kernels on the measure chain.

    `pi` is a PolicyKernel or, for finite horizons, a sequence with one
    kernel per stage.  Kernels are looked up at the grid point nearest the
    current measure.  Returns values over the empirical-measure
    enumeration; no Monte Carlo is involved (the discounted case solves
    the policy's linear system directly).
    """
    if isinstance(horizon, FiniteHorizon):
        b = _resolve_beta(model, horizon.beta, allow_one=True)
        kernels = list(pi) if isinstance(pi, (list, tuple)) else [pi] * horizon.steps
        if len(kernels) != horizon.steps:
            raise ValueError(f"got {len(kernels)} kernels for {horizon.steps} stages")
    elif isinstance(horizon, DiscountedHorizon):
        b = _resolve_beta(model, horizon.beta, allow_one=False)
        kernels = list(pi) if isinstance(pi, (list, tuple)) else [pi]
        if len(kernels) != 1:
            raise ValueError("discounted evaluation takes a single kernel")
    else:
        raise TypeError(f"unsupported horizon {horizon!r}")
    states = enumerate_empirical(population, model.num_states, cap=cap)
    data = {}  # one _SparseMDP per distinct kernel object
    for k in kernels:
        if id(k) not in data:
            data[id(k)] = _kernel_stage_data(
                model, states, lambda s, k=k: [k.rows_for(s.as_distribution())]
            )
    stages = [data[id(k)] for k in kernels]
    if isinstance(horizon, DiscountedHorizon):
        return _evaluate_discounted(stages[0], b)
    values, _ = _solve_finite(stages, b)
    return values[0]
