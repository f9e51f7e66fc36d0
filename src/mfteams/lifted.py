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
from dataclasses import dataclass

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


def multinomial_pmf_table(law, trials):
    """Exact multinomial pmf over count vectors for `trials` draws from `law`.

    Returns a dict mapping count tuples to probabilities; outcomes needing
    a zero-probability category are omitted.  A term whose multinomial
    coefficient exceeds the float range is computed in log space.
    """
    law = np.clip(np.asarray(law, dtype=float), 0.0, None)
    k = law.size
    out = {}
    for counts in compositions(trials, k):
        coef = math.factorial(trials)
        prob = 1.0
        feasible = True
        for c, q in zip(counts, law):
            if c == 0:
                continue
            if q == 0.0:
                feasible = False
                break
            coef //= math.factorial(c)
            prob *= q**c
        if not feasible:
            continue
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
    cells = [
        (tens[x, u], c)
        for x, row in enumerate(theta.counts)
        for u, c in enumerate(row)
        if c > 0
    ]
    return multinomial_count_distribution(cells, cap=cap)


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
    """The lifted MDP: enumerated measures, per-measure joint actions,
    stage costs, and exact transition rows."""

    def __init__(self, model, population, cap=DEFAULT_ENUMERATION_CAP):
        self.model = model
        self.population = population
        self.states = enumerate_empirical(population, model.num_states, cap=cap)
        self.index = {s.counts: i for i, s in enumerate(self.states)}
        self.actions = []
        self.stage_costs = []
        self.transitions = []
        for state in self.states:
            mu = state.as_distribution()
            acts = enumerate_joint_actions(state, model.num_actions, cap=cap)
            costs = np.empty(len(acts))
            rows = []
            for a, theta in enumerate(acts):
                costs[a] = model.running_cost_tilde(theta.as_distribution(), mu)
                dist = eta_kernel(model, state, theta, cap=cap)
                idx = np.fromiter(
                    (self.index[c] for c in dist), dtype=np.int64, count=len(dist)
                )
                probs = np.fromiter(dist.values(), dtype=float, count=len(dist))
                rows.append((idx, probs))
            self.actions.append(acts)
            self.stage_costs.append(costs)
            self.transitions.append(rows)

    def __len__(self):
        return len(self.states)


def build_measure_mdp(model, population, cap=DEFAULT_ENUMERATION_CAP):
    return MeasureMDP(model, population, cap=cap)


def _sweep(stage_costs, transitions, values, beta):
    """One Bellman backup; returns (new values, argmin action per state).

    Ties go to the smallest action ordinal.
    """
    n = len(stage_costs)
    out = np.empty(n)
    act = np.empty(n, dtype=np.int64)
    for i in range(n):
        q = stage_costs[i].copy()
        if beta != 0.0:
            rows = transitions[i]
            for a in range(q.size):
                idx, probs = rows[a]
                q[a] += beta * float(probs @ values[idx])
        act[i] = int(q.argmin())
        out[i] = q[act[i]]
    return out, act


def bellman_backup(mdp, values, beta=None):
    b = _resolve_beta(mdp.model, beta, allow_one=True)
    return _sweep(mdp.stage_costs, mdp.transitions, np.asarray(values, dtype=float), b)


def value_iteration_finite(mdp, steps, beta=None):
    """Backward recursion over `steps` stages.

    Returns (list of ValueTable indexed by stage, MeasurePolicy).  The last
    stage minimizes the stage cost alone.
    """
    b = _resolve_beta(mdp.model, beta, allow_one=True)
    values = [None] * steps
    actions = [None] * steps
    nxt = np.zeros(len(mdp.states))
    for t in range(steps - 1, -1, -1):
        nxt, act = _sweep(mdp.stage_costs, mdp.transitions, nxt, b if t < steps - 1 else 0.0)
        values[t] = ValueTable(nxt, t)
        actions[t] = act
    return values, MeasurePolicy(tuple(actions), stationary=False)


def value_iteration_discounted(mdp, beta=None, epsilon=1e-8):
    """Successive approximation from zero until the sup-norm update is at
    most epsilon*(1-beta)/(2*beta), so the returned table is within
    epsilon/2 of the fixed point and the greedy policy is epsilon-optimal.
    """
    b = _resolve_beta(mdp.model, beta, allow_one=False)
    threshold = epsilon * (1.0 - b) / (2.0 * b)
    values = np.zeros(len(mdp.states))
    for _ in range(_MAX_SWEEPS):
        new, act = _sweep(mdp.stage_costs, mdp.transitions, values, b)
        gap = float(np.abs(new - values).max())
        values = new
        if gap <= threshold:
            return ValueTable(values, "stationary"), MeasurePolicy((act,), stationary=True)
    raise RuntimeError("value iteration failed to converge")


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


def _kernel_stage_data(model, states, rows_fn):
    """Per-measure stage cost and transition row under per-state action
    rows supplied by rows_fn(state)."""
    n = len(states)
    pop = states[0].population
    costs = np.empty(n)
    trans = []
    index = {s.counts: i for i, s in enumerate(states)}
    for i, state in enumerate(states):
        mu = state.as_distribution()
        rows = rows_fn(state)
        tens = model.kernel_tensor_at(mu)
        cmat = model.cost_matrix_at(mu)
        cost = 0.0
        cells = []
        for x, c in enumerate(state.counts):
            if c == 0:
                continue
            cost += (c / pop) * float(rows[x] @ cmat[x])
            cells.append((rows[x] @ tens[x], c))
        costs[i] = cost
        dist = multinomial_count_distribution(cells)
        idx = np.fromiter((index[k] for k in dist), dtype=np.int64, count=len(dist))
        probs = np.fromiter(dist.values(), dtype=float, count=len(dist))
        trans.append((idx, probs))
    return costs, trans


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

    All agents draw actions independently from the chosen kernel, so the
    expected stage cost mixes the kernel into the running cost and the
    transition mixes it into each occupied state's law.
    """
    states = enumerate_empirical(population, model.num_states, cap=cap)
    kernels = policies.kernels
    n = len(states)
    costs = np.empty((n, len(kernels)))
    trans = [[] for _ in range(n)]
    for p in range(len(kernels)):
        c_p, t_p = _kernel_stage_data(model, states, lambda s, p=p: kernels[p])
        costs[:, p] = c_p
        for i in range(n):
            trans[i].append(t_p[i])
    cost_rows = [costs[i] for i in range(n)]
    if isinstance(horizon, FiniteHorizon):
        b = _resolve_beta(model, horizon.beta, allow_one=True)
        values = [None] * horizon.steps
        choices = [None] * horizon.steps
        nxt = np.zeros(n)
        for t in range(horizon.steps - 1, -1, -1):
            nxt, act = _sweep(cost_rows, trans, nxt, b if t < horizon.steps - 1 else 0.0)
            values[t] = nxt
            choices[t] = act
        return SymmetricSolution(
            population, tuple(states), policies, tuple(values), tuple(choices), False
        )
    if isinstance(horizon, DiscountedHorizon):
        b = _resolve_beta(model, horizon.beta, allow_one=False)
        threshold = horizon.epsilon * (1.0 - b) / (2.0 * b)
        values = np.zeros(n)
        for _ in range(_MAX_SWEEPS):
            new, act = _sweep(cost_rows, trans, values, b)
            gap = float(np.abs(new - values).max())
            values = new
            if gap <= threshold:
                return SymmetricSolution(
                    population, tuple(states), policies, (values,), (act,), True
                )
        raise RuntimeError("restricted value iteration failed to converge")
    raise TypeError(f"unsupported horizon {horizon!r}")


def evaluate_symmetric_policy_exact(model, population, pi, horizon,
                                    cap=DEFAULT_ENUMERATION_CAP):
    """Exact expected cost of fixed shared kernels on the measure chain.

    `pi` is a PolicyKernel or, for finite horizons, a sequence with one
    kernel per stage.  Kernels are looked up at the grid point nearest the
    current measure.  Returns values over the empirical-measure
    enumeration; no Monte Carlo is involved (the discounted case solves
    the policy's linear system directly).
    """
    states = enumerate_empirical(population, model.num_states, cap=cap)
    cache = {}

    def data_for(kernel):
        key = id(kernel)
        if key not in cache:
            cache[key] = _kernel_stage_data(
                model, states, lambda s: kernel.rows_for(s.as_distribution())
            )
        return cache[key]

    if isinstance(horizon, FiniteHorizon):
        b = _resolve_beta(model, horizon.beta, allow_one=True)
        kernels = (
            list(pi) if isinstance(pi, (list, tuple)) else [pi] * horizon.steps
        )
        if len(kernels) != horizon.steps:
            raise ValueError(
                f"got {len(kernels)} kernels for {horizon.steps} stages"
            )
        values = np.zeros(len(states))
        for t in range(horizon.steps - 1, -1, -1):
            costs, trans = data_for(kernels[t])
            new = costs.copy()
            if t < horizon.steps - 1:
                for i in range(len(states)):
                    idx, probs = trans[i]
                    new[i] += b * float(probs @ values[idx])
            values = new
        return values
    if isinstance(horizon, DiscountedHorizon):
        if isinstance(pi, (list, tuple)):
            if len(pi) != 1:
                raise ValueError("discounted evaluation takes a single kernel")
            pi = pi[0]
        b = _resolve_beta(model, horizon.beta, allow_one=False)
        costs, trans = data_for(pi)
        n = len(states)
        P = np.zeros((n, n))
        for i in range(n):
            idx, probs = trans[i]
            P[i, idx] = probs
        return np.linalg.solve(np.eye(n) - b * P, costs)
    raise TypeError(f"unsupported horizon {horizon!r}")
