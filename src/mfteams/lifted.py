"""Exact measure-valued MDP for an N-agent team.

The lifted state is the empirical measure of agent states (a count
vector), the lifted action is a joint state-action count matrix with the
right state marginal.  Conditional on the current counts and a joint
action, agents transition independently, so the next-measure law is the
convolution of one multinomial per occupied (state, action) cell.  That
law depends on the joint action only through its counts, never through
which agent sits where, which is what makes the lift well defined.

The rows are built as arrays, not dictionaries.  The agents of one state
contribute one factor per action split of that state: the law of their
next counts, a dense vector over the compositions of their number,
indexed by rank (`rank_compositions`).  A joint action's row is the
convolution of its states' factors, computed for all joint actions of a
measure at once with a (rank a, rank b) -> rank(a + b) table and one
weighted np.bincount per state.  `multinomial_pmf_table`,
`multinomial_count_distribution` and `eta_kernel` compute the same laws
as dictionaries and stay as the reference the tests compare against.

Also provides the symmetric-kernel-restricted problem on the same state
space: agents share one per-state action kernel chosen per current
measure, drawn independently.  `solve` solves the lifted, restricted and
limit problems alike and returns one `Solution` record.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .measures import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    Ordinals,
    SimplexGrid,
    _check_cap,
    compositions,
    enumerate_empirical,
    enumerate_joint_actions,
    num_compositions,
    rank_compositions,
    simplex_grid,
)
from .model import (
    SIMPLEX_TOL,
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


def _horizon(model, horizon, states=0, cap=None):
    """(beta, steps) of `horizon`, steps None for a discounted one.

    A finite horizon whose value table over `states` states would hold more
    than `cap` entries is refused before anything is built per stage.
    """
    if isinstance(horizon, DiscountedHorizon):
        return _resolve_beta(model, horizon.beta, allow_one=False), None
    if not isinstance(horizon, FiniteHorizon):
        raise TypeError(f"unsupported horizon {horizon!r}")
    steps = horizon.steps
    _check_cap(f"value table over a {steps}-stage horizon", steps * states, cap)
    return _resolve_beta(model, horizon.beta, allow_one=True), steps


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


def _pack(blocks, bound):
    """_SparseMDP from the (pair costs, dense rows) block of every state, in
    state order; a block's rows are its pairs' next-state laws over the
    state ordinals, and an entry is in the support when it is > 0.

    The nonzeros go straight into flat arrays of `bound` entries, an upper
    bound on their number; pages past the last nonzero are never written.
    """
    idx, prob = np.empty(bound, dtype=np.int64), np.empty(bound)
    costs, row_nnz, end = [], [], 0
    for cost, rows in blocks:
        pair, succ = np.nonzero(rows > 0.0)
        idx[end : end + pair.size] = succ
        prob[end : end + pair.size] = rows[pair, succ]
        end += pair.size
        costs.append(cost)
        row_nnz.append(np.bincount(pair, minlength=len(rows)))
    num_actions = [len(c) for c in costs]
    nnz = np.concatenate(row_nnz)
    return _SparseMDP(
        np.concatenate(costs),
        np.cumsum([0, *num_actions[:-1]]),
        np.cumsum(nnz) - nnz,
        idx[:end],
        prob[:end],
    )


def _multinomial_coefficients(n, parts):
    """Exact multinomial coefficient of every composition of n into
    `parts`, in the order of `compositions`: C(n, first) times those of
    the rest, which sums to j = n - first."""
    if parts == 1:
        return [1]
    heads = [1]  # C(n, j) for j = 0, ..., n
    for j in range(n):
        heads.append(heads[-1] * (n - j) // (j + 1))
    if parts == 2:
        return heads
    out = []
    for j, head in enumerate(heads):
        out += [head * rest for rest in _multinomial_coefficients(j, parts - 1)]
    return out


class _Convolver:
    """Dense laws of count vectors over `parts` coordinates.

    A law of count vectors with total n is an array over compositions(n,
    parts), indexed by rank.  The rank table of (a, b) holds the rank of
    the sum of every pair of compositions of a and of b, so the law of a
    sum of independent count vectors is one weighted np.bincount over it.
    """

    def __init__(self, parts):
        self.parts = parts
        self._comps, self._coefs, self._tables = {}, {}, {}

    def comps(self, n):
        if n not in self._comps:
            self._comps[n] = np.array(list(compositions(n, self.parts)), dtype=np.int64)
        return self._comps[n]

    def multinomial(self, laws, n):
        """Multinomial(n, law) over compositions(n, parts) for every row of
        the (L, parts) array `laws`, as an (L, K) array, each entry computed
        as multinomial_pmf_table computes it: the exact coefficient times
        the product of powers, or in log space when the coefficient exceeds
        the float range."""
        c = self.comps(n)
        if n not in self._coefs:
            exact = _multinomial_coefficients(n, self.parts)
            big = np.array([v > _FLOAT_MAX for v in exact])
            self._coefs[n] = (np.array([0.0 if b else float(v) for v, b in zip(exact, big)]),
                              np.array([math.log(v) for v in exact]) if big.any() else None,
                              big)
        coef, log_coef, big = self._coefs[n]
        laws = np.clip(np.asarray(laws, dtype=float), 0.0, None)[:, None, :]
        powers = laws**c  # 0.0**k is 0 for k > 0: a zero-probability category gets 0
        prob = powers[..., 0]
        for j in range(1, self.parts):
            prob = prob * powers[..., j]
        out = coef * prob
        if big.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(c > 0, c * np.log(laws), 0.0)  # 0 * log 0 counts as 0
            log_prob = terms[..., 0]
            for j in range(1, self.parts):
                log_prob = log_prob + terms[..., j]
            out[:, big] = np.exp(log_coef[big] + log_prob[:, big])
        return out

    def convolve(self, f, a, g, b):
        """Law of the sum of independent count vectors of totals a and b
        with laws f[..., :] and g[..., :], for the leading axes of f and g
        broadcast against each other; a law over compositions(a + b)."""
        if (a, b) not in self._tables:
            sums = self.comps(a)[:, None, :] + self.comps(b)[None, :, :]
            self._tables[a, b] = rank_compositions(sums)
        w = f[..., :, None] * g[..., None, :]
        lead = w.shape[:-2]
        size = num_compositions(a + b, self.parts)
        offset = size * np.arange(math.prod(lead)).reshape(lead + (1, 1))
        out = np.bincount((self._tables[a, b] + offset).ravel(), w.ravel(),
                          minlength=offset.size * size)
        return out.reshape(lead + (size,))


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


@dataclass(frozen=True)
class Solution:
    """A solved Markov policy over the measures of `problem`: the values
    and the chosen action ordinal of every state, one table per stage, or
    one table for every stage when stationary.

    The actions are the joint actions of a MeasureMDP, and the kernels of
    the policy set of a RestrictedMDP or an MkvMDP.
    """

    problem: object
    values: tuple
    choices: tuple
    stationary: bool

    @property
    def states(self):
        return self.problem.states


def solve(problem, horizon, cap=DEFAULT_ENUMERATION_CAP):
    """Solve `problem` under `horizon`: backward recursion over its steps,
    or value iteration when discounted.  `problem` is a MeasureMDP, a
    RestrictedMDP or an MkvMDP: it has a `model` and a flat `sparse` MDP.
    """
    mdp = problem.sparse
    beta, steps = _horizon(problem.model, horizon, mdp.act_off.size, cap)
    if steps is None:
        values, actions = _solve_discounted(mdp, beta, horizon.epsilon)
        return Solution(problem, (values,), (actions,), True)
    values, actions = _solve_finite([mdp] * steps, beta)
    return Solution(problem, tuple(values), tuple(actions), False)


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
    cells = [(tens[x, u], c) for x, row in enumerate(theta.counts) for u, c in enumerate(row) if c]
    return multinomial_count_distribution(cells, cap=cap)


class MeasureMDP:
    """The lifted MDP: enumerated measures, per-measure joint actions, and
    the stage cost and exact transition row of every (measure, joint
    action) pair, stored flat in `sparse` when first asked for.

    Every joint action is a composition of the population over the X*U
    cells, so the rows hold at most num_compositions(N, X*U) times the
    number of measures entries; that count is held to the cap before any
    joint action is enumerated.
    """

    def __init__(self, model, population, cap=DEFAULT_ENUMERATION_CAP):
        self.model = model
        self.population = population
        self.states = enumerate_empirical(population, model.num_states, cap=cap)
        X, U = model.num_states, model.num_actions
        self.max_entries = num_compositions(population, X * U) * len(self.states)
        _check_cap("lifted transition rows", self.max_entries, cap)
        self.index = Ordinals(population, X)
        self.actions = [enumerate_joint_actions(s, U, cap=cap) for s in self.states]

    @cached_property
    def sparse(self):
        """The flat MDP, built when a solver first asks for it.  Joint
        actions are enumerated per measure, so marginals hold."""
        X, U = self.model.num_states, self.model.num_actions
        conv = _Convolver(X)
        splits = [np.array(list(compositions(n, U)), dtype=np.int64)
                  for n in range(self.population + 1)]
        mus = np.array([s.as_distribution() for s in self.states])
        blocks = (
            _lifted_rows(conv, splits, s.counts, tens, cmat)
            for s, tens, cmat in zip(
                self.states, self.model.kernel_tensor_at(mus), self.model.cost_matrix_at(mus))
        )
        return _pack(blocks, self.max_entries)

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


def _lifted_rows(conv, splits, counts, tens, cmat):
    """(stage costs, dense next-measure rows) of every joint action at the
    measure `counts`, in the order of enumerate_joint_actions; splits[n]
    lists the action splits of n agents.

    The agents of a state move independently of the others, so each
    state's split has one factor, the law of those agents' next counts,
    and a joint action's row is the convolution of its states' factors.
    """
    per_state = [splits[n] for n in counts]
    pick = np.indices([len(s) for s in per_state]).reshape(len(counts), -1)
    theta = np.stack([s[p] for s, p in zip(per_state, pick)], axis=1)  # (A, X, U)
    cost = (cmat * (theta / sum(counts))).reshape(len(theta), -1).sum(axis=1)
    rows, total = np.ones((1, 1)), 0
    for x, n in enumerate(counts):
        if n:
            factors = _split_factors(conv, tens[x], splits[n], n)
            rows = conv.convolve(rows[:, None], total, factors[None], n)
            rows = rows.reshape(-1, rows.shape[-1])
            total += n
    return cost, rows


def _split_factors(conv, laws, splits, n):
    """Law of the next counts of n agents in one state, over
    compositions(n, X), for each row of `splits`: the convolution over
    actions u of Multinomial(split[u], laws[u])."""
    pmfs = [conv.multinomial(laws, m) for m in range(n + 1)]  # pmfs[m][u]
    out = np.empty((len(splits), len(pmfs[n][0])))
    for i, split in enumerate(splits.tolist()):
        f, total = pmfs[0][0], 0
        for u, m in enumerate(split):
            if m:
                f = conv.convolve(f, total, pmfs[m][u], m)
                total += m
        out[i] = f
    return out


def bellman_backup(mdp, values, beta=None):
    """One Bellman backup; returns (new values, argmin action per state).

    Ties go to the smallest action ordinal.
    """
    b = _resolve_beta(mdp.model, beta, allow_one=True)
    q, best = _backup(mdp.sparse, np.asarray(values, dtype=float), b)
    return best, _greedy(mdp.sparse, q, best)


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
        # one pass over every row; the first bad row in C order names the fault
        with np.errstate(invalid="ignore"):
            bad = (~np.isfinite(table).all(axis=2)
                   | (table.min(axis=2, initial=np.inf) < -SIMPLEX_TOL)
                   | (np.abs(table.sum(axis=2) - 1.0) > SIMPLEX_TOL))
        if bad.any():
            g, x = (int(i) for i in np.argwhere(bad)[0])
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


def policy_kernels(sol):
    """The kernels a RestrictedMDP or MkvMDP solution chooses, in the
    convention of _per_stage: one PolicyKernel when stationary, one kernel
    per stage otherwise."""
    problem = sol.problem
    if isinstance(problem, MeasureMDP):
        raise TypeError("a lifted solution chooses joint actions, not shared kernels")
    kernels = [PolicyKernel(problem.state_grid, problem.policy_set.kernels[c])
               for c in sol.choices]
    return kernels[0] if sol.stationary else kernels


def _per_stage(pi, steps):
    """The kernel of each of `steps` stages; steps=None, for a discounted
    horizon, gives the one kernel in a list.

    A bare PolicyKernel serves every stage.  A sequence must give exactly
    one kernel per stage, and exactly one kernel for a discounted horizon.
    A kernel-choosing Solution gives its policy_kernels.
    """
    what = "kernels"
    if isinstance(pi, Solution):
        pi, what = policy_kernels(pi), "policy tables"
    if isinstance(pi, PolicyKernel):
        return [pi] * (1 if steps is None else steps)
    kernels = list(pi) if isinstance(pi, (list, tuple)) else [pi]
    if not all(isinstance(k, PolicyKernel) for k in kernels):
        raise TypeError(f"expected shared kernels, got {pi!r}")
    return _stage_tables(kernels, False, steps, what)


def _stage_tables(tables, stationary, steps, what="policy tables"):
    """The table of each of `steps` stages (one for steps=None): a
    stationary policy's one table serves every stage, and otherwise there
    must be exactly one table per stage."""
    n = 1 if steps is None else steps
    if stationary:
        return [tables[0]] * n
    if len(tables) != n:
        stages = "a discounted horizon" if steps is None else f"{steps} stages"
        raise ValueError(f"got {len(tables)} {what} for {stages}")
    return list(tables)


def _kernel_stage_data(model, states, kernels_fn, cap=DEFAULT_ENUMERATION_CAP):
    """_SparseMDP over `states` whose actions at a state are the shared
    kernels kernels_fn(state), each an (X, U) array of action rows.

    All agents draw actions independently from the kernel, so the expected
    stage cost mixes the kernel into the running cost, and each occupied
    state's factor is one multinomial of the mixed law k[x] @ T[x]; a
    kernel's row is the convolution of those factors.  The rows hold at
    most pairs times measures entries, which is held to the cap.
    """
    pop = states[0].population
    kernels = [np.asarray(kernels_fn(state), dtype=float) for state in states]
    bound = sum(map(len, kernels)) * len(states)
    _check_cap("shared-kernel transition rows", bound, cap)
    mus = np.array([state.as_distribution() for state in states])

    def blocks():
        for state, tens, cmat, ks in zip(
                states, model.kernel_tensor_at(mus), model.cost_matrix_at(mus), kernels):
            # the rank tables of one measure's totals serve no other measure
            conv = _Convolver(model.num_states)
            cost, rows, total = 0, np.ones((len(ks), 1)), 0
            for x, n in enumerate(state.counts):
                if n:
                    cost = cost + (n / pop) * (ks[:, x] @ cmat[x])
                    rows = conv.convolve(rows, total, conv.multinomial(ks[:, x] @ tens[x], n), n)
                    total += n
            yield cost, rows

    return _pack(blocks(), bound)


@dataclass(frozen=True)
class RestrictedMDP:
    """The symmetric-restricted problem: the shared kernels of `policy_set`
    are the actions of every N-agent measure of `states`.  `state_grid` is
    simplex_grid(N, X), whose points are exactly those measures in the same
    order, so a chosen kernel is looked up at its own measure."""

    model: object
    states: tuple
    state_grid: SimplexGrid
    policy_set: object
    sparse: _SparseMDP


def solve_symmetric_restricted(model, population, horizon, policies,
                               cap=DEFAULT_ENUMERATION_CAP):
    """Optimize over shared per-state kernels chosen per current measure.

    The kernels of `policies` are the actions of every measure.
    """
    states = enumerate_empirical(population, model.num_states, cap=cap)
    problem = RestrictedMDP(
        model, tuple(states), simplex_grid(population, model.num_states, cap=cap), policies,
        _kernel_stage_data(model, states, lambda s: policies.kernels, cap))
    return solve(problem, horizon, cap)


def evaluate_symmetric_policy_exact(model, population, pi, horizon,
                                    cap=DEFAULT_ENUMERATION_CAP):
    """Exact expected cost of fixed shared kernels on the measure chain.

    `pi` is a PolicyKernel, a sequence of them or a kernel-choosing
    Solution, mapped to stages by _per_stage.  Kernels are looked up at the grid point nearest the
    current measure.  Returns values over the empirical-measure
    enumeration; no Monte Carlo is involved (the discounted case solves
    the policy's linear system directly).
    """
    states = enumerate_empirical(population, model.num_states, cap=cap)
    beta, steps = _horizon(model, horizon, len(states), cap)
    kernels = _per_stage(pi, steps)
    data = {}  # one _SparseMDP per distinct kernel object
    for k in kernels:
        if id(k) not in data:
            data[id(k)] = _kernel_stage_data(
                model, states, lambda s, k=k: [k.rows_for(s.as_distribution())], cap
            )
    stages = [data[id(k)] for k in kernels]
    if steps is None:
        return _evaluate_discounted(stages[0], beta)
    values, _ = _solve_finite(stages, beta)
    return values[0]
