"""Exact measure-valued MDP for an N-agent team.

The lifted state is the empirical measure of agent states (a count
vector), the lifted action is a joint state-action count matrix with the
right state marginal.  Conditional on the current counts and a joint
action, agents transition independently, so the next-measure law is the
convolution of one multinomial per occupied (state, action) cell.  That
law depends on the joint action only through its counts, never through
which agent sits where, which is what makes the lift well defined.

The rows are built as arrays, not dictionaries, and in batches, so the
work grows with the number of distinct agent counts rather than with the
number of measures and splits.  The joint actions are made in one pass:
the compositions of N over the X*U cells, grouped by their state
marginal.  The agents of one state contribute one
factor per action split of that state: the law of their next counts, a
dense vector over the compositions of their number, indexed by rank
(`rank_compositions`).  The model is evaluated once for all measures, and
one multinomial per number of draws covers every (measure, state, action)
law.  The factors come from a prefix recursion over the actions: the
splits of m agents over actions 0..u are those of m - k agents over
actions 0..u-1 and k draws of action u, so each (u, m, k) is one convolve
over every (measure, state) pair holding enough agents.  A joint
action's row is the convolution of its states' factors, computed for all
joint actions of a measure at once with a (rank a, rank b) -> rank(a + b)
table and one weighted np.bincount per state.  The rank is additive in
tail sums, so that table comes from two tail-sum vectors, and one
_Convolver per build keeps every composition table the build reads.
`multinomial_pmf_table`,
`multinomial_count_distribution` and `eta_kernel` compute the same laws
as dictionaries and stay as the reference the tests compare against.

Also provides the symmetric-kernel-restricted problem on the same state
space: agents share one per-state action kernel chosen per current
measure, drawn independently.  Every problem is built straight into the
operator its backups read, dense rows or, for the limit, one successor
per pair; `solve` solves them alike and returns one `Solution` record.  A
discounted solve is Howard policy iteration on every problem, each policy
evaluated by its operator's `policy_values`: one linear solve over dense
rows, pointer doubling along the limit's successors.  It ends once no
state switches action, or earlier once the Bellman residual is below
epsilon*(1-beta)/(2*beta), and raises ConvergenceError when _MAX_ROUNDS
rounds do neither.  In exact arithmetic, with no switch slack, its values
are within epsilon/2 of the optimum; otherwise they are also off by the
slack, at most slack/(1-beta), and by the rounding of the policy solve,
which can exceed epsilon/2 near beta = 1 (ROADMAP.md, item 1).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .measures import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    SimplexGrid,
    _add_rank_terms,
    _check_cap,
    composition_array,
    compositions,
    empirical_counts,
    enumerate_empirical,
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

_MAX_ROUNDS = 1_000_000  # policy evaluations of one discounted solve
_MAX_STEPS = 100_000  # longest rollout or flow, in steps
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
    """A discounted solve still switched actions after _MAX_ROUNDS policy
    evaluations, its Bellman residual above the stopping threshold."""


class _DenseMDP(NamedTuple):
    """A finite MDP in one flat layout, with its transition rows as one
    (pairs, states) array.

    (state, action) pairs are numbered state-major: state i owns the pairs
    act_off[i] up to act_off[i + 1], and a pair's offset from act_off[i] is
    its action ordinal.  Row a is pair a's next-state law over the state
    ordinals.  The lifted, restricted and exact-evaluation problems are
    built straight into this layout, and the cap bounds rows.size.
    """

    cost: np.ndarray
    act_off: np.ndarray
    rows: np.ndarray

    def expect(self, values):
        """Expected next value of every pair: one row-wise einsum.  Unlike
        `rows @ values`, which goes to BLAS, it sums identical rows to
        identical values, so exact duplicate actions still tie."""
        return np.einsum("as,s->a", self.rows, values)

    def policy_values(self, policy, beta):
        """Exact discounted values of the stationary policy that takes action
        ordinal policy[i] in state i: the solution of (I - beta P) v = c over
        its pairs' costs c and (states, states) rows P."""
        pairs = self.act_off + policy
        return np.linalg.solve(np.eye(pairs.size) - beta * self.rows[pairs], self.cost[pairs])

    @property
    def longest_row(self):
        return self.rows.shape[1]


class _SuccessorMDP(NamedTuple):
    """A finite MDP in the pair layout of _DenseMDP whose every pair moves
    to one successor ordinal with probability 1, as in the quantized limit:
    a backup gathers the successors' values, one word per pair."""

    cost: np.ndarray
    act_off: np.ndarray
    successor: np.ndarray
    longest_row = 1

    def expect(self, values):
        return values[self.successor]

    def policy_values(self, policy, beta):
        """Exact discounted values of the stationary policy that takes action
        ordinal policy[i] in state i, v(i) = sum_k beta**k c(s^k(i)) along
        its successors s, by pointer doubling in O(states) memory: after r
        rounds acc sums the first 2**r terms, jump is s^(2**r) and scale is
        beta**(2**r), and the rounds stop once scale underflows to 0 (14
        rounds at beta = 0.95, about 64 at most for any beta < 1)."""
        pairs = self.act_off + policy
        acc, jump, scale = self.cost[pairs], self.successor[pairs], beta
        while scale:
            acc = acc + scale * acc[jump]
            jump, scale = jump[jump], scale * scale
        return acc


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
    """Dense laws of count vectors over `parts` coordinates, and the
    size-only tables of one build.

    A law of count vectors with total n is an array over compositions(n,
    parts), indexed by rank.  The rank table of (a, b) holds the rank of
    the sum of every pair of compositions of a and of b, so the law of a
    sum of independent count vectors is one weighted np.bincount over it.
    Every convolution of a build is one convolve: the split factors, the
    fold across states and the shared-kernel rows.  A build makes one
    convolver and reads every composition table from it: the compositions
    are kept per (total, parts), the split tables of _split_factors among
    them, and the tail sums and coefficients per total, so each is made
    once per build and dropped with it.  The rank tables are made per call
    from two tail-sum vectors, since the (a, b) pairs of one measure's
    states seldom recur at another.
    """

    def __init__(self, parts):
        self.parts = parts
        self._comps, self._tails, self._coefs = {}, {}, {}

    def comps(self, n, parts=None):
        """composition_array(n, parts), parts defaulting to the convolver's."""
        key = (n, self.parts if parts is None else parts)
        if key not in self._comps:
            self._comps[key] = composition_array(*key)
        return self._comps[key]

    def _tail_sums(self, n):
        """(parts - 1, K) array whose row i holds, for every composition of
        n, the sum of its entries after entry i."""
        if n not in self._tails:
            c = self.comps(n)
            self._tails[n] = np.cumsum(c[:, :0:-1], axis=1)[:, ::-1].T.copy()
        return self._tails[n]

    def rank_table(self, a, b):
        """rank_compositions(comps(a)[:, None] + comps(b)[None]) without
        forming the sums: the tail sums of a sum are the sums of its terms'
        tail sums, and the rank's terms are added by _add_rank_terms, as
        rank_compositions adds them."""
        ta, tb = self._tail_sums(a), self._tail_sums(b)
        return _add_rank_terms(np.zeros((ta.shape[1], tb.shape[1]), dtype=np.int64),
                              (ta[i, :, None] + tb[i] for i in range(self.parts - 1)), self.parts)

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
        table = self.rank_table(a, b)
        w = f[..., :, None] * g[..., None, :]
        lead = w.shape[:-2]
        size = num_compositions(a + b, self.parts)
        offset = size * np.arange(math.prod(lead)).reshape(lead + (1, 1))
        out = np.bincount((table + offset).ravel(), w.ravel(),
                          minlength=offset.size * size)
        return out.reshape(lead + (size,))

    def fold(self, factors):
        """Law of the sum of independent count vectors given as (laws,
        total) pairs, convolved left to right with their leading axes
        broadcast; pairs of total 0 are skipped and one must be positive."""
        (law, total), *rest = [(f, n) for f, n in factors if n]
        for f, n in rest:
            law = self.convolve(law, total, f, n)
            total += n
        return law


def _backup(mdp, values, beta):
    """One Bellman backup of a _DenseMDP or _SuccessorMDP: (Q-value of
    every pair, minimum per state).  The expected next values come from
    the operator's `expect`.

    values=None backs up the stage cost alone, as at a last stage.
    """
    q = mdp.cost
    if values is not None:
        q = q + beta * mdp.expect(values)
    return q, np.minimum.reduceat(q, mdp.act_off)


def _greedy(mdp, q, best):
    """Action ordinal attaining `best` per state; ties go to the smallest."""
    # every state has a pair attaining its minimum; take the first
    ties = np.flatnonzero(q == np.repeat(best, np.diff(mdp.act_off, append=q.size)))
    return ties[np.searchsorted(ties, mdp.act_off)] - mdp.act_off


def _solve_finite(stages, beta):
    """Backward recursion over one MDP per stage, all on the same
    states; the last stage minimizes its stage cost alone.

    Returns (values, actions), one array per stage.
    """
    values, actions = [None] * (len(stages) + 1), [None] * len(stages)
    for t in reversed(range(len(stages))):
        q, values[t] = _backup(stages[t], values[t + 1], beta)
        actions[t] = _greedy(stages[t], q, values[t])
    return values[:-1], actions


def _solve_discounted(mdp, beta, epsilon):
    """Howard policy iteration (Puterman 1994, section 6.4), ties to the
    smallest action ordinal.  v starts as the exact values of the greedy
    policy of the stage cost, from the operator's `policy_values`.  Each
    round backs v up and returns T v with the policy once no state
    switches, or T v with its greedy actions once the sup-norm residual
    |T v - v| is at most epsilon*(1-beta)/(2*beta); otherwise the policy
    switches a state to its greedy action where its current action's Q
    exceeds the minimum by more than the rounding of the two, and v becomes
    the new policy's exact values.

    The computed Q of a pair is c + beta * (row . v) over at most n =
    longest_row terms, whose sum is off by at most gamma_n * |v|max with
    gamma_n = n*u/(1 - n*u) and u = eps/2 (Higham 2002, section 3.1; a
    row's mass is 1 within 1e-12), and the product and the sum each add at
    most u times their size, so each computed Q is off by less than eps *
    (n + 2) * (|c|max + |v|max) and a difference of two by less than twice
    that: rounding alone never switches an action.

    In exact arithmetic, with no slack, a stable policy is optimal, and
    either exit leaves T v within epsilon/2 of the optimum.  In floating
    point T v is also off by rounding: the policy solve's, up to about
    (1+beta)/(1-beta) * eps * |v|max, and the slack's, at most slack /
    (1-beta).  Near beta = 1 that can exceed epsilon/2 (weakly_coupled,
    N=16, beta 0.99999: 6.3e-9 against 5e-9; ROADMAP.md, item 1).

    Raises ConvergenceError when _MAX_ROUNDS policies still switch.
    """
    threshold = epsilon * (1.0 - beta) / (2.0 * beta)
    q, best = _backup(mdp, None, beta)
    policy = _greedy(mdp, q, best)
    rounding = 2.0 * np.finfo(float).eps * (mdp.longest_row + 2)
    cost_max = float(np.abs(mdp.cost).max())
    for _ in range(_MAX_ROUNDS):
        values = mdp.policy_values(policy, beta)
        q, new = _backup(mdp, values, beta)
        if float(np.abs(new - values).max()) <= threshold:
            return new, _greedy(mdp, q, new)
        slack = rounding * (cost_max + float(np.abs(values).max()))
        switch = q[mdp.act_off + policy] - new > slack
        if not switch.any():
            return new, policy
        policy = np.where(switch, _greedy(mdp, q, new), policy)
    raise ConvergenceError(
        f"the discounted solve needs more than {_MAX_ROUNDS} policy-iteration rounds "
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
    or, when discounted, policy iteration (_solve_discounted).  `problem`
    is a MeasureMDP, a RestrictedMDP or an MkvMDP: it has a `model`, its
    `states` and the `operator` every backup reads, a _DenseMDP or, for the
    limit, a _SuccessorMDP.  A finite horizon too long for the cap is
    refused before the rows are built.
    """
    beta, steps = _horizon(problem.model, horizon, len(problem.states), cap)
    if steps is None:
        values, actions = _solve_discounted(problem.operator, beta, horizon.epsilon)
        return Solution(problem, (values,), (actions,), True)
    values, actions = _solve_finite([problem.operator] * steps, beta)
    return Solution(problem, tuple(values), tuple(actions), False)


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
    action) pair, stored in the _DenseMDP `operator` when first asked for.

    `joint_actions` holds every joint action once, as an int64 (pairs, X,
    U) array of counts: measure i's joint actions are its rows act_off[i]
    up to act_off[i + 1], in the order of enumerate_joint_actions, so the
    pair numbering is that of `operator`.  Every joint action is a distinct
    composition of the population over the X*U cells, so the (pairs,
    measures) rows hold num_compositions(N, X*U) times the number of
    measures entries; that count is held to the cap before any is made.
    The joint actions are those compositions in one pass, sorted stably by
    the rank of their state marginal, and act_off counts them per rank.
    """

    def __init__(self, model, population, cap=DEFAULT_ENUMERATION_CAP):
        self.model = model
        self.population = population
        self.states = enumerate_empirical(population, model.num_states, cap=cap)
        X, U = model.num_states, model.num_actions
        self.max_entries = num_compositions(population, X * U) * len(self.states)
        _check_cap("lifted transition rows", self.max_entries, cap)
        # the compositions of N over the X*U cells, in decreasing lexicographic
        # order, grouped stably by the rank of their state marginal: within a
        # measure that order crosses the action splits of its states, state 0 slowest
        joint = composition_array(population, X * U).reshape(-1, X, U)
        ranks = rank_compositions(np.einsum("axu->ax", joint))
        self.joint_actions = joint[np.argsort(ranks, kind="stable")]
        sizes = np.bincount(ranks, minlength=len(self.states))
        self.act_off = np.cumsum(sizes) - sizes

    @cached_property
    def operator(self):
        """The _DenseMDP, built when a solver first asks for it: the model
        is evaluated once for all measures, the split factors of every
        (measure, state) pair come from _split_factors, one convolve per
        (action, agents, draws of that action) over all pairs, and each
        measure's rows, written in place, are its states' factors convolved
        by _lifted_rows.  One _Convolver serves the whole build and is
        dropped with it."""
        N, X = self.population, self.model.num_states
        conv = _Convolver(X)
        counts = conv.comps(N)
        mus = counts / N
        tens, cmats = self.model.kernel_tensor_at(mus), self.model.cost_matrix_at(mus)
        factors = _split_factors(conv, tens, counts)
        pairs = len(self.joint_actions)
        cost, rows = np.empty(pairs), np.empty((pairs, len(counts)))
        for c, a, b, cmat, f in zip(counts, self.act_off, [*self.act_off[1:], pairs], cmats,
                                    factors):
            cost[a:b], rows[a:b] = _lifted_rows(conv, c, self.joint_actions[a:b], cmat, f)
        return _DenseMDP(cost, self.act_off, rows)

    @cached_property
    def transitions(self):
        """Per measure, the (successor ordinals, probabilities) row of each
        joint action over its support, the entries > 0 of `operator`."""
        rows = self.operator.rows
        pair, succ = np.nonzero(rows > 0.0)
        cut = np.searchsorted(pair, np.arange(1, len(rows)))
        per_pair = list(zip(np.split(succ, cut), np.split(rows[pair, succ], cut)))
        return [per_pair[a:b] for a, b in zip(self.act_off, [*self.act_off[1:], len(rows)])]

    def __len__(self):
        return len(self.states)


def build_measure_mdp(model, population, cap=DEFAULT_ENUMERATION_CAP):
    return MeasureMDP(model, population, cap=cap)


def _lifted_rows(conv, counts, theta, cmat, factors):
    """(stage costs, dense next-measure rows) of the joint actions theta,
    an (A, X, U) array, at the measure `counts`; factors[x] holds the split
    factors of state x, one per split of its counts[x] agents.

    The agents of a state move independently of the others, so a joint
    action's row is the convolution of its states' factors.  State x's
    factors lie on leading axis x, so the fold crosses the splits of every
    state, state 0 slowest, as theta does.
    """
    X = len(counts)
    cost = (cmat * (theta / counts.sum())).reshape(len(theta), -1).sum(axis=1)
    lead_factors = []
    for x, n in enumerate(counts.tolist()):
        if n:
            lead = [1] * X
            lead[x] = len(factors[x])
            lead_factors.append((factors[x].reshape(*lead, -1), n))
    return cost, conv.fold(lead_factors).reshape(len(theta), -1)


def _split_factors(conv, tens, counts):
    """Split factors of every (measure, state) pair: out[i][x] is, for each
    action split of the counts[i, x] agents of state x at measure i, the
    law of their next counts over compositions(counts[i, x], X), the
    convolution over actions u of Multinomial(split[u], tens[i, x, u]);
    None when the state is empty.

    A prefix recursion over the actions: the laws of the splits of m
    agents over actions 0..u are those of m - k agents over actions
    0..u-1, each convolved with the pmf of k draws of action u.  With the
    occupied pairs sorted by agent count, most first, those holding at
    least m agents are a prefix and those holding exactly m a slice, so
    each (u, m, k) is one convolve over the pairs holding at least m, or
    exactly m at the last action.  The 0-draw pmf is [1.0], so a zero part
    passes a law through exactly, and the nonzero parts are convolved left
    to right, as fold does.
    """
    M, X, U, _ = tens.shape
    n = counts.ravel()
    pairs = np.argsort(-n, kind="stable")[: np.count_nonzero(n)]
    N = int(n[pairs[0]])
    held = [int(np.count_nonzero(n[pairs] >= m)) for m in range(N + 2)]  # the first held[m] pairs
    laws = tens.reshape(M * X, U, -1)[pairs]
    pmfs = [conv.multinomial(laws[: held[m]].reshape(-1, conv.parts), m).reshape(held[m], U, -1)
            for m in range(N + 1)]
    level, first = [p[:, :1] for p in pmfs], [0] * (N + 1)  # level[m] starts at pair first[m]
    for u in range(1, U):
        if u == U - 1:
            first = held[1:]
        nxt = []
        for m, lo in enumerate(first):
            cat = np.concatenate([conv.convolve(level[m - k][lo : held[m]], m - k,
                                                pmfs[k][lo : held[m], u, None], k)
                                  for k in range(m + 1)], axis=1)
            # the splits come grouped by their last part, each group in composition order
            nxt.append(np.empty_like(cat))
            nxt[-1][:, np.argsort(conv.comps(m, u + 1)[:, -1], kind="stable")] = cat
        level = nxt
    out = [[None] * X for _ in range(M)]
    for p, pair in enumerate(pairs.tolist()):
        m = n[pair]
        out[pair // X][pair % X] = level[m][p - first[m]]
    return out


def bellman_backup(mdp, values, beta=None):
    """One Bellman backup of mdp.operator; returns (new values, argmin
    action per state).

    Ties go to the smallest action ordinal.
    """
    b = _resolve_beta(mdp.model, beta, allow_one=True)
    op = mdp.operator
    q, best = _backup(op, np.asarray(values, dtype=float), b)
    return best, _greedy(op, q, best)


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
    agents, orderings = [], []  # per occupied state: its holders, their distinct action orders
    prob = 1.0
    for x, row in enumerate(theta.counts):
        holders = np.flatnonzero(states == x).tolist()
        if holders:
            actions = [u for u, c in enumerate(row) for _ in range(c)]
            agents.append(holders)
            orderings.append(sorted(set(itertools.permutations(actions))))
            prob /= len(orderings[-1])
    dist = {}
    for assigns in itertools.product(*orderings):
        current = [0] * n
        for pos, u in zip(itertools.chain(*agents), itertools.chain(*assigns)):
            current[pos] = u
        dist[tuple(current)] = prob
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
    per stage otherwise, the same object for stages with equal choices."""
    problem = sol.problem
    if isinstance(problem, MeasureMDP):
        raise TypeError("a lifted solution chooses joint actions, not shared kernels")
    kernels = _shared_kernels(problem.state_grid,
                              (problem.policy_set.kernels[c] for c in sol.choices))
    return kernels[0] if sol.stationary else kernels


def _shared_kernels(grid, tables):
    """One PolicyKernel per table on `grid`, one object for equal tables, so
    that evaluations and rollouts prepare each distinct kernel once."""
    made, kernels = {}, []
    for table in tables:
        key = np.ascontiguousarray(table).tobytes()
        if key not in made:
            made[key] = PolicyKernel(grid, table)
        kernels.append(made[key])
    return kernels


def _check_steps(steps):
    """Refuse a rollout or flow of more than _MAX_STEPS steps, before any
    per-step list is made."""
    if steps > _MAX_STEPS:
        raise ValueError(f"{steps} steps are above the rollout and flow limit of {_MAX_STEPS}")


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
    bad = next((k for k in kernels if not isinstance(k, PolicyKernel)), None)
    if bad is not None:
        raise TypeError(f"expected shared kernels, got a {type(bad).__name__}")
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


def _mixed_laws(kernels, tens):
    """The (S, X, K, X) next-state laws kernels[s, k, x] @ tens[s, x] of an
    agent at state x under each of the K shared kernels of an (S, K, X, U)
    stack, given the (S, X, U, X) kernel tensors at the same measures.

    matmul runs its loop per (K, U) @ (U, X) block with the same strides,
    so the laws are those products bit for bit, however many measures the
    stack holds.
    """
    return np.matmul(kernels.transpose(0, 2, 1, 3), tens)


def _kernel_stage_data(model, counts, kernels, cap=DEFAULT_ENUMERATION_CAP):
    """(M * K, M) _DenseMDP over the measures of `counts`, the (M, X) rows
    of composition_array(N, X), whose actions at measure i are the K shared
    kernels kernels[i], an (M, K, X, U) array of action rows.

    All agents draw actions independently from the kernel, so the expected
    stage cost mixes the kernel into the running cost, and each occupied
    state's factor is one multinomial of the mixed law k[x] @ T[x]; a
    kernel's row is the convolution of those factors.  The model is
    evaluated once for all measures, the mixed laws are one stacked matmul,
    one multinomial per agent count covers every (measure, state) pair
    holding that many, and one _Convolver folds them all.  The rows hold
    M * K * M entries, which is held to the cap.
    """
    M, K, X = kernels.shape[:3]
    _check_cap("shared-kernel transition rows", M * K * M, cap)
    pop = int(counts[0].sum())
    mus = counts / pop
    conv = _Convolver(X)
    mixed = _mixed_laws(kernels, model.kernel_tensor_at(mus)).reshape(M * X, K, X)
    agents = counts.ravel()
    factors = [None] * (M * X)
    held_counts = np.flatnonzero(np.bincount(agents))  # np.unique would import numpy.ma, 1.5 MB
    for m in held_counts[held_counts > 0].tolist():
        held = np.flatnonzero(agents == m)
        pmfs = conv.multinomial(mixed[held].reshape(-1, X), m).reshape(len(held), K, -1)
        for pair, pmf in zip(held.tolist(), pmfs):
            factors[pair] = pmf
    cost, rows = np.empty((M, K)), np.empty((M, K, M))
    for i, (c, cmat, ks) in enumerate(zip(counts, model.cost_matrix_at(mus), kernels)):
        occupied = [(x, n) for x, n in enumerate(c.tolist()) if n]
        cost[i] = sum((n / pop) * (ks[:, x] @ cmat[x]) for x, n in occupied)
        rows[i] = conv.fold((factors[i * X + x], n) for x, n in occupied)
    return _DenseMDP(cost.ravel(), np.arange(M) * K, rows.reshape(M * K, M))


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
    operator: _DenseMDP


def solve_symmetric_restricted(model, population, horizon, policies,
                               cap=DEFAULT_ENUMERATION_CAP):
    """Optimize over shared per-state kernels chosen per current measure.

    The kernels of `policies` are the actions of every measure.
    """
    states = enumerate_empirical(population, model.num_states, cap=cap)
    _horizon(model, horizon, len(states), cap)  # refuse a horizon too long before any row
    counts = composition_array(population, model.num_states)
    kernels = np.broadcast_to(policies.kernels, (len(counts),) + policies.kernels.shape)
    problem = RestrictedMDP(
        model, tuple(states), simplex_grid(population, model.num_states, cap=cap), policies,
        _kernel_stage_data(model, counts, kernels, cap))
    return solve(problem, horizon, cap)


def evaluate_symmetric_policy_exact(model, population, pi, horizon,
                                    cap=DEFAULT_ENUMERATION_CAP):
    """Exact expected cost of fixed shared kernels on the measure chain.

    `pi` is a PolicyKernel, a sequence of them or a kernel-choosing
    Solution, mapped to stages by _per_stage.  Kernels are looked up at the
    grid point nearest the current measure, one project_many over every
    measure per distinct kernel.  Returns values over the empirical-measure
    enumeration; no Monte Carlo is involved (the discounted case solves
    the policy's linear system directly).
    """
    counts = empirical_counts(population, model.num_states, cap)
    beta, steps = _horizon(model, horizon, len(counts), cap)
    kernels = _per_stage(pi, steps)
    mus = counts / population
    data = {}  # one MDP per distinct kernel object
    for k in kernels:
        if id(k) not in data:
            data[id(k)] = _kernel_stage_data(model, counts,
                                             k.table[k.grid.project_many(mus)[:, None]], cap)
    stages = [data[id(k)] for k in kernels]
    if steps is None:
        return stages[0].policy_values(0, beta)  # each state's one action
    values, _ = _solve_finite(stages, beta)
    return values[0]
