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
marginal.  The agents of one state contribute one factor per action
split of that state: the law of their next counts, a dense vector over
the compositions of their number, indexed by rank (`rank_compositions`).
Every build works in one composition order.  The compositions of n <= N
are the first rows of those of N with entry 0 lowered by N - n, and a
rank reads only the sums after entry 0, so one _Convolver per build on
(X, N) keeps one composition table, one rank table of tail-sum sums,
whose top-left blocks give the rank of a + b for compositions a and b of
any two totals, and the multinomial coefficients of the totals the build
asks for.  The model is evaluated once for all measures, and one
multinomial call, over rows of (law, total), covers every (measure,
state, action) law.  The factors come from a prefix recursion over the
actions: the splits of m agents over actions 0..u are those of m - k
agents over actions 0..u-1 and k draws of action u, so each (u, m) is one
weighted np.bincount over every (measure, state) pair holding enough
agents, its bins placing each split at its rank.  A joint action's row
is the convolution of its states' factors, computed for all joint
actions of a measure at once, one weighted np.bincount per state.
`multinomial_pmf_table`,
`multinomial_count_distribution` and `eta_kernel` compute the same laws
as dictionaries and stay as the reference the tests compare against.

Also provides the symmetric-kernel-restricted problem on the same state
space, where agents share one per-state action kernel chosen per current
measure, drawn independently, as a solver.KernelMDP, and the exact
evaluation of fixed shared kernels.  Every problem is built straight into
a solver.DenseMDP, which solver.solve solves.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from functools import cached_property

import numpy as np

from .measures import (
    DEFAULT_ENUMERATION_CAP,
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
from .model import MarginalMismatchError
from .solver import (
    DenseMDP,
    KernelMDP,
    PolicyKernel,  # noqa: F401 -- still importable as lifted.PolicyKernel
    backup,
    greedy,
    mixed_laws,
    resolve_beta,
    resolve_horizon,
    solve,
    solve_finite,
    stages,
)

_FLOAT_MAX = sys.float_info.max
_CHUNK = 1 << 12  # entries per pass of _Convolver.multinomial


def _pascal_row(n, last=None):
    """Row n of Pascal's triangle, C(n, j) for j = 0, ..., n, as a list of
    Python integers: from `last` by adding neighbours when it is row n - 1,
    and otherwise straight from C(n, j + 1) = C(n, j) (n - j) // (j + 1)."""
    if last is not None and len(last) == n:
        return [1, *map(operator.add, last, last[1:]), 1]
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


def _pascal_rows():
    """Rows 0, 1, 2, ... of Pascal's triangle, each made from the last."""
    row = [1]
    while True:
        yield row
        row = _pascal_row(len(row), row)


def _exact_coefficients(row, parts):
    """Exact multinomial coefficient of every composition of n into
    `parts`, in the order of `compositions`, from Pascal row n: C(n, first)
    times those of the rest, which sums to j = n - first, so the block of
    j holds row[j] times the coefficients of j into parts - 1, made from
    Pascal row j."""
    if parts == 1:
        return [1]
    if parts == 2:
        return row
    out = []
    for head, inner in zip(row, _pascal_rows()):
        out += [head * v for v in _exact_coefficients(inner, parts - 1)]
    return out


class _Convolver:
    """Dense laws of count vectors over `parts` coordinates with totals up
    to `total`, and the size-only tables of one build on (parts, total).

    A law of count vectors with total n is an array over compositions(n,
    parts), indexed by rank.  Those compositions are the first sizes[n] =
    num_compositions(n, parts) rows of `table`, composition_array(total,
    parts), with entry 0 lowered by total - n, and a rank reads only the
    sums after entry 0, which the lowering leaves alone.  So one table
    serves every total of a build.  The rank table of (a, b), the rank of
    the sum of every pair of compositions of a and of b, is the top-left
    block of one table of tail-sum sums, made at the first convolve, and
    the law of a sum of independent count vectors is one weighted
    np.bincount over it.  Every convolution of a build goes through the
    build's convolver: the split factors, the fold across states and the
    shared-kernel rows.  The exact multinomial coefficients of each total
    asked for are made once, as floats.  All of it is dropped with the
    build, and a convolver that never convolves makes no rank table.
    """

    def __init__(self, parts, total):
        self.parts, self.total = parts, total
        self.table = composition_array(total, parts)
        # sizes[n] = num_compositions(n, parts): the rows whose entries after the first sum to <= n
        self.sizes = np.searchsorted(total - self.table[:, 0], np.arange(total + 1), side="right")
        self._ranks, self._logs = None, {}
        self._coefs, self._first = np.empty(0), np.full(total + 1, -1)

    def comps(self, n):
        """composition_array(n, parts), n <= total, from `table`."""
        c = self.table[: self.sizes[n]].copy()
        c[:, 0] -= self.total - n
        return c

    def rank_table(self, a, b):
        """rank_compositions(comps(a)[:, None] + comps(b)[None]) without
        forming the sums: the tail sums of a sum are the sums of its terms'
        tail sums, and the rank's terms are added by _add_rank_terms, as
        rank_compositions adds them.  The ranks of the sums of every two
        rows of `table` are made once; (a, b) reads their top-left block."""
        if self._ranks is None:
            tails = np.cumsum(self.table[:, :0:-1], axis=1)[:, ::-1].T
            size = len(self.table)
            self._ranks = _add_rank_terms(np.zeros((size, size), dtype=np.int64),
                                         (t[:, None] + t for t in tails), self.parts)
        return self._ranks[: self.sizes[a], : self.sizes[b]]

    def multinomial(self, laws, totals):
        """Multinomial(totals[r], laws[r]) over compositions(totals[r], parts)
        for every row r of the (L, parts) array `laws`, the L laws
        concatenated in row order.  `totals` holds one total up to `total`
        per row, or is one total for every row, and then the laws come as an
        (L, K) array.  Each entry is computed as multinomial_pmf_table
        computes it: the exact coefficient times the product of powers, or
        in log space when the coefficient exceeds the float range.  The
        rows are done in passes of about _CHUNK entries, which bounds the
        temporaries whatever the totals."""
        laws = np.clip(np.asarray(laws, dtype=float), 0.0, None)
        each = np.broadcast_to(np.asarray(totals, dtype=np.int64), len(laws))
        sizes = self.sizes[each]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        out = np.empty(int(ends[-1]) if len(ends) else 0)
        wanted = sorted(set(each.tolist()))
        self._add_coefficients(wanted)
        r = 0
        while r < len(laws):  # rows r..stop-1, entries lo..hi-1 of out
            stop = max(r + 1, int(np.searchsorted(ends, starts[r] + _CHUNK, side="right")))
            lo, hi, k = starts[r], ends[stop - 1], sizes[r:stop]
            j = np.arange(hi - lo) - np.repeat(starts[r:stop] - lo, k)  # each entry's ordinal
            c = np.take(self.table, j, axis=0)
            c[:, 0] -= np.repeat(self.total - each[r:stop], k)  # the compositions of its total
            powers = np.repeat(laws[r:stop], k, axis=0)
            np.power(powers, c, out=powers)  # 0.0**k is 0 for k > 0: a zero-probability part gets 0
            prob = out[lo:hi]
            prob[:] = powers[:, 0]
            for x in range(1, self.parts):
                prob *= powers[:, x]
            prob *= self._coefs.take(j + np.repeat(self._first[each[r:stop]], k))
            r = stop
        for n in wanted:
            if n not in self._logs:
                continue
            big, log_coef = self._logs[n]
            rows = np.flatnonzero(each == n)
            c = self.comps(n)[big]
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(c > 0, c * np.log(laws[rows, None]), 0.0)  # 0 * log 0 counts as 0
            log_prob = terms[..., 0]
            for x in range(1, self.parts):
                log_prob = log_prob + terms[..., x]
            out[starts[rows, None] + big] = np.exp(log_coef + log_prob)
        return out.reshape(len(laws), self.sizes[totals]) if np.ndim(totals) == 0 else out

    def _add_coefficients(self, totals):
        """Add the coefficients of the sorted `totals` not made yet to the
        flat float array _coefs, total n's from _first[n] on: the exact
        integers of _exact_coefficients rounded to the nearest float, or 0.0
        beyond the float range, where _logs[n] holds the entries' indices
        and logarithms.  The integers come from each wanted total's Pascal
        row, made by additions from the last one when the total follows it
        and straight from exact integers otherwise, so one row and one
        total's integers live at once; the floats are written into one
        array made at its final size."""
        new = [n for n in totals if self._first[n] < 0]
        sizes = self.sizes[new]
        self._first[new] = len(self._coefs) + np.cumsum(sizes) - sizes
        coefs = np.empty(len(self._coefs) + int(sizes.sum()))
        coefs[: len(self._coefs)] = self._coefs
        row = None
        for n, lo, size in zip(new, self._first[new].tolist(), sizes.tolist()):
            row = _pascal_row(n, row)
            exact = _exact_coefficients(row, self.parts)
            if max(exact) > _FLOAT_MAX:
                exact = np.array(exact, dtype=object)
                big = np.flatnonzero(exact > _FLOAT_MAX)
                self._logs[n] = (big, np.array([math.log(v) for v in exact[big]]))
                exact[big] = 0
            coefs[lo : lo + size] = exact
        self._coefs = coefs

    def convolve(self, f, a, g, b):
        """Law of the sum of independent count vectors of totals a and b
        with laws f[..., :] and g[..., :], for the leading axes of f and g
        broadcast against each other; a law over compositions(a + b)."""
        table = np.ascontiguousarray(self.rank_table(a, b))  # so that adding the offsets runs flat
        w = f[..., :, None] * g[..., None, :]
        lead = w.shape[:-2]
        size = num_compositions(a + b, self.parts)
        offset = size * np.arange(math.prod(lead)).reshape(lead + (1, 1))
        out = np.bincount((table + offset).ravel(), w.ravel(),
                          minlength=offset.size * size)
        return out.reshape(lead + (size,))

    def convolve_many(self, blocks, n, slots):
        """Laws over compositions(n) of many sums at once, as a (P, slots,
        K) array.  Each block (f, a, g, b, at), with b = n - a, f a (P, S,
        K(a)) and g a (P, K(b)) array, puts the law of the sum of
        independent count vectors with laws f[p, s] and g[p] in slot at[s]
        of row p, as convolve(f, a, g[:, None], b) would.  One np.bincount
        serves every block, and it sums each slot's products in convolve's
        order, since each slot takes them from one block."""
        size = num_compositions(n, self.parts)
        rows = len(blocks[0][0])
        spans = [f.size * g.shape[1] for f, _, g, _, _ in blocks]
        w, bins = np.empty(sum(spans)), np.empty(sum(spans), dtype=np.int64)
        base = (slots * size * np.arange(rows)).reshape(-1, 1, 1, 1)
        lo = 0
        for (f, a, g, b, at), span in zip(blocks, spans):
            shape = f.shape + g.shape[1:]
            np.multiply(f[..., None], g[:, None, None], out=w[lo:lo + span].reshape(shape))
            np.add(base, self.rank_table(a, b) + size * at[:, None, None],
                   out=bins[lo:lo + span].reshape(shape))
            lo += span
        return np.bincount(bins, w, minlength=rows * slots * size).reshape(rows, slots, size)

    def fold(self, factors):
        """Law of the sum of independent count vectors given as (laws,
        total) pairs, convolved left to right with their leading axes
        broadcast; pairs of total 0 are skipped and one must be positive."""
        (law, total), *rest = [(f, n) for f, n in factors if n]
        for f, n in rest:
            law = self.convolve(law, total, f, n)
            total += n
        return law


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
    multinomial count distributions, as a dict over count tuples.  A
    cell's table holds one entry per composition of its draws over the
    law's positive categories, and the support only grows under
    convolution, so that size is held to `cap` before the table is built.
    """
    if not cells:
        raise ValueError("need at least one cell")
    k = len(np.asarray(cells[0][0]))
    dist = {(0,) * k: 1.0}
    for law, mult in cells:
        positive = int(np.count_nonzero(np.asarray(law, dtype=float) > 0.0))
        size = num_compositions(mult, positive) if positive else int(mult == 0)
        _check_cap("count distribution support", size, cap)
        table = multinomial_pmf_table(law, mult)
        new = {}
        for base, bp in dist.items():
            for add, ap in table.items():
                key = tuple(b + a for b, a in zip(base, add))
                new[key] = new.get(key, 0.0) + bp * ap
        dist = new
        _check_cap("count distribution support", len(dist), cap)
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
    action) pair, stored in the DenseMDP `operator` when first asked for.

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
        """The DenseMDP, built when a solver first asks for it: the model
        is evaluated once for all measures, the split factors of every
        (measure, state) pair come from _split_factors, one multinomial
        call and one convolve_many per (action, agents) over all pairs, and
        each measure's rows, written in place, are its states' factors
        convolved by _lifted_rows.  One _Convolver on (X, N) serves the
        whole build, its composition table being the measures' counts, and
        is dropped with it."""
        N, X = self.population, self.model.num_states
        conv = _Convolver(X, N)
        counts = conv.table
        mus = counts / N
        tens, cmats = self.model.kernel_tensor_at(mus), self.model.cost_matrix_at(mus)
        factors = _split_factors(conv, tens, counts)
        pairs = len(self.joint_actions)
        cost, rows = np.empty(pairs), np.empty((pairs, len(counts)))
        for c, a, b, cmat, f in zip(counts, self.act_off, [*self.act_off[1:], pairs], cmats,
                                    factors):
            cost[a:b], rows[a:b] = _lifted_rows(conv, c, self.joint_actions[a:b], cmat, f)
        return DenseMDP(cost, self.act_off, rows)

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

    Every pmf comes from one multinomial call: with the occupied pairs
    sorted by agent count, most first, those holding at least m agents are
    a prefix, and each has a row per action with total m.  The factors
    come from a prefix recursion over the actions: the laws of the splits
    of m agents over actions 0..u are those of m - k agents over actions
    0..u-1, each convolved with the pmf of k draws of action u.  Each
    (u, m) is one convolve_many over the pairs holding at least m, or
    exactly m at the last action, with one block per k.  A split (s, k)
    has the tail sums of s plus k, then k, and its rank among the splits
    of m over actions 0..u, its slot, reads only those, so block k's
    slots are those of the splits of N - k cut to the splits of m - k.
    The 0-draw pmf is [1.0], so a zero part passes a law through exactly,
    and the nonzero parts are convolved left to right, as fold does.
    """
    M, X, U, _ = tens.shape
    n = counts.ravel()
    pairs = np.argsort(-n, kind="stable")[: np.count_nonzero(n)]
    N = int(n[pairs[0]])
    held = [int(np.count_nonzero(n[pairs] >= m)) for m in range(N + 2)]  # the first held[m] pairs
    laws = tens.reshape(M * X, U, -1)[pairs]
    rows = np.concatenate([laws[: held[m]] for m in range(N + 1)]).reshape(-1, conv.parts)
    pmfs = conv.multinomial(rows, np.repeat(np.arange(N + 1), np.multiply(held[:-1], U)))
    ends = np.cumsum([held[m] * U * conv.sizes[m] for m in range(N + 1)])
    pmfs = [p.reshape(h, U, -1) for p, h in zip(np.split(pmfs, ends[:-1]), held)]
    level, first = [p[:, :1] for p in pmfs], [0] * (N + 1)  # level[m] starts at pair first[m]
    tails = np.zeros((0, 1), dtype=np.int64)  # tail sums of the splits of N over actions 0..u-1
    for u in range(1, U):
        splits = [num_compositions(m, u) for m in range(N + 1)]  # of m agents over actions 0..u-1
        # block k: the splits of N - k over actions 0..u-1, each followed by k draws of action u
        sizes = splits[::-1]
        draws = np.repeat(np.arange(N + 1), sizes)
        grouped = np.vstack([np.concatenate([tails[:, :s] for s in sizes], axis=1) + draws, draws])
        slots = _add_rank_terms(np.zeros(len(draws), dtype=np.int64), grouped, u + 1)
        tails = np.empty_like(grouped)
        tails[:, slots] = grouped
        slots = np.split(slots, np.cumsum(sizes)[:-1])
        if u == U - 1:
            first = held[1:]
        level = [conv.convolve_many([(level[m - k][lo:held[m]], m - k, pmfs[k][lo:held[m], u], k,
                                      slots[k][: splits[m - k]]) for k in range(m + 1)],
                                    m, sum(splits[: m + 1]))
                 for m, lo in enumerate(first)]
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
    b = resolve_beta(mdp.model, beta, allow_one=True)
    op = mdp.operator
    q, best = backup(op, np.asarray(values, dtype=float), b)
    return best, greedy(op, q, best)


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


def _kernel_stage_data(model, counts, kernels):
    """(M * K, M) DenseMDP over the measures of `counts`, the (M, X) rows
    of composition_array(N, X), whose actions at measure i are the K shared
    kernels kernels[i], an (M, ..., X, U) array of action rows, K the
    product of its middle axes, numbered in C order.

    All agents draw actions independently from the kernel, so the expected
    stage cost mixes the kernel into the running cost, and each occupied
    state's factor is one multinomial of the mixed law k[x] @ T[x]; a
    kernel's row is the convolution of those factors.  The model is
    evaluated once for all measures, and the mixed laws and the kernels'
    expected costs k[x] @ c[x] are one stacked mixed_laws each, which
    multiplies the rows of each index of the middle axes but the last as
    one block: an (M, K, 1, X, U) stack gives every kernel the products a
    build of that kernel alone makes.  The stage costs add the occupied
    states' shares n / N of those costs left to right from 0.0.  One
    multinomial call covers every occupied (measure, state) pair, each row
    with that pair's agent count as its total, and one _Convolver on (X,
    N) folds each measure's factors, all K kernels at once.  The rows hold
    M * K * M entries, which the caller holds to its cap with everything
    else it keeps.
    """
    M, X = counts.shape
    K = math.prod(kernels.shape[1:-2])
    pop = int(counts[0].sum())
    mus = counts / pop
    conv = _Convolver(X, pop)
    mixed = mixed_laws(kernels, model.kernel_tensor_at(mus)).reshape(M * X, K, X)
    agents = counts.ravel()
    held = np.flatnonzero(agents)
    pmfs = conv.multinomial(mixed[held].reshape(-1, X), np.repeat(agents[held], K))
    factors = [None] * (M * X)
    for pair, pmf in zip(held.tolist(),
                         np.split(pmfs, np.cumsum(K * conv.sizes[agents[held]])[:-1])):
        factors[pair] = pmf.reshape(K, -1)
    costs = mixed_laws(kernels, model.cost_matrix_at(mus)[..., None]).reshape(M, X, K)
    cost = np.zeros((M, K))
    for x in range(X):
        at = counts[:, x] > 0
        cost[at] += (counts[at, x] / pop)[:, None] * costs[at, x]
    rows = np.empty((M, K, M))
    for i, c in enumerate(counts):
        rows[i] = conv.fold((factors[i * X + x], n) for x, n in enumerate(c.tolist()) if n)
    return DenseMDP(cost.ravel(), np.arange(M) * K, rows.reshape(M * K, M))


def solve_symmetric_restricted(model, population, horizon, policies,
                               cap=DEFAULT_ENUMERATION_CAP):
    """Optimize over shared per-state kernels chosen per current measure.

    The kernels of `policies` are the actions of every measure of a KernelMDP.
    """
    counts = empirical_counts(population, model.num_states, cap)
    resolve_horizon(model, horizon, len(counts), cap)  # refuse a horizon too long before any row
    _check_cap("shared-kernel transition rows", len(counts) ** 2 * len(policies.kernels), cap)
    kernels = np.broadcast_to(policies.kernels, (len(counts),) + policies.kernels.shape)
    problem = KernelMDP(model, simplex_grid(population, model.num_states, cap=cap), policies,
                        _kernel_stage_data(model, counts, kernels))
    return solve(problem, horizon, cap)


def evaluate_symmetric_policy_exact(model, population, pi, horizon,
                                    cap=DEFAULT_ENUMERATION_CAP):
    """Exact expected cost of fixed shared kernels on the measure chain.

    `pi` is a PolicyKernel, a sequence of them or a kernel-choosing
    Solution, mapped to stages by `stages`.  Each distinct kernel is looked
    up at the grid point nearest every measure, one project_many, and the
    K kernels' action rows make one build for the population, stacked as K
    one-action problems so that each kernel's costs and laws are those of a
    build of that kernel alone, bit for bit.  Each stage reads its kernel's
    costs and (M, M) block of the (M, K, M) rows as views.  The backward
    recursion holds that build, distinct kernels times measures times
    measures entries, which is held to `cap` before it is made.  Returns
    values over the empirical-measure enumeration; no Monte Carlo is
    involved (the discounted case solves the policy's linear system
    directly).
    """
    counts = empirical_counts(population, model.num_states, cap)
    beta, steps = resolve_horizon(model, horizon, len(counts), cap)
    kernels, block = stages(model, pi, steps)
    M, K = len(counts), len(kernels)
    _check_cap("shared-kernel transition rows", K * M**2, cap)
    mus = counts / population
    actions = np.stack([k.table[k.grid.project_many(mus)] for k in kernels], axis=1)
    data = _kernel_stage_data(model, counts, actions[:, :, None])
    if steps is None:
        return data.policy_values(0, beta)  # the one kernel, each state's one action
    cost, rows, one = data.cost.reshape(M, K), data.rows.reshape(M, K, M), np.arange(M)
    per_kernel = [DenseMDP(cost[:, b], one, rows[:, b]) for b in range(K)]
    values, _ = solve_finite([per_kernel[b] for b in block], beta)
    return values[0]
