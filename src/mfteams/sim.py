"""Finite-population rollouts and diagnostics.

Covers Monte Carlo simulation under lifted or shared-kernel policies,
propagation-of-chaos gap estimation against the deterministic limit flow,
an exact check, over arrays of every population history up to the
enumeration cap, that (own state, own action, empirical measure) is a
controlled Markov summary under shared kernels, and the exact
optimality-gap table for limit-derived policies.  Rollouts run on
the count chain, for all replications at once and at a cost independent
of the population size: per step, one chain of conditional binomials
draws the next-state counts of every group of agents that share one law,
a lifted policy's (state, action) cells or, under shared kernels, the
states with their mixed laws kappa(mu)(x, .) T(.|x, ., mu).

What a step reads of the current measure (the group counts, their stage
cost and the next-state conditionals as contiguous columns) depends on
the measure alone.  When a population's measures number at most
replications times steps, and their laws fit under DEFAULT_ENUMERATION_CAP
entries together with the rollout's other tables, a rollout computes them
once per measure and a step gathers its rows by rank; otherwise each step
computes them.  One rollout advances several populations in lockstep, each
on its own RNG stream: those that tabulate share one evaluation per batch,
taken in increasing population size, of at most as many measures as the
largest of them has, and those that do not share one evaluation per step
over their stacked measures.  `chaos_gap` runs all its populations
in one such rollout and evaluates no stage cost, since it reports none.  A
step then makes X - 1 binomial calls per population and a few small numpy
calls (one rank, the gathers, one int64 matmul per category); the stage
costs are discounted and summed once after the loop.  A step takes about
25-55 us on 2 cores, most of it in the binomial calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .lifted import MeasureMDP, build_measure_mdp, evaluate_symmetric_policy_exact
from .measures import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    check_integer,
    check_positive,
    composition_array,
    num_compositions,
    rank_compositions,
    round_to_counts,
)
from .mkv import build_mkv_mdp, flow_trajectory
from .model import DiscountedHorizon, is_real
from .solver import (
    MAX_STEPS,
    PolicyKernel,
    Solution,
    check_steps,
    mixed_laws,
    policy_kernels,
    resolve_horizon,
    solve,
    stage_tables,
    stages,
)


def _stream(seed, *key):
    # One stream per run, derived by hashing the base seed with the key.
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


def _check_sizes(populations, replications=1, seed=0):
    """Refuse a population that is not an integer, below 1 or past the
    int64 range, a replication count that is not an integer or below 1, or
    a seed outside [0, 2**63), before anything is enumerated or drawn."""
    for population in populations:
        if check_positive("population", population) > np.iinfo(np.int64).max:
            raise ValueError(f"population {population} exceeds the int64 range")
    check_positive("replications", replications)
    if not 0 <= check_integer("seed", seed) < 2**63:
        raise ValueError(f"seed must be in [0, 2**63), got {seed}")


@dataclass(frozen=True)
class SimConfig:
    population: int
    horizon: object
    policy: object
    replications: int
    seed: int
    truncation_error: float = 1e-6

    def __post_init__(self):
        _check_sizes([self.population], self.replications, self.seed)
        if not is_real(self.truncation_error) or not 0 < self.truncation_error < math.inf:
            raise ValueError(
                f"truncation_error must be finite and > 0, got {self.truncation_error}")


@dataclass(frozen=True)
class SimReport:
    population: int
    replications: int
    steps: int
    discount: float
    truncation_bound: float
    mean_cost: float
    std_error: object
    mean_measures: np.ndarray
    chaos_series: object

    def to_dict(self):
        chaos = None if self.chaos_series is None else self.chaos_series.tolist()
        return dict(vars(self), mean_measures=self.mean_measures.tolist(), chaos_series=chaos)


def _multinomial(rng, n, p):
    """Multinomial counts of n[...] trials over the rows p[..., :] (p
    broadcast against n), drawn as conditional binomials with
    probabilities p_j / sum_{k >= j} p_k.

    The tails are a reverse cumulative sum, so the last positive category
    gets conditional probability exactly 1 and a category of probability
    zero is never drawn, whatever n is.
    """
    return np.stack(_binomial_chain(rng, n, _columns(p)), axis=-1)


def _conditionals(p):
    """The conditional probabilities p_j / sum_{k >= j} p_k of the rows
    p[..., :] clipped at zero; 0 where that tail is zero or NaN."""
    p = np.maximum(p, 0.0)
    tail = np.cumsum(p[..., ::-1], axis=-1)[..., ::-1]
    return np.divide(p, tail, out=np.zeros_like(p), where=tail > 0)


def _columns(p):
    """The _conditionals of rows p[..., :] but the last, as contiguous columns (X - 1, ...)."""
    return np.ascontiguousarray(np.moveaxis(_conditionals(p)[..., :-1], -1, 0))


def _binomial_chain(rng, n, cols):
    """The counts of n[...] trials in len(cols) + 1 categories, a list of arrays like n,
    drawn in order as conditional binomials of probabilities cols[j] broadcast against n."""
    left, draws = np.array(n, dtype=np.int64), []
    for col in cols:
        draws.append(rng.binomial(left, col))
        left -= draws[-1]
    return draws + [left]


class _Groups(NamedTuple):
    """A policy's agents in groups that share one next-state law: a lifted Solution's X * U
    (state, action) cells, or the X states under shared kernels, moving by kappa(mu)(x, .)
    T(.|x, ., mu).  block[t] numbers stage t's distinct table; a state holds per_state groups.
    laws(counts, mus, costs, tens, blocks) gives, from (S, X) counts, their measures and the
    model there, each block's group counts (S, G), per-agent group costs (S, G), or None
    where costs is None, and the _columns (X - 1, S, G) of the groups' next-state laws."""

    block: list
    per_state: int
    laws: object


def _lifted(policy):
    """Whether `policy` is a lifted Solution, choosing joint actions; every
    other policy, kernel-choosing Solutions included, is shared kernels."""
    return isinstance(policy, Solution) and isinstance(policy.problem, MeasureMDP)


def _cell_sampler(model, policy, steps):
    """The _Groups of `policy` over `steps` stages of `model`.

    A lifted Solution's cell counts are its chosen joint actions, looked up
    by rank, so its laws take the counts of one population; a finite one
    must hold exactly one table per stage, as `stages` asks of kernel
    sequences and of the other solutions.  Shared kernels come from
    `stages`, whose block numbers are the groups' blocks; the listed
    blocks' kernels are read at their grids' nearest points, each grid
    projected once, and their mixed laws and columns come from one stacked
    mixed_laws and one _columns; a state costs the expected stage cost of
    its agents.
    """
    if _lifted(policy):
        mdp = policy.problem
        cells = [mdp.joint_actions[mdp.act_off + table].reshape(len(table), -1)
                 for table in policy.choices]

        def laws(counts, mus, costs, tens, blocks):
            rank, (S, X) = rank_compositions(counts), counts.shape
            costs = None if costs is None else costs.reshape(S, -1)
            cols = _columns(tens.reshape(S, -1, X))
            return [(cells[b][rank], costs, cols) for b in blocks]

        return _Groups(stage_tables(range(len(cells)), policy.stationary, steps),
                       mdp.model.num_actions, laws)

    kernels, block = stages(model, policy, steps)

    def laws(counts, mus, costs, tens, blocks):
        grids = {id(kernels[b].grid): kernels[b].grid for b in blocks}
        at = {g: grid.project_many(mus) for g, grid in grids.items()}
        rows = np.stack([kernels[b].table[at[id(kernels[b].grid)]] for b in blocks], axis=1)
        cols = _columns(mixed_laws(rows, tens).transpose(2, 0, 1, 3))  # (X - 1, blocks, S, X)
        return [(counts, None if costs is None else (rows[:, i] * costs).sum(-1), cols[:, i])
                for i in range(len(blocks))]

    return _Groups(block, 1, laws)


def _step_laws(model, groups, counts, population, blocks, costs=True):
    """Each listed block's group counts (S, G), stage costs sum_g size * cost (S,)
    and next-state _columns (X - 1, S, G) at the (S, X) counts, from one model evaluation.
    `population` divides the counts into measures: one int, or one per row as an (S, 1)
    array.  With costs=False the model's costs are not evaluated and each stage cost is None.
    A stage cost past the float range is inf or nan; _rollout refuses it."""
    mus = counts / population
    return [(sizes, None if cost is None else (sizes * cost).sum(axis=1), cols)
            for sizes, cost, cols in groups.laws(
                counts, mus, model.cost_matrix_at(mus) if costs else None,
                model.kernel_tensor_at(mus), blocks)]


def _stacked_laws(model, groups, counts, populations, blocks, costs):
    """The _step_laws of several populations' (R_i, X) counts[i] from one model
    evaluation over their concatenated rows, each row's counts divided by its own
    population: per population, each listed block's (sizes, stage cost, columns) as
    row slices of the evaluation's.  The list `counts` is emptied, so that its
    arrays can be freed before the evaluation."""
    reps = [len(c) for c in counts]
    rows = np.concatenate(counts)
    counts.clear()  # the rows live once, in the stack
    laws = _step_laws(model, groups, rows, np.repeat(populations, reps)[:, None], blocks, costs)
    bounds = np.cumsum([0] + reps).tolist()
    return [[(sizes[lo:hi], None if stage is None else stage[lo:hi], cols[:, lo:hi])
             for sizes, stage, cols in laws] for lo, hi in zip(bounds, bounds[1:])]


@np.errstate(over="ignore", invalid="ignore")
def _rollout(model, groups, starts, steps, beta, rngs):
    """Advance populations with state counts starts[i] (R_i, X) together,
    population i drawing from rngs[i].

    A step takes each replication's population-average stage cost,
    E[stage cost | state counts] under shared kernels, and draws its next
    state counts as one _binomial_chain over its groups from its
    population's stream, in the order a rollout of that population alone
    would; each category's draws are summed over the groups by one exact
    int64 matmul straight into the trajectory.  Per population, the
    _step_laws of every measure, per distinct stage table, are computed
    once and gathered by rank (one rank_compositions per step) when the
    measures number at most R_i * steps and their G * X + 1 entries each,
    added to those of the tables already kept, fit under
    DEFAULT_ENUMERATION_CAP, so a table never costs more evaluations than
    the steps would and all of them share one budget.  The tabulated
    populations, taken in increasing N, share one evaluation per batch of
    at most as many measures as the largest of them has, so no evaluation
    holds more rows than that population's own table.  The other
    populations are stacked: each step computes its stage's laws once for
    all their replications' measures.  Both go through _stacked_laws, which
    divides each row's counts by its own population.  The stage costs are
    kept per step and discounted and summed once after the loop, by the
    operations of a per-step
    cost += disc * stage / N in the same order.  With beta=None no stage
    cost is evaluated or kept.  A stage cost sum_g size * cost, or a
    replication's discounted sum of them, can pass the float range on
    finite model costs: the rollout runs with overflow and invalid-value
    warnings silenced, and a population whose costs are not all finite is
    refused with a ValueError naming it.  Every population's (R_i,
    steps + 1, X) trajectory is held until the end.  On a 2-core VM a step takes about
    25 us for a lifted N = 16 policy (R = 50, G = 4) and 52 us for a shared
    kernel at N = 128 (R = 100, G = 2), of which the X - 1 binomial calls on
    contiguous columns take about 20 and 41 us.

    Returns, per population, (discounted population-average cost per
    replication, or None for beta=None, the (R_i, steps + 1, X)
    state-count trajectories).
    """
    X, blocks, costs = model.num_states, range(len(set(groups.block))), beta is not None
    populations = [int(counts[0].sum()) for counts in starts]
    trajs, measures, stacked, held = [], {}, [], 0
    for i, (counts, population) in enumerate(zip(starts, populations)):
        trajs.append(np.empty((len(counts), steps + 1, X), dtype=np.int64))
        trajs[i][:, 0] = counts
        size = num_compositions(population, X)
        entries = size * len(blocks) * (X * groups.per_state * X + 1)
        if size <= len(counts) * steps and held + entries <= DEFAULT_ENUMERATION_CAP:
            held += entries
            measures[i] = size
        else:
            stacked.append(i)
    tables, batches, room = [None] * len(starts), [], 0
    largest = max(measures.values(), default=0)
    for i in sorted(measures, key=populations.__getitem__):
        if measures[i] > room:
            batches.append([])
            room = largest
        batches[-1].append(i)
        room -= measures[i]
    for batch in batches:
        laws = _stacked_laws(model, groups,
                             [composition_array(populations[i], X) for i in batch],
                             [populations[i] for i in batch], blocks, costs)
        for i, table in zip(batch, laws):
            tables[i] = table

    # row t + 1 of a population's stage array holds its replications' stage costs at step t
    staged = [np.zeros((steps + 1, len(counts))) if costs else None for counts in starts]
    ones = np.ones(X * groups.per_state, dtype=np.int64)
    for t in range(steps):
        block = groups.block[t]
        if stacked:
            shared = dict(zip(stacked, _stacked_laws(
                model, groups, [trajs[i][:, t] for i in stacked],
                [populations[i] for i in stacked], [block], costs)))
        for i, table in enumerate(tables):
            if table is None:
                (sizes, stage, cols), = shared[i]
                if costs:
                    staged[i][t + 1] = stage
            else:
                rank = rank_compositions(trajs[i][:, t])
                sizes, stage, cols = table[block]
                if costs:
                    stage.take(rank, out=staged[i][t + 1])
                sizes, cols = sizes.take(rank, 0), cols.take(rank, 1)
            for j, draw in enumerate(_binomial_chain(rngs[i], sizes, cols)):
                np.matmul(draw, ones, out=trajs[i][:, t + 1, j])
    if not costs:
        return [(None, traj) for traj in trajs]
    # the loop's cost += disc * stage / N, with disc *= beta after each step, in one pass:
    # disc * (stage / N) can differ in the last bit
    disc = np.cumprod([1.0] + [beta] * (steps - 1))[:, None]
    out = []
    for stage, population, traj in zip(staged, populations, trajs):
        stage[1:] *= disc
        stage[1:] /= population
        cost = np.add.accumulate(stage)[-1]
        if not np.isfinite(cost).all():
            raise ValueError(f"the costs of N={population} agents pass the float range: a stage "
                             f"cost, the sum of the agents' costs, or its sum over the steps "
                             f"overflows")
        out.append((cost, traj))
    return out


def _scaled(stat, samples):
    """stat(samples), a statistic over axis 0 that scales with the samples.

    Where it overflows on finite samples, it is taken on the samples divided
    by their largest magnitude and scaled back, which stays finite: on
    samples in [-1, 1] the mean and the standard error are at most 1.
    """
    with np.errstate(over="ignore"):
        out = stat(samples)
    over = np.isinf(out) & np.isfinite(samples).all(axis=0)
    if over.any():
        scale = np.where(over, np.abs(samples).max(axis=0), 1.0)
        out = np.where(over, stat(samples / scale) * scale, out)
    return out


def _std_error(samples):
    """Standard error of the mean over axis 0, _scaled; None for a single sample."""
    if len(samples) < 2:
        return None
    root = math.sqrt(len(samples))
    se = _scaled(lambda s: s.std(axis=0, ddof=1) / root, samples)
    return float(se) if se.ndim == 0 else se


def simulate_n_agents(model, config):
    """Monte Carlo estimate of the population-average cost.

    Discounted horizons are truncated at the first length whose geometric
    tail bound beta^T * c_max / (1 - beta) drops below the configured
    truncation error, and their one kernel serves every step.  A finite
    horizon or a truncation longer than MAX_STEPS is refused with a
    ValueError before any rollout.  All replications advance together on
    the count chain, drawn from one RNG stream keyed by the seed.  Under
    shared kernels no action is drawn: each step adds the expected stage
    cost given the replication's state counts, so mean_cost is unbiased;
    a lifted policy's cost is its realized one, its joint action being
    chosen, not drawn.  A lifted policy solved for another population or
    another (states, actions) is refused with a ValueError.
    """
    policy = config.policy
    shared = not _lifted(policy)
    if not shared:
        mdp = policy.problem
        solved = (mdp.population, mdp.model.num_states, mdp.model.num_actions)
        asked = (config.population, model.num_states, model.num_actions)
        if solved != asked:
            raise ValueError(f"the lifted policy was solved for (agents, states, actions) "
                             f"{solved}, not {asked}")
    beta, steps = resolve_horizon(model, config.horizon)
    trunc = 0.0
    if steps is None:
        if shared:
            (policy,), _ = stages(model, policy, None)
        tail = model.max_stage_cost() / (1.0 - beta)
        steps = 1
        while tail * beta**steps > config.truncation_error:
            if steps == MAX_STEPS:
                needed = math.ceil(math.log(config.truncation_error / tail) / math.log(beta))
                raise ValueError(
                    f"truncation error {config.truncation_error} at beta={beta} needs "
                    f"{needed} steps, above the limit of {MAX_STEPS}")
            steps += 1
        trunc = tail * beta**steps
    check_steps(steps)
    sampler = _cell_sampler(model, policy, steps)
    rng = _stream(config.seed)
    start = np.full(config.replications, config.population)
    (costs, traj), = _rollout(model, sampler, [_multinomial(rng, start, model.initial_dist)],
                              steps, beta, [rng])
    trajs = traj / config.population
    chaos = None
    if shared:
        flow = flow_trajectory(model, model.initial_dist, policy, steps)
        per_t = np.abs(trajs - flow).sum(axis=2).mean(axis=0)
        chaos = np.maximum.accumulate(per_t)
    return SimReport(
        population=config.population,
        replications=config.replications,
        steps=steps,
        discount=beta,
        truncation_bound=trunc,
        mean_cost=float(_scaled(lambda s: s.mean(axis=0), costs)),
        std_error=_std_error(costs),
        mean_measures=trajs.mean(axis=0),
        chaos_series=chaos,
    )


# ---- propagation of chaos ----


@dataclass(frozen=True)
class ChaosGapRow:
    population: int
    mean_max_gap: float
    std_error: object
    per_step_mean: np.ndarray
    per_step_se: object


def chaos_gap(model, populations, pi, steps, replications, seed):
    """Estimate E[max_t ||mu^N_t - mu_t||_1] against the limit flow, per
    population size.  Initial states are i.i.d. from the model's initial
    distribution; the reference flow starts at that distribution exactly.
    Every population's replications advance together in one rollout on the
    count chain, each population drawing from one RNG stream keyed by
    (seed, population), and no stage cost is evaluated.
    """
    _check_sizes(populations, replications, seed)
    steps = check_steps(steps)
    flow = flow_trajectory(model, model.initial_dist, pi, steps)
    sampler = _cell_sampler(model, pi, steps)
    rngs = [_stream(seed, population) for population in populations]
    starts = [_multinomial(rng, np.full(replications, population), model.initial_dist)
              for rng, population in zip(rngs, populations)]
    rows = []
    for population, (_, traj) in zip(populations,
                                      _rollout(model, sampler, starts, steps, None, rngs)):
        all_gaps = np.abs(traj / population - flow).sum(axis=2)
        max_gaps = all_gaps.max(axis=1)
        rows.append(ChaosGapRow(
            population, float(max_gaps.mean()), _std_error(max_gaps),
            per_step_mean=all_gaps.mean(axis=0), per_step_se=_std_error(all_gaps),
        ))
    return rows


# ---- Markov summary check ----


@dataclass(frozen=True)
class MarkovCheckReport:
    max_deviation: float
    per_step: tuple


def _group_sums(keys, *weights):
    """np.unique's first indices and inverse of `keys`, and the sums of the
    rows of each array of `weights` per key, in the order of np.unique.

    Each group's rows are summed by np.add.reduceat over the rows sorted by
    key, which adds a group of n rows pairwise: its rounding error is at
    most about (log2(n) + 16) ulp of the sum of their magnitudes, where one
    sequential sum may lose n ulp.
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    starts = np.flatnonzero(new)
    inv = np.empty_like(order)
    inv[order] = np.cumsum(new) - 1
    return order[starts], inv, [np.add.reduceat(w[order], starts) for w in weights]


def verify_markov_mf(model, population, pi, t_max=2):
    """Exact check that (own state, own action, empirical measure) is a
    controlled Markov summary of an agent's history.

    Each positive-probability history of the population's state and action
    profiles is one row: its current state profile, its probability and,
    per agent, an int64 key of its private history (own states, own
    actions, measure ordinals), extended in mixed radix at each step.  At
    each time t < t_max, for every agent, the law of (next own state, next
    measure) given each private history is compared in total variation
    with its law given the current summary alone.  Each law sums, per
    group of rows, the rows' probabilities and their probabilities times
    the agent's next (own state, measure) law given the row, pairwise
    (_group_sums).  Returns the largest deviation per step.

    Under a shared kernel the deviation is zero up to roundoff: a law
    entry of a group of n rows is off by at most about log2(n) + 16 ulp of
    each of its two sums, plus |X|^N ulp from the next-profile sum, so the
    deviation stays below about 5e-15 at the cap, where one sequential sum
    could lose 5e-10.  An agent-indexed kernel list or tuple (the intended
    negative control) generally breaks it; any other `pi` than one kernel or
    such a list, a Solution included, is refused with a TypeError.  A check whose last step has more than
    DEFAULT_ENUMERATION_CAP outcomes, (|X| |U|)^(N t_max) |X|^N, is refused
    with a ValueError before anything is enumerated.
    """
    _check_sizes([population])
    N = population
    X, U = model.num_states, model.num_actions
    if check_integer("t_max", t_max) < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    cap, bits = DEFAULT_ENUMERATION_CAP, DEFAULT_ENUMERATION_CAP.bit_length()
    if (X * U) ** min(N * t_max, bits) * X ** min(N, bits) > cap:  # exact, as 2**bits > cap
        raise ValueError(f"the Markov check of {N} agents over {t_max} steps needs "
                         f"{X * U}^{N * t_max} * {X}^{N} outcomes, above the cap of {cap}")
    kernels = [pi] * N if isinstance(pi, PolicyKernel) else pi
    odd = [k for k in (kernels if isinstance(kernels, (list, tuple)) else [kernels])
           if not isinstance(k, PolicyKernel)]
    if odd:
        raise TypeError(f"the Markov check takes one PolicyKernel or a list or tuple of one "
                        f"per agent, got a {type(odd[0]).__name__}")
    if len(kernels) != N:
        raise ValueError(f"need one kernel per agent, got {len(kernels)}")
    stages(model, kernels, N)  # refuses kernels of another shape

    states = np.array(list(product(range(X), repeat=N)))  # (S, N) state profiles
    actions = np.array(list(product(range(U), repeat=N)))  # (A, N) action profiles
    counts = (states[:, :, None] == np.arange(X)).sum(axis=1)
    mus = counts / N
    # own[s, i]: a dense id of agent i's (own state, measure ordinal) at profile s
    ids, own = np.unique(states * num_compositions(N, X) + rank_compositions(counts)[:, None],
                         return_inverse=True)
    own, n = own.reshape(states.shape), len(ids)
    tens, at = model.kernel_tensor_at(mus), np.arange(len(states))[:, None]
    act_law = step_law = 1.0  # products over agents, indexed [s, a] and [s, a, s']
    for i, k in enumerate(kernels):
        act_law = act_law * k.table[k.grid.project_many(mus), states[:, i]][:, actions[:, i]]
        step_law = step_law * tens[at, states[:, i, None], actions[:, i]][:, :, states[:, i]]

    init = np.prod(model.initial_dist[states], axis=1)
    s = np.flatnonzero(init)
    p, key = init[s], own[s]
    per_step = []
    for _ in range(t_max):
        row, a = np.nonzero(act_law[s])
        s, p = s[row], p[row] * act_law[s[row], a]
        key, summary = key[row] * U + actions[a], own[s] * U + actions[a]
        step = step_law[s, a]
        row, nxt = np.nonzero(step)
        q = p[row] * step[row, nxt]
        dev = 0.0
        for i in range(N):
            moves = np.zeros((len(p), n))  # each row's probability times agent i's next-id law
            for nxt_profile, y in enumerate(own[:, i].tolist()):
                moves[:, y] += step[:, nxt_profile]
            moves *= p[:, None]
            laws = []
            for group in (key[:, i], summary[:, i]):
                first, inv, (mass, law) = _group_sums(group, p, moves)
                laws.append((first, inv, law / mass[:, None]))
            (first, key[:, i], private), (_, coarse, summary_law) = laws  # keys renumbered
            dev = max(dev, 0.5 * np.abs(private - summary_law[coarse[first]]).sum(axis=1).max())
        per_step.append(float(dev))
        if len(per_step) < t_max:  # the last step's outcomes are never extended
            s, p, key = nxt, q, key[row] * n + own[nxt]
    return MarkovCheckReport(max_deviation=max(per_step), per_step=tuple(per_step))


# ---- optimality gap ----


@dataclass(frozen=True)
class GapRow:
    population: int
    optimal_value: object
    policy_value: object
    gap: object
    status: str


def epsilon_gap(model, populations, horizon, mesh, policy_mesh,
                cap=DEFAULT_ENUMERATION_CAP):
    """Exact optimality gap of the limit-derived shared policy per
    population size.

    For each N the exchangeable optimum comes from the lifted MDP and the
    deployed value from exact evaluation of the extracted kernels on the
    measure chain, both at the count vector nearest N times the initial
    distribution.  Populations whose lifted solve or exact evaluation the
    cap refuses are reported as skipped.  A gap below -1e-9 is a fault and
    raises RuntimeError.  A discounted solve's values are within epsilon / 2 in
    exact arithmetic with no switch slack, so there the bound is
    -(epsilon / 2 + 1e-9); otherwise they are also off by the slack, at
    most slack / (1 - beta), and by the rounding of the policy solve, which
    near beta = 1 can exceed epsilon / 2 (ROADMAP.md, item 1).
    """
    _check_sizes(populations)
    slack = 1e-9 + (horizon.epsilon / 2 if isinstance(horizon, DiscountedHorizon) else 0.0)
    kernels = policy_kernels(solve(build_mkv_mdp(model, mesh, policy_mesh, cap=cap), horizon, cap))
    rows = []
    for population in populations:
        try:
            values = solve(build_measure_mdp(model, population, cap=cap), horizon, cap).values
            i0 = rank_compositions(round_to_counts(model.initial_dist, population))
            j_pi = float(
                evaluate_symmetric_policy_exact(model, population, kernels, horizon, cap=cap)[i0])
        except EnumerationCapError as err:
            rows.append(GapRow(population, None, None, None, f"skipped: {err}"))
            continue
        j_opt = float(values[0][i0])
        gap = j_pi - j_opt
        if gap < -slack:
            raise RuntimeError(
                f"restricted policy beat the exchangeable optimum by {-gap} at N={population}"
            )
        rows.append(GapRow(population, j_opt, j_pi, gap, "ok"))
    return rows
