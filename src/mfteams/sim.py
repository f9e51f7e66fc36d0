"""Finite-population rollouts and diagnostics.

Covers Monte Carlo simulation under lifted or shared-kernel policies,
propagation-of-chaos gap estimation against the deterministic limit flow,
an exact small-population check that (own state, own action, empirical
measure) is a controlled Markov summary under shared kernels, and the
exact optimality-gap table for limit-derived policies.  Rollouts run on
the count chain: per step, (state, action) cell counts per state, then
next-state counts per cell, for all replications at once and at a cost
independent of the population size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .lifted import (
    MeasureMDP,
    PolicyKernel,
    Solution,
    _horizon,
    _per_stage,
    _stage_tables,
    build_measure_mdp,
    evaluate_symmetric_policy_exact,
    policy_kernels,
    solve,
)
from .measures import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    rank_compositions,
    round_to_counts,
)
from .mkv import build_mkv_mdp, flow_trajectory


def _stream(seed, *key):
    # One stream per run, derived by hashing the base seed with the key.
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), *key]))


@dataclass(frozen=True)
class SimConfig:
    population: int
    horizon: object
    policy: object
    replications: int
    seed: int
    truncation_error: float = 1e-6

    def __post_init__(self):
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.population > np.iinfo(np.int64).max:
            raise ValueError(f"population {self.population} exceeds the int64 range")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


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
    return _binomial_chain(rng, n, _conditionals(p))


def _conditionals(p):
    """The conditional probabilities p_j / sum_{k >= j} p_k of the rows
    p[..., :] clipped at zero; 0 where that tail is zero or NaN."""
    p = np.maximum(p, 0.0)
    tail = np.cumsum(p[..., ::-1], axis=-1)[..., ::-1]
    return np.divide(p, tail, out=np.zeros_like(p), where=tail > 0)


def _binomial_chain(rng, n, cond):
    """_multinomial of n[...] trials given the _conditionals of its rows."""
    left = np.array(n, dtype=np.int64)
    out = np.empty(left.shape + cond.shape[-1:], dtype=np.int64)
    for j in range(cond.shape[-1] - 1):
        out[..., j] = rng.binomial(left, cond[..., j])
        left -= out[..., j]
    out[..., -1] = left
    return out


def _cell_sampler(policy, steps):
    """draw(t, counts, rng) -> (R, X, U) cell counts for (R, X) state counts.

    A lifted Solution is looked up by the rank of each row of counts; a
    finite one must hold exactly one table per stage, as _per_stage asks
    of kernel sequences and of the other solutions.
    """
    if isinstance(policy, Solution) and isinstance(policy.problem, MeasureMDP):
        # The chosen joint action's counts are the cell counts: no draw.
        mdp = policy.problem
        cells = _stage_tables(
            [np.array([mdp.actions[i][a].counts for i, a in enumerate(table)])
             for table in policy.choices], policy.stationary, steps)

        def draw(t, counts, rng):
            return cells[t][rank_compositions(counts)]

    else:
        kernels = _per_stage(policy, steps)
        conds = {}  # each distinct kernel's conditional action table, made once
        for k in kernels:
            if id(k) not in conds:
                conds[id(k)] = _conditionals(k.table)

        def draw(t, counts, rng):
            k = kernels[t]
            cond = conds[id(k)][k.grid.project_many(counts / counts[0].sum())]
            return _binomial_chain(rng, counts, cond)

    return draw


def _rollout(model, draw_cells, counts, steps, beta, rng):
    """Advance populations with state counts `counts` (R, X) together.

    Returns (discounted population-average cost per replication, the
    (R, steps + 1, X) state-count trajectories).
    """
    population = int(counts[0].sum())
    traj = [counts]
    cost = np.zeros(len(counts))
    disc = 1.0
    for t in range(steps):
        mus = counts / population
        cells = draw_cells(t, counts, rng)
        cost += disc * (cells * model.cost_matrix_at(mus)).sum(axis=(1, 2)) / population
        disc *= beta
        counts = _multinomial(rng, cells, model.kernel_tensor_at(mus)).sum(axis=(1, 2))
        traj.append(counts)
    return cost, np.stack(traj, axis=1)


def _std_error(samples):
    """Standard error of the mean over axis 0; None for a single sample."""
    if len(samples) < 2:
        return None
    se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    return float(se) if se.ndim == 0 else se


def simulate_n_agents(model, config):
    """Monte Carlo estimate of the population-average cost.

    Discounted horizons are truncated at the first length whose geometric
    tail bound beta^T * c_max / (1 - beta) drops below the configured
    truncation error, and their one kernel serves every step.  All
    replications advance together on the count chain, drawn from one RNG
    stream keyed by the seed.
    """
    policy = config.policy
    shared = not isinstance(policy, Solution)
    beta, steps = _horizon(model, config.horizon)
    trunc = 0.0
    if steps is None:
        if shared:
            policy, = _per_stage(policy, None)
        tail = model.max_stage_cost() / (1.0 - beta)
        steps = 1
        while tail * beta**steps > config.truncation_error and steps < 100_000:
            steps += 1
        trunc = tail * beta**steps
    draw_cells = _cell_sampler(policy, steps)
    rng = _stream(config.seed)
    start = np.full(config.replications, config.population)
    costs, traj = _rollout(model, draw_cells, _multinomial(rng, start, model.initial_dist),
                           steps, beta, rng)
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
        mean_cost=float(costs.mean()),
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
    Each population's replications advance together on the count chain,
    drawn from one RNG stream keyed by (seed, population).
    """
    kernels = _per_stage(pi, steps)
    draw_cells = _cell_sampler(kernels, steps)
    flow = flow_trajectory(model, model.initial_dist, kernels, steps)
    rows = []
    for population in populations:
        rng = _stream(seed, population)
        counts = _multinomial(rng, np.full(replications, population), model.initial_dist)
        _, traj = _rollout(model, draw_cells, counts, steps, 1.0, rng)
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


def verify_markov_mf(model, population, pi, t_max=2):
    """Exact check that (own state, own action, empirical measure) is a
    controlled Markov summary of an agent's history.

    Builds the joint chain over all population state and action profiles by
    brute force, then compares, for every agent and every positive-
    probability private history (own states, own actions, measure path),
    the conditional law of (next own state, next measure) against the law
    conditioned on the current summary alone.  Returns the maximum
    total-variation deviation over transitions at times t < t_max.

    Under a shared kernel the deviation is zero up to roundoff; an
    agent-indexed kernel list (the intended negative control) generally
    breaks it once ambiguity about which other agent is where carries
    information.
    """
    N = population
    X, U = model.num_states, model.num_actions
    if N > 4 or X > 3 or U > 3:
        raise ValueError("exact history enumeration is limited to N <= 4, |X|,|U| <= 3")
    if isinstance(pi, PolicyKernel):
        agent_kernels = [pi] * N
    else:
        agent_kernels = list(pi)
        if len(agent_kernels) != N:
            raise ValueError(f"need one kernel per agent, got {len(agent_kernels)}")

    state_profiles = list(product(range(X), repeat=N))
    action_profiles = list(product(range(U), repeat=N))

    def measure_of(profile):
        counts = [0] * X
        for x in profile:
            counts[x] += 1
        return tuple(counts)

    # paths: (prob, states history, actions history), histories as tuples
    # of profiles.
    paths = []
    for s in state_profiles:
        p = 1.0
        for x in s:
            p *= float(model.initial_dist[x])
        if p > 0.0:
            paths.append((p, (s,), ()))

    per_step = []
    for t in range(t_max):
        # attach actions at time t
        expanded = []
        for prob, s_hist, a_hist in paths:
            s = s_hist[-1]
            mu_counts = measure_of(s)
            mu = np.asarray(mu_counts, dtype=float) / N
            rows = [agent_kernels[i].rows_for(mu)[s[i]] for i in range(N)]
            for a in action_profiles:
                pa = prob
                for i in range(N):
                    pa *= float(rows[i][a[i]])
                    if pa == 0.0:
                        break
                if pa > 0.0:
                    expanded.append((pa, s_hist, a_hist + (a,)))
        # transition laws and grouping
        priv_laws = {}
        priv_mass = {}
        priv_to_coarse = {}
        coarse_laws = {}
        coarse_mass = {}
        next_paths = []
        for prob, s_hist, a_hist in expanded:
            s, a = s_hist[-1], a_hist[-1]
            mu_counts = measure_of(s)
            mu = np.asarray(mu_counts, dtype=float) / N
            tens = model.kernel_tensor_at(mu)
            laws = [tens[s[i], a[i]] for i in range(N)]
            step_law = {}
            for s_next in state_profiles:
                ps = 1.0
                for i in range(N):
                    ps *= float(laws[i][s_next[i]])
                    if ps == 0.0:
                        break
                if ps == 0.0:
                    continue
                next_paths.append((prob * ps, s_hist + (s_next,), a_hist))
                step_law[s_next] = ps
            mu_path = tuple(measure_of(p) for p in s_hist)
            for i in range(N):
                law_i = {}
                for s_next, ps in step_law.items():
                    key = (s_next[i], measure_of(s_next))
                    law_i[key] = law_i.get(key, 0.0) + ps
                priv = (i, tuple(p[i] for p in s_hist), tuple(a[i] for a in a_hist), mu_path)
                coarse = (i, s[i], a[i], mu_counts, t)
                priv_to_coarse[priv] = coarse
                for store, mass, key in (
                    (priv_laws, priv_mass, priv),
                    (coarse_laws, coarse_mass, coarse),
                ):
                    mass[key] = mass.get(key, 0.0) + prob
                    bucket = store.setdefault(key, {})
                    for k, ps in law_i.items():
                        bucket[k] = bucket.get(k, 0.0) + prob * ps
        dev = 0.0
        for priv, bucket in priv_laws.items():
            coarse = priv_to_coarse[priv]
            cb = coarse_laws[coarse]
            pm, cm = priv_mass[priv], coarse_mass[coarse]
            keys = set(bucket) | set(cb)
            tv = 0.5 * sum(
                abs(bucket.get(k, 0.0) / pm - cb.get(k, 0.0) / cm) for k in keys
            )
            dev = max(dev, tv)
        per_step.append(dev)
        paths = next_paths
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
    distribution.  Populations whose enumeration exceeds the cap are
    reported as skipped.
    """
    kernels = policy_kernels(solve(build_mkv_mdp(model, mesh, policy_mesh, cap=cap), horizon, cap))
    rows = []
    for population in populations:
        try:
            values = solve(build_measure_mdp(model, population, cap=cap), horizon, cap).values
        except EnumerationCapError as err:
            rows.append(GapRow(population, None, None, None, f"skipped: {err}"))
            continue
        i0 = rank_compositions(round_to_counts(model.initial_dist, population))
        j_opt = float(values[0][i0])
        j_pi = float(
            evaluate_symmetric_policy_exact(model, population, kernels, horizon, cap=cap)[i0]
        )
        gap = j_pi - j_opt
        if gap < -1e-9:
            raise RuntimeError(
                f"restricted policy beat the exchangeable optimum by {-gap} at N={population}"
            )
        rows.append(GapRow(population, j_opt, j_pi, gap, "ok"))
    return rows
