"""Reference builds of the lifted, restricted and exact-evaluation rows, as
`mfteams.lifted` built them before one composition table served each build.

`_Convolver`, `_split_factors`, `_lifted_rows` and `_kernel_stage_data` are
that code verbatim: one composition table, tail-sum table and coefficient
list per total, one rank table per convolve, one multinomial call per agent
count.  `lifted_operator` is the body of `MeasureMDP.operator` at the time.
`evaluate_symmetric_policy_exact` is the exact evaluation as it was before
one build held every distinct kernel: one `_kernel_stage_data` per distinct
kernel, verbatim.  `tests/test_reference.py` checks that the package builds
the same floats, bit for bit.

Also the stage rule as it was before `solver.stages` returned each policy's
distinct kernels: `per_stage`, `check_kernel_rows` and the flow's
`_tail_start`, verbatim, which `tests/test_reference.py` checks `stages`
against object for object.

And `_checked_stages`, the reader of saved solve-n and solve-mf tables, as
`mfteams.cli` had it before a table was parsed as one list of cells:
verbatim, with one split list per row.  `tests/test_reference.py` checks
that the package reads the same arrays, bit for bit, and refuses the same
files with the same messages.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from mfteams.cli import _fmt
from mfteams.lifted import _FLOAT_MAX
from mfteams.measures import (
    DEFAULT_ENUMERATION_CAP,
    _add_rank_terms,
    _check_cap,
    composition_array,
    empirical_counts,
    num_compositions,
)
from mfteams.solver import (
    DenseMDP,
    PolicyKernel,
    Solution,
    mixed_laws,
    policy_kernels,
    resolve_horizon,
    solve_finite,
    stage_tables,
    stages,
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


def _kernel_stage_data(model, counts, kernels, cap=DEFAULT_ENUMERATION_CAP):
    """(M * K, M) DenseMDP over the measures of `counts`, the (M, X) rows
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
    mixed = mixed_laws(kernels, model.kernel_tensor_at(mus)).reshape(M * X, K, X)
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
    return DenseMDP(cost.ravel(), np.arange(M) * K, rows.reshape(M * K, M))


def lifted_operator(mdp):
    """The DenseMDP of the MeasureMDP `mdp`, built as its `operator` was."""
    self = mdp
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
    return DenseMDP(cost, self.act_off, rows)


def evaluate_symmetric_policy_exact(model, population, pi, horizon,
                                    cap=DEFAULT_ENUMERATION_CAP):
    """Exact expected cost of fixed shared kernels on the measure chain.

    `pi` is a PolicyKernel, a sequence of them or a kernel-choosing
    Solution, mapped to stages by `stages`.  Each distinct kernel is looked
    up at the grid point nearest every measure, one project_many, and built
    into one MDP, which every stage of its block reads.  The backward
    recursion holds every build at once, so their rows, distinct kernels
    times measures times measures entries, are held to `cap` together
    before any is made.  Returns values
    over the empirical-measure enumeration; no Monte Carlo is involved (the
    discounted case solves the policy's linear system directly).
    """
    counts = empirical_counts(population, model.num_states, cap)
    beta, steps = resolve_horizon(model, horizon, len(counts), cap)
    kernels, block = stages(model, pi, steps)
    _check_cap("shared-kernel transition rows", len(kernels) * len(counts) ** 2, cap)
    mus = counts / population
    data = [_kernel_stage_data(model, counts, k.table[k.grid.project_many(mus)[:, None]])
            for k in kernels]
    if steps is None:
        return data[0].policy_values(0, beta)  # each state's one action
    values, _ = solve_finite([data[b] for b in block], beta)
    return values[0]


# ---- the stage rule ----


def per_stage(pi, steps):
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
    return stage_tables(kernels, False, steps, what)


def check_kernel_rows(model, kernels):
    """Refuse shared kernels whose action rows at a grid point are not
    (model.num_states, model.num_actions), each distinct kernel once."""
    want = (model.num_states, model.num_actions)
    for kernel in {id(k): k for k in kernels}.values():
        if kernel.table.shape[1:] != want:
            raise ValueError(f"kernel rows of shape {kernel.table.shape[1:]} do not match the "
                             f"model's (states, actions) {want}")


def _tail_start(kernels):
    """The first stage from which every kernel is the last stage's object."""
    last = kernels[-1] if kernels else None
    for i, kernel in enumerate(reversed(kernels)):
        if kernel is not last:
            return len(kernels) - i
    return 0


# ---- saved tables ----


def _checked_stages(path, header, keys, points, tol=1e-12, choices=None):
    """The rows of a file that _write_solution wrote, as numbers, one array
    per stage indexed by key, and whether its one stage is stationary.  The
    file has exactly `header`, rows of its length, and stages `stationary`
    alone or 0..T-1.  Each key column (column, name, n), the ordinal of
    column 1 first, holds an integer in [0, n), and each key has one row per
    stage.  The cells after the ordinal equal points[ordinal] within `tol`,
    and with `choices`, the last column is an integer in [0, choices[ordinal])."""

    def check_range(what, values, bounds):  # refuse the first value not an integer in [0, bound)
        bad = np.flatnonzero((values < 0) | (values >= bounds) | (np.floor(values) != values))[:1]
        if bad.size:
            raise ValueError(f"{what} {_fmt(values[bad[0]])} in {path} is not one of "
                             f"0..{bounds[bad[0]] - 1}")

    rows = [line.split(",") for line in Path(path).read_text().strip().splitlines()]
    if rows[:1] != [header]:
        raise ValueError(f"{path} does not start with the header {','.join(header)}")
    if len(rows) == 1:
        raise ValueError(f"{path} holds its header and no rows")
    if any(len(parts) != len(header) for parts in rows):
        raise ValueError(f"{path} has a row whose columns do not match its header")
    labels = {parts[0] for parts in rows[1:]}
    stationary = labels == {"stationary"}
    if not stationary and labels != set(map(str, range(len(labels)))):
        raise ValueError(f"{path} does not number its stages from 0")
    cells = [["0" if stationary else parts[0]] + parts[1:] for parts in rows[1:]]
    try:
        table = np.array(cells, dtype=float).reshape(-1, len(header))
    except ValueError:  # name the first cell that is not a number
        for line, parts in enumerate(cells, 2):
            for col, (name, cell) in enumerate(zip(header, parts), 1):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(f"{path}, line {line}, column {col} ({name}) holds "
                                     f"{cell!r}, not a number") from None
        raise
    keys = [(0, "stationary stage" if stationary else "stage", len(labels))] + keys
    for col, name, n in keys:
        check_range(name, table[:, col], np.full(len(table), n))
    key = table[:, [col for col, _, _ in keys]].T.astype(np.int64)
    shape = tuple(n for _, _, n in keys)
    flat = np.ravel_multi_index(key, shape)
    seen = np.bincount(flat, minlength=np.prod(shape))
    if (seen != 1).any():
        k = np.unravel_index((seen != 1).argmax(), shape)
        named = " and ".join(f"{name} {v}" for (_, name, _), v in zip(keys, k))
        raise ValueError(f"{path} has {seen[seen != 1][0]} rows, not one, for {named}")
    off = ~(np.abs(table[:, 2 : 2 + points.shape[1]] - points[key[1]]) <= tol).all(1)
    if off.any():
        raise ValueError(f"line {off.argmax() + 2} of {path} does not hold its ordinal's cells")
    if choices is not None:
        check_range(header[-1], table[:, -1], np.asarray(choices)[key[1]])
    return table[np.argsort(flat)].reshape(shape + (len(header),)), stationary
