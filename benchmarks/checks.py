"""Output checks for the benchmark operations.

Each check compares a program output against a reference the program does
not compute itself: values recorded at the commit that introduced the
benchmark, closed forms, or a short numpy recomputation from the raw model
arrays.  A failed check raises CheckFailed naming the layer it implicates.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Values recorded from the implementation the benchmark was written against,
# with the tolerance each carries: 1e-9 for exact (finite-horizon or
# linear-solve) results and the solver accuracy 1e-8 for discounted value
# iteration.
REF_LIFTED16_DISCOUNTED = (  # N=16, beta=0.95, counts (16-i, i) for i = 0..16
    1.1324627359191655, 1.0063420530927099, 0.8959726593571331, 0.8019175658871417,
    0.7228062130701741, 0.659441932567731, 0.6123926781763561, 0.5802859427314798,
    0.5672512458773078, 0.5802859427314799, 0.6123926781763562, 0.659441932567731,
    0.7228062130701741, 0.8019175658871417, 0.895972659357133, 1.0063420530927099,
    1.1324627359191655,
)
REF_GAP_TABLE = {  # gap-table weakly_coupled, horizon 3, mesh 16/8: N -> (J_opt, J_policy)
    2: (0.33728838, 0.36282872339999994),
    4: (0.32882903930000007, 0.36974854065678253),
    8: (0.2460974344711217, 0.26728252363920557),
    16: (0.20252813777175274, 0.21679533876683582),
}
REF_MF_VALUE = 0.15781249999999999  # solve-mf weakly_coupled at mu0, mesh 64/16 T=5 and 32/16 discounted
REF_EVAL128 = 0.2768029558784277  # exact evaluation of the mesh-32/16 limit policy, N=128, counts (32, 96)
REF_RESTRICTED16 = 0.7671412897269093  # restricted solve N=16, policy mesh 8, counts (4, 12)
EXACT_TOL = 1e-9
SOLVER_EPS = 1e-8
ROW_SUM_TOL = 1e-12
# Monte Carlo checks allow 4 standard errors: seeds are arbitrary, and the
# chaos-gap check alone makes 14 comparisons per pass, so a 3-SE limit would
# fail about 4% of seeds by chance alone.
MC_SIGMAS = 4.0


class CheckFailed(Exception):
    """An output failed its check; `layer` is the module it implicates."""

    def __init__(self, layer, message):
        super().__init__(message)
        self.layer = layer


def require(condition, layer, message):
    if not condition:
        raise CheckFailed(layer, message)


def close(actual, expected, tol, layer, what):
    require(abs(actual - expected) <= tol, layer,
            f"{what}: {actual!r} differs from {expected!r} by more than {tol}")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text, layer, what):
    """Parse JSON, refusing NaN and Infinity, which the standard forbids."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as err:
        raise CheckFailed(layer, f"{what} is not strict JSON: {err}") from err


def stdout_value(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + " "):
            return float(line.split()[1])
    raise CheckFailed("cli", f"no '{key}' line in the command output")


def binomial_pmf(n, p):
    """Bin(n, p) pmf over 0..n, in log space so large n cannot overflow."""
    k = np.arange(n + 1)
    if p <= 0.0 or p >= 1.0:
        out = np.zeros(n + 1)
        out[0 if p <= 0.0 else n] = 1.0
        return out
    lg = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    return np.exp(lg[n] - lg - lg[::-1] + k * math.log(p) + (n - k) * math.log1p(-p))


def stage_costs(cfg, mu):
    """c(x, u, mu) from the raw model arrays, as an (X, U) array."""
    return (np.asarray(cfg["cost_const"])
            + np.einsum("xuz,z->xu", np.asarray(cfg["cost_linear"]), mu)
            + np.einsum("xuzw,z,w->xu", np.asarray(cfg["cost_quad"]), mu, mu))


def kernel(cfg, mu):
    """T[x, u, x'] at mu from the raw model arrays."""
    return (np.asarray(cfg["kernel_base"])
            + np.einsum("xuyz,z->xuy", np.asarray(cfg["kernel_coupling"]), mu))


def myopic_value(cfg, mu):
    """Optimal one-stage cost at mu.  Every state's row can sit on any action
    vertex, for joint count actions and gridded kernels alike, so the minimum
    separates per state."""
    return float(mu @ stage_costs(cfg, mu).min(axis=1))


def check_joint_policy(value_rows, policy_rows, num_states, num_actions):
    """Each chosen joint count action of a solve-n run must have its measure's
    counts as state marginal and match the action recorded in values.csv."""
    require(len(value_rows) == len(policy_rows), "cli", "values.csv and policy.csv differ in length")
    for vrow, prow in zip(value_rows, policy_rows):
        require((vrow["stage"], vrow["ordinal"], vrow["action_ordinal"])
                == (prow["stage"], prow["ordinal"], prow["action_ordinal"]),
                "cli", f"policy.csv row {prow['ordinal']} does not match values.csv")
        for x in range(num_states):
            split = sum(int(prow[f"theta_{x}_{u}"]) for u in range(num_actions))
            require(split == int(vrow[f"count_{x}"]), "lifted",
                    f"joint action at ordinal {prow['ordinal']} has the wrong state marginal")


class KernelTable:
    """A solve-mf policy.csv read independently of the package: grid points and,
    per stage, the action rows at every grid point."""

    def __init__(self, path, num_states, num_actions):
        rows = read_csv(path)
        stages = []
        points = {}
        tables = {}
        for row in rows:
            stage, g, x = row["stage"], int(row["ordinal"]), int(row["state"])
            if stage not in tables:
                stages.append(stage)
                tables[stage] = {}
            points[g] = [float(row[f"mu_{z}"]) for z in range(num_states)]
            tables[stage].setdefault(g, [None] * num_states)[x] = [
                float(row[f"pi_{u}"]) for u in range(num_actions)
            ]
        size = len(points)
        self.points = np.array([points[g] for g in range(size)])
        self.stages = stages
        self.tables = [np.array([tables[s][g] for g in range(size)]) for s in stages]
        for table in self.tables:
            require(np.abs(table.sum(axis=2) - 1.0).max() <= ROW_SUM_TOL and table.min() >= 0.0,
                    "mkv", "a policy row is not a probability vector")

    def rows_at(self, stage, mu):
        """Action rows at the L1-nearest grid point, ties to the smallest ordinal."""
        return self.tables[stage][int(np.abs(self.points - mu).sum(axis=1).argmin())]


def limit_flow(cfg, table, mu0, steps):
    """Deterministic limit flow mu_{t+1} = sum_{x,u} mu_x pi(u|x) T(.|x,u,mu_t)."""
    out = [np.asarray(mu0, dtype=float)]
    for t in range(steps):
        mu = out[-1]
        rows = table.rows_at(t if len(table.tables) > 1 else 0, mu)
        out.append(np.einsum("x,xu,xuy->y", mu, rows, kernel(cfg, mu)))
    return np.array(out)


def chaos_reference(cfg, table, population):
    """Exact E||mu^N_t - mu_t||_1 at t = 0 and t = 1 for i.i.d. initial states.

    With X = 2, the state-0 count K0 is Bin(N, mu0[0]).  Given K0 = k every
    agent in state x moves to state 0 independently with probability
    q_x = sum_u pi(u|x) T(0|x,u,k/N), so K1 = Bin(k, q_0) + Bin(N-k, q_1).
    Binomial tails beyond 12 standard deviations are dropped.
    """
    n = population
    mu0 = np.asarray(cfg["initial_dist"], dtype=float)
    flow = limit_flow(cfg, table, mu0, 1)
    p_k = binomial_pmf(n, mu0[0])
    grid = np.arange(n + 1) / n
    gap0 = float(p_k @ (2.0 * np.abs(grid - mu0[0])))
    gap1 = 0.0
    for k in np.flatnonzero(p_k > 1e-18 * p_k.max()):
        mu = np.array([k / n, 1.0 - k / n])
        q = np.einsum("xu,xu->x", table.rows_at(0, mu), kernel(cfg, mu)[:, :, 0])
        law = np.convolve(binomial_pmf(int(k), q[0]), binomial_pmf(n - int(k), q[1]))
        gap1 += p_k[k] * float(law @ (2.0 * np.abs(grid - flow[1][0])))
    return gap0, gap1


def initial_average(values_by_count0, population, p0):
    """E[V(K0)] for K0 ~ Bin(N, p0): the exact value of a rollout whose agents
    start i.i.d. from the initial distribution."""
    pmf = binomial_pmf(population, p0)
    return float(sum(pmf[k] * values_by_count0[k] for k in range(population + 1)))


def monte_carlo_mean(report, reference, slack, layer, what):
    mean, se = report["mean_cost"], report["std_error"]
    tol = MC_SIGMAS * se + slack
    require(abs(mean - reference) <= tol, layer,
            f"{what}: Monte Carlo mean {mean} is {abs(mean - reference) / se:.2f} SE "
            f"from the exact value {reference}")
