"""Command-line front end.

Subcommands: solve-n, solve-mf, simulate, gap-table, counterexample, flow.
Every run that writes files also writes a manifest.json recording the
parsed options, the model hash and the seed; the numeric outputs are
byte-reproducible from the manifest.  Floats are written with 17
significant digits.

Exit codes: 0 success, 1 I/O or parse failure, 2 validation, cap,
non-convergence or out-of-memory failure, 3 self-test or gap-bound failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .lifted import (
    ConvergenceError,
    PolicyKernel,
    Solution,
    _shared_kernels,
    build_measure_mdp,
    solve,
    solve_symmetric_restricted,
)
from .measures import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    policy_grid,
    rank_compositions,
    round_to_counts,
    simplex_grid,
)
from .mkv import build_mkv_mdp, flow_trajectory
from .model import (
    DiscountedHorizon,
    FiniteHorizon,
    ModelError,
    load_model,
)
from .models import BUNDLED, bundled_path
from .sim import SimConfig, epsilon_gap, simulate_n_agents


def _fmt(x):
    return f"{float(x):.17g}"


def _resolve_model_path(spec):
    p = Path(spec)
    if p.exists():
        return p
    stem = spec[:-5] if spec.endswith(".json") else spec
    if stem in BUNDLED:
        return Path(bundled_path(stem))
    raise FileNotFoundError(f"model file {spec!r} not found (bundled: {', '.join(BUNDLED)})")


def _populations(spec):
    return [int(p) for p in spec.split(",")]


def _horizon_from_args(args):
    if getattr(args, "horizon", None) is not None:
        return FiniteHorizon(args.horizon)
    accuracy = {"epsilon": args.eps} if "eps" in args else {}
    return DiscountedHorizon(beta=args.discount, **accuracy)


def _add_horizon_flags(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--horizon", type=int, help="finite horizon length")
    group.add_argument("--discount", type=float, help="discount factor for an infinite horizon")


def _add_solver_flags(parser):
    parser.add_argument("--eps", type=float, default=1e-8,
                        help="accuracy for discounted solves (default 1e-8)")
    parser.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                        help="enumeration size cap")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# parsed options that the manifest holds outside `params`, or not at all
_NOT_PARAMS = {"command", "func", "model", "out", "seed"}


def _write_manifest(args, argv):
    """Write the manifest of the run `args` to its --out directory, which
    is made if missing, and return that directory.  `params` holds every
    parsed option except those of _NOT_PARAMS."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "argv": list(argv),
        "model_path": str(args.model),
        "model_sha256": _sha256(args.model),
        "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "written_at": datetime.now(timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return out


def _solved_manifest(directory, command, model_path):
    """The manifest of the `command` run that wrote `directory`, refused
    unless that run solved the model file at `model_path`."""
    manifest = json.loads((Path(directory) / "manifest.json").read_text())
    if manifest.get("command") != command:
        raise ValueError(f"{directory} does not hold a {command} run")
    if manifest.get("model_sha256") != _sha256(model_path):
        raise ValueError(f"{directory} was solved for another model than {model_path}")
    return manifest


def _write_csv(path, header, lines):
    """Write the CSV file of `header` and `lines`, each line already joined."""
    path.write_text("\n".join([",".join(header), *lines]) + "\n")


def _headers(command, model):
    """The (values.csv, policy.csv) headers a `command` run writes for `model`."""
    states, actions = range(model.num_states), range(model.num_actions)
    if command == "solve-n":
        cells, choice = [f"count_{x}" for x in states], "action_ordinal"
        policy = [choice] + [f"theta_{x}_{u}" for x in states for u in actions]
    else:
        cells, choice = [f"mu_{x}" for x in states], "policy_ordinal"
        policy = cells + ["state"] + [f"pi_{u}" for u in actions]
    return ["stage", "ordinal"] + cells + ["value", choice], ["stage", "ordinal"] + policy


def _write_solution(args, argv, sol, points, policy_rows):
    """Write the manifest, values.csv and policy.csv of the solve-n or
    solve-mf run `args`.  Ordinal i of stage `stationary` or 0..T-1 has the
    values.csv line (stage, i, cells, value, choice) with cells points[i]
    joined, and a policy.csv line (stage, i, row) per joined row that
    policy_rows(i, cells, choice) yields."""
    out = _write_manifest(args, argv)
    vheader, pheader = _headers(args.command, sol.problem.model)
    cells = [",".join(map(_fmt, point)) for point in points]
    labels = ["stationary"] if sol.stationary else range(len(sol.values))
    vlines, plines = [], []
    for stage, values, choices in zip(labels, sol.values, sol.choices):
        for i, (point, value, choice) in enumerate(zip(cells, values.tolist(), choices.tolist())):
            key = f"{stage},{i},"
            vlines.append(f"{key}{point},{_fmt(value)},{choice}")
            plines.extend(key + row for row in policy_rows(i, point, choice))
    _write_csv(out / "values.csv", vheader, vlines)
    _write_csv(out / "policy.csv", pheader, plines)


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


# ---- solve-n ----


def _cmd_solve_n(args, argv):
    model = load_model(args.model)
    mdp = build_measure_mdp(model, args.agents, cap=args.cap)
    sol = solve(mdp, _horizon_from_args(args), args.cap)
    _write_solution(args, argv, sol, [state.counts for state in mdp.states], lambda i, _, a: [
        ",".join(map(str, [a, *mdp.joint_actions[mdp.act_off[i] + a].ravel().tolist()]))])
    counts0 = round_to_counts(model.initial_dist, args.agents)
    i0 = rank_compositions(counts0)
    print(f"mu0_counts {counts0}")
    print(f"value {_fmt(sol.values[0][i0])}")
    return 0


# ---- solve-mf ----


def _cmd_solve_mf(args, argv):
    model = load_model(args.model)
    mkv = build_mkv_mdp(model, args.mesh, args.policy_mesh, cap=args.cap)
    sol = solve(mkv, _horizon_from_args(args), args.cap)
    kernel_rows = functools.cache(lambda choice: [  # a chosen kernel's (state, action law) lines
        ",".join([str(x), *map(_fmt, row)]) for x, row in enumerate(mkv.policy_set.kernel(choice))])
    _write_solution(args, argv, sol, mkv.state_grid.points,
                    lambda g, mu, choice: (f"{mu},{row}" for row in kernel_rows(choice)))
    g0 = mkv.state_grid.project(model.initial_dist)
    print(f"mu0_ordinal {g0}")
    print(f"value {_fmt(sol.values[0][g0])}")
    return 0


def _read_mf_policy(path, model, model_path):
    """Rebuild the kernels of a solve-mf policy.csv as policy_kernels gives
    them: one PolicyKernel when stationary, one per stage otherwise, shared
    by equal tables.  The manifest next to the file must record a solve of
    the model file at `model_path`; the kernels live on the grid of the
    mesh it records."""
    params = _solved_manifest(Path(path).parent, "solve-mf", model_path)["params"]
    X = model.num_states
    grid = simplex_grid(params["mesh"], X, cap=params["cap"])
    keys = [(1, "grid ordinal", len(grid)), (2 + X, "state", X)]
    stages, stationary = _checked_stages(path, _headers("solve-mf", model)[1], keys, grid.points)
    kernels = _shared_kernels(grid, (rows[..., 3 + X:] for rows in stages))
    return kernels[0] if stationary else kernels


# ---- simulate ----


def _lifted_policy_from_dir(model, model_path, directory, agents):
    """The Solution that a solve-n run of the model file at `model_path`
    wrote to `directory`, read from its values.csv."""
    params = _solved_manifest(directory, "solve-n", model_path)["params"]
    if params["agents"] != agents:
        raise ValueError(f"policy was solved for N={params['agents']}, requested N={agents}")
    mdp = build_measure_mdp(model, agents, cap=params["cap"])
    stages, stationary = _checked_stages(
        Path(directory) / "values.csv", _headers("solve-n", model)[0], [(1, "ordinal", len(mdp))],
        np.array([state.counts for state in mdp.states]), 0,
        np.diff(mdp.act_off, append=len(mdp.joint_actions)))
    values, choices = stages[..., -2], stages[..., -1].astype(np.int64)
    return Solution(mdp, tuple(values), tuple(choices), stationary)


def _cmd_simulate(args, argv):
    model = load_model(args.model)
    horizon = _horizon_from_args(args)
    if args.uniform_kernel:
        rows = np.full((model.num_states, model.num_actions), 1.0 / model.num_actions)
        policy = PolicyKernel.constant(rows, simplex_grid(2, model.num_states))
    elif args.policy_file:
        policy = _read_mf_policy(args.policy_file, model, args.model)
    else:
        policy = _lifted_policy_from_dir(model, args.model, args.lifted_dir, args.agents)
    config = SimConfig(
        population=args.agents,
        horizon=horizon,
        policy=policy,
        replications=args.replications,
        seed=args.seed,
        truncation_error=args.trunc_error,
    )
    report = simulate_n_agents(model, config)
    out = _write_manifest(args, argv)
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    se = "none" if report.std_error is None else _fmt(report.std_error)
    print(f"mean_cost {_fmt(report.mean_cost)}")
    print(f"std_error {se}")
    return 0


# ---- gap-table ----


def _cmd_gap_table(args, argv):
    model = load_model(args.model)
    rows = epsilon_gap(model, args.agents, _horizon_from_args(args), args.mesh,
                       args.policy_mesh, cap=args.cap)
    out = _write_manifest(args, argv)
    header = ["N", "J_opt", "J_policy", "eps_N", "status"]
    lines = []
    for r in rows:
        if r.status == "ok":
            lines.append(f"{r.population},{_fmt(r.optimal_value)},"
                         f"{_fmt(r.policy_value)},{_fmt(r.gap)},ok")
            print(f"N={r.population} J_opt={_fmt(r.optimal_value)} "
                  f"J_policy={_fmt(r.policy_value)} eps={_fmt(r.gap)}")
        else:
            lines.append(f"{r.population},,,,{r.status}")
            print(f"N={r.population} {r.status}")
    _write_csv(out / "gap.csv", header, lines)
    return 0


# ---- counterexample ----


def _counterexample_values(mesh_u):
    model = load_model(bundled_path("counterexample"))
    start = rank_compositions((0, 2))
    asym = float(solve(build_measure_mdp(model, 2), FiniteHorizon(2)).values[0][start])
    sym = {}
    for m in sorted({2, mesh_u}):
        sol = solve_symmetric_restricted(
            model, 2, FiniteHorizon(2), policy_grid(m, 2, 2)
        )
        sym[m] = float(sol.values[0][start])
    return asym, sym


def _cmd_counterexample(args, argv):
    asym, sym = _counterexample_values(args.mesh_u)
    gap = sym[2] - asym
    if args.json:
        payload = {
            "asymmetric_optimal": asym,
            "symmetric_restricted": sym[2],
            "gap": gap,
        }
        if args.mesh_u != 2:
            payload[f"symmetric_restricted_mesh_{args.mesh_u}"] = sym[args.mesh_u]
        print(json.dumps(payload))
    else:
        print(f"{_fmt(asym)} {_fmt(sym[2])} {_fmt(gap)}")
        if args.mesh_u != 2:
            print(f"symmetric_mesh_{args.mesh_u} {_fmt(sym[args.mesh_u])}")
    if abs(asym - 0.5) > 1e-9 or abs(sym[2] - 0.75) > 1e-9:
        print("self-test failed: expected 0.5 and 0.75", file=sys.stderr)
        return 3
    return 0


# ---- flow ----


def _cmd_flow(args, argv):
    model = load_model(args.model)
    pi = _read_mf_policy(args.policy_file, model, args.model)
    traj = flow_trajectory(model, model.initial_dist, pi, args.steps)
    out = _write_manifest(args, argv)
    header = ["t"] + [f"mu_{x}" for x in range(model.num_states)]
    lines = [",".join([str(t), *map(_fmt, row)]) for t, row in enumerate(traj)]
    _write_csv(out / "trajectory.csv", header, lines)
    print(f"final {' '.join(_fmt(v) for v in traj[-1])}")
    return 0


# ---- parser ----


@functools.cache
def _build_parser():
    """The parser of every subcommand, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="mfteams",
        description="Exact solvers and simulators for mean-field team problems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-n", help="solve the exact N-agent lifted MDP")
    p.add_argument("model", type=_resolve_model_path, help="model JSON path or bundled name")
    p.add_argument("-N", "--agents", type=int, required=True)
    _add_horizon_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve_n)

    p = sub.add_parser("solve-mf", help="solve the quantized mean-field limit MDP")
    p.add_argument("model", type=_resolve_model_path)
    _add_horizon_flags(p)
    p.add_argument("--mesh", type=int, default=8)
    p.add_argument("--policy-mesh", type=int, default=8)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve_mf)

    p = sub.add_parser("simulate", help="Monte Carlo rollouts of the N-agent system")
    p.add_argument("model", type=_resolve_model_path)
    p.add_argument("-N", "--agents", type=int, required=True)
    _add_horizon_flags(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--policy-file", help="policy.csv from a solve-mf run")
    src.add_argument("--lifted-dir", help="output directory of a solve-n run")
    src.add_argument("--uniform-kernel", action="store_true",
                     help="shared uniform action kernel")
    p.add_argument("--replications", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trunc-error", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gap-table", help="optimality gap of the limit policy per N")
    p.add_argument("model", type=_resolve_model_path)
    p.add_argument("--agents", type=_populations, required=True,
                   help="comma-separated population sizes")
    _add_horizon_flags(p)
    p.add_argument("--mesh", type=int, default=8)
    p.add_argument("--policy-mesh", type=int, default=8)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gap_table)

    p = sub.add_parser("counterexample",
                       help="self-test on the bundled two-agent example")
    p.add_argument("--mesh-u", type=int, default=2, dest="mesh_u")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("flow", help="deterministic limit flow under a saved policy")
    p.add_argument("model", type=_resolve_model_path)
    p.add_argument("--policy-file", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_flow)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)  # a missing model file raises here
        return args.func(args, argv)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ModelError, EnumerationCapError, ValueError, ConvergenceError,
            OverflowError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2
    except RuntimeError as err:  # a computed value broke a bound it must hold
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
