"""Command-line front end.

Subcommands: solve-n, solve-mf, simulate, gap-table, counterexample, flow.
Every run that writes files also writes a manifest.json recording the
resolved arguments, the model hash and the seed; the numeric outputs are
byte-reproducible from the manifest.  Floats are written with 17
significant digits.

Exit codes: 0 success, 1 I/O or parse failure, 2 validation, cap or
non-convergence failure, 3 self-test failure.
"""

from __future__ import annotations

import argparse
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
    build_measure_mdp,
    solve,
    solve_symmetric_restricted,
)
from .measures import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    num_compositions,
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


def _write_manifest(out, command, argv, model_path, params, seed=None):
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "argv": list(argv),
        "model_path": str(model_path),
        "model_sha256": _sha256(model_path),
        "params": params,
        "seed": seed,
        "version": __version__,
        "written_at": datetime.now(timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _solved_manifest(directory, command, model_path):
    """The manifest of the `command` run that wrote `directory`, refused
    unless that run solved the model file at `model_path`."""
    manifest = json.loads((Path(directory) / "manifest.json").read_text())
    if manifest.get("command") != command:
        raise ValueError(f"{directory} does not hold a {command} run")
    if manifest.get("model_sha256") != _sha256(model_path):
        raise ValueError(f"{directory} was solved for another model than {model_path}")
    return manifest


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


# ---- solve-n ----


def _cmd_solve_n(args, argv):
    model = load_model(_resolve_model_path(args.model))
    mdp = build_measure_mdp(model, args.agents, cap=args.cap)
    sol = solve(mdp, _horizon_from_args(args), args.cap)
    X, U = model.num_states, model.num_actions
    out = Path(args.out)
    _write_manifest(
        out, "solve-n", argv, _resolve_model_path(args.model),
        {"agents": args.agents, "horizon": getattr(args, "horizon", None),
         "discount": getattr(args, "discount", None), "eps": args.eps, "cap": args.cap},
    )
    header = (["stage", "ordinal"] + [f"count_{x}" for x in range(X)]
              + ["value", "action_ordinal"])
    rows = []
    prows = []
    pheader = (["stage", "ordinal", "action_ordinal"]
               + [f"theta_{x}_{u}" for x in range(X) for u in range(U)])
    labels = ["stationary"] if sol.stationary else range(len(sol.values))
    for stage, stage_values, stage_actions in zip(labels, sol.values, sol.choices):
        for i, state in enumerate(mdp.states):
            a = int(stage_actions[i])
            rows.append([str(stage), str(i)] + [str(c) for c in state.counts]
                        + [_fmt(stage_values[i]), str(a)])
            theta = mdp.actions[i][a]
            prows.append([str(stage), str(i), str(a)]
                         + [str(c) for row in theta.counts for c in row])
    _write_csv(out / "values.csv", header, rows)
    _write_csv(out / "policy.csv", pheader, prows)
    counts0 = round_to_counts(model.initial_dist, args.agents)
    i0 = rank_compositions(counts0)
    print(f"mu0_counts {counts0}")
    print(f"value {_fmt(sol.values[0][i0])}")
    return 0


# ---- solve-mf ----


def _cmd_solve_mf(args, argv):
    model = load_model(_resolve_model_path(args.model))
    mkv = build_mkv_mdp(model, args.mesh, args.policy_mesh, cap=args.cap)
    sol = solve(mkv, _horizon_from_args(args), args.cap)
    X, U = model.num_states, model.num_actions
    grid = mkv.state_grid
    out = Path(args.out)
    _write_manifest(
        out, "solve-mf", argv, _resolve_model_path(args.model),
        {"mesh": args.mesh, "policy_mesh": args.policy_mesh,
         "horizon": getattr(args, "horizon", None),
         "discount": getattr(args, "discount", None), "eps": args.eps, "cap": args.cap},
    )
    vheader = (["stage", "ordinal"] + [f"mu_{x}" for x in range(X)]
               + ["value", "policy_ordinal"])
    pheader = (["stage", "ordinal"] + [f"mu_{x}" for x in range(X)] + ["state"]
               + [f"pi_{u}" for u in range(U)])
    vrows, prows = [], []
    labels = ["stationary"] if sol.stationary else range(len(sol.values))
    points = [[str(g)] + [_fmt(v) for v in mu] for g, mu in enumerate(grid.points)]
    kernel_rows = {}  # the formatted (state, action law) rows of each chosen kernel
    for stage, stage_values, stage_choices in zip(labels, sol.values, sol.choices):
        for point, value, choice in zip(points, stage_values, stage_choices.tolist()):
            vrows.append([str(stage)] + point + [_fmt(value), str(choice)])
            if choice not in kernel_rows:
                kernel_rows[choice] = [[str(x)] + [_fmt(p) for p in row]
                                       for x, row in enumerate(mkv.policy_set.kernel(choice))]
            prows.extend([str(stage)] + point + row for row in kernel_rows[choice])
    _write_csv(out / "values.csv", vheader, vrows)
    _write_csv(out / "policy.csv", pheader, prows)
    g0 = grid.project(model.initial_dist)
    print(f"mu0_ordinal {g0}")
    print(f"value {_fmt(sol.values[0][g0])}")
    return 0


def _stage_rows(path):
    """(header, the rows of each stage, stationary) of a stage-labelled
    CSV file written by solve-n or solve-mf."""
    header, *lines = Path(path).read_text().strip().splitlines()
    stages = {}
    for line in lines:
        parts = line.split(",")
        stages.setdefault(parts[0], []).append(parts)
    if "stationary" in stages:
        if len(stages) != 1:
            raise ValueError("mixed stationary and staged policy rows")
        return header.split(","), [stages["stationary"]], True
    if set(stages) != set(map(str, range(len(stages)))):
        raise ValueError(f"{path} does not number its stages from 0")
    return header.split(","), [stages[str(t)] for t in range(len(stages))], False


def _read_mf_policy(path, model, model_path):
    """Rebuild the kernels of a solve-mf policy.csv as policy_kernels gives
    them: one PolicyKernel when stationary, one per stage otherwise.  The
    manifest next to the file must record a solve of the model file at
    `model_path`."""
    _solved_manifest(Path(path).parent, "solve-mf", model_path)
    header, stages, stationary = _stage_rows(path)
    num_states, num_actions = model.num_states, model.num_actions
    mu_cols = [i for i, h in enumerate(header) if h.startswith("mu_")]
    if not mu_cols or header[0] != "stage":
        raise ValueError(f"{path} is not a solve-mf policy file")
    cardinality = len(mu_cols)
    if cardinality != num_states:
        raise ValueError(f"policy file has {cardinality} states, model has {num_states}")
    state_col = header.index("state")
    pi_cols = [i for i, h in enumerate(header) if h.startswith("pi_")]
    if len(pi_cols) != num_actions:
        raise ValueError(f"policy file has {len(pi_cols)} actions, model has {num_actions}")
    size = max(int(parts[1]) for rows in stages for parts in rows) + 1
    mesh = 1
    while num_compositions(mesh, cardinality) < size:
        mesh += 1
    if num_compositions(mesh, cardinality) != size:
        raise ValueError(f"{size} grid points do not form a full simplex grid")
    grid = simplex_grid(mesh, cardinality)
    kernels = []
    for rows in stages:
        g = np.array([int(parts[1]) for parts in rows])
        x = np.array([int(parts[state_col]) for parts in rows])
        mus = np.array([[float(parts[i]) for i in mu_cols] for parts in rows])
        off = np.abs(mus - grid.points[g]).max(axis=1) > 1e-12
        if off.any():
            raise ValueError(f"grid point {g[off.argmax()]} in {path} is off-grid")
        table = np.zeros((size, num_states, num_actions))
        table[g, x] = [[float(parts[i]) for i in pi_cols] for parts in rows]
        kernels.append(PolicyKernel(grid, table))
    return kernels[0] if stationary else kernels


# ---- simulate ----


def _lifted_policy_from_dir(model, model_path, directory, agents):
    """The Solution that a solve-n run of the model file at `model_path`
    wrote to `directory`, read from its values.csv."""
    params = _solved_manifest(directory, "solve-n", model_path)["params"]
    if params["agents"] != agents:
        raise ValueError(f"policy was solved for N={params['agents']}, requested N={agents}")
    mdp = build_measure_mdp(model, agents, cap=params.get("cap") or DEFAULT_ENUMERATION_CAP)
    _, stages, stationary = _stage_rows(Path(directory) / "values.csv")
    if any([int(parts[1]) for parts in rows] != list(range(len(mdp))) for rows in stages):
        raise ValueError(f"{directory} does not list the {len(mdp)} measures of N={agents}")
    values = tuple(np.array([float(parts[-2]) for parts in rows]) for rows in stages)
    choices = tuple(np.array([int(parts[-1]) for parts in rows]) for rows in stages)
    return Solution(mdp, values, choices, stationary)


def _cmd_simulate(args, argv):
    model_path = _resolve_model_path(args.model)
    model = load_model(model_path)
    if args.replications < 1:
        raise ValueError("--replications must be >= 1")
    horizon = _horizon_from_args(args)
    if args.uniform_kernel:
        rows = np.full((model.num_states, model.num_actions), 1.0 / model.num_actions)
        policy = PolicyKernel.constant(rows, simplex_grid(2, model.num_states))
    elif args.policy_file:
        policy = _read_mf_policy(args.policy_file, model, model_path)
    else:
        policy = _lifted_policy_from_dir(model, model_path, args.lifted_dir, args.agents)
    config = SimConfig(
        population=args.agents,
        horizon=horizon,
        policy=policy,
        replications=args.replications,
        seed=args.seed,
        truncation_error=args.trunc_error,
    )
    report = simulate_n_agents(model, config)
    out = Path(args.out)
    _write_manifest(
        out, "simulate", argv, model_path,
        {"agents": args.agents, "replications": args.replications,
         "horizon": getattr(args, "horizon", None),
         "discount": getattr(args, "discount", None), "trunc_error": args.trunc_error,
         "policy_file": args.policy_file, "lifted_dir": args.lifted_dir,
         "uniform_kernel": args.uniform_kernel},
        seed=args.seed,
    )
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    se = "none" if report.std_error is None else _fmt(report.std_error)
    print(f"mean_cost {_fmt(report.mean_cost)}")
    print(f"std_error {se}")
    return 0


# ---- gap-table ----


def _cmd_gap_table(args, argv):
    model = load_model(_resolve_model_path(args.model))
    populations = [int(p) for p in args.agents.split(",")]
    if not populations:
        raise ValueError("--agents must list at least one population size")
    horizon = _horizon_from_args(args)
    rows = epsilon_gap(model, populations, horizon, args.mesh, args.policy_mesh,
                       cap=args.cap)
    out = Path(args.out)
    _write_manifest(
        out, "gap-table", argv, _resolve_model_path(args.model),
        {"agents": populations, "mesh": args.mesh, "policy_mesh": args.policy_mesh,
         "horizon": getattr(args, "horizon", None),
         "discount": getattr(args, "discount", None), "eps": args.eps, "cap": args.cap},
    )
    header = ["N", "J_opt", "J_policy", "eps_N", "status"]
    csv_rows = []
    for r in rows:
        if r.status == "ok":
            csv_rows.append([str(r.population), _fmt(r.optimal_value),
                             _fmt(r.policy_value), _fmt(r.gap), "ok"])
            print(f"N={r.population} J_opt={_fmt(r.optimal_value)} "
                  f"J_policy={_fmt(r.policy_value)} eps={_fmt(r.gap)}")
        else:
            csv_rows.append([str(r.population), "", "", "", r.status])
            print(f"N={r.population} {r.status}")
    _write_csv(out / "gap.csv", header, csv_rows)
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
    model_path = _resolve_model_path(args.model)
    model = load_model(model_path)
    pi = _read_mf_policy(args.policy_file, model, model_path)
    traj = flow_trajectory(model, model.initial_dist, pi, args.steps)
    out = Path(args.out)
    _write_manifest(
        out, "flow", argv, model_path,
        {"steps": args.steps, "policy_file": args.policy_file},
    )
    header = ["t"] + [f"mu_{x}" for x in range(model.num_states)]
    rows = [[str(t)] + [_fmt(v) for v in traj[t]] for t in range(args.steps + 1)]
    _write_csv(out / "trajectory.csv", header, rows)
    print(f"final {' '.join(_fmt(v) for v in traj[-1])}")
    return 0


# ---- parser ----


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mfteams",
        description="Exact solvers and simulators for mean-field team problems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-n", help="solve the exact N-agent lifted MDP")
    p.add_argument("model", help="model JSON path or bundled name")
    p.add_argument("-N", "--agents", type=int, required=True)
    _add_horizon_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve_n)

    p = sub.add_parser("solve-mf", help="solve the quantized mean-field limit MDP")
    p.add_argument("model")
    _add_horizon_flags(p)
    p.add_argument("--mesh", type=int, default=8)
    p.add_argument("--policy-mesh", type=int, default=8)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve_mf)

    p = sub.add_parser("simulate", help="Monte Carlo rollouts of the N-agent system")
    p.add_argument("model")
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
    p.add_argument("model")
    p.add_argument("--agents", required=True, help="comma-separated population sizes")
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
    p.add_argument("model")
    p.add_argument("--policy-file", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_flow)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ModelError, EnumerationCapError, ValueError, ConvergenceError,
            OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
