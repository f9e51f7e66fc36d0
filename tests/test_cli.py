import json
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfteams import (
    DiscountedHorizon,
    FiniteHorizon,
    build_measure_mdp,
    build_mkv_mdp,
    load_model,
    policy_kernels,
    save_model,
    solve,
)
from mfteams.cli import _lifted_policy_from_dir, _read_mf_policy, main
from mfteams.models import bundled_path

from conftest import make_random_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- counterexample ----


def test_counterexample_prints_exact_values(capsys):
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    assert out.splitlines()[0] == "0.5 0.75 0.25"


def test_counterexample_json(capsys):
    code, out, _ = run(capsys, "counterexample", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["asymmetric_optimal"] == pytest.approx(0.5, abs=1e-9)
    assert payload["symmetric_restricted"] == pytest.approx(0.75, abs=1e-9)
    assert payload["gap"] == pytest.approx(0.25, abs=1e-9)


def test_counterexample_finer_action_mesh(capsys):
    code, out, _ = run(capsys, "counterexample", "--mesh-u", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0.5 0.75 0.25"
    tag, value = lines[1].split()
    assert tag == "symmetric_mesh_4"
    # the mesh-4 kernel grid contains the mesh-2 optimum
    assert 0.5 - 1e-12 <= float(value) <= 0.75 + 1e-12


# ---- solve-n ----


def test_solve_n_outputs_and_reruns_identically(capsys, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code, out_text, _ = run(
            capsys, "solve-n", "counterexample", "-N", "2",
            "--horizon", "2", "--out", str(out),
        )
        assert code == 0
        lines = out_text.splitlines()
        assert lines[0] == "mu0_counts (0, 2)"
        assert lines[1] == "value 0.5"
    for name in ("values.csv", "policy.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    man_a = json.loads((out_a / "manifest.json").read_text())
    man_b = json.loads((out_b / "manifest.json").read_text())
    assert man_a["model_sha256"] == man_b["model_sha256"]
    assert len(man_a["model_sha256"]) == 64
    assert man_a["command"] == "solve-n"
    header = (out_a / "values.csv").read_text().splitlines()[0]
    assert header == "stage,ordinal,count_0,count_1,value,action_ordinal"


def test_solve_n_missing_model(capsys, tmp_path):
    code, _, err = run(capsys, "solve-n", str(tmp_path / "nope.json"), "-N", "2",
                       "--horizon", "2", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "not found" in err


def test_solve_n_malformed_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "solve-n", str(bad), "-N", "2",
                       "--horizon", "2", "--out", str(tmp_path / "o"))
    assert code == 1


def test_solve_n_invalid_model(capsys, tmp_path):
    cfg = {
        "num_states": 2,
        "num_actions": 2,
        "kernel_base": [[[0.9, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "cost_const": [[0.0, 0.0], [0.0, 0.0]],
        "discount": 1.0,
        "initial_dist": [0.5, 0.5],
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "solve-n", str(path), "-N", "2",
                       "--horizon", "2", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "kernel_base" in err


NAN_START_RUNS = {
    "solve-n": ["solve-n", "-N", "4", "--horizon", "2"],
    "simulate": ["simulate", "-N", "4", "--horizon", "2", "--uniform-kernel",
                 "--replications", "10", "--seed", "1"],
    "solve-mf": ["solve-mf", "--horizon", "2", "--mesh", "8", "--policy-mesh", "2"],
}


@pytest.mark.parametrize("command", sorted(NAN_START_RUNS))
def test_nan_initial_dist_exits_2(capsys, tmp_path, command):
    cfg = json.loads(Path(bundled_path("weakly_coupled")).read_text())
    cfg["initial_dist"] = [float("nan"), 1.0]
    path = tmp_path / "nan_start.json"
    path.write_text(json.dumps(cfg))
    name, *flags = NAN_START_RUNS[command]
    code, _, err = run(capsys, name, str(path), *flags, "--out", str(tmp_path / "o"))
    assert code == 2
    assert "initial_dist: initial_dist has non-finite entry nan at index 0" in err


def test_solve_n_cap_exceeded(capsys, tmp_path):
    code, _, err = run(capsys, "solve-n", "counterexample", "-N", "40",
                       "--horizon", "2", "--cap", "100",
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert "cap" in err


# ---- solve-mf and downstream consumers ----


def test_solve_mf_then_simulate_policy_file(capsys, tmp_path):
    mf_out = tmp_path / "mf"
    code, out, _ = run(capsys, "solve-mf", "decoupled", "--discount", "0.9",
                       "--mesh", "4", "--policy-mesh", "2", "--out", str(mf_out))
    assert code == 0
    assert out.splitlines()[0].startswith("mu0_ordinal ")
    sim_out = tmp_path / "sim"
    code, out, _ = run(
        capsys, "simulate", "decoupled", "-N", "4", "--horizon", "3",
        "--policy-file", str(mf_out / "policy.csv"),
        "--replications", "200", "--seed", "5", "--out", str(sim_out),
    )
    assert code == 0
    report = json.loads((sim_out / "report.json").read_text())
    assert report["replications"] == 200
    assert report["steps"] == 3
    assert report["chaos_series"] is not None


def test_simulate_refuses_a_nan_policy_row(capsys, tmp_path):
    mf_out = tmp_path / "mf"
    code, _, _ = run(capsys, "solve-mf", "decoupled", "--discount", "0.9",
                     "--mesh", "4", "--policy-mesh", "2", "--out", str(mf_out))
    assert code == 0
    policy = mf_out / "policy.csv"
    header, first, *rest = policy.read_text().splitlines()
    policy.write_text("\n".join([header, ",".join(first.split(",")[:-2] + ["nan", "1"]), *rest]))
    code, _, err = run(capsys, "simulate", "decoupled", "-N", "4", "--horizon", "3",
                       "--policy-file", str(policy), "--replications", "10", "--seed", "5",
                       "--out", str(tmp_path / "sim"))
    assert code == 2
    assert "kernel row (grid 0, state 0) has non-finite entry nan at index 0" in err


def _first_row(edit):
    """An edit of a policy file's rows, each a field list (stage, g, mu_0,
    mu_1, x, pi_0, pi_1), that applies `edit` to the first row only."""
    return lambda rows: [edit(rows[0])] + rows[1:]


# a decoupled mesh-4 policy has grid ordinals 0..4 and states 0..1
MALFORMED_POLICY_ROWS = {
    "state 7": (_first_row(lambda p: p[:4] + ["7"] + p[5:]), "state 7 in "),
    "state 2": (_first_row(lambda p: p[:4] + ["2"] + p[5:]), "state 2 in "),
    "state 0.5": (_first_row(lambda p: p[:4] + ["0.5"] + p[5:]), "state 0.5 in "),
    "state -1": (lambda rows: [p[:4] + ["-1"] + p[5:] if p[4] == "1" else p for p in rows],
                 "state -1 in "),
    "cut row": (_first_row(lambda p: p[:-1]), "has a row whose columns do not match its header"),
    "grid ordinal 5": (_first_row(lambda p: p[:1] + ["5"] + p[2:]), "grid ordinal 5 in "),
    # the first row again, with its action law (1, 0) turned into (0, 1)
    "repeated row": (lambda rows: rows + [rows[0][:-2] + ["0", "1"]],
                     "has 2 rows, not one, for stationary stage 0 and grid ordinal 0 and state 0"),
    "missing row": (lambda rows: rows[1:],
                    "has 0 rows, not one, for stationary stage 0 and grid ordinal 0 and state 0"),
    "off-grid cells": (_first_row(lambda p: p[:2] + ["0.5"] + p[3:]),
                       "line 2 of "),
    "mu_1 abc": (_first_row(lambda p: p[:3] + ["abc"] + p[4:]),
                 "policy.csv, line 2, column 4 (mu_1) holds 'abc', not a number"),
    "header only": (lambda rows: [], "policy.csv holds its header and no rows"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_POLICY_ROWS))
def test_malformed_policy_row_exits_2(capsys, tmp_path, case):
    mf_out = tmp_path / "mf"
    code, _, _ = run(capsys, "solve-mf", "decoupled", "--discount", "0.9",
                     "--mesh", "4", "--policy-mesh", "2", "--out", str(mf_out))
    assert code == 0
    policy = mf_out / "policy.csv"
    header, *lines = policy.read_text().splitlines()
    edit, message = MALFORMED_POLICY_ROWS[case]
    rows = edit([line.split(",") for line in lines])
    policy.write_text("\n".join([header] + [",".join(parts) for parts in rows]) + "\n")
    code, _, err = run(capsys, "flow", "decoupled", "--policy-file", str(policy),
                       "--steps", "2", "--out", str(tmp_path / "flow"))
    assert code == 2
    assert err.startswith("error: ") and message in err


# a counterexample N=2 values.csv row is (stage, ordinal, count_0, count_1, value,
# action_ordinal); ordinal 0 holds the counts (2, 0) and has 3 joint actions
MALFORMED_VALUES_ROWS = {
    "action_ordinal 99": (_first_row(lambda p: p[:-1] + ["99"]),
                          "action_ordinal 99 in "),
    "action_ordinal -1": (_first_row(lambda p: p[:-1] + ["-1"]),
                          "action_ordinal -1 in "),
    "cut row": (_first_row(lambda p: p[:-1]), "has a row whose columns do not match its header"),
    "repeated ordinal": (_first_row(lambda p: p[:1] + ["1"] + p[2:]),
                         "has 0 rows, not one, for stage 0 and ordinal 0"),
    "other counts": (_first_row(lambda p: p[:2] + ["1", "1"] + p[4:]), "line 2 of "),
    "stage 2": (lambda rows: [p if p[0] == "0" else ["2"] + p[1:] for p in rows],
                "does not number its stages from 0"),
    "value abc": (_first_row(lambda p: p[:4] + ["abc"] + p[5:]),
                  "values.csv, line 2, column 5 (value) holds 'abc', not a number"),
    "header only": (lambda rows: [], "values.csv holds its header and no rows"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VALUES_ROWS))
def test_malformed_lifted_values_row_exits_2(capsys, tmp_path, case):
    solve_out = tmp_path / "solve"
    code, _, _ = run(capsys, "solve-n", "counterexample", "-N", "2", "--horizon", "2",
                     "--out", str(solve_out))
    assert code == 0
    values = solve_out / "values.csv"
    header, *lines = values.read_text().splitlines()
    edit, message = MALFORMED_VALUES_ROWS[case]
    rows = edit([line.split(",") for line in lines])
    values.write_text("\n".join([header] + [",".join(parts) for parts in rows]) + "\n")
    code, _, err = run(capsys, "simulate", "counterexample", "-N", "2", "--horizon", "2",
                       "--lifted-dir", str(solve_out), "--replications", "10", "--seed", "1",
                       "--out", str(tmp_path / "sim"))
    assert code == 2
    assert err.startswith("error: ") and message in err


# a header that names one column differently, and the run that reads the file
OTHER_HEADERS = {
    "solve-n": (["solve-n", "-N", "2", "--horizon", "2"], "values.csv", "action_ordinal", "action",
                ["simulate", "-N", "2", "--horizon", "2", "--replications", "10", "--seed", "1",
                 "--lifted-dir"]),
    "solve-mf": (["solve-mf", "--discount", "0.9", "--mesh", "2", "--policy-mesh", "2"],
                 "policy.csv", "pi_1", "pi_2", ["flow", "--steps", "2", "--policy-file"]),
}


@pytest.mark.parametrize("command", sorted(OTHER_HEADERS))
def test_saved_solution_with_another_header_exits_2(capsys, tmp_path, command):
    solve_argv, name, column, renamed, read_argv = OTHER_HEADERS[command]
    saved = tmp_path / "saved"
    code, _, _ = run(capsys, solve_argv[0], "counterexample", *solve_argv[1:], "--out", str(saved))
    assert code == 0
    header, rest = (saved / name).read_text().split("\n", 1)
    (saved / name).write_text(header.replace(column, renamed) + "\n" + rest)
    source = saved if name == "values.csv" else saved / name
    code, _, err = run(capsys, read_argv[0], "counterexample", *read_argv[1:], str(source),
                       "--out", str(tmp_path / "read"))
    assert code == 2
    assert err == f"error: {saved / name} does not start with the header {header}\n"


@pytest.mark.parametrize("command", sorted(OTHER_HEADERS))
def test_saved_solution_rows_in_reverse_order_read_the_same(capsys, tmp_path, command):
    solve_argv, name, _, _, read_argv = OTHER_HEADERS[command]
    saved = tmp_path / "saved"
    code, _, _ = run(capsys, solve_argv[0], "counterexample", *solve_argv[1:], "--out", str(saved))
    assert code == 0
    source = saved if name == "values.csv" else saved / name
    outputs = []
    for reverse in (False, True):
        if reverse:
            header, *lines = (saved / name).read_text().splitlines()
            (saved / name).write_text("\n".join([header] + lines[::-1]) + "\n")
        code, out, _ = run(capsys, read_argv[0], "counterexample", *read_argv[1:], str(source),
                           "--out", str(tmp_path / f"read{reverse}"))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.sampled_from([2, 3]),
       num_actions=st.sampled_from([2, 3]), agents=st.integers(1, 4), mesh=st.integers(1, 4),
       policy_mesh=st.integers(1, 4), horizon=st.sampled_from(["1", "3", "0.5", "0.9"]))
def test_saved_solutions_read_back_as_solved(seed, num_states, num_actions, agents, mesh,
                                             policy_mesh, horizon):
    # 17 significant digits round-trip every float, so values and kernels come back bit-equal
    discounted = "." in horizon
    flag = "--discount" if discounted else "--horizon"
    objective = DiscountedHorizon(float(horizon)) if discounted else FiniteHorizon(int(horizon))
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(make_random_model(rng, num_states, num_actions, coupled=True), path)
        model = load_model(path)
        assert main(["solve-n", str(path), "-N", str(agents), flag, horizon,
                     "--out", f"{tmp}/n"]) == 0
        lifted = solve(build_measure_mdp(model, agents), objective)
        read = _lifted_policy_from_dir(model, path, f"{tmp}/n", agents)
        assert read.stationary == lifted.stationary
        assert len(read.choices) == len(lifted.choices)
        for got, want in zip(read.choices + read.values, lifted.choices + lifted.values):
            assert np.array_equal(got, want)
        assert main(["solve-mf", str(path), "--mesh", str(mesh), "--policy-mesh", str(policy_mesh),
                     flag, horizon, "--out", f"{tmp}/mf"]) == 0
        limit = policy_kernels(solve(build_mkv_mdp(model, mesh, policy_mesh), objective))
        kernels = _read_mf_policy(f"{tmp}/mf/policy.csv", model, path)
        if lifted.stationary:
            kernels, limit = [kernels], [limit]
        assert len(kernels) == len(limit)
        # stages with equal tables share one kernel
        ids, tables = [id(k) for k in kernels], [k.table.tobytes() for k in kernels]
        assert [ids.index(i) for i in ids] == [tables.index(t) for t in tables]
        for got, want in zip(kernels, limit):
            assert np.array_equal(got.grid.points, want.grid.points)
            assert np.array_equal(got.table, want.table)


def test_flow_refuses_negative_steps(capsys, tmp_path):
    policy = solve_mf_counterexample(capsys, tmp_path / "mf")
    code, _, err = run(capsys, "flow", "counterexample", "--policy-file", str(policy),
                       "--steps", "-1", "--out", str(tmp_path / "flow"))
    assert code == 2
    assert err == "error: steps must be >= 0, got -1\n"


def test_flow_refuses_steps_beyond_the_limit_at_once(capsys, tmp_path):
    policy = solve_mf_counterexample(capsys, tmp_path / "mf")
    start = time.perf_counter()
    code, _, err = run(capsys, "flow", "counterexample", "--policy-file", str(policy),
                       "--steps", str(10**14), "--out", str(tmp_path / "flow"))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == f"error: {10**14} steps are above the rollout and flow limit of 100000\n"
    assert not (tmp_path / "flow").exists()


def test_finite_rollout_refuses_steps_beyond_the_limit_at_once(capsys, tmp_path, monkeypatch):
    rollouts = []
    monkeypatch.setattr("mfteams.sim._rollout", lambda *args: rollouts.append(args))
    start = time.perf_counter()
    code, _, err = run(capsys, "simulate", "decoupled", "-N", "4", "--horizon", str(10**14),
                       "--uniform-kernel", "--replications", "10", "--seed", "1",
                       "--out", str(tmp_path / "o"))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and rollouts == []
    assert err == f"error: {10**14} steps are above the rollout and flow limit of 100000\n"


@pytest.mark.parametrize("message, expected", [
    ("Unable to allocate 728. TiB for an array with shape (100000000000000,) and data type int64",
     "Unable to allocate 728. TiB for an array with shape (100000000000000,) and data type int64"),
    ("", "MemoryError"),
])
def test_memory_error_exits_2_with_one_error_line(capsys, tmp_path, monkeypatch, message,
                                                  expected):
    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr("mfteams.cli.simulate_n_agents", out_of_memory)
    code, _, err = run(capsys, "simulate", "decoupled", "-N", "4", "--discount", "0.9",
                       "--uniform-kernel", "--replications", "10", "--seed", "1",
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: {expected}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_solve_mf_refuses_a_non_finite_eps_at_once(capsys, tmp_path, value):
    start = time.perf_counter()
    code, _, err = run(capsys, "solve-mf", "decoupled", "--discount", "0.9", "--mesh", "4",
                       "--policy-mesh", "2", f"--eps={value}", "--out", str(tmp_path / "o"))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == f"error: epsilon must be finite and > 0, got {float(value)}\n"


def test_solve_mf_staged_policy_then_flow(capsys, tmp_path):
    mf_out = tmp_path / "mf"
    code, _, _ = run(capsys, "solve-mf", "counterexample", "--horizon", "2",
                     "--mesh", "2", "--policy-mesh", "2", "--out", str(mf_out))
    assert code == 0
    flow_out = tmp_path / "flow"
    code, out, _ = run(capsys, "flow", "counterexample",
                       "--policy-file", str(mf_out / "policy.csv"),
                       "--steps", "2", "--out", str(flow_out))
    assert code == 0
    lines = (flow_out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,mu_0,mu_1"
    assert len(lines) == 4
    assert out.startswith("final ")
    # a 2-stage policy cannot drive a 3-step flow
    code, _, err = run(capsys, "flow", "counterexample",
                       "--policy-file", str(mf_out / "policy.csv"),
                       "--steps", "3", "--out", str(tmp_path / "f2"))
    assert code == 2
    assert "kernels" in err


def test_simulate_uniform_kernel(capsys, tmp_path):
    out = tmp_path / "sim"
    code, text, _ = run(
        capsys, "simulate", "counterexample", "-N", "2", "--horizon", "2",
        "--uniform-kernel", "--replications", "2000", "--seed", "7",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["mean_cost"] - 0.75) <= 4.0 * report["std_error"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["params"]["uniform_kernel"] is True


def test_simulate_lifted_round_trip(capsys, tmp_path):
    solve_out = tmp_path / "solve"
    run(capsys, "solve-n", "counterexample", "-N", "2", "--horizon", "2",
        "--out", str(solve_out))
    sim_out = tmp_path / "sim"
    code, text, _ = run(
        capsys, "simulate", "counterexample", "-N", "2", "--horizon", "2",
        "--lifted-dir", str(solve_out), "--replications", "100", "--seed", "1",
        "--out", str(sim_out),
    )
    assert code == 0
    report = json.loads((sim_out / "report.json").read_text())
    # the optimal two-agent play is deterministic from the point-mass start
    assert report["mean_cost"] == 0.5
    assert report["std_error"] == 0.0
    code, _, err = run(
        capsys, "simulate", "counterexample", "-N", "3", "--horizon", "2",
        "--lifted-dir", str(solve_out), "--replications", "10", "--seed", "1",
        "--out", str(tmp_path / "bad"),
    )
    assert code == 2
    assert "N=3" in err


def test_simulate_refuses_a_lifted_policy_with_other_stages(capsys, tmp_path):
    solve_out = tmp_path / "solve"
    run(capsys, "solve-n", "counterexample", "-N", "2", "--horizon", "4",
        "--out", str(solve_out))
    code, _, err = run(
        capsys, "simulate", "counterexample", "-N", "2", "--horizon", "2",
        "--lifted-dir", str(solve_out), "--replications", "10", "--seed", "1",
        "--out", str(tmp_path / "sim"),
    )
    assert code == 2
    assert err == "error: got 4 policy tables for 2 stages\n"


def test_simulate_refuses_a_lifted_policy_of_another_model(capsys, tmp_path):
    solve_out = tmp_path / "solve"
    run(capsys, "solve-n", "counterexample", "-N", "2", "--horizon", "2",
        "--out", str(solve_out))
    code, _, err = run(
        capsys, "simulate", "weakly_coupled", "-N", "2", "--horizon", "2",
        "--lifted-dir", str(solve_out), "--replications", "10", "--seed", "1",
        "--out", str(tmp_path / "sim"),
    )
    assert code == 2
    assert err.startswith("error: ") and "another model" in err


def solve_mf_counterexample(capsys, out):
    code, _, _ = run(capsys, "solve-mf", "counterexample", "--discount", "0.9",
                     "--mesh", "2", "--policy-mesh", "2", "--out", str(out))
    assert code == 0
    return out / "policy.csv"


def test_simulate_refuses_a_policy_file_of_another_model_or_command(capsys, tmp_path):
    policy = solve_mf_counterexample(capsys, tmp_path / "mf")
    argv = ["simulate", "weakly_coupled", "-N", "4", "--horizon", "3", "--replications", "10",
            "--seed", "1", "--out", str(tmp_path / "sim")]
    code, _, err = run(capsys, *argv, "--policy-file", str(policy))
    assert code == 2
    assert "another model" in err
    # the same file next to the manifest of a solve-n run
    lifted_out = tmp_path / "n"
    run(capsys, "solve-n", "weakly_coupled", "-N", "2", "--horizon", "2", "--out", str(lifted_out))
    (lifted_out / "policy.csv").write_bytes(policy.read_bytes())
    code, _, err = run(capsys, *argv, "--policy-file", str(lifted_out / "policy.csv"))
    assert code == 2
    assert "does not hold a solve-mf run" in err


def test_flow_refuses_a_policy_file_of_another_model(capsys, tmp_path):
    policy = solve_mf_counterexample(capsys, tmp_path / "mf")
    code, _, err = run(capsys, "flow", "weakly_coupled", "--policy-file", str(policy),
                       "--steps", "3", "--out", str(tmp_path / "flow"))
    assert code == 2
    assert "another model" in err
    code, _, _ = run(capsys, "flow", "counterexample", "--policy-file", str(policy),
                     "--steps", "3", "--out", str(tmp_path / "flow"))
    assert code == 0


def test_cap_bounds_lifted_transition_entries(capsys, tmp_path):
    # X = U = 3 at N = 12: 125,970 joint actions times 91 measures
    path = tmp_path / "x3.json"
    save_model(make_random_model(np.random.default_rng(3), 3, 3, coupled=True), path)
    start = time.perf_counter()
    code, _, err = run(capsys, "solve-n", str(path), "-N", "12", "--horizon", "2",
                       "--out", str(tmp_path / "o"))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == ("error: lifted transition rows needs 11463270 entries, "
                   "above the cap of 5000000\n")
    code, out, _ = run(capsys, "gap-table", str(path), "--agents", "2,12", "--horizon", "2",
                       "--mesh", "4", "--policy-mesh", "2", "--out", str(tmp_path / "g"))
    assert code == 0
    assert "N=12 skipped: lifted transition rows needs 11463270 entries" in out


def test_simulate_replication_guard(capsys, tmp_path):
    code, _, _ = run(
        capsys, "simulate", "counterexample", "-N", "2", "--horizon", "2",
        "--uniform-kernel", "--replications", "0", "--seed", "1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2


def test_simulate_population_beyond_int64_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "weakly_coupled", "-N", str(10**20), "--horizon", "2",
        "--uniform-kernel", "--replications", "2", "--seed", "1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "int64" in err


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_simulate_refuses_a_bad_truncation_error(capsys, tmp_path, value):
    start = time.perf_counter()
    code, _, err = run(
        capsys, "simulate", "weakly_coupled", "-N", "4", "--discount", "0.9",
        "--uniform-kernel", "--replications", "10", "--seed", "1",
        f"--trunc-error={value}", "--out", str(tmp_path / "o"),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == f"error: truncation_error must be finite and > 0, got {float(value)}\n"


def test_simulate_refuses_a_truncation_beyond_the_step_limit(capsys, tmp_path, monkeypatch):
    rollouts = []
    monkeypatch.setattr("mfteams.sim._rollout", lambda *args: rollouts.append(args))
    code, _, err = run(
        capsys, "simulate", "weakly_coupled", "-N", "4", "--discount", "0.9999",
        "--uniform-kernel", "--replications", "10", "--seed", "1", "--out", str(tmp_path / "o"),
    )
    assert code == 2 and rollouts == []
    assert err.startswith("error: truncation error 1e-06 at beta=0.9999 needs ")
    needed = int(err.split(" needs ")[1].split()[0])
    assert needed > 100_000 and err.endswith(f"{needed} steps, above the limit of 100000\n")
    assert not (tmp_path / "o").exists()


def test_simulate_has_no_eps_option(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "weakly_coupled", "-N", "4", "--discount", "0.9",
              "--uniform-kernel", "--replications", "2", "--seed", "1",
              "--eps", "1e-3", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eps" in capsys.readouterr().err


def test_repeated_simulate_writes_identical_bytes(capsys, tmp_path):
    reports = []
    for name in ("first", "second"):
        out = tmp_path / name
        code, _, _ = run(
            capsys, "simulate", "weakly_coupled", "-N", "6", "--horizon", "4",
            "--uniform-kernel", "--replications", "300", "--seed", "12",
            "--out", str(out),
        )
        assert code == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_non_convergence_exits_2_without_traceback(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("mfteams.lifted._MAX_SWEEPS", 3)
    # policy iteration needs 4 backups on this grid: 3 policies, then the stop
    code, _, err = run(
        capsys, "solve-mf", "weakly_coupled", "--discount", "0.999", "--mesh", "32",
        "--policy-mesh", "16", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "3 sweeps" in err and "beta=0.999" in err and "epsilon=1e-08" in err


def test_overflow_exits_2_without_traceback(capsys, tmp_path):
    code, _, err = run(
        capsys, "solve-n", "counterexample", "-N", "2", "--horizon", str(10**20),
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("horizon", [10**9, 10**20])
@pytest.mark.parametrize("command", [
    ["solve-n", "counterexample", "-N", "2"],
    ["solve-mf", "counterexample"],
])
def test_horizon_beyond_the_cap_exits_2_at_once(capsys, tmp_path, command, horizon):
    start = time.perf_counter()
    code, _, err = run(capsys, *command, "--horizon", str(horizon), "--out", str(tmp_path / "o"))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"value table over a {horizon}-stage horizon" in err


@pytest.mark.parametrize("command", [
    ["solve-n", "counterexample", "-N", "2"],
    ["solve-mf", "counterexample", "--mesh", "2", "--policy-mesh", "2"],
    ["gap-table", "counterexample", "--agents", "2", "--mesh", "2", "--policy-mesh", "2"],
])
def test_cap_bounds_finite_value_tables(capsys, tmp_path, command):
    # three measures or grid points: 33 stages fit a cap of 100, 34 do not
    code, _, _ = run(capsys, *command, "--horizon", "33", "--cap", "100",
                     "--out", str(tmp_path / "a"))
    assert code == 0
    code, _, err = run(capsys, *command, "--horizon", "34", "--cap", "100",
                       "--out", str(tmp_path / "b"))
    assert code == 2
    assert err == ("error: value table over a 34-stage horizon needs 102 entries, "
                   "above the cap of 100\n")


@pytest.mark.parametrize("argv", [
    ["solve-n", "weakly_coupled", "-N", "0", "--horizon", "2"],
    ["gap-table", "weakly_coupled", "--agents", "0,2", "--horizon", "2",
     "--mesh", "4", "--policy-mesh", "2"],
])
def test_empty_population_exits_2(capsys, tmp_path, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero warning on the way
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == "error: population must be >= 1\n"


# ---- gap-table ----


def test_gap_table_counterexample(capsys, tmp_path):
    out = tmp_path / "gap"
    code, text, _ = run(
        capsys, "gap-table", "counterexample", "--agents", "2", "--horizon", "2",
        "--mesh", "2", "--policy-mesh", "2", "--out", str(out),
    )
    assert code == 0
    lines = (out / "gap.csv").read_text().splitlines()
    assert lines[0] == "N,J_opt,J_policy,eps_N,status"
    fields = lines[1].split(",")
    assert fields[0] == "2"
    assert float(fields[3]) == pytest.approx(0.25, abs=1e-9)
    assert "eps=0.25" in text


def test_manifest_params_are_the_parsed_options(capsys, tmp_path):
    solve_opts = {"horizon", "discount", "eps", "cap"}
    expected = {
        "solve-n": {"agents"} | solve_opts,
        "solve-mf": {"mesh", "policy_mesh"} | solve_opts,
        "simulate": {"agents", "replications", "horizon", "discount", "trunc_error",
                     "policy_file", "lifted_dir", "uniform_kernel"},
        "gap-table": {"agents", "mesh", "policy_mesh"} | solve_opts,
        "flow": {"steps", "policy_file"},
    }
    policy = solve_mf_counterexample(capsys, tmp_path / "solve-mf")
    runs = {
        "solve-n": ["-N", "2", "--horizon", "2"],
        "simulate": ["-N", "2", "--horizon", "2", "--policy-file", str(policy),
                     "--replications", "4", "--seed", "3"],
        "gap-table": ["--agents", "2,3", "--horizon", "2", "--mesh", "2", "--policy-mesh", "2"],
        "flow": ["--policy-file", str(policy), "--steps", "2"],
    }
    for command, flags in runs.items():
        code, _, _ = run(capsys, command, "counterexample", *flags,
                         "--out", str(tmp_path / command))
        assert code == 0
    for command, keys in expected.items():
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["params"]) == keys
        assert manifest["model_path"] == str(Path(bundled_path("counterexample")))
        assert manifest["seed"] == (3 if command == "simulate" else None)
    gap = json.loads((tmp_path / "gap-table" / "manifest.json").read_text())
    assert gap["params"]["agents"] == [2, 3]


# ---- parser-level behavior ----


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
