import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfteams import save_model
from mfteams.cli import main
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


def test_simulate_has_no_eps_option(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "weakly_coupled", "-N", "4", "--discount", "0.9",
              "--uniform-kernel", "--replications", "2", "--seed", "1",
              "--eps", "1e-3", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eps" in capsys.readouterr().err


def test_simulate_worker_count_does_not_change_bytes(capsys, tmp_path, monkeypatch):
    reports = []
    for workers, name in (("1", "w1"), ("4", "w4")):
        monkeypatch.setenv("MFTEAMS_WORKERS", workers)
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
    monkeypatch.setattr("mfteams.lifted._MAX_SWEEPS", 5)
    code, _, err = run(
        capsys, "solve-mf", "decoupled", "--discount", "0.999", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "5 sweeps" in err and "beta=0.999" in err and "epsilon=1e-08" in err


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


# ---- parser-level behavior ----


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
