"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail
line; run with `pytest -s tests/test_acceptance.py` to see them inline.
All tolerances are stated next to the assertions.
"""

import json
import time
from contextlib import contextmanager
from itertools import permutations
from math import comb, sqrt

import numpy as np
import pytest

from mfteams import (
    DiscountedHorizon,
    FiniteHorizon,
    PolicyKernel,
    bellman_backup,
    build_measure_mdp,
    build_mkv_mdp,
    chaos_gap,
    epsilon_gap,
    exact_action_distribution,
    realize_exchangeable_action,
    solve,
    verify_markov_mf,
)
from mfteams.cli import main
from mfteams.measures import (
    EmpiricalJointMeasure,
    rank_compositions,
    round_to_counts,
    simplex_grid,
)

from conftest import make_random_model

SEED = 20260823


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} {name}: PASS")


@pytest.fixture()
def bundled(counterexample, decoupled, weakly_coupled):
    return {
        "counterexample": counterexample,
        "decoupled": decoupled,
        "weakly_coupled": weakly_coupled,
    }


def test_criterion_01_counterexample_exactness(capsys):
    with criterion(1, "counterexample exactness"):
        start = time.perf_counter()
        code = main(["counterexample", "--json"])
        elapsed = time.perf_counter() - start
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(payload["asymmetric_optimal"] - 0.5) <= 1e-9
        assert abs(payload["symmetric_restricted"] - 0.75) <= 1e-9
        assert abs(payload["gap"] - 0.25) <= 1e-9
        assert elapsed < 1.0


def test_criterion_02_kernel_stochasticity(bundled):
    with criterion(2, "kernel stochasticity"):
        for model in bundled.values():
            grid = simplex_grid(8, model.num_states)
            for g in range(len(grid)):
                tens = model.kernel_tensor_at(grid.point(g))
                assert tens.min() >= -1e-12
                assert np.abs(tens.sum(axis=2) - 1.0).max() <= 1e-12
            for population in range(1, 7):
                mdp = build_measure_mdp(model, population)
                for i in range(len(mdp.states)):
                    for _, probs in mdp.transitions[i]:
                        assert probs.min() >= -1e-12
                        assert abs(probs.sum() - 1.0) <= 1e-12


def test_criterion_03_decoupled_oracle_equivalence(decoupled):
    with criterion(3, "decoupled single-agent oracle"):
        start = time.perf_counter()
        A, c0, beta = decoupled.kernel_base, decoupled.cost_const, decoupled.discount
        worst = 0.0
        for population in (1, 2, 3, 4):
            mdp = build_measure_mdp(decoupled, population)
            fracs = np.array([s.as_distribution() for s in mdp.states])
            for steps in (1, 2, 3):
                V = np.zeros(2)
                for t in range(steps - 1, -1, -1):
                    q = c0 + (beta if t < steps - 1 else 0.0) * np.einsum(
                        "xuy,y->xu", A, V
                    )
                    V = q.min(axis=1)
                values = solve(mdp, FiniteHorizon(steps)).values
                worst = max(worst, np.abs(values[0] - fracs @ V).max())
            # discounted: sweep to the greedy policy, then solve it exactly
            V = np.zeros(2)
            for _ in range(400):
                V = (c0 + beta * np.einsum("xuy,y->xu", A, V)).min(axis=1)
            act = (c0 + beta * np.einsum("xuy,y->xu", A, V)).argmin(axis=1)
            P = A[np.arange(2), act]
            V = np.linalg.solve(np.eye(2) - beta * P, c0[np.arange(2), act])
            table = solve(mdp, DiscountedHorizon(epsilon=1e-10)).values[0]
            worst = max(worst, np.abs(table - fracs @ V).max())
        assert worst <= 1e-10
        assert time.perf_counter() - start < 10.0


def test_criterion_04_exchangeability():
    with criterion(4, "exchangeable action realization"):
        rng = np.random.default_rng(SEED)
        # permutation invariance of the exact distribution, N <= 4
        for population in (2, 3, 4):
            for _ in range(4):
                states = tuple(int(s) for s in rng.integers(0, 2, size=population))
                counts = np.bincount(states, minlength=2)
                rows = tuple(
                    tuple(int(c) for c in rng.multinomial(n, [0.5, 0.5]))
                    for n in counts
                )
                theta = EmpiricalJointMeasure(rows, population)
                dist = exact_action_distribution(states, theta)
                for sigma in permutations(range(population)):
                    permuted = exact_action_distribution(
                        tuple(states[sigma[i]] for i in range(population)), theta
                    )
                    tv = 0.5 * sum(
                        abs(
                            permuted.get(
                                tuple(a[sigma[i]] for i in range(population)), 0.0
                            )
                            - p
                        )
                        for a, p in dist.items()
                    )
                    assert tv <= 1e-12
        # sampled frequencies over 1e5 seeded draws
        theta = EmpiricalJointMeasure(((1, 0), (1, 1)), 3)
        states = [1, 1, 0]
        dist = exact_action_distribution(states, theta)
        draws = 100_000
        tally = {}
        sampler = np.random.default_rng(SEED)
        for _ in range(draws):
            key = tuple(
                int(u) for u in realize_exchangeable_action(states, theta, sampler)
            )
            tally[key] = tally.get(key, 0) + 1
        assert set(tally) == set(dist)
        for outcome, p in dist.items():
            se = sqrt(p * (1.0 - p) / draws)
            assert abs(tally[outcome] / draws - p) <= 3.0 * se


def test_criterion_05_markov_summary(counterexample, weakly_coupled):
    with criterion(5, "measure summary is controlled Markov"):
        rng = np.random.default_rng(SEED)
        for model in (counterexample, weakly_coupled):
            for population in (2, 3):
                for _ in range(3):
                    grid = simplex_grid(2, 2)
                    table = rng.dirichlet(np.ones(2), size=(len(grid), 2))
                    report = verify_markov_mf(
                        model, population, PolicyKernel(grid, table), t_max=2
                    )
                    assert report.max_deviation <= 1e-12
        # negative control: agent-indexed kernels break the summary
        grid = simplex_grid(1, 2)
        follow = PolicyKernel.constant(np.eye(2), grid)
        oppose = PolicyKernel.constant(np.eye(2)[::-1].copy(), grid)
        uniform = PolicyKernel.constant(np.full((2, 2), 0.5), grid)
        report = verify_markov_mf(weakly_coupled, 3, [follow, oppose, uniform], t_max=2)
        assert report.max_deviation > 1e-6


def test_criterion_06_near_optimality_trend(weakly_coupled, decoupled):
    with criterion(6, "limit policy near-optimality trend"):
        start = time.perf_counter()
        rows = epsilon_gap(weakly_coupled, [2, 4, 8, 16], FiniteHorizon(3), 16, 8)
        gaps = {r.population: r.gap for r in rows}
        assert all(r.status == "ok" for r in rows)
        assert all(g >= -1e-9 for g in gaps.values())
        assert gaps[16] <= gaps[2]
        rows = epsilon_gap(decoupled, [2, 4, 8, 16], FiniteHorizon(3), 16, 8)
        assert all(r.status == "ok" and abs(r.gap) <= 1e-9 for r in rows)
        assert time.perf_counter() - start < 60.0


def test_criterion_07_value_convergence_to_limit(bundled):
    with criterion(7, "finite-N optimum approaches the limit value"):
        for name, model in bundled.items():
            mkv = build_mkv_mdp(model, 16, 8)
            sol = solve(mkv, FiniteHorizon(3))
            j_hat = sol.values[0][mkv.state_grid.project(model.initial_dist)]
            diffs = {}
            for population in (2, 16):
                mdp = build_measure_mdp(model, population)
                values = solve(mdp, FiniteHorizon(3)).values
                i0 = rank_compositions(round_to_counts(model.initial_dist, population))
                diffs[population] = abs(values[0][i0] - j_hat)
            # models whose optimum is representable at every N give equality
            assert diffs[16] <= diffs[2] + 1e-12
            if name == "weakly_coupled":
                assert diffs[16] < diffs[2]


def test_criterion_08_quantization_refinement(bundled):
    with criterion(8, "quantized limit values refine with the mesh"):
        for name, model in bundled.items():
            values = {}
            for mesh in (4, 8, 16):
                mkv = build_mkv_mdp(model, mesh, 8)
                sol = solve(mkv, FiniteHorizon(3))
                values[mesh] = sol.values[0][
                    mkv.state_grid.project(model.initial_dist)
                ]
            d_coarse = abs(values[4] - values[8])
            d_fine = abs(values[8] - values[16])
            assert d_fine <= d_coarse + 1e-12
            if name != "counterexample":
                assert d_fine < d_coarse


def test_criterion_09_propagation_of_chaos(counterexample):
    with criterion(9, "empirical measures approach the limit flow"):
        uniform = PolicyKernel.constant(np.full((2, 2), 0.5), simplex_grid(2, 2))
        rows = chaos_gap(
            counterexample, [2, 8, 32, 128], uniform,
            steps=3, replications=3000, seed=SEED,
        )
        gaps = [r.mean_max_gap for r in rows]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3] > 0.0
        assert 1.5 <= gaps[1] / gaps[2] <= 3.0
        # at t=1 the measure is Bin(N,1/2)/N and the L1 gap is exact
        for row in rows:
            n = row.population
            exact = 2.0 * sum(
                comb(n, k) * 0.5**n * abs(k / n - 0.5) for k in range(n + 1)
            )
            assert abs(row.per_step_mean[1] - exact) <= 3.0 * row.per_step_se[1]


def test_criterion_10_contraction_and_monotonicity():
    with criterion(10, "Bellman contraction and monotone values"):
        rng = np.random.default_rng(SEED)
        for trial in range(6):
            model = make_random_model(rng, coupled=trial % 2 == 0, discount=0.9)
            mdp = build_measure_mdp(model, 3)
            beta = model.discount
            for _ in range(5):
                j_a = rng.normal(size=len(mdp.states))
                j_b = rng.normal(size=len(mdp.states))
                out_a, _ = bellman_backup(mdp, j_a)
                out_b, _ = bellman_backup(mdp, j_b)
                assert (
                    np.abs(out_a - out_b).max()
                    <= beta * np.abs(j_a - j_b).max() + 1e-12
                )
            mkv = build_mkv_mdp(model, 4, 2)
            for _ in range(5):
                j_a = rng.normal(size=len(mkv.state_grid))
                j_b = rng.normal(size=len(mkv.state_grid))
                out_a = (mkv.stage_cost + beta * j_a[mkv.successor]).min(axis=1)
                out_b = (mkv.stage_cost + beta * j_b[mkv.successor]).min(axis=1)
                assert (
                    np.abs(out_a - out_b).max()
                    <= beta * np.abs(j_a - j_b).max() + 1e-12
                )
            prev_lift, prev_mf = None, None
            for steps in (1, 2, 3, 4):
                head = solve(mdp, FiniteHorizon(steps)).values[0]
                mf = solve(mkv, FiniteHorizon(steps)).values[0]
                if prev_lift is not None:
                    assert (head >= prev_lift - 1e-12).all()
                    assert (mf >= prev_mf - 1e-12).all()
                prev_lift, prev_mf = head, mf


def test_criterion_11_manifest_determinism(capsys, tmp_path, monkeypatch):
    with criterion(11, "manifest re-execution reproduces bytes"):
        # solver outputs: re-run from the recorded argv into a fresh dir
        first = tmp_path / "solve"
        assert main([
            "solve-n", "counterexample", "-N", "3", "--horizon", "2",
            "--out", str(first),
        ]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        replay_argv = list(manifest["argv"])
        replay = tmp_path / "replay"
        replay_argv[replay_argv.index(str(first))] = str(replay)
        assert main(replay_argv) == 0
        for name in ("values.csv", "policy.csv"):
            assert (first / name).read_bytes() == (replay / name).read_bytes()
        # simulation outputs: byte-identical at different worker counts
        reports = []
        for workers in ("1", "3"):
            monkeypatch.setenv("MFTEAMS_WORKERS", workers)
            out = tmp_path / f"sim{workers}"
            assert main([
                "simulate", "weakly_coupled", "-N", "8", "--horizon", "3",
                "--uniform-kernel", "--replications", "400", "--seed", str(SEED),
                "--out", str(out),
            ]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        # gap tables: independent reruns agree byte for byte
        tables = []
        for name in ("gap1", "gap2"):
            out = tmp_path / name
            assert main([
                "gap-table", "counterexample", "--agents", "2,4", "--horizon", "2",
                "--mesh", "4", "--policy-mesh", "2", "--out", str(out),
            ]) == 0
            tables.append((out / "gap.csv").read_bytes())
        assert tables[0] == tables[1]
        capsys.readouterr()  # drop accumulated CLI stdout
