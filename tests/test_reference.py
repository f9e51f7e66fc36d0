"""The lifted, restricted and exact-evaluation builds against the reference
builds in `reference.py`, float for float, the stage rule against the
reference stage rule, object for object, and the reader of saved tables
against the reference reader, array for array and message for message."""

import contextlib
import functools
import io
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import reference
from mfteams import DiscountedHorizon, FiniteHorizon, PolicyKernel, cli, lifted, solver
from mfteams.lifted import (
    _FLOAT_MAX,
    _kernel_stage_data,
    build_measure_mdp,
    evaluate_symmetric_policy_exact,
    solve_symmetric_restricted,
)
from mfteams.measures import composition_array, policy_grid, simplex_grid
from mfteams.mkv import build_mkv_mdp
from mfteams.models import load_bundled

from conftest import make_random_model
from test_lifted import _model_with_zeros, _rows_with_zeros


def assert_same_mdp(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.sampled_from([2, 3]),
       num_actions=st.sampled_from([2, 3]), data=st.data(), num_kernels=st.integers(1, 3))
@example(seed=5, num_states=3, num_actions=3, data=None, num_kernels=3)
@example(seed=6, num_states=2, num_actions=3, data=None, num_kernels=2)
def test_builds_match_the_reference(seed, num_states, num_actions, data, num_kernels):
    most = 16 if num_states == 2 else 6
    population = most if data is None else data.draw(st.integers(1, most), label="population")
    rng = np.random.default_rng(seed)
    model = _model_with_zeros(rng, num_states, num_actions)
    mdp = build_measure_mdp(model, population)
    assert_same_mdp(mdp.operator, reference.lifted_operator(mdp))
    counts = composition_array(population, num_states)
    kernels = _rows_with_zeros(rng, (len(counts), num_kernels, num_states, num_actions))
    assert_same_mdp(_kernel_stage_data(model, counts, kernels),
                    reference._kernel_stage_data(model, counts, kernels))


def test_seed_21_build_matches_the_reference():
    mdp = build_measure_mdp(make_random_model(np.random.default_rng(21), 3, 3, coupled=True), 8)
    assert_same_mdp(mdp.operator, reference.lifted_operator(mdp))


@pytest.mark.parametrize("laws, totals", [
    ([[0.5, 0.5], [0.3, 0.7]], range(1030, 1101)),
    # one total: the reference's Python-integer coefficients take a second at X = 3
    ([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]], [1030]),
])
def test_multinomials_beyond_the_float_range_match_the_reference(laws, totals):
    # coefficients past the float range go to log space; one call serves every total
    parts = len(laws[0])
    rows = np.repeat(laws, len(totals), axis=0)
    got = lifted._Convolver(parts, max(totals)).multinomial(rows, np.tile(totals, len(laws)))
    ref = reference._Convolver(parts)
    want = np.concatenate([ref.multinomial(law[None], n)[0]
                           for law, n in zip(rows, np.tile(totals, len(laws)).tolist())])
    assert got.dtype == want.dtype and np.array_equal(got, want)



@pytest.mark.parametrize("parts, calls", [
    (1, [range(0, 40)]),
    (2, [range(0, 1101)]),
    # sparse totals, and a second call that keeps the first call's and adds the rest
    (2, [[0, 3, 7, 1025], [1, 3, 8, 700, 1025, 1100]]),
    (3, [range(0, 61), [64, 100]]),
    (3, [[680]]),  # past the float range at three parts
    (4, [range(0, 25)]),
])
def test_coefficients_are_the_exact_integers_rounded(parts, calls):
    # each total's floats are its exact integers rounded to nearest, 0.0 past the
    # float range, where _logs holds their indices and logarithms
    conv = lifted._Convolver(parts, max(max(c) for c in calls))
    for totals in calls:
        conv._add_coefficients(sorted(totals))
    for n in sorted({n for c in calls for n in c}):
        exact = reference._multinomial_coefficients(n, parts)
        want = np.array([float(v) if v <= _FLOAT_MAX else 0.0 for v in exact])
        first = conv._first[n]
        assert conv._coefs[first : first + len(exact)].tobytes() == want.tobytes()
        big = [i for i, v in enumerate(exact) if v > _FLOAT_MAX]
        if big:
            index, logs = conv._logs[n]
            assert index.tolist() == big
            assert logs.tobytes() == np.array([math.log(exact[i]) for i in big]).tobytes()
        else:
            assert n not in conv._logs
    assert conv._coefs.size == sum(conv.sizes[n] for n in {n for c in calls for n in c})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_states=st.sampled_from([2, 3]),
       num_actions=st.sampled_from([2, 3]), population=st.integers(1, 8),
       steps=st.one_of(st.none(), st.integers(1, 4)), data=st.data())
@example(seed=7, num_states=3, num_actions=3, population=8, steps=4, data=None)
# at X = U = 4, a (K, U) @ (U, X) product of K > 1 kernels differs in the last bit from K
# products of one: each kernel must be multiplied as one block of its own
@example(seed=8, num_states=4, num_actions=4, population=4, steps=3, data=None)
def test_exact_evaluation_matches_the_per_kernel_reference(seed, num_states, num_actions,
                                                           population, steps, data):
    # one build holding every distinct kernel gives the values of one build per kernel
    rng = np.random.default_rng(seed)
    model = _model_with_zeros(rng, num_states, num_actions)
    pool = [PolicyKernel(grid, _rows_with_zeros(rng, (len(grid), num_states, num_actions)))
            for grid in [simplex_grid(m, num_states) for m in (1, 2, 4, 4)]]
    if steps is None:
        horizon = DiscountedHorizon()
        pi = pool[2] if data is None else data.draw(st.sampled_from(pool), label="kernel")
    elif data is None:
        horizon, pi = FiniteHorizon(steps), [pool[3], pool[0], pool[3], pool[2]][:steps]
    else:
        horizon = FiniteHorizon(steps, data.draw(st.sampled_from([None, 1.0]), label="beta"))
        pi = data.draw(st.one_of(
            st.sampled_from(pool),
            st.lists(st.sampled_from(pool), min_size=steps, max_size=steps)), label="kernels")
    event("discounted" if steps is None else
          f"{len({id(k) for k in ([pi] if isinstance(pi, PolicyKernel) else pi)})} distinct")
    got = evaluate_symmetric_policy_exact(model, population, pi, horizon)
    want = reference.evaluate_symmetric_policy_exact(model, population, pi, horizon)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---- the stage rule ----


@functools.cache
def _stage_rule_inputs():
    """Per model, (2, 2) and (2, 3), the model and the kernels of its
    shape, the last an equal table in a distinct object; and the
    Solutions of the (2, 2) model, kernel-choosing ones stationary and
    staged, and a lifted one, which chooses no kernels."""
    model = load_bundled("weakly_coupled")
    rng, grid = np.random.default_rng(4), simplex_grid(2, 2)
    inputs = []
    for m in (model, make_random_model(np.random.default_rng(3), 2, 3)):
        a, b = (PolicyKernel(grid, rng.dirichlet(np.ones(m.num_actions), size=(len(grid), 2)))
                for _ in "ab")
        inputs.append((m, [a, b, PolicyKernel(a.grid, a.table)]))
    mkv = build_mkv_mdp(model, 4, 2)
    solutions = [solver.solve(mkv, DiscountedHorizon(beta=0.9))]
    solutions += [solver.solve(mkv, FiniteHorizon(n)) for n in (1, 3, 5)]
    solutions.append(solve_symmetric_restricted(model, 3, FiniteHorizon(4), policy_grid(1, 2, 2)))
    solutions.append(solver.solve(build_measure_mdp(model, 2), FiniteHorizon(2)))
    return inputs, solutions


def _outcome(call):
    """(result, None), or (None, (type, message)) of a TypeError or ValueError."""
    try:
        return call(), None
    except (TypeError, ValueError) as err:
        return None, (type(err), str(err))


def _reference_stages(model, pi, steps):
    kernels = reference.per_stage(pi, steps)
    reference.check_kernel_rows(model, kernels)
    return kernels


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["bare", "list", "tuple", "solution"]),
       discounted=st.booleans(), wide=st.booleans(), fits=st.integers(0, 3))
def test_stages_match_the_reference_stage_rule(data, kind, discounted, wide, fits):
    # fits > 0 mostly gives as many stages as the policy has, all of the model's shape
    inputs, solutions = _stage_rule_inputs()
    (model, kernels), (_, other) = inputs[wide], inputs[not wide]
    pool = kernels if fits else kernels + other[:1]
    if kind == "solution":
        pi = data.draw(st.sampled_from(solutions), label="solution")
        size = len(pi.choices)
    else:
        size = data.draw(st.integers(0, 6), label="size")
    if discounted:
        steps = None
    elif kind == "solution" and not pi.stationary:
        steps = size if fits else data.draw(st.integers(0, 6), label="steps")
    else:
        steps = data.draw(st.integers(0, 6), label="steps")
    if kind == "bare":
        pi = data.draw(st.sampled_from(pool), label="kernel")
    elif kind != "solution":  # repeated objects, equal tables in distinct objects
        size = (1 if steps is None else steps) if fits else size
        pi = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size),
                       label="kernels")
        if pi and not fits and data.draw(st.booleans(), label="non-kernel"):
            pi[data.draw(st.integers(0, len(pi) - 1))] = data.draw(
                st.sampled_from(["x", None, np.ones(2)]))
        pi = tuple(pi) if kind == "tuple" else pi
    got, got_error = _outcome(lambda: solver.stages(model, pi, steps))
    if kind in ("list", "tuple") and any(k is None for k in pi):  # the reference let None by
        assert got_error == (TypeError, "expected shared kernels, got a NoneType")
        return
    want, want_error = _outcome(lambda: _reference_stages(model, pi, steps))
    assert got_error == want_error
    event("refused" if want is None else f"{len(got[0])} distinct kernels")
    if want is None:
        return
    distinct, block = got
    first = {}  # the reference's stages numbered by kernel object, in the order of first use
    assert block == [first.setdefault(id(k), len(first)) for k in want]
    assert len(distinct) == len(first)
    if isinstance(pi, solver.Solution):  # policy_kernels makes new objects at each call
        assert all(distinct[b].grid is k.grid and np.array_equal(distinct[b].table, k.table)
                   for b, k in zip(block, want))
    else:
        assert all(distinct[b] is k for b, k in zip(block, want))
    tail = min(t for t in range(len(block) + 1) if len(set(block[t:])) <= 1)
    assert tail == reference._tail_start(want)


# ---- saved tables ----


# solve-n and solve-mf runs of `decoupled` (2 states, 2 actions), stationary and staged
_SAVED = {
    "solve-n stationary": ["solve-n", "decoupled", "-N", "4", "--discount", "0.9"],
    "solve-n staged": ["solve-n", "decoupled", "-N", "4", "--horizon", "3"],
    "solve-mf stationary": ["solve-mf", "decoupled", "--discount", "0.9", "--mesh", "4",
                            "--policy-mesh", "2"],
    "solve-mf staged": ["solve-mf", "decoupled", "--horizon", "3", "--mesh", "4",
                        "--policy-mesh", "2"],
}


@pytest.fixture(scope="module")
def saved_tables(tmp_path_factory):
    """A directory for mutated tables and, per saved run, the lines of the table
    that its reader in `cli` checks and the arguments after the path it passes."""
    model, root = load_bundled("decoupled"), tmp_path_factory.mktemp("saved")
    mdp, grid = build_measure_mdp(model, 4), simplex_grid(4, 2)
    args = {
        "solve-n": ("values.csv", cli._headers("solve-n", model)[0], [(1, "ordinal", len(mdp))],
                    np.array([state.counts for state in mdp.states]), 0,
                    np.diff(mdp.act_off, append=len(mdp.joint_actions))),
        "solve-mf": ("policy.csv", cli._headers("solve-mf", model)[1],
                     [(1, "grid ordinal", len(grid)), (4, "state", 2)], grid.points),
    }
    tables = {}
    for name, argv in _SAVED.items():
        out = root / name.replace(" ", "_")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", str(out)]) == 0
        file, *rest = args[argv[0]]
        tables[name] = (out / file).read_text().splitlines(), rest
    return root, tables


def _read_outcome(reader, path, args):
    """The dtype, shape, bytes and stationary flag that `reader` returns, or the
    message of the ValueError it raises."""
    try:
        table, stationary = reader(path, *args)
    except ValueError as err:
        return None, str(err)
    return (table.dtype, table.shape, table.tobytes(), stationary), None


_CELLS = ["x", "", "1_000", "0_1", "1__0", "_1", "nan", "-1", "1e400", " 1", "0.5", "0", "1",
          "2", "3", "01", "1.0", "stationary"]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_SAVED)),
       mutation=st.sampled_from(["none", "cell", "stage label", "drop cell", "add cell",
                                 "drop line", "repeat line", "no body", "empty", "crlf"]))
@example(data=None, name="solve-mf staged", mutation="none")
def test_saved_tables_read_as_the_reference_reads_them(saved_tables, data, name, mutation):
    # one cell or one line changed: a ragged row, a wrong header, a cell that is not
    # a number or is one only with underscores, a stage-label error, an empty body
    root, tables = saved_tables
    lines, args = tables[name]
    rows = [line.split(",") for line in lines]
    if data is not None:
        i = data.draw(st.integers(0, len(rows) - 1), label="line")
        j = 0 if mutation == "stage label" else data.draw(
            st.integers(0, len(rows[i]) - 1), label="column")
        cell = data.draw(st.sampled_from(_CELLS), label="cell")
    if mutation in ("cell", "stage label"):
        rows[i][j] = cell
    elif mutation == "drop cell":
        del rows[i][j]
    elif mutation == "add cell":
        rows[i].insert(j, cell)
    elif mutation == "drop line":
        del rows[i]
    elif mutation == "repeat line":
        rows.insert(i, rows[i])
    elif mutation in ("no body", "empty"):
        rows = rows[: mutation == "no body"]
    path = root / "mutated.csv"
    path.write_text(("\r\n" if mutation == "crlf" else "\n").join(map(",".join, rows)) + "\n")
    got = _read_outcome(cli._checked_stages, path, args)
    want = _read_outcome(reference._checked_stages, path, args)
    assert got == want
    event("read" if want[1] is None else want[1].replace(str(path), "<file>")[:32])
