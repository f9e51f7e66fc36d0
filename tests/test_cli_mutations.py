"""The command line never ends in a traceback.

Each generated run replaces one thing of a valid run with a bad value: one
JSON value of a bundled model, at any depth; one key of a saved run's
manifest.json; one cell of a saved values.csv or policy.csv; or one
numeric option.  Run in process, as tests/test_cli.py runs it, no
exception may escape `cli.main`, the exit code must be 0, 1, 2 or 3, and a
nonzero exit prints exactly one `error:` line.  argparse refuses a bad
option by raising SystemExit(2) after its own one error line, which is
the exit of a real process, so it counts as exit 2.  Populations stay at
most 4 and meshes at most 8.
"""

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfteams.cli import main
from mfteams.models import BUNDLED, bundled_path

# bad JSON values: objects, strings, bools, null, ragged and mixed lists,
# sizes, probabilities and numbers beyond the float range
BAD_JSON = [{}, {"a": 1}, [], [[1, 2], [3]], [1, "2"], [None], [True, 0.5], "", "abc", "1",
            True, False, None, -1, 0, 1, 3, 0.5, -0.5, 2.5, 1e308, -1e308, float("nan"),
            float("inf"), 10**30, 10**400]
# bad CSV cells and option values; LARGE only where a large value is refused at once
BAD_TEXT = ["", " ", "abc", "0", "1", "-1", "-3", "2.5", "99", "nan", "inf", "-inf", "1e400",
            "1e-400", "stationary", "0x10"]
LARGE = "99999999999999999999"


def _exit(argv):
    """(exit code, stderr) of one in-process run of the command line."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as stop:  # argparse's exit on a bad option
            code = stop.code
    return code, err.getvalue()


def _assert_documented_exit(argv):
    code, err = _exit(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code:
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, (argv, err)


def _json_paths(node, path=()):
    """The path of every value of a parsed JSON document, the document's own first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _replaced(doc, path, value):
    """A copy of `doc` with the value at `path` replaced by `value`."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


MODELS = {name: json.loads(Path(bundled_path(name)).read_text()) for name in BUNDLED}
MODEL_PATHS = [(name, path) for name in sorted(MODELS) for path in _json_paths(MODELS[name])]

# the runs that read a model file, each at N <= 4 and mesh <= 8
MODEL_RUNS = [
    ["solve-n", "{model}", "-N", "2", "--horizon", "2", "--out", "{tmp}/o"],
    ["solve-mf", "{model}", "--mesh", "4", "--policy-mesh", "2", "--discount", "0.9",
     "--out", "{tmp}/o"],
    ["simulate", "{model}", "-N", "3", "--horizon", "3", "--uniform-kernel",
     "--replications", "3", "--seed", "1", "--out", "{tmp}/o"],
]


def _fill(argv, **where):
    return [a.format(**where) for a in argv]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(target=st.sampled_from(MODEL_PATHS), value=st.sampled_from(BAD_JSON),
       run=st.sampled_from(MODEL_RUNS))
@example(target=("weakly_coupled", ("cost_const",)), value={}, run=MODEL_RUNS[0])
@example(target=("counterexample", ("initial_dist",)), value={"a": 1}, run=MODEL_RUNS[1])
@example(target=("decoupled", ("kernel_base", 0)), value=[1, "2"], run=MODEL_RUNS[2])
def test_a_model_file_with_one_bad_value_exits_with_a_documented_code(target, value, run):
    name, path = target
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(_replaced(MODELS[name], path, value)))
        _assert_documented_exit(_fill(run, model=model, tmp=tmp))


@pytest.mark.parametrize("field, value, message", [
    ("cost_const", {}, "expected numbers, got {}"),
    ("initial_dist", {"a": 1}, "expected numbers, got {'a': 1}"),
    ("kernel_base", "abc", "expected numbers, got 'abc'"),
    ("cost_const", [[1, 2], [3]], "is a ragged list"),
    ("initial_dist", [True, False], "expected numbers, got True"),
    ("cost_const", [["1", "2"], ["3", "4"]], "expected numbers, got '1'"),
])
def test_a_model_array_that_is_not_numbers_exits_2_naming_the_field(tmp_path, field, value,
                                                                    message):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**MODELS["weakly_coupled"], field: value}))
    code, err = _exit(["solve-n", model, "-N", "3", "--horizon", "2", "--out", tmp_path / "o"])
    assert (code, err) == (2, f"error: {field}: {message}\n")


# each saved run: the run that saves it, and the runs that read it back
SAVED = {
    "solve-n": (["solve-n", "counterexample", "-N", "2", "--horizon", "2", "--out", "{out}"],
                [["simulate", "counterexample", "-N", "2", "--horizon", "2", "--lifted-dir",
                  "{saved}", "--replications", "3", "--seed", "1", "--out", "{tmp}/o"]]),
    "solve-mf": (["solve-mf", "counterexample", "--mesh", "4", "--policy-mesh", "2",
                  "--horizon", "2", "--out", "{out}"],
                 [["simulate", "counterexample", "-N", "3", "--horizon", "2", "--policy-file",
                   "{saved}/policy.csv", "--replications", "3", "--seed", "1", "--out", "{tmp}/o"],
                  ["flow", "counterexample", "--policy-file", "{saved}/policy.csv", "--steps", "2",
                   "--out", "{tmp}/o"]]),
}


@pytest.fixture(scope="module")
def saved_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    for command, (argv, _) in SAVED.items():
        assert _exit(_fill(argv, out=root / command))[0] == 0
    return root


def _read_back(saved_runs, command, edit, reader):
    """Run `reader` of the saved `command` run after `edit` changed a copy of it."""
    with tempfile.TemporaryDirectory() as tmp:
        saved = Path(tmp) / "saved"
        shutil.copytree(saved_runs / command, saved)
        edit(saved)
        _assert_documented_exit(_fill(SAVED[command][1][reader], saved=saved, tmp=tmp))


MANIFEST_KEYS = ["command", "argv", "model_path", "model_sha256", "params", "seed", "version",
                 "params.agents", "params.mesh", "params.cap", "params.horizon",
                 "params.discount"]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(command=st.sampled_from(sorted(SAVED)), reader=st.integers(0, 1),
       key=st.sampled_from(MANIFEST_KEYS), value=st.sampled_from(BAD_JSON + ["drop"]))
def test_a_manifest_with_one_bad_key_exits_with_a_documented_code(saved_runs, command, reader,
                                                                  key, value):
    def edit(saved):
        manifest = json.loads((saved / "manifest.json").read_text())
        parent, _, name = key.rpartition(".")
        where = manifest[parent] if parent else manifest
        if value == "drop":
            where.pop(name, None)
        else:
            where[name] = value
        (saved / "manifest.json").write_text(json.dumps(manifest))

    _read_back(saved_runs, command, edit, reader % len(SAVED[command][1]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(SAVED)), reader=st.integers(0, 1),
       line=st.integers(0, 40), column=st.integers(0, 12), value=st.sampled_from(BAD_TEXT))
def test_a_saved_csv_with_one_bad_cell_exits_with_a_documented_code(saved_runs, command, reader,
                                                                    line, column, value):
    name = "values.csv" if command == "solve-n" else "policy.csv"

    def edit(saved):
        rows = [text.split(",") for text in (saved / name).read_text().splitlines()]
        row = rows[line % len(rows)]
        row[column % len(row)] = value
        (saved / name).write_text("\n".join(",".join(r) for r in rows) + "\n")

    _read_back(saved_runs, command, edit, reader % len(SAVED[command][1]))


# runs with every numeric option; the options whose large value would be
# built or stepped through (populations, meshes, replications) never take it
OPTION_RUNS = [
    ["solve-n", "weakly_coupled", "-N", "3", "--discount", "0.9", "--eps", "1e-8",
     "--cap", "100000", "--out", "{tmp}/o"],
    ["solve-n", "counterexample", "-N", "2", "--horizon", "2", "--out", "{tmp}/o"],
    ["solve-mf", "weakly_coupled", "--mesh", "4", "--policy-mesh", "2", "--horizon", "2",
     "--cap", "100000", "--out", "{tmp}/o"],
    ["simulate", "weakly_coupled", "-N", "3", "--discount", "0.9", "--uniform-kernel",
     "--replications", "3", "--seed", "1", "--trunc-error", "1e-6", "--out", "{tmp}/o"],
    ["gap-table", "weakly_coupled", "--agents", "2,3", "--horizon", "2", "--mesh", "4",
     "--policy-mesh", "2", "--cap", "100000", "--out", "{tmp}/o"],
    ["counterexample", "--mesh-u", "2"],
    ["flow", "counterexample", "--policy-file", "{saved}/policy.csv", "--steps", "3",
     "--out", "{tmp}/o"],
]
SMALL_ONLY = {"-N", "--agents", "--mesh", "--policy-mesh", "--replications"}
NUMERIC = SMALL_ONLY | {"--horizon", "--discount", "--eps", "--cap", "--seed", "--trunc-error",
                       "--mesh-u", "--steps"}
OPTIONS = [(r, i) for r, argv in enumerate(OPTION_RUNS) for i, a in enumerate(argv)
           if a in NUMERIC]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(option=st.sampled_from(OPTIONS), value=st.sampled_from(BAD_TEXT + [LARGE]))
def test_one_bad_numeric_option_exits_with_a_documented_code(saved_runs, option, value):
    r, i = option
    argv = list(OPTION_RUNS[r])
    if value == LARGE and argv[i] in SMALL_ONLY:
        value = "-1"
    argv[i + 1] = value
    with tempfile.TemporaryDirectory() as tmp:
        _assert_documented_exit(_fill(argv, tmp=tmp, saved=saved_runs / "solve-mf"))
