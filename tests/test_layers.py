"""The import layering of the package: the limit view does not depend on
the N-agent module, no module imports the solver's private names,
`solver.stages` is the one stage rule, `solver.KernelMDP` the one record of
the kernel-choosing problems, the model's fields are the one list of its
config keys, and every enumeration cap is an integer.  Every file parses
as the oldest Python supported."""

import ast
from pathlib import Path

import pytest

import mfteams

PACKAGE = Path(mfteams.__file__).parent


def _imports(path):
    """(module, name) of every name `path` imports from the package, the
    module by its bare name: ("lifted", "x") for `from .lifted import x`,
    and ("lifted", None) for `from . import lifted` or `import
    mfteams.lifted`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.partition(".")[0] != "mfteams":
                    continue
                module = module.partition(".")[2]
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mfteams."):
                    yield alias.name.partition(".")[2], None


def test_mkv_skips_lifted_and_no_module_imports_a_private_solver_name():
    assert [m for m, _ in _imports(PACKAGE / "mkv.py") if m == "lifted"] == []
    private = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
               for module, name in _imports(path)
               if module == "solver" and name and name.startswith("_")]
    assert private == []
    assert "solver" in {m for m, _ in _imports(PACKAGE / "mkv.py")}


def test_no_module_defines_or_imports_a_second_stage_rule():
    # solver.stages maps every policy to stages and checks its kernels' shape
    retired = {"per_stage", "check_kernel_rows"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for a in node.names for n in (a.name.rpartition(".")[2], a.asname)]
            else:
                continue
            found += [(path.name, name) for name in names if name in retired]
    assert found == []


def test_one_record_holds_both_kernel_choosing_problems():
    # solver.KernelMDP is the restricted problem and the quantized limit alike,
    # so policy_kernels tells it by type and solve sizes every problem by len
    retired = {"RestrictedMDP", "MkvMDP"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for a in node.names for n in (a.name.rpartition(".")[2], a.asname)]
            else:
                continue
            found += [(path.name, name) for name in names if name in retired]
    assert found == []
    solver = {node.name: node for node in ast.parse((PACKAGE / "solver.py").read_text()).body
              if isinstance(node, ast.FunctionDef)}
    calls = {getattr(node.func, "id", None) for node in ast.walk(solver["policy_kernels"])
             if isinstance(node, ast.Call)}
    assert "hasattr" not in calls and "isinstance" in calls
    assert "states" not in {node.attr for node in ast.walk(solver["solve"])
                            if isinstance(node, ast.Attribute)}


def test_model_keys_are_listed_only_by_the_model_fields():
    # EnvironmentModel's fields say which config keys exist and which are required
    names = {node.id for node in ast.walk(ast.parse((PACKAGE / "model.py").read_text()))
             if isinstance(node, ast.Name)}
    assert names & {"_REQUIRED_KEYS", "_OPTIONAL_KEYS"} == set()


def _is_cap(node):
    """Whether `node` reads a cap: `cap`, `x.cap` or `x["cap"]`."""
    if isinstance(node, ast.Subscript):
        node = node.slice
        return isinstance(node, ast.Constant) and node.value == "cap"
    return getattr(node, "id", None) == "cap" or getattr(node, "attr", None) == "cap"


def test_every_cap_is_an_integer_checked_by_the_call_that_keeps_the_rows():
    # no cap defaults to or is compared with None, and the callers of
    # lifted._kernel_stage_data check the rows they keep, so it takes no cap
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = path.name, getattr(node, "lineno", None)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args
                defaults = list(zip(params[len(params) - len(a.defaults):], a.defaults))
                defaults += list(zip(a.kwonlyargs, a.kw_defaults))
                found += [(*where, "cap=None") for arg, d in defaults if arg.arg == "cap"
                          and isinstance(d, ast.Constant) and d.value is None]
                if getattr(node, "name", None) == "_kernel_stage_data":
                    found += [(*where, "cap parameter") for arg in params + a.kwonlyargs
                              if arg.arg == "cap"]
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_is_cap, operands)) and any(
                        isinstance(o, ast.Constant) and o.value is None for o in operands):
                    found.append((*where, "cap compared with None"))
    assert found == []


def test_every_file_parses_as_python_3_10():
    # requires-python is >= 3.10: newer syntax such as except* fails here, not only on 3.10
    root = Path(__file__).parent.parent
    paths = [p for d in ("src", "tests", "benchmarks") for p in sorted((root / d).rglob("*.py"))]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
