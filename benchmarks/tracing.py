"""Span tracing of mfteams from outside the package.

The tracer replaces each public function of the package modules, and a few
public methods, with a wrapper that records a span (name, start, end,
parent) in memory.  A function is replaced wherever it is bound: in its
defining module and in every module that imported it by name, so calls
between modules are seen too.  Private helpers are not wrapped; their time
counts as self time of the public function that called them.
"""

from __future__ import annotations

import csv
import functools
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "model", "measures", "lifted", "mkv", "sim")

# Public methods worth a span: the per-measure evaluations the solvers and
# samplers call in their inner loops.
METHODS = {
    "model": {"EnvironmentModel": ("kernel_tensor_at", "cost_matrix_at",
                                   "running_cost_tilde", "max_stage_cost")},
    "measures": {"SimplexGrid": ("project",)},
}


def _mdp_sizes(args, out):
    yield "nnz", sum(idx.size for rows in out.transitions for idx, _ in rows)


def _mkv_sizes(args, out):
    yield "grid_points", len(out.state_grid)
    yield "kernels", len(out.policy_set)
    yield "pairs", out.stage_cost.size


def _simulate_sizes(args, out):
    yield "agents", out.population
    yield "replications", out.replications
    yield "rollout_steps", out.steps * out.replications
    yield "agent_steps", out.population * out.steps * out.replications


def _chaos_sizes(args, out):
    reps, steps = args["replications"], args["steps"]
    for row in out:
        yield "agents", row.population
        yield "replications", reps
        yield "rollout_steps", steps * reps
        yield "agent_steps", row.population * steps * reps


SIZE_HOOKS = {
    "lifted.build_measure_mdp": _mdp_sizes,
    "mkv.build_mkv_mdp": _mkv_sizes,
    "sim.simulate_n_agents": _simulate_sizes,
    "sim.chaos_gap": _chaos_sizes,
    "measures.enumerate_empirical": lambda args, out: [("measures", len(out))],
    "measures.enumerate_joint_actions": lambda args, out: [("joint_actions", len(out))],
}


def unit_of(name):
    """Unit of a per-layer metric from its name: `x_per_y` is in the unit
    before `per`, a `_s`/`_ms` suffix is a time, `_share` a ratio, else a count."""
    tokens = name.rsplit(".", 1)[-1].split("_")
    if "per" in tokens:
        return tokens[tokens.index("per") - 1]
    return {"s": "s", "ms": "ms", "share": "ratio"}.get(tokens[-1], "count")


class Tracer:
    """Records spans of one traced pass in memory."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> module
        self.names = []
        self._ids = {}
        self.spans = []  # [name id, start, end, parent index]
        self.sizes = Counter()
        self._stack = [-1]
        self._patches = []

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = SIZE_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [nid, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if hook:
                try:
                    for key, amount in hook(signature.bind(*args, **kwargs).arguments, out):
                        self.sizes[key] += amount
                except (AttributeError, KeyError, TypeError):
                    pass  # a changed signature or result leaves the size unrecorded (0)
            return out

        return traced

    def install(self):
        """Wrap every public function where it is bound, and the listed methods."""
        targets = []
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and not inspect.isgeneratorfunction(obj)):
                    targets.append((f"{layer}.{attr}", obj))
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets}
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(module, attr, obj, wrappers[id(obj)])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(self.modules[layer], cls_name)
                for method in methods:
                    original = vars(cls).get(method)
                    if original is None:
                        continue
                    self._patch(cls, method, original,
                                self._wrap(f"{layer}.{cls_name}.{method}", original))

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.spans.clear()
        self.sizes.clear()

    def summary(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.spans)
        arr = np.array(self.spans, dtype=float).reshape(n, 4)
        name_ids = arr[:, 0].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64)
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        count = np.bincount(name_ids, minlength=len(self.names))
        total = np.bincount(name_ids, weights=dur, minlength=len(self.names))
        own = np.bincount(name_ids, weights=self_time, minlength=len(self.names))
        ids = self._ids

        # A function a later version removes reads as zero calls and zero time.
        def calls(name):
            return int(count[ids[name]]) if name in ids else 0

        def busy(*names):
            return float(sum(total[ids[name]] for name in names if name in ids))

        def per(amount, size, scale):
            return amount / size * scale if size else 0.0

        sizes = self.sizes
        rollouts = busy("sim.simulate_n_agents", "sim.chaos_gap")
        backups = dur[name_ids == ids.get("lifted.bellman_backup", -1)]
        m = {
            "lifted.build_s": busy("lifted.build_measure_mdp"),
            "lifted.nnz": sizes["nnz"],
            "lifted.multinomial.calls": calls("lifted.multinomial_count_distribution"),
            "lifted.multinomial_s": busy("lifted.multinomial_count_distribution"),
            "lifted.bellman_backup_ms": float(np.median(backups)) * 1e3 if backups.size else 0.0,
            "lifted.value_iteration_s": busy("lifted.value_iteration_finite",
                                             "lifted.value_iteration_discounted"),
            "lifted.restricted_s": busy("lifted.solve_symmetric_restricted"),
            "lifted.evaluate_exact_s": busy("lifted.evaluate_symmetric_policy_exact"),
            "lifted.realize_action.calls": calls("lifted.realize_exchangeable_action"),
            "mkv.build_s": busy("mkv.build_mkv_mdp"),
            "mkv.pairs": sizes["pairs"],
            "mkv.grid_points": sizes["grid_points"],
            "mkv.kernels": sizes["kernels"],
            "mkv.flow_s": busy("mkv.flow_trajectory"),
            "measures.project.calls": calls("measures.SimplexGrid.project"),
            "measures.project_s": busy("measures.SimplexGrid.project"),
            "measures.enumerate_s": busy("measures.enumerate_empirical",
                                         "measures.enumerate_joint_actions"),
            "measures.measures": sizes["measures"],
            "measures.joint_actions": sizes["joint_actions"],
            "model.kernel_tensor_at.calls": calls("model.EnvironmentModel.kernel_tensor_at"),
            "model.cost_matrix_at.calls": calls("model.EnvironmentModel.cost_matrix_at"),
            "model.load_s": busy("model.load_model"),
            "sim.agents": sizes["agents"],
            "sim.replications": sizes["replications"],
            "sim.agent_steps": sizes["agent_steps"],
            "sim.rollout_steps": sizes["rollout_steps"],
            "sim.chaos_gap_s": busy("sim.chaos_gap"),
            "sim.epsilon_gap_s": busy("sim.epsilon_gap"),
            "trace.spans": n,
        }
        m["lifted.build_ns_per_nnz"] = per(m["lifted.build_s"], m["lifted.nnz"], 1e9)
        m["mkv.build_us_per_pair"] = per(m["mkv.build_s"], m["mkv.pairs"], 1e6)
        m["sim.ns_per_agent_step"] = per(rollouts, m["sim.agent_steps"], 1e9)
        m["sim.us_per_rollout_step"] = per(rollouts, m["sim.rollout_steps"], 1e6)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = float(sum(own[i] for i, name in enumerate(self.names)
                                             if name.split(".", 1)[0] == layer))
        m["cli.self_share"] = per(m["cli.self_s"], busy("cli.main"), 1.0)
        return m

    def write_spans(self, path):
        """Write the recorded spans as CSV, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i, (nid, start, end, parent) in enumerate(self.spans):
                out.writerow([i, self.names[nid], f"{start - origin:.9f}",
                              f"{end - origin:.9f}", parent])
