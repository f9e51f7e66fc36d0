"""Team model primitives: finite state and action spaces, a transition
kernel coupled to the population's empirical measure, and stage costs.

The kernel is affine in the empirical measure mu,

    T(x'|x,u,mu) = kernel_base[x,u,x'] + sum_z kernel_coupling[x,u,x',z] * mu[z],

and the stage cost is quadratic in mu,

    c(x,u,mu) = cost_const[x,u] + cost_linear[x,u,:] . mu
                + mu . cost_quad[x,u,:,:] . mu.

Affinity makes simplex-wide validity of the kernel certifiable at the
simplex vertices: every row is affine in mu, so its minimum entry and its
total mass over the simplex are attained at vertices.  Nonnegativity of
the quadratic cost has no such certificate and is checked on a fixed
simplex grid instead (a partial check by design).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .measures import simplex_grid

SIMPLEX_TOL = 1e-12
MARGINAL_TOL = 1e-10
COST_CHECK_MESH = 8


class ModelError(Exception):
    """Base class for model construction and evaluation errors."""


class ModelValidationError(ModelError):
    """A model field violates an invariant; carries the offending field name."""

    def __init__(self, field_name, message):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


class MarginalMismatchError(ModelError):
    """A joint state-action measure does not marginalize to the given state measure."""


def as_simplex(vec, tol=SIMPLEX_TOL, what="distribution"):
    """Validate and return a probability vector as a float array.

    Non-finite entries, entries below -tol or a total mass off 1 by more
    than tol raise ValueError.
    """
    v = np.asarray(vec, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{what} must be a nonempty vector, got shape {v.shape}")
    finite = np.isfinite(v)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{what} has non-finite entry {v[i]} at index {i}")
    if v.min() < -tol:
        raise ValueError(f"{what} has negative entry {v.min()} at index {int(v.argmin())}")
    s = v.sum()
    if abs(s - 1.0) > tol:
        raise ValueError(f"{what} sums to {s}, expected 1 within {tol}")
    return v


@dataclass(frozen=True)
class FiniteHorizon:
    """Finite-horizon objective with `steps` stages, discounted by beta.

    beta=None defers to the model's discount; beta=1 is allowed here.
    """

    steps: int
    beta: float | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class DiscountedHorizon:
    """Infinite-horizon discounted objective solved to accuracy epsilon."""

    beta: float | None = None
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _as_tensor(name, value, shape):
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ModelValidationError(name, f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelValidationError(name, "contains non-finite entries")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EnvironmentModel:
    """A validated team model.  Construction runs all invariant checks."""

    num_states: int
    num_actions: int
    kernel_base: np.ndarray
    kernel_coupling: np.ndarray
    cost_const: np.ndarray
    cost_linear: np.ndarray
    cost_quad: np.ndarray
    discount: float
    initial_dist: np.ndarray
    name: str = ""
    description: str = ""

    def __post_init__(self):
        X, U = self.num_states, self.num_actions
        if not (isinstance(X, int) and X >= 1):
            raise ModelValidationError("num_states", f"must be a positive int, got {X!r}")
        if not (isinstance(U, int) and U >= 1):
            raise ModelValidationError("num_actions", f"must be a positive int, got {U!r}")
        _set = object.__setattr__
        _set(self, "kernel_base", _as_tensor("kernel_base", self.kernel_base, (X, U, X)))
        _set(self, "kernel_coupling",
             _as_tensor("kernel_coupling", self.kernel_coupling, (X, U, X, X)))
        _set(self, "cost_const", _as_tensor("cost_const", self.cost_const, (X, U)))
        _set(self, "cost_linear", _as_tensor("cost_linear", self.cost_linear, (X, U, X)))
        _set(self, "cost_quad", _as_tensor("cost_quad", self.cost_quad, (X, U, X, X)))
        if not (0.0 < float(self.discount) <= 1.0):
            raise ModelValidationError("discount", f"must lie in (0, 1], got {self.discount}")
        _set(self, "discount", float(self.discount))
        init = np.asarray(self.initial_dist, dtype=float)
        try:
            init = as_simplex(init, what="initial_dist")
        except ValueError as err:
            raise ModelValidationError("initial_dist", str(err)) from err
        if init.shape != (X,):
            raise ModelValidationError("initial_dist", f"expected shape ({X},), got {init.shape}")
        init = np.ascontiguousarray(init)
        init.setflags(write=False)
        _set(self, "initial_dist", init)
        self._validate_kernel()
        self._validate_cost()

    def _validate_kernel(self):
        A, B = self.kernel_base, self.kernel_coupling
        if A.min() < 0.0:
            idx = np.unravel_index(int(A.argmin()), A.shape)
            raise ModelValidationError(
                "kernel_base", f"negative entry {A[idx]} at {tuple(int(i) for i in idx)}"
            )
        coupled = bool(np.any(B != 0.0))
        # Row validity at every vertex mu = delta_z certifies the whole simplex.
        for z in range(self.num_states):
            rows = A + B[:, :, :, z]
            if rows.min() < -SIMPLEX_TOL:
                idx = np.unravel_index(int(rows.argmin()), rows.shape)
                x, u, xn = (int(i) for i in idx)
                raise ModelValidationError(
                    "kernel_coupling",
                    f"row entry {rows[idx]} < 0 for (x={x}, u={u}, x'={xn}) at vertex z={z}",
                )
            sums = rows.sum(axis=2)
            bad = np.abs(sums - 1.0) > SIMPLEX_TOL
            if bad.any():
                x, u = (int(i) for i in np.argwhere(bad)[0])
                which = "kernel_coupling" if coupled else "kernel_base"
                raise ModelValidationError(
                    which,
                    f"kernel row sums to {sums[x, u]} for (x={x}, u={u}) at vertex z={z}",
                )

    def _validate_cost(self):
        # Partial check: quadratics can dip below zero between grid points.
        grid = simplex_grid(COST_CHECK_MESH, self.num_states)
        costs = self.cost_matrix_at(grid.points)
        g = int((costs.min(axis=(1, 2)) < -SIMPLEX_TOL).argmax())  # first offending point
        if costs[g].min() < -SIMPLEX_TOL:
            x, u = np.unravel_index(int(costs[g].argmin()), costs[g].shape)
            raise ModelValidationError(
                "cost",
                f"stage cost {costs[g, x, u]} < 0 at (x={int(x)}, u={int(u)}), "
                f"mu={grid.counts[g]}/{COST_CHECK_MESH}",
            )

    # ---- evaluation ----

    def kernel_tensor_at(self, mu):
        """Transition tensor T[..., x, u, x'] at a measure mu, or at each
        measure of a stack mu[..., :]."""
        return self.kernel_base + np.einsum("xuyz,...z->...xuy", self.kernel_coupling, mu)

    def cost_matrix_at(self, mu):
        """Stage costs c[..., x, u] at a measure mu, or at each measure of a
        stack mu[..., :]."""
        return (
            self.cost_const
            + np.einsum("xuz,...z->...xu", self.cost_linear, mu)
            + np.einsum("xuzw,...z,...w->...xu", self.cost_quad, mu, mu)
        )

    def kernel_at(self, x, u, mu):
        """Next-state distribution T(.|x,u,mu)."""
        return self.kernel_tensor_at(mu)[x, u]

    def cost_at(self, x, u, mu):
        return float(self.cost_matrix_at(mu)[x, u])

    def running_cost_tilde(self, theta, mu):
        """Population-average stage cost of a joint state-action measure theta.

        theta is an (X,U) weight matrix; its state marginal must equal mu
        within MARGINAL_TOL.
        """
        theta = np.asarray(theta, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if theta.shape != (self.num_states, self.num_actions):
            raise MarginalMismatchError(
                f"theta shape {theta.shape} does not match "
                f"({self.num_states}, {self.num_actions})"
            )
        gap = np.abs(theta.sum(axis=1) - mu).max()
        if gap > MARGINAL_TOL:
            raise MarginalMismatchError(
                f"state marginal of theta deviates from mu by {gap}"
            )
        return float((self.cost_matrix_at(mu) * theta).sum())

    def max_stage_cost(self, mesh=COST_CHECK_MESH):
        """Largest stage cost over a mesh-1/mesh simplex grid (tail-bound input)."""
        return float(self.cost_matrix_at(simplex_grid(mesh, self.num_states).points).max())

    # ---- serialization ----

    def to_config(self):
        cfg = {
            "num_states": self.num_states,
            "num_actions": self.num_actions,
            "kernel_base": self.kernel_base.tolist(),
            "kernel_coupling": self.kernel_coupling.tolist(),
            "cost_const": self.cost_const.tolist(),
            "cost_linear": self.cost_linear.tolist(),
            "cost_quad": self.cost_quad.tolist(),
            "discount": self.discount,
            "initial_dist": self.initial_dist.tolist(),
            "name": self.name,
        }
        if self.description:
            cfg["description"] = self.description
        return cfg


_REQUIRED_KEYS = {
    "num_states", "num_actions", "kernel_base", "cost_const", "discount", "initial_dist",
}
_OPTIONAL_KEYS = {"kernel_coupling", "cost_linear", "cost_quad", "name", "description"}


def model_from_config(cfg):
    """Build a validated EnvironmentModel from a parsed config dict."""
    if not isinstance(cfg, dict):
        raise ModelValidationError("config", f"expected an object, got {type(cfg).__name__}")
    missing = _REQUIRED_KEYS - cfg.keys()
    if missing:
        raise ModelValidationError(sorted(missing)[0], "missing required key")
    unknown = cfg.keys() - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise ModelValidationError(sorted(unknown)[0], "unknown key")
    try:
        X = int(cfg["num_states"])
        U = int(cfg["num_actions"])
    except (TypeError, ValueError) as err:
        raise ModelValidationError("num_states", f"not an integer: {err}") from err
    zeros = {
        "kernel_coupling": np.zeros((X, U, X, X)),
        "cost_linear": np.zeros((X, U, X)),
        "cost_quad": np.zeros((X, U, X, X)),
    }
    return EnvironmentModel(
        num_states=X,
        num_actions=U,
        kernel_base=cfg["kernel_base"],
        kernel_coupling=cfg.get("kernel_coupling", zeros["kernel_coupling"]),
        cost_const=cfg["cost_const"],
        cost_linear=cfg.get("cost_linear", zeros["cost_linear"]),
        cost_quad=cfg.get("cost_quad", zeros["cost_quad"]),
        discount=cfg["discount"],
        initial_dist=cfg["initial_dist"],
        name=cfg.get("name", ""),
        description=cfg.get("description", ""),
    )


def load_model(path):
    """Load and validate a model config from a JSON file."""
    text = Path(path).read_text()
    cfg = json.loads(text)
    return model_from_config(cfg)


def save_model(model, path):
    Path(path).write_text(json.dumps(model.to_config(), indent=2) + "\n")
