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
import numbers
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .measures import check_integer, simplex_grid

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


def is_real(value):
    """Whether `value` is a real number of any type but bool."""
    return is_real_type(type(value))


def is_real_type(cls):
    """Whether `cls` is a type of real numbers other than bool."""
    return cls in (float, int) or issubclass(cls, numbers.Real) and not issubclass(cls, bool)


def _check_beta(beta):
    """Refuse a horizon's beta unless None, which defers to the model's
    discount, or a real number but not a bool; a solve checks its range."""
    if beta is not None and not is_real(beta):
        raise ValueError(f"beta must be a number or None, got {beta!r}")


@dataclass(frozen=True)
class FiniteHorizon:
    """Finite-horizon objective with `steps` stages, discounted by beta.

    beta=None defers to the model's discount; beta=1 is allowed here.
    `steps` must be an integer, and is stored as a Python int.
    """

    steps: int
    beta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", check_integer("steps", self.steps))
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        _check_beta(self.beta)


@dataclass(frozen=True)
class DiscountedHorizon:
    """Infinite-horizon discounted objective solved to accuracy epsilon."""

    beta: float | None = None
    epsilon: float = 1e-8

    def __post_init__(self):
        _check_beta(self.beta)
        if not is_real(self.epsilon) or not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")


def _as_tensor(name, value, shape, simplex=False):
    """The model array `name` as a read-only float array of `shape`, from
    a numpy array of integers or floats or from real numbers (no bools) in
    lists nested to one depth, the lists of each depth of one length: a
    JSON object, string, bool, null or ragged list is refused, not coerced.
    Its entries must be finite, or with `simplex` a distribution (as_simplex)."""
    if not isinstance(value, np.ndarray):
        value = np.array(value, dtype=object)  # a ragged list keeps lists as entries
        if value.ndim > len(shape):  # before .flat, which takes at most 32 dimensions
            raise ModelValidationError(name, f"expected shape {shape}, got {value.shape}")
        if not all(map(is_real_type, set(map(type, value.flat)))):
            bad = next(v for v in value.flat if not is_real(v))
            if isinstance(bad, (list, tuple)):
                raise ModelValidationError(name, "is a ragged list")
            raise ModelValidationError(name, f"expected numbers, got {bad!r}")
    elif value.dtype.kind not in "iuf":
        raise ModelValidationError(name, f"expected numbers, got an array of {value.dtype}")
    try:
        arr = np.asarray(value, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ModelValidationError(name, "contains non-finite entries") from None
    if arr.shape != shape:
        raise ModelValidationError(name, f"expected shape {shape}, got {arr.shape}")
    if simplex:
        try:
            arr = as_simplex(arr, what=name)
        except ValueError as err:
            raise ModelValidationError(name, str(err)) from err
    elif not np.isfinite(arr).all():
        raise ModelValidationError(name, "contains non-finite entries")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _as_size(name, value):
    """A model size as a Python int: any integer type but bool, at least 1."""
    try:
        size = check_integer(name, value)
    except ValueError:
        size = 0
    if size < 1:
        raise ModelValidationError(name, f"must be a positive integer, got {value!r}")
    return size


@dataclass(frozen=True, kw_only=True)
class EnvironmentModel:
    """A validated team model.  Construction runs all invariant checks.

    Every field is passed by keyword; the fields, in order, are the keys of
    a model config (`to_config`, `model_from_config`).  The sizes must be
    integers of any type but bool, stored as Python ints, and the discount
    a real number but not a bool, stored as a float; a size of 2.0 or "2"
    is refused, not coerced.  kernel_coupling, cost_linear and cost_quad
    default to None, which reads as zeros; name and description must be str.
    """

    num_states: int
    num_actions: int
    kernel_base: np.ndarray
    kernel_coupling: np.ndarray | None = None
    cost_const: np.ndarray
    cost_linear: np.ndarray | None = None
    cost_quad: np.ndarray | None = None
    discount: float
    initial_dist: np.ndarray
    name: str = ""
    description: str = ""

    def __post_init__(self):
        _set = object.__setattr__
        X, U = (_as_size(name, getattr(self, name)) for name in ("num_states", "num_actions"))
        _set(self, "num_states", X)
        _set(self, "num_actions", U)
        for name, shape in (("kernel_base", (X, U, X)), ("kernel_coupling", (X, U, X, X)),
                            ("cost_const", (X, U)), ("cost_linear", (X, U, X)),
                            ("cost_quad", (X, U, X, X))):
            value = getattr(self, name)
            if value is None and self.__dataclass_fields__[name].default is None:
                value = np.zeros(shape)  # an absent term is zero
            _set(self, name, _as_tensor(name, value, shape))
        d = self.discount
        if not is_real(d) or not 0.0 < d <= 1.0:
            raise ModelValidationError("discount", f"must be a number in (0, 1], got {d!r}")
        _set(self, "discount", float(d))
        _set(self, "initial_dist", _as_tensor("initial_dist", self.initial_dist, (X,), True))
        self._validate_kernel()
        self._validate_cost()
        for name in ("name", "description"):
            if not isinstance(value := getattr(self, name), str):
                raise ModelValidationError(name, f"must be a string, got {value!r}")

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

    def max_stage_cost(self, mesh=COST_CHECK_MESH):
        """Largest stage cost over a mesh-1/mesh simplex grid (tail-bound input)."""
        return float(self.cost_matrix_at(simplex_grid(mesh, self.num_states).points).max())

    # ---- serialization ----

    def to_config(self):
        """The model as a config dict: every field in order, arrays as
        nested lists, and description only when it is not empty."""
        return {f.name: v.tolist() if isinstance(v := getattr(self, f.name), np.ndarray) else v
                for f in fields(self) if f.name != "description" or self.description}


def model_from_config(cfg):
    """Build a validated EnvironmentModel from a parsed config dict, its
    values passed as they are by keyword: the keys are the model's fields,
    those without a default required, and an absent or null optional term
    is zero."""
    if not isinstance(cfg, dict):
        raise ModelValidationError("config", f"expected an object, got {type(cfg).__name__}")
    keys = fields(EnvironmentModel)
    missing = {f.name for f in keys if f.default is MISSING} - cfg.keys()
    if missing:
        raise ModelValidationError(sorted(missing)[0], "missing required key")
    unknown = cfg.keys() - {f.name for f in keys}
    if unknown:
        raise ModelValidationError(sorted(unknown)[0], "unknown key")
    return EnvironmentModel(**cfg)


def load_model(path):
    """Load and validate a model config from a JSON file."""
    text = Path(path).read_text()
    cfg = json.loads(text)
    return model_from_config(cfg)


def save_model(model, path):
    Path(path).write_text(json.dumps(model.to_config(), indent=2) + "\n")
