import dataclasses
import json
import re

import numpy as np
import pytest

from mfteams import (
    DiscountedHorizon,
    EnvironmentModel,
    FiniteHorizon,
    ModelValidationError,
    as_simplex,
    load_model,
    model_from_config,
    save_model,
)
from mfteams.measures import simplex_grid
from mfteams.model import COST_CHECK_MESH
from mfteams.models import bundled_path

from conftest import make_random_model


def small_config():
    return {
        "num_states": 2,
        "num_actions": 2,
        "kernel_base": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "cost_const": [[0.5, 0.5], [0.5, 0.5]],
        "discount": 1.0,
        "initial_dist": [0.0, 1.0],
    }


# ---- validation ----


def test_bundled_models_validate(counterexample, decoupled, weakly_coupled):
    for model in (counterexample, decoupled, weakly_coupled):
        assert model.num_states == 2
        assert model.num_actions == 2


def test_negative_base_entry_names_kernel_base():
    cfg = small_config()
    cfg["kernel_base"][0][0] = [1.1, -0.1]
    with pytest.raises(ModelValidationError) as err:
        model_from_config(cfg)
    assert err.value.field_name == "kernel_base"


def test_row_sum_off_names_kernel_base():
    cfg = small_config()
    cfg["kernel_base"][0][0] = [0.9, 0.0]
    with pytest.raises(ModelValidationError) as err:
        model_from_config(cfg)
    assert err.value.field_name == "kernel_base"
    assert "(x=0, u=0)" in str(err.value)
    assert "vertex z=0" in str(err.value)


def test_bad_coupling_sum_names_kernel_coupling():
    cfg = small_config()
    coupling = np.zeros((2, 2, 2, 2))
    coupling[0, 0, 0, 1] = 0.1  # vertex z=1 row sums to 1.1
    cfg["kernel_coupling"] = coupling.tolist()
    with pytest.raises(ModelValidationError) as err:
        model_from_config(cfg)
    assert err.value.field_name == "kernel_coupling"
    assert "vertex z=1" in str(err.value)


def test_negative_coupled_row_names_kernel_coupling():
    cfg = small_config()
    coupling = np.zeros((2, 2, 2, 2))
    coupling[0, 0, 0, 1] = 0.1
    coupling[0, 0, 1, 1] = -0.1  # sums stay 1, entry goes negative at z=1
    cfg["kernel_coupling"] = coupling.tolist()
    with pytest.raises(ModelValidationError) as err:
        model_from_config(cfg)
    assert err.value.field_name == "kernel_coupling"
    assert "row entry" in str(err.value)


def test_negative_cost_on_grid_rejected():
    cfg = small_config()
    cfg["cost_const"] = [[-0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(ModelValidationError) as err:
        model_from_config(cfg)
    assert err.value.field_name == "cost"


@pytest.mark.parametrize("discount", [0.0, -0.5, 1.5])
def test_discount_range(discount):
    cfg = small_config()
    cfg["discount"] = discount
    with pytest.raises(ModelValidationError) as err:
        model_from_config(cfg)
    assert err.value.field_name == "discount"


def test_discount_one_allowed():
    assert model_from_config(small_config()).discount == 1.0


def test_initial_dist_must_be_simplex():
    cfg = small_config()
    cfg["initial_dist"] = [0.5, 0.6]
    with pytest.raises(ModelValidationError) as err:
        model_from_config(cfg)
    assert err.value.field_name == "initial_dist"


def test_missing_and_unknown_keys():
    cfg = small_config()
    del cfg["discount"]
    with pytest.raises(ModelValidationError) as err:
        model_from_config(cfg)
    assert err.value.field_name == "discount"
    cfg = small_config()
    cfg["extra"] = 1
    with pytest.raises(ModelValidationError) as err:
        model_from_config(cfg)
    assert err.value.field_name == "extra"


def test_wrong_kernel_shape():
    cfg = small_config()
    cfg["kernel_base"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ModelValidationError) as err:
        model_from_config(cfg)
    assert err.value.field_name == "kernel_base"
    assert "shape" in str(err.value)


def test_model_is_frozen(counterexample):
    with pytest.raises(dataclasses.FrozenInstanceError):
        counterexample.discount = 0.5
    with pytest.raises(ValueError):
        counterexample.kernel_base[0, 0, 0] = 2.0


def test_as_simplex_tolerance():
    as_simplex([0.5, 0.5 + 5e-13])
    with pytest.raises(ValueError):
        as_simplex([0.5, 0.51])
    with pytest.raises(ValueError):
        as_simplex([-1e-6, 1.0 + 1e-6])


@pytest.mark.parametrize("vec", [[np.nan, 1.0], [0.0, np.nan], [np.inf, 0.0], [1.0, -np.inf]])
def test_as_simplex_refuses_non_finite_entries(vec):
    i = int(np.flatnonzero(~np.isfinite(vec))[0])
    with pytest.raises(ValueError, match=f"initial_dist has non-finite entry .* at index {i}"):
        as_simplex(vec, what="initial_dist")


def test_horizon_validation():
    with pytest.raises(ValueError):
        FiniteHorizon(0)
    with pytest.raises(ValueError):
        DiscountedHorizon(epsilon=0.0)
    # a step count must be an integer, and a bool is not one
    for steps in (2.5, True, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match=f"^{re.escape(f'steps must be an integer, got {steps!r}')}$"):
            FiniteHorizon(steps)
    with pytest.raises(ValueError, match="epsilon must be finite and > 0, got True"):
        DiscountedHorizon(epsilon=True)
    assert type(FiniteHorizon(np.int64(3)).steps) is int
    # a discount is a real number, as the model's is, and a bool is not one
    for beta in (True, np.True_, "0.9"):
        for horizon in (lambda b: FiniteHorizon(2, b), DiscountedHorizon):
            with pytest.raises(ValueError, match=f"^{re.escape(f'beta must be a number or None, got {beta!r}')}$"):
                horizon(beta)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_discounted_horizon_refuses_a_non_finite_or_negative_epsilon(epsilon):
    with pytest.raises(ValueError, match=f"epsilon must be finite and > 0, got {epsilon}"):
        DiscountedHorizon(beta=0.9, epsilon=epsilon)


# ---- kernel and cost evaluation ----


def test_counterexample_kernel_is_point_mass_on_action(counterexample):
    for x in range(2):
        for u in range(2):
            for mu in ([1.0, 0.0], [0.3, 0.7], [0.0, 1.0]):
                row = counterexample.kernel_tensor_at(mu)[x, u]
                expected = np.zeros(2)
                expected[u] = 1.0
                np.testing.assert_allclose(row, expected, atol=0)


def test_counterexample_cost_values(counterexample):
    # sum_z (mu(z) - 1/2)^2: zero at uniform, 1/2 at the vertices.
    for x in range(2):
        for u in range(2):
            assert counterexample.cost_matrix_at([0.5, 0.5])[x, u] == pytest.approx(0.0, abs=1e-15)
            assert counterexample.cost_matrix_at([0.0, 1.0])[x, u] == pytest.approx(0.5, abs=1e-15)
            assert counterexample.cost_matrix_at([1.0, 0.0])[x, u] == pytest.approx(0.5, abs=1e-15)
    assert counterexample.cost_matrix_at([0.25, 0.75])[0, 0] == pytest.approx(0.125, abs=1e-15)


def test_coupled_kernel_hand_case():
    # 0.2*mu(1) of mass is diverted from state 0 to state 1.
    coupling = np.zeros((2, 1, 2, 2))
    coupling[:, 0, 0, 1] = -0.2
    coupling[:, 0, 1, 1] = 0.2
    model = EnvironmentModel(
        num_states=2,
        num_actions=1,
        kernel_base=np.tile([[[0.8, 0.2]]], (2, 1, 1)),
        kernel_coupling=coupling,
        cost_const=np.ones((2, 1)),
        cost_linear=np.zeros((2, 1, 2)),
        cost_quad=np.zeros((2, 1, 2, 2)),
        discount=0.9,
        initial_dist=[0.5, 0.5],
    )
    np.testing.assert_allclose(
        model.kernel_tensor_at([0.3, 0.7])[0, 0], [0.66, 0.34], atol=1e-15
    )
    np.testing.assert_allclose(
        model.kernel_tensor_at([1.0, 0.0])[1, 0], [0.8, 0.2], atol=0
    )


def test_kernel_affine_in_measure():
    rng = np.random.default_rng(11)
    for _ in range(25):
        model = make_random_model(rng, num_states=3, num_actions=2, coupled=True)
        mu = rng.dirichlet(np.ones(3))
        nu = rng.dirichlet(np.ones(3))
        lam = rng.random()
        mixed = model.kernel_tensor_at(lam * mu + (1.0 - lam) * nu)
        split = lam * model.kernel_tensor_at(mu) + (1.0 - lam) * model.kernel_tensor_at(nu)
        np.testing.assert_allclose(mixed, split, atol=1e-12)


def test_batched_evaluation_matches_single_measure():
    rng = np.random.default_rng(17)
    for trial in range(6):
        model = make_random_model(rng, num_states=2 + trial % 2, num_actions=3, coupled=True)
        mus = rng.dirichlet(np.ones(model.num_states), size=7)
        tensors = model.kernel_tensor_at(mus)
        costs = model.cost_matrix_at(mus)
        for r, mu in enumerate(mus):
            np.testing.assert_allclose(tensors[r], model.kernel_tensor_at(mu), rtol=0, atol=1e-15)
            np.testing.assert_allclose(costs[r], model.cost_matrix_at(mu), rtol=0, atol=1e-14)


def test_vertex_validity_certifies_grid(counterexample, decoupled, weakly_coupled):
    # Affinity in mu: valid rows at the vertices imply valid rows everywhere.
    for model in (counterexample, decoupled, weakly_coupled):
        grid = simplex_grid(8, model.num_states)
        for g in range(len(grid)):
            tens = model.kernel_tensor_at(grid.point(g))
            assert tens.min() >= -1e-12
            np.testing.assert_allclose(tens.sum(axis=2), 1.0, atol=1e-12)


def test_max_stage_cost(counterexample):
    assert counterexample.max_stage_cost() == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("size", [np.int64(2), np.int32(2), np.uint8(2)])
def test_model_sizes_of_any_integer_type_are_stored_as_ints(size):
    base = load_model(bundled_path("weakly_coupled"))
    model = dataclasses.replace(base, num_states=size)
    assert type(model.num_states) is int and model.num_states == 2
    assert json.dumps(model.to_config()) == json.dumps(base.to_config())


@pytest.mark.parametrize("size", [True, np.True_, 2.0, np.float64(2.0), "2", 0, np.int64(0), -1])
def test_model_sizes_refuse_bools_floats_and_values_below_one(size):
    base = load_model(bundled_path("weakly_coupled"))
    with pytest.raises(ModelValidationError, match="num_states: must be a positive integer"):
        dataclasses.replace(base, num_states=size)


@pytest.mark.parametrize("field", ["name", "description"])
@pytest.mark.parametrize("value", [[1, 2], 5, None])
def test_name_and_description_must_be_strings(field, value):
    with pytest.raises(ModelValidationError, match=re.escape(
            f"{field}: must be a string, got {value!r}")) as err:
        model_from_config({**small_config(), field: value})
    assert err.value.field_name == field


ARRAY_FIELDS = ["kernel_base", "kernel_coupling", "cost_const", "cost_linear", "cost_quad",
                "initial_dist"]


@pytest.mark.parametrize("field", ARRAY_FIELDS)
@pytest.mark.parametrize("value, message", [
    ({}, "expected numbers, got {}"),
    ({"a": 1}, "expected numbers, got {'a': 1}"),
    ("abc", "expected numbers, got 'abc'"),
    (True, "expected numbers, got True"),
    ([True, False], "expected numbers, got True"),
    ([[1, 2], [3]], "is a ragged list"),
    ([[1.0, 2.0], 3.0], "is a ragged list"),
    (["1", "2"], "expected numbers, got '1'"),
    ([0.5, None], "expected numbers, got None"),
    ([10**400], "contains non-finite entries"),
    (np.array([True, False]), "expected numbers, got an array of bool"),
    (np.array(["0.5", "0.5"]), "expected numbers, got an array of <U3"),
])
def test_model_arrays_are_refused_unless_numbers(field, value, message):
    with pytest.raises(ModelValidationError, match=f"^{re.escape(f'{field}: {message}')}$") as err:
        EnvironmentModel(**{**small_config(), field: value})
    assert err.value.field_name == field


def test_model_arrays_nested_deeper_than_their_shape_are_refused():
    with pytest.raises(ModelValidationError, match=re.escape(
            "initial_dist: expected shape (2,), got (2, 2)")):
        model_from_config({**small_config(), "initial_dist": [["1", "2"], ["3", "4"]]})
    deep = 0.5
    for _ in range(100):  # past numpy's 64 dimensions
        deep = [deep]
    with pytest.raises(ModelValidationError, match=r"^cost_const: expected shape \(2, 2\), got "):
        model_from_config({**small_config(), "cost_const": deep})


def test_required_model_arrays_refuse_null():
    for field in ("kernel_base", "cost_const", "initial_dist"):
        with pytest.raises(ModelValidationError, match=f"^{field}: expected numbers, got None$"):
            model_from_config({**small_config(), field: None})


def test_json_numbers_load_as_floats_as_they_did():
    # integers, floats and numpy scalars load as np.asarray(value, dtype=float) does
    cfg = {**small_config(), "kernel_base": [[[1, 0], [0.0, 1]], [[np.float64(1.0), 0], [0, 1]]],
           "cost_const": [[2**64, 0.1], [np.int64(3), 1e300]], "initial_dist": (0, 1)}
    model = model_from_config(cfg)
    for field in ("kernel_base", "cost_const", "initial_dist"):
        got = getattr(model, field)
        assert got.dtype == float and not got.flags.writeable
        assert got.tobytes() == np.asarray(cfg[field], dtype=float).tobytes()


# ---- serialization ----


def test_config_round_trip(weakly_coupled):
    rebuilt = model_from_config(weakly_coupled.to_config())
    np.testing.assert_array_equal(rebuilt.kernel_base, weakly_coupled.kernel_base)
    np.testing.assert_array_equal(rebuilt.kernel_coupling, weakly_coupled.kernel_coupling)
    np.testing.assert_array_equal(rebuilt.cost_quad, weakly_coupled.cost_quad)
    assert rebuilt.discount == weakly_coupled.discount
    assert rebuilt.to_config() == weakly_coupled.to_config()


def test_save_load_round_trip(tmp_path, decoupled):
    path = tmp_path / "model.json"
    save_model(decoupled, path)
    rebuilt = load_model(path)
    assert rebuilt.to_config() == decoupled.to_config()


def test_config_keys_are_the_model_fields_in_order(weakly_coupled):
    names = [f.name for f in dataclasses.fields(EnvironmentModel)]
    assert names[-1] == "description" and weakly_coupled.description
    assert list(weakly_coupled.to_config()) == names
    assert list(dataclasses.replace(weakly_coupled, description="").to_config()) == names[:-1]


def test_absent_null_and_zero_terms_build_one_model():
    X = U = 2
    zeros = {"kernel_coupling": np.zeros((X, U, X, X)), "cost_linear": np.zeros((X, U, X)),
             "cost_quad": np.zeros((X, U, X, X))}
    absent = model_from_config(small_config()).to_config()
    assert model_from_config({**small_config(), **dict.fromkeys(zeros)}).to_config() == absent
    explicit = {key: value.tolist() for key, value in zeros.items()}
    assert model_from_config({**small_config(), **explicit}).to_config() == absent
    assert EnvironmentModel(**{**small_config(), **zeros}).to_config() == absent


def test_model_fields_are_keyword_only():
    values = [model_from_config(small_config()).to_config()[f.name]
              for f in dataclasses.fields(EnvironmentModel) if f.name != "description"]
    with pytest.raises(TypeError):
        EnvironmentModel(*values)
    with pytest.raises(TypeError):
        EnvironmentModel(2, 2, kernel_base=values[2], cost_const=values[4], discount=1.0,
                         initial_dist=[0.0, 1.0])


def test_load_model_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_model(path)


def per_point_costs(cfg, mu):
    """c(x,u,mu) at one measure, straight from a config's cost arrays."""
    return (
        np.asarray(cfg["cost_const"])
        + np.asarray(cfg["cost_linear"]) @ mu
        + np.einsum("xuzw,z,w->xu", np.asarray(cfg["cost_quad"]), mu, mu)
    )


def test_cost_checks_match_per_grid_point_loop():
    # The reported (x, u, mu) is the argmin at the first grid point, in
    # ordinal order, whose costs dip below zero.
    rng = np.random.default_rng(43)
    rejected = 0
    for trial in range(40):
        X, U = 2 + trial % 2, 2 + (trial // 2) % 2
        cfg = make_random_model(rng, X, U, coupled=True).to_config()
        cfg["cost_const"] = rng.uniform(-0.3, 1.0, (X, U)).tolist()
        grid = simplex_grid(COST_CHECK_MESH, X)
        costs = [per_point_costs(cfg, grid.point(g)) for g in range(len(grid))]
        bad = [g for g, c in enumerate(costs) if c.min() < -1e-12]
        if not bad:
            model = model_from_config(cfg)
            for mesh in (COST_CHECK_MESH, 5):
                expected = max(float(per_point_costs(cfg, mu).max())
                               for mu in simplex_grid(mesh, X).points)
                assert model.max_stage_cost(mesh) == pytest.approx(expected, rel=0, abs=1e-15)
            continue
        rejected += 1
        g = bad[0]
        x, u = np.unravel_index(int(costs[g].argmin()), costs[g].shape)
        with pytest.raises(ModelValidationError) as err:
            model_from_config(cfg)
        message = str(err.value)
        assert f"at (x={x}, u={u}), mu={grid.counts[g]}/{COST_CHECK_MESH}" in message
        value = float(re.search(r"stage cost (\S+) < 0", message).group(1))
        assert value == pytest.approx(costs[g][x, u], rel=0, abs=1e-15)
    assert 0 < rejected < 40  # both branches ran
