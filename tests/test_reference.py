"""The lifted, restricted and exact-evaluation builds against the reference
builds in `reference.py`, float for float."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from mfteams import lifted
from mfteams.lifted import _kernel_stage_data, build_measure_mdp
from mfteams.measures import composition_array

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

