"""Property: on any dataset the Laplace basis, the MAP fit, and the path
from data through a GIGA coreset to the sampler either give finite numbers
or raise a FlowCoresetError, and print no warning.

The datasets mix what flow captures hold: heavy-tailed columns spanning
1e0-1e9 before standardization, constant columns, a single class,
duplicate rows and, for the fit, weights from 0 to 1e29.
"""

import warnings

import numpy as np
import pytest

from flowcoreset.data import Dataset, apply_standardization, fit_standardization
from flowcoreset.coreset import giga_construct, materialize
from flowcoreset.embed import build_projection_basis, embed_log_likelihoods
from flowcoreset.errors import FlowCoresetError
from flowcoreset.inference import WeightedBLRModel, fit_map, hmc_sample

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def standardized_datasets(draw):
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for constant in draw(st.lists(st.booleans(), min_size=1, max_size=5)):
        if constant:
            columns.append(np.full(n, draw(st.floats(-1e9, 1e9))))
        else:
            columns.append(10.0 ** rng.uniform(0.0, 9.0, size=n))
    x = np.column_stack(columns)
    if draw(st.booleans()):
        y = np.full(n, draw(st.sampled_from([-1.0, 1.0])))
    else:
        y = rng.choice([-1.0, 1.0], size=n)
    repeats = rng.integers(0, n, size=draw(st.integers(0, n)))
    raw = Dataset(np.vstack([x, x[repeats]]), np.concatenate([y, y[repeats]]))
    return apply_standardization(raw, fit_standardization(raw))


WEIGHTS = st.one_of(st.just(0.0), st.just(1.0), st.just(1e29),
                    st.floats(0.0, 1e29),
                    st.floats(0.0, 29.0).map(lambda k: 10.0**k))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=standardized_datasets(), seed=st.integers(0, 2**32 - 1))
def test_laplace_basis_is_finite_or_a_typed_error(data, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            basis = build_projection_basis(data, d=8, rng_seed=seed, weighting="laplace")
        except FlowCoresetError:
            return
    assert basis.theta_draws.shape == (8, data.f)
    assert np.all(np.isfinite(basis.theta_draws))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=standardized_datasets(), weights=st.data())
def test_weighted_map_is_finite_or_a_typed_error(data, weights):
    w = np.array(weights.draw(st.lists(WEIGHTS, min_size=data.n, max_size=data.n)))
    model = WeightedBLRModel(data.x, data.y, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            theta, curvature = fit_map(model)
        except FlowCoresetError:
            return
    assert np.all(np.isfinite(theta))
    assert np.all(np.isfinite(curvature)) and np.all(curvature >= 1.0)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(data=standardized_datasets(), seed=st.integers(0, 2**32 - 1),
                  m=st.integers(1, 20))
def test_coreset_posterior_is_finite_or_a_typed_error(data, seed, m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            basis = build_projection_basis(data, d=8, rng_seed=seed)
            coreset = giga_construct(embed_log_likelihoods(data, basis), m)
            model = WeightedBLRModel(*materialize(coreset, {"batch0": data}))
            posterior = hmc_sample(model, total_samples=40, leapfrog_steps=5,
                                   rng_seed=seed)
        except FlowCoresetError:
            return
    assert np.all(np.isfinite(coreset.weights)) and np.all(coreset.weights > 0)
    assert np.all(np.isfinite(posterior.draws))
