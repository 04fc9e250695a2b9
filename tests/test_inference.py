"""Tests for the weighted logistic posterior, HMC sampler, and SVM baseline."""

import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import minimize

from flowcoreset.data import (
    Dataset,
    apply_standardization,
    fit_standardization,
    generate_synthetic,
    stratified_split,
)
from flowcoreset.errors import ConfigError, DataError, NumericalError
from flowcoreset.inference import (
    PosteriorSamples,
    WeightedBLRModel,
    _gradient,
    _leapfrog,
    accuracy,
    classify,
    fit_map,
    hmc_sample,
    load_posterior,
    log_posterior,
    log_sigmoid,
    predict_batch,
    save_posterior,
    sigmoid,
    svm_accuracy,
    svm_predict,
    svm_train,
)


def random_model(rng, n=None, f=None, integer_weights=False):
    n = n or int(rng.integers(1, 12))
    f = f or int(rng.integers(1, 6))
    x = rng.normal(size=(n, f))
    y = rng.choice([-1.0, 1.0], size=n)
    if integer_weights:
        w = rng.integers(0, 5, size=n).astype(float)
    else:
        w = rng.uniform(0.0, 3.0, size=n)
    return WeightedBLRModel(x, y, w)


class TestLogPosterior:
    def test_prior_only_model_is_standard_normal(self):
        """With no data the posterior is exactly the prior."""
        model = WeightedBLRModel(np.empty((0, 3)), np.empty(0))
        theta = np.array([1.0, -2.0, 0.5])
        value, grad = log_posterior(model, theta)
        assert value == -0.5 * float(theta @ theta)
        np.testing.assert_allclose(grad, -theta)

    def test_single_sample_at_origin(self):
        """At theta=0 each unit-weight sample contributes -log 2."""
        model = WeightedBLRModel(np.array([[1.0, 0.0]]), np.array([1.0]),
                                 np.array([3.0]))
        value, grad = log_posterior(model, np.zeros(2))
        np.testing.assert_allclose(value, -3.0 * math.log(2.0))
        np.testing.assert_allclose(grad, [1.5, 0.0])

    def test_integer_weights_equal_replication(self):
        """A weight of k must act exactly like k copies of the sample."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            model = random_model(rng, integer_weights=True)
            reps = model.weights.astype(int)
            rep_x = np.repeat(model.x, reps, axis=0)
            rep_y = np.repeat(model.y, reps)
            if rep_x.shape[0] == 0:
                rep_x = np.empty((0, model.f))
            replicated = WeightedBLRModel(rep_x, rep_y)
            theta = rng.normal(size=model.f)
            v1, g1 = log_posterior(model, theta)
            v2, g2 = log_posterior(replicated, theta)
            assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))
            np.testing.assert_allclose(g1, g2, rtol=1e-10, atol=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            model = random_model(rng)
            theta = rng.normal(size=model.f)
            _, grad = log_posterior(model, theta)
            for k in range(model.f):
                bump = np.zeros(model.f)
                bump[k] = h
                hi, _ = log_posterior(model, theta + bump)
                lo, _ = log_posterior(model, theta - bump)
                fd = (hi - lo) / (2.0 * h)
                assert abs(fd - grad[k]) < 1e-5 * max(1.0, abs(grad[k]))

    def test_zero_weight_sample_is_ignored(self):
        x = np.array([[1.0], [50.0]])
        y = np.array([1.0, -1.0])
        model = WeightedBLRModel(x, y, np.array([1.0, 0.0]))
        reduced = WeightedBLRModel(x[:1], y[:1])
        theta = np.array([0.7])
        v1, g1 = log_posterior(model, theta)
        v2, g2 = log_posterior(reduced, theta)
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)

    @pytest.mark.parametrize("kernel", [log_sigmoid, sigmoid],
                             ids=lambda kernel: kernel.__name__)
    def test_kernel_is_exact_in_both_tails(self, kernel):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        exact = {log_sigmoid: lambda m: -mpmath.log1p(mpmath.exp(-m)),
                 sigmoid: lambda m: 1 / (1 + mpmath.exp(-m))}[kernel]
        margins = [-700.0, -100.0, -5.0, 0.0, 5.0, 100.0, 700.0,
                   -math.inf, math.inf]
        got = kernel(np.array(margins))
        for m, value in zip(margins, got):
            expected = float(exact(mpmath.mpf(m)))
            if math.isinf(expected):
                assert value == expected
            else:
                # Relative error, so sigmoid's tiny far-tail values count.
                assert abs(value - expected) <= 1e-12 * abs(expected)
        assert math.isnan(kernel(np.array([math.nan]))[0])

    def test_log_sigmoid_holds_one_temporary(self):
        """On an embedding-sized matrix the peak allocation is the result
        plus one temporary, no more than -logaddexp(0, -m) needs."""
        margins = np.random.default_rng(3).normal(scale=5.0, size=(2000, 500))
        tracemalloc.start()
        try:
            log_sigmoid(margins)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * margins.nbytes

    def test_lean_gradient_matches_full_call(self):
        """The leapfrog's interior gradient, sigmoid(-m) = 1 / (1 + exp(m)),
        matches log_posterior's two-tail one to 1e-12 relative to the size
        of its terms: on random models, on margins swept to +-800 (exp(m)
        overflows past 709.8), with zero weights, weights up to 1e6, and
        no rows."""
        rng = np.random.default_rng(13)
        models = []
        for k in range(50):
            model = random_model(rng, integer_weights=k % 2 == 0)
            models.append((model, rng.normal(scale=3.0, size=model.f)))
        sweep = np.linspace(-800.0, 800.0, 1601)
        x = np.column_stack([sweep, rng.normal(size=sweep.size)])
        y = rng.choice([-1.0, 1.0], size=sweep.size)
        for w in (np.ones(sweep.size), np.zeros(sweep.size),
                  rng.uniform(0.0, 1e6, size=sweep.size),
                  np.where(rng.uniform(size=sweep.size) < 0.5, 0.0, 1e6)):
            # theta = (1, 0) puts the swept margins exactly on y * sweep.
            models.append((WeightedBLRModel(x, y, w), np.array([1.0, 0.0])))
            models.append((WeightedBLRModel(x, y, w), np.array([1.0, 1e-3])))
        models.append((WeightedBLRModel(np.empty((0, 3)), np.empty(0)),
                       np.array([1.0, -2.0, 0.5])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model, theta in models:
                _, grad = log_posterior(model, theta)
                with np.errstate(over="ignore"):
                    lean = _gradient(model, theta, np.empty(model.n),
                                     np.empty(model.f))
                terms = np.abs(model._wyx_t) @ sigmoid(-(model._yx @ theta))
                np.testing.assert_array_less(
                    np.abs(lean - grad), 1e-12 * (terms + np.abs(theta)) + 1e-300)

    def test_non_finite_theta_reports_minus_infinity(self):
        model = WeightedBLRModel(np.array([[1.0]]), np.array([1.0]))
        value, _ = log_posterior(model, np.array([np.inf]))
        assert value == -math.inf


def sim1_model(seed):
    """The sim1 train split (80/800 rows, 20 features), standardized."""
    data = generate_synthetic(80, 800, f=20, separation=4.0, rng_seed=seed)
    return WeightedBLRModel.from_dataset(
        apply_standardization(data, fit_standardization(data)))


def map_or_numerical_error(model):
    """fit_map's mode, checked as the fit checks it, or None on NumericalError.

    Any warning fails the call: the fit must not print one.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            theta, curvature = fit_map(model)
        except NumericalError as err:
            assert {"iterations", "grad_max", "objective"} <= set(err.diagnostics)
            return None
    assert np.all(np.isfinite(theta)) and np.all(np.isfinite(curvature))
    _, grad = log_posterior(model, theta)
    assert np.max(np.abs(grad)) <= 1e-4 * max(1, model.n)
    return theta


class TestMapFit:
    def test_gradient_vanishes_at_mode(self):
        data = generate_synthetic(60, 40, f=4, separation=2.0, rng_seed=3)
        model = WeightedBLRModel.from_dataset(data)
        theta, _ = fit_map(model)
        _, grad = log_posterior(model, theta)
        assert np.max(np.abs(grad)) < 1e-3

    def test_prior_only_mode_is_origin(self):
        model = WeightedBLRModel(np.empty((0, 2)), np.empty(0))
        theta, curvature = fit_map(model)
        np.testing.assert_allclose(theta, 0.0, atol=1e-12)
        np.testing.assert_array_equal(curvature, 1.0)

    def test_curvature_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, n=12, f=3)
        theta, curvature = fit_map(model)
        for k in range(3):
            h = 1.0
            for i in range(12):
                s = 1.0 / (1.0 + math.exp(-model.y[i] * float(theta @ model.x[i])))
                h += model.weights[i] * s * (1.0 - s) * model.x[i, k] ** 2
            np.testing.assert_allclose(curvature[k], h, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lbfgs_on_sim1_data(self, seed):
        minimize = pytest.importorskip("scipy.optimize").minimize
        model = sim1_model(seed)
        theta, _ = fit_map(model)
        _, grad = log_posterior(model, theta)
        assert np.max(np.abs(grad)) < 1e-8 * model.n

        def objective(t):
            value, g = log_posterior(model, t)
            return -value, -g

        oracle = minimize(objective, np.zeros(model.f), jac=True, method="L-BFGS-B",
                          options={"maxiter": 10000, "gtol": 1e-10, "ftol": 0.0}).x
        assert np.linalg.norm(theta - oracle) <= 1e-5 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("weight", [1e12, 1e20, 1e29])
    @pytest.mark.parametrize("row", [0, 7])
    def test_extreme_weight_gives_a_mode(self, weight, row):
        rng = np.random.default_rng(5)
        weights = np.ones(50)
        weights[row] = weight
        model = WeightedBLRModel(rng.normal(size=(50, 3)),
                                 rng.choice([-1.0, 1.0], size=50), weights)
        assert map_or_numerical_error(model) is not None

    @pytest.mark.parametrize("magnitude", [1e150, 1e160, 1e175, 1e200])
    def test_huge_features_end_in_a_mode_or_numerical_error(self, magnitude):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 3))
        x[:, 0] *= magnitude
        map_or_numerical_error(WeightedBLRModel(x, rng.choice([-1.0, 1.0], size=50)))


def grid_posterior_1d(model, lo=-10.0, hi=10.0, points=4001):
    theta = np.linspace(lo, hi, points)
    logp = np.array([log_posterior(model, np.array([t]))[0] for t in theta])
    dens = np.exp(logp - logp.max())
    dens /= np.trapezoid(dens, theta)
    mean = np.trapezoid(dens * theta, theta)
    var = np.trapezoid(dens * (theta - mean) ** 2, theta)
    return mean, math.sqrt(var)


def grid_posterior_2d(model, lo=-8.0, hi=8.0, points=801):
    axis = np.linspace(lo, hi, points)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    logp = -0.5 * (g1**2 + g2**2)
    for i in range(model.n):
        margins = model.y[i] * (model.x[i, 0] * g1 + model.x[i, 1] * g2)
        logp += model.weights[i] * log_sigmoid(margins)
    dens = np.exp(logp - logp.max())
    dens /= dens.sum()
    means = np.array([(dens * g1).sum(), (dens * g2).sum()])
    stds = np.array(
        [
            math.sqrt((dens * (g1 - means[0]) ** 2).sum()),
            math.sqrt((dens * (g2 - means[1]) ** 2).sum()),
        ]
    )
    return means, stds


class TestHmc:
    def test_default_protocol_retains_2500_draws(self):
        model = WeightedBLRModel(
            np.array([[1.2], [0.4], [-0.3], [2.0], [0.8]]),
            np.array([1.0, 1.0, -1.0, 1.0, -1.0]),
            np.array([1.0, 2.0, 1.0, 1.0, 3.0]),
        )
        posterior = hmc_sample(model, rng_seed=1)
        assert posterior.n_draws == 2500
        assert 0.6 <= posterior.acceptance_rate <= 0.9
        mean_grid, std_grid = grid_posterior_1d(model)
        assert abs(posterior.draws.mean() - mean_grid) < 0.05
        assert abs(posterior.draws.std() - std_grid) < 0.05

    def test_two_dimensional_posterior_matches_grid(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 2))
        y = rng.choice([-1.0, 1.0], size=8)
        w = rng.uniform(0.5, 2.0, size=8)
        model = WeightedBLRModel(x, y, w)
        posterior = hmc_sample(model, rng_seed=2)
        means, stds = grid_posterior_2d(model)
        np.testing.assert_allclose(posterior.draws.mean(axis=0), means, atol=0.05)
        np.testing.assert_allclose(posterior.draws.std(axis=0), stds, atol=0.05)

    def test_prior_only_model_recovers_standard_normal(self):
        """With no data the chain must sample N(0, I) within MC bands."""
        model = WeightedBLRModel(np.empty((0, 3)), np.empty(0))
        posterior = hmc_sample(model, rng_seed=3)
        s = posterior.n_draws
        band = 3.0 / math.sqrt(s / 2.0)
        assert np.all(np.abs(posterior.draws.mean(axis=0)) < band)
        assert np.all(np.abs(posterior.draws.std(axis=0) - 1.0) < 2.0 * band)

    def test_same_seed_reproduces_draws_bitwise(self):
        model = WeightedBLRModel(np.array([[1.0, -0.5]]), np.array([1.0]))
        a = hmc_sample(model, total_samples=400, rng_seed=9)
        b = hmc_sample(model, total_samples=400, rng_seed=9)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.step_size == b.step_size

    def test_persistent_divergence_aborts_with_diagnostics(self):
        """A frozen, absurd step size must trip the divergence watchdog."""
        data = generate_synthetic(40, 40, f=3, separation=2.0, rng_seed=4)
        model = WeightedBLRModel.from_dataset(data)
        with pytest.raises(NumericalError) as err:
            hmc_sample(
                model,
                total_samples=300,
                burn_frac=0.0,
                rng_seed=5,
                initial_step_size=1e10,
            )
        assert err.value.diagnostics["recent_divergent"] > 50

    @pytest.mark.parametrize("magnitude", [1e200, 1e300])
    def test_overflowing_design_warns_nothing(self, magnitude):
        """Trajectories on a hugely scaled design overflow; the chain counts
        them as divergences or ends in NumericalError, and never warns."""
        data = generate_synthetic(40, 40, f=3, separation=2.0, rng_seed=4)
        model = WeightedBLRModel(data.x * magnitude, data.y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                posterior = hmc_sample(model, total_samples=300, rng_seed=5)
            except NumericalError:
                return
        assert posterior.n_divergent > 0

    @pytest.mark.parametrize("magnitude", [1e50, 1e100, 1e150])
    def test_step_search_below_its_floor_raises(self, magnitude):
        """No step of 1e-10 or more is accepted on these designs; the chain
        would never move, so the sampler refuses instead of returning it."""
        data = generate_synthetic(40, 40, f=3, separation=2.0, rng_seed=4)
        model = WeightedBLRModel(data.x * magnitude, data.y)
        with pytest.raises(NumericalError, match="step-size search") as err:
            hmc_sample(model, total_samples=300, rng_seed=5)
        assert err.value.diagnostics["step_size"] >= 1e-10
        assert err.value.diagnostics["energy_change"] < math.log(0.5)

    def test_small_step_above_the_floor_still_samples(self):
        data = generate_synthetic(40, 40, f=3, separation=2.0, rng_seed=4)
        model = WeightedBLRModel(data.x * 1e8, data.y)
        posterior = hmc_sample(model, total_samples=300, rng_seed=5)
        assert posterior.step_size < 1e-8
        assert posterior.acceptance_rate > 0.5

    def test_leapfrog_allocates_no_n_vector_per_step(self):
        """A 20-step trajectory at n = 10 000 peaks below four n-vectors:
        one buffer serves every interior step, and log_posterior holds
        three at the last. Per-step temporaries peak at five."""
        rng = np.random.default_rng(8)
        n, f = 10_000, 20
        model = WeightedBLRModel(rng.normal(size=(n, f)),
                                 rng.choice([-1.0, 1.0], size=n))
        theta = rng.normal(scale=0.1, size=f)
        _, grad = log_posterior(model, theta)
        tracemalloc.start()
        try:
            _leapfrog(model, theta, grad, rng.normal(size=f), 1e-3, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * 8

    def test_huge_weights_sample_their_own_posterior(self):
        """A weight of 2e6 is sampled as given: the chain sits at fit_map's
        mode of the same model, not at that of a tempered one."""
        model = WeightedBLRModel(
            np.array([[1.0], [-1.0], [0.5], [0.8]]),
            np.array([1.0, -1.0, 1.0, -1.0]),
            np.array([2e6, 1e3, 5.0, 1e6]),
        )
        mode, curvature = fit_map(model)
        posterior = hmc_sample(model, total_samples=200, rng_seed=6)
        assert np.all(np.isfinite(posterior.draws))
        assert posterior.n_divergent == 0
        sd = 1.0 / np.sqrt(curvature)
        assert np.all(np.abs(posterior.draws.mean(axis=0) - mode) < 3.0 * sd)

    def test_weight_guard_rescales_and_records(self):
        """hmc_sample has no weight guard any more: a weight of 2e6 is
        sampled as given, with no warning and no rescale factor recorded."""
        model = WeightedBLRModel(
            np.array([[1.0], [-1.0], [0.5]]),
            np.array([1.0, -1.0, 1.0]),
            np.array([2e6, 1e3, 5.0]),
        )
        mode, curvature = fit_map(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            posterior = hmc_sample(model, total_samples=60, burn_frac=0.5,
                                   rng_seed=6)
        assert "weight_rescale" not in {f.name for f in fields(posterior)}
        assert np.all(np.isfinite(posterior.draws))
        sd = 1.0 / np.sqrt(curvature)
        assert np.all(np.abs(posterior.draws.mean(axis=0) - mode) < 3.0 * sd)

    def test_moderate_weights_are_not_rescaled(self):
        """A weight of 100 is sampled as given: the chain sits at fit_map's
        mode of the same model."""
        model = WeightedBLRModel(np.array([[1.0]]), np.array([1.0]),
                                 np.array([100.0]))
        mode, curvature = fit_map(model)
        posterior = hmc_sample(model, total_samples=40, burn_frac=0.5, rng_seed=7)
        assert np.all(np.isfinite(posterior.draws))
        sd = 1.0 / np.sqrt(curvature)
        assert np.all(np.abs(posterior.draws.mean(axis=0) - mode) < 3.0 * sd)

    def test_invalid_settings_raise(self):
        """A setting the sampler cannot run is a config error, raised
        before any draw."""
        model = WeightedBLRModel(np.array([[1.0]]), np.array([1.0]))
        for settings in (
            {"total_samples": 0}, {"burn_frac": 1.0}, {"thin": 0},
            {"target_accept": 1.0}, {"jitter": -0.1}, {"leapfrog_steps": 0},
            {"initial_step_size": 0.0}, {"initial_step_size": math.inf},
            {"total_samples": 1, "burn_frac": 0.9}, {"thin": 2.0},
            {"burn_frac": math.nan}, {"jitter": True},
            # Counts a float cannot hold exactly, as the sampler's
            # arithmetic on them needs.
            {"total_samples": 10**400}, {"thin": 2**53 + 1},
            {"leapfrog_steps": 10**400},
        ):
            with pytest.raises(ConfigError):
                hmc_sample(model, **settings)


def manual_posterior(draws):
    return PosteriorSamples(
        draws=np.asarray(draws, dtype=float),
        acceptance_rate=1.0,
        step_size=0.1,
        leapfrog_steps=20,
        burn_in=0,
        thinning=1,
        rng_seed=0,
    )


class TestPredict:
    def test_disagreeing_draws_average_to_half(self):
        posterior = manual_posterior([[10.0], [-10.0]])
        p = predict_batch(posterior, np.array([[1.0]]), n_draws=2)
        assert abs(p[0] - 0.5) < 1e-4

    def test_uses_only_the_last_n_draws(self):
        draws = [[-10.0]] * 5 + [[10.0]] * 5
        posterior = manual_posterior(draws)
        x = np.array([[1.0]])
        assert predict_batch(posterior, x, n_draws=5)[0] > 0.99
        assert abs(predict_batch(posterior, x, n_draws=10)[0] - 0.5) < 1e-4

    def test_requesting_too_many_draws_raises(self):
        posterior = manual_posterior([[1.0]])
        with pytest.raises(DataError):
            predict_batch(posterior, np.array([[1.0]]), n_draws=2)

    def test_classify_threshold(self):
        np.testing.assert_array_equal(
            classify(np.array([0.49, 0.5, 0.51])), [-1.0, -1.0, 1.0]
        )


def separated_pool(n_train_pos, n_train_neg, f, separation, rng_seed):
    """One generated pool split into train and a 200/200 test partition."""
    pool = generate_synthetic(
        n_train_pos + 200, n_train_neg + 200, f=f, separation=separation,
        rng_seed=rng_seed,
    )
    return stratified_split(pool, n_train_pos, n_train_neg, rng_seed + 1)


class TestEndToEnd:
    def test_well_separated_data_classifies_above_95(self):
        train, test = separated_pool(400, 40, f=10, separation=6.0, rng_seed=21)
        model = WeightedBLRModel.from_dataset(train)
        posterior = hmc_sample(model, total_samples=1500, rng_seed=23)
        assert accuracy(posterior, test, n_draws=300) > 0.95

    def test_zero_separation_is_chance_level(self):
        train = generate_synthetic(300, 300, f=4, separation=0.0, rng_seed=24)
        test = generate_synthetic(200, 200, f=4, separation=0.0, rng_seed=25)
        model = WeightedBLRModel.from_dataset(train)
        posterior = hmc_sample(model, total_samples=1000, rng_seed=26)
        assert 0.35 < accuracy(posterior, test, n_draws=250) < 0.65


def squared_hinge(theta, data, reg):
    """The SVM objective J and its gradient, written out apart from svm_train."""
    slack = np.maximum(0.0, 1.0 - data.y * (data.x @ theta))
    value = 0.5 * reg * float(theta @ theta) + float(slack @ slack) / data.n
    grad = reg * theta - (2.0 / data.n) * (data.x.T @ (data.y * slack))
    return value, grad


SVM_CASES = [
    # (n_pos, n_neg, f, separation, reg, rng_seed)
    (50, 50, 5, 2.0, 1e-2, 0),
    (80, 800, 20, 4.0, 1e-2, 1),
    (300, 300, 4, 0.0, 1e-3, 2),
    (40, 40, 3, 2.0, 1e-2, 4),
    (15, 200, 8, 6.0, 1e-3, 5),
]


class TestSvm:
    def test_two_calls_are_byte_identical(self):
        data = generate_synthetic(50, 50, f=5, separation=2.0, rng_seed=0)
        a = svm_train(data, reg=1e-2)
        b = svm_train(data, reg=1e-2)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_pos, n_neg, f, separation, reg, seed", SVM_CASES)
    def test_matches_an_independent_minimiser(self, n_pos, n_neg, f,
                                              separation, reg, seed):
        data = generate_synthetic(n_pos, n_neg, f, separation, seed)
        theta = svm_train(data, reg=reg)
        reference = minimize(squared_hinge, np.zeros(f), args=(data, reg),
                             jac=True, method="L-BFGS-B",
                             options={"gtol": 1e-12, "ftol": 1e-16,
                                      "maxiter": 10000})
        assert (np.linalg.norm(theta - reference.x)
                <= 1e-6 * np.linalg.norm(reference.x))

    @pytest.mark.parametrize("n_pos, n_neg, f, separation, reg, seed", SVM_CASES)
    def test_gradient_vanishes_at_the_fit(self, n_pos, n_neg, f, separation,
                                          reg, seed):
        data = generate_synthetic(n_pos, n_neg, f, separation, seed)
        grad = squared_hinge(svm_train(data, reg=reg), data, reg)[1]
        assert np.max(np.abs(grad)) <= 1e-9 * max(1, data.n)

    def test_well_separated_data_classifies_above_95(self):
        train, test = separated_pool(400, 40, f=10, separation=6.0, rng_seed=31)
        theta = svm_train(train, reg=1e-3)
        assert svm_accuracy(theta, test) > 0.95

    def test_zero_separation_is_chance_level(self):
        train = generate_synthetic(300, 300, f=4, separation=0.0, rng_seed=34)
        test = generate_synthetic(200, 200, f=4, separation=0.0, rng_seed=35)
        theta = svm_train(train, reg=1e-3)
        assert 0.35 < svm_accuracy(theta, test) < 0.65

    def test_constant_column_fits(self):
        """Standardization leaves a constant column at 0; its slope is 0."""
        data = generate_synthetic(40, 200, f=4, separation=2.0, rng_seed=7)
        x = data.x.copy()
        x[:, 2] = 3.0
        raw = Dataset(x, data.y)
        train = apply_standardization(raw, fit_standardization(raw))
        assert np.all(train.x[:, 2] == 0.0)
        theta = svm_train(train, reg=1e-2)
        assert np.all(np.isfinite(theta)) and theta[2] == 0.0

    @pytest.mark.parametrize("magnitude", [1e160, 1e200, 1e300])
    def test_overflowing_design_raises(self, magnitude):
        """A design whose Gram matrix overflows is refused, never fitted to
        theta = 0 at chance level behind an overflow warning."""
        data = generate_synthetic(40, 40, 3, 2.0, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as info:
                svm_train(Dataset(data.x * magnitude, data.y), reg=0.01)
        assert set(info.value.diagnostics) == {"steps", "grad_max"}

    def test_large_finite_design_fits(self):
        data = generate_synthetic(40, 40, 3, 2.0, 4)
        scaled = Dataset(data.x * 1e100, data.y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = svm_train(scaled, reg=0.01)
        assert np.all(np.isfinite(theta)) and svm_accuracy(theta, scaled) > 0.8

    def test_slope_only_scores_flip_with_input(self):
        theta = np.array([1.0, -2.0])
        x = np.array([[3.0, 1.0]])
        assert svm_predict(theta, x)[0] == -svm_predict(theta, -x)[0]

    def test_bad_arguments_raise(self):
        data = generate_synthetic(5, 5, f=2, separation=1.0, rng_seed=0)
        with pytest.raises(DataError):
            svm_train(data, reg=0.0)


class TestPersistence:
    def test_posterior_round_trip(self, tmp_path):
        model = WeightedBLRModel(np.array([[1.0]]), np.array([1.0]))
        posterior = hmc_sample(model, total_samples=50, burn_frac=0.4, rng_seed=8)
        save_posterior(posterior, tmp_path / "post")
        back = load_posterior(tmp_path / "post")
        np.testing.assert_array_equal(back.draws, posterior.draws)
        assert back.acceptance_rate == posterior.acceptance_rate
        assert back.step_size == posterior.step_size
