"""Tests for log-likelihood embedding against direct scalar evaluation."""

import math
import tracemalloc

import numpy as np
import pytest

from flowcoreset.data import Dataset, generate_synthetic
from flowcoreset.embed import (
    _BLOCK_ROWS,
    ProjectionBasis,
    build_projection_basis,
    embed_log_likelihoods,
)
from flowcoreset.errors import ConfigError, DataError
from flowcoreset.inference import WeightedBLRModel, fit_map, log_sigmoid


def manual_basis(theta_draws):
    return ProjectionBasis(np.asarray(theta_draws, dtype=float))


class TestBuildProjectionBasis:
    def test_shape_and_determinism(self):
        pilot = generate_synthetic(800, 80, f=20, separation=4.0, rng_seed=0)
        a = build_projection_basis(pilot, d=500, rng_seed=1)
        b = build_projection_basis(pilot, d=500, rng_seed=1)
        assert a.theta_draws.shape == (500, 20)
        np.testing.assert_array_equal(a.theta_draws, b.theta_draws)

    def test_single_dimension_basis(self):
        pilot = generate_synthetic(30, 30, f=4, separation=2.0, rng_seed=2)
        basis = build_projection_basis(pilot, d=1, rng_seed=3)
        assert basis.theta_draws.shape == (1, 4)

    def test_prior_weighting_is_standard_normal(self):
        pilot = generate_synthetic(10, 10, f=3, separation=5.0, rng_seed=4)
        basis = build_projection_basis(pilot, d=4000, rng_seed=5,
                                       weighting="prior")
        assert np.all(np.abs(basis.theta_draws.mean(axis=0)) < 0.08)
        assert np.all(np.abs(basis.theta_draws.std(axis=0) - 1.0) < 0.08)

    def test_laplace_weighting_centres_on_map(self):
        pilot = generate_synthetic(200, 100, f=3, separation=3.0, rng_seed=6)
        basis = build_projection_basis(pilot, d=4000, rng_seed=7)
        theta_map, curvature = fit_map(WeightedBLRModel.from_dataset(pilot))
        scales = 1.0 / np.sqrt(curvature)
        np.testing.assert_allclose(
            basis.theta_draws.mean(axis=0), theta_map, atol=4.0 * scales.max()
        )
        np.testing.assert_allclose(
            basis.theta_draws.std(axis=0), scales, rtol=0.1
        )

    def test_unknown_family_or_weighting_raises(self):
        pilot = generate_synthetic(5, 5, f=2, separation=1.0, rng_seed=8)
        with pytest.raises(ConfigError):
            build_projection_basis(pilot, d=10, rng_seed=0,
                                   weighting="bootstrap")
        with pytest.raises(ConfigError):
            build_projection_basis(pilot, d=0, rng_seed=0)


class TestEmbedLogLikelihoods:
    def test_matches_direct_scalar_evaluation(self):
        """Each entry must equal log sigmoid(y theta.x) / sqrt(d) exactly."""
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 2))
        y = rng.choice([-1.0, 1.0], size=5)
        data = Dataset(x, y)
        basis = manual_basis(rng.normal(size=(3, 2)))
        emb = embed_log_likelihoods(data, basis)
        for i in range(5):
            for d in range(3):
                margin = y[i] * float(basis.theta_draws[d] @ x[i])
                expected = -math.log1p(math.exp(-margin)) / math.sqrt(3)
                np.testing.assert_allclose(emb.vectors[i, d], expected, rtol=1e-12)

    def test_zero_margin_entry(self):
        """A zero feature vector embeds as -log(2)/sqrt(d) everywhere."""
        data = Dataset(np.zeros((1, 2)), np.array([1.0]))
        basis = manual_basis([[5.0, -3.0], [0.1, 0.2], [1.0, 1.0], [2.0, 0.0]])
        emb = embed_log_likelihoods(data, basis)
        np.testing.assert_allclose(emb.vectors[0], -math.log(2.0) / 2.0)

    def test_duplicate_rows_embed_identically(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, -1.0]])
        y = np.array([1.0, 1.0, -1.0])
        basis = manual_basis(np.random.default_rng(10).normal(size=(6, 2)))
        emb = embed_log_likelihoods(Dataset(x, y), basis)
        np.testing.assert_array_equal(emb.vectors[0], emb.vectors[1])

    def test_row_order_follows_dataset_order(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))
        y = rng.choice([-1.0, 1.0], size=6)
        basis = manual_basis(rng.normal(size=(4, 3)))
        emb = embed_log_likelihoods(Dataset(x, y), basis)
        perm = rng.permutation(6)
        emb_perm = embed_log_likelihoods(Dataset(x[perm], y[perm]), basis)
        np.testing.assert_array_equal(emb_perm.vectors, emb.vectors[perm])

    def test_total_vector_is_row_sum(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.normal(size=(7, 2)), rng.choice([-1.0, 1.0], size=7))
        basis = manual_basis(rng.normal(size=(5, 2)))
        emb = embed_log_likelihoods(data, basis)
        np.testing.assert_allclose(emb.total_vector, emb.vectors.sum(axis=0))

    def test_builds_in_place_with_one_temporary(self):
        """Margins become vectors in one buffer, a block of rows at a time:
        the peak allocation is the result plus block-sized temporaries, and
        the vectors equal the out-of-place expression bit for bit."""
        rng = np.random.default_rng(16)
        data = Dataset(rng.normal(size=(2000, 6)), rng.choice([-1.0, 1.0], size=2000))
        basis = manual_basis(rng.normal(scale=2.0, size=(500, 6)))
        tracemalloc.start()
        try:
            emb = embed_log_likelihoods(data, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = _BLOCK_ROWS * basis.d * 8
        assert peak <= 1.1 * emb.vectors.nbytes + block_bytes
        margins = data.y[:, None] * (data.x @ basis.theta_draws.T)
        np.testing.assert_array_equal(emb.vectors, log_sigmoid(margins) / np.sqrt(500))
        np.testing.assert_array_equal(emb.norms, np.linalg.norm(emb.vectors, axis=1))
        np.testing.assert_array_equal(emb.total_vector, emb.vectors.sum(axis=0))

    def test_saturated_rows_are_flagged_zero_norm(self):
        """Margins past the underflow point embed with norm zero."""
        data = Dataset(np.array([[1.0], [0.125]]), np.array([1.0, 1.0]))
        basis = manual_basis([[800.0]])
        emb = embed_log_likelihoods(data, basis)
        assert emb.norms[0] == 0.0
        assert emb.norms[1] != 0.0

    def test_norms_match_vectors(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.normal(size=(4, 2)), rng.choice([-1.0, 1.0], size=4))
        basis = manual_basis(rng.normal(size=(8, 2)))
        emb = embed_log_likelihoods(data, basis)
        np.testing.assert_allclose(
            emb.norms, np.linalg.norm(emb.vectors, axis=1), rtol=1e-15
        )

    def test_family_and_dimension_mismatch_raise(self):
        basis = manual_basis(np.ones((3, 2)))
        wide = Dataset(np.ones((2, 3)), np.array([1.0, -1.0]))
        with pytest.raises(DataError):
            embed_log_likelihoods(wide, basis)

    def test_same_seed_is_bitwise_reproducible(self):
        pilot = generate_synthetic(100, 10, f=5, separation=4.0, rng_seed=14)
        basis_a = build_projection_basis(pilot, d=50, rng_seed=15)
        basis_b = build_projection_basis(pilot, d=50, rng_seed=15)
        emb_a = embed_log_likelihoods(pilot, basis_a)
        emb_b = embed_log_likelihoods(pilot, basis_b)
        np.testing.assert_array_equal(emb_a.vectors, emb_b.vectors)
