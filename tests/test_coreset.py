"""Tests for coreset constructions against brute-force and grid oracles."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import nnls

from flowcoreset import coreset as coreset_module
from flowcoreset.coreset import (
    _EPS,
    _NORM_FLOOR,
    Coreset,
    CoresetDiagnostics,
    aggregate,
    compress,
    frankwolfe_construct,
    geodesic_step_size,
    giga_construct,
    load_coreset,
    materialize,
    random_construct,
    reconstruction_residual,
    save_coreset,
)
from flowcoreset.data import (
    Dataset,
    apply_standardization,
    fit_standardization,
    generate_synthetic,
)
from flowcoreset.embed import (
    LikelihoodEmbedding,
    ProjectionBasis,
    build_projection_basis,
    embed_log_likelihoods,
)
from flowcoreset.errors import DataError, NumericalError


def random_embedding(rng, n=20, f=3, d=8, n_pos=None):
    """Small realistic embedding: synthetic data under a prior basis."""
    n_pos = n_pos if n_pos is not None else n // 2
    data = generate_synthetic(n_pos, n - n_pos, f=f, separation=2.0,
                              rng_seed=int(rng.integers(1 << 31)))
    basis = build_projection_basis(
        data, d=d, rng_seed=int(rng.integers(1 << 31)), weighting="prior"
    )
    return embed_log_likelihoods(data, basis)


def brute_force_residual(vectors, m):
    """Best residual over every support of size <= m via nonnegative LS."""
    total = vectors.sum(axis=0)
    best = math.inf
    n = vectors.shape[0]
    for k in range(1, m + 1):
        for support in itertools.combinations(range(n), k):
            _, residual = nnls(vectors[list(support)].T, total)
            best = min(best, residual)
    return best


def hand_embedding(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return LikelihoodEmbedding(vectors, np.linalg.norm(vectors, axis=1))


def reference_giga(embedding, m):
    """GIGA scoring every candidate against the residual direction with a
    fresh n x d product per iteration.

    Returns (rows, weights, alignment_trace, early_stop) after pruning
    zero weights, as giga_construct reports them.
    """
    sigma = embedding.norms
    floor = _NORM_FLOOR * float(np.median(sigma))
    candidates = np.flatnonzero((sigma > 0.0) & (sigma >= floor))
    total = embedding.vectors.sum(axis=0)
    total_norm = float(np.linalg.norm(total))
    ell = total / total_norm
    dirs = embedding.vectors[candidates] / sigma[candidates, None]
    base_scores = dirs @ ell
    y = np.zeros(embedding.d)
    u = np.zeros(candidates.size)
    trace = []
    zeta0 = 0.0
    early_stop = None
    for _ in range(m):
        residual = ell - zeta0 * y
        res_norm = float(np.linalg.norm(residual))
        if res_norm < _EPS:
            early_stop = "aligned"
            break
        scores = dirs @ (residual / res_norm)
        n = int(np.argmax(scores))
        if scores[n] <= 0.0:
            early_stop = "no improving direction"
            break
        zeta1 = float(base_scores[n])
        zeta2 = float(y @ dirs[n])
        try:
            gamma = geodesic_step_size(zeta0, zeta1, zeta2)
        except NumericalError:
            early_stop = "degenerate step"
            break
        if gamma == 0.0:
            early_stop = "no improving direction"
            break
        stepped = (1.0 - gamma) * y + gamma * dirs[n]
        nu = float(np.linalg.norm(stepped))
        if nu < _EPS:
            early_stop = "iterate collapsed"
            break
        y = stepped / nu
        u *= 1.0 - gamma
        u[n] += gamma
        u /= nu
        zeta0 = float(ell @ y)
        trace.append(zeta0)
    weights = total_norm * max(zeta0, 0.0) * u / sigma[candidates]
    support = np.flatnonzero(weights > 0.0)
    return candidates[support], weights[support], trace, early_stop


def assert_same_coreset(coreset, expected):
    rows, weights, trace, early_stop = expected
    np.testing.assert_array_equal(coreset.row_indices, rows)
    np.testing.assert_array_equal(coreset.weights, weights)
    assert coreset.construction.alignment_trace == trace
    assert coreset.construction.early_stop == early_stop


def sphere_alignment(zeta0, zeta1, zeta2, gammas):
    """Post-step alignment profile, computable from inner products alone."""
    num = (1.0 - gammas) * zeta0 + gammas * zeta1
    sq = (1.0 - gammas) ** 2 + gammas**2 + 2.0 * gammas * (1.0 - gammas) * zeta2
    return num / np.sqrt(sq)


class TestGeodesicStepSize:
    def test_matches_dense_grid_maximization(self):
        """Closed form must hit the grid maximum of post-step alignment.

        Triples are oriented the way the construction meets them: the
        iterate is flipped so its alignment with the target is nonnegative
        and the candidate is flipped so it improves on the iterate. With
        the opposite orientation no step would be taken at all.
        """
        rng = np.random.default_rng(0)
        gammas = np.linspace(0.0, 1.0, 10001)
        checked = 0
        while checked < 200:
            dim = int(rng.integers(3, 501))
            ell, y, cand = (v / np.linalg.norm(v) for v in rng.normal(size=(3, dim)))
            if float(ell @ y) < 0.0:
                y = -y
            if float(ell @ cand) - float(ell @ y) * float(y @ cand) < 0.0:
                cand = -cand
            z0, z1, z2 = float(ell @ y), float(ell @ cand), float(y @ cand)
            if z1 - z0 * z2 < 1e-12:
                continue
            gamma = geodesic_step_size(z0, z1, z2)
            best_grid = sphere_alignment(z0, z1, z2, gammas).max()
            achieved = sphere_alignment(z0, z1, z2, np.array([gamma]))[0]
            assert achieved >= best_grid - 1e-6
            checked += 1

    def test_no_step_when_already_aligned(self):
        """With y = ell the maximizer is gamma = 0."""
        rng = np.random.default_rng(1)
        ell = rng.normal(size=5)
        ell /= np.linalg.norm(ell)
        cand = rng.normal(size=5)
        cand /= np.linalg.norm(cand)
        z1 = float(ell @ cand)
        assert geodesic_step_size(1.0, z1, z1) == 0.0

    def test_degenerate_denominator_raises(self):
        with pytest.raises(NumericalError):
            geodesic_step_size(1.0, 1.0, 1.0)


class TestGigaConstruct:
    def test_identical_rows_collapse_to_one_entry(self):
        """N copies of one sample need a single entry of weight N."""
        x = np.tile(np.array([[0.8, -0.4]]), (7, 1))
        data = Dataset(x, np.ones(7))
        basis = ProjectionBasis(np.array([[0.3, 0.1], [1.0, -1.0], [0.2, 2.0]]))
        emb = embed_log_likelihoods(data, basis)
        coreset = giga_construct(emb, m=5)
        assert coreset.size == 1
        np.testing.assert_allclose(coreset.weights, [7.0], rtol=1e-12)
        assert coreset.construction.relative_error < 1e-12
        assert coreset.construction.early_stop == "aligned"

    def test_rank_one_embedding_is_recovered_exactly(self):
        """With d=1 every direction coincides, so one entry reconstructs
        the total and ties break to the lowest index."""
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=(5, 2)), rng.choice([-1.0, 1.0], size=5))
        basis = ProjectionBasis(rng.normal(size=(1, 2)))
        emb = embed_log_likelihoods(data, basis)
        coreset = giga_construct(emb, m=3)
        assert coreset.size == 1
        assert coreset.row_indices[0] == 0
        assert coreset.construction.relative_error < 1e-12

    def test_single_iteration_budget(self):
        rng = np.random.default_rng(3)
        emb = random_embedding(rng)
        coreset = giga_construct(emb, m=1)
        assert coreset.size == 1
        assert coreset.construction.iterations_run == 1

    def test_matches_brute_force_at_single_entry(self):
        """One iteration recovers the best single-row approximation.

        The first pick maximizes alignment with the total and the final
        scaling is the optimal multiple, which is exactly what exhaustive
        enumeration with nonnegative least squares finds at support size 1.
        Larger budgets lose no ground against it: the line search allows a
        zero step, so the residual never grows.
        """
        rng = np.random.default_rng(4)
        for _ in range(10):
            emb = random_embedding(rng, n=6, f=2, d=3)
            best_single = brute_force_residual(emb.vectors, 1)
            one = giga_construct(emb, m=1)
            assert one.construction.residual_norm <= best_single * (1 + 1e-9) + 1e-12
            two = giga_construct(emb, m=2)
            assert two.construction.residual_norm <= best_single * (1 + 1e-9) + 1e-12

    def test_alignment_trace_is_nondecreasing(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            emb = random_embedding(rng, n=30, f=4, d=10)
            coreset = giga_construct(emb, m=25)
            trace = np.asarray(coreset.construction.alignment_trace)
            assert trace.size >= 1
            assert np.all(np.diff(trace) >= -1e-9)

    def test_beats_matched_size_random_subsets(self):
        rng = np.random.default_rng(6)
        wins = 0
        for seed in range(10):
            emb = random_embedding(rng, n=60, f=4, d=20)
            coreset = giga_construct(emb, m=12)
            rand = random_construct(emb.n, coreset.size, rng_seed=seed)
            _, rand_err = reconstruction_residual(rand, emb)
            wins += coreset.construction.relative_error <= rand_err
        assert wins >= 9

    def test_entry_count_never_exceeds_budget_or_candidates(self):
        rng = np.random.default_rng(7)
        emb = random_embedding(rng, n=40, f=3, d=12)
        for m in (1, 5, 17, 60):
            coreset = giga_construct(emb, m=m)
            assert coreset.size <= min(m, emb.n)
            assert np.all(coreset.weights > 0)
            assert np.unique(coreset.row_indices).size == coreset.size

    def test_zero_norm_rows_are_never_selected(self):
        """A saturated row is not a candidate even with a large budget: one of
        norm 0, and one of norm ~1e-20 that points along the target and would
        be picked first, with a weight of ~1e20."""
        basis = ProjectionBasis(np.array([[800.0]]))
        for x0, norm_below in ((1.0, 1e-300), (0.0575, 1e-19)):
            x = np.vstack([np.full((1, 1), x0), np.full((5, 1), 1e-3)])
            emb = embed_log_likelihoods(Dataset(x, np.ones(6)), basis)
            assert emb.norms[0] < norm_below
            for construct in (giga_construct, frankwolfe_construct):
                coreset = construct(emb, m=6)
                assert 0 not in coreset.row_indices
                assert np.all(coreset.weights < 10.0)

    def test_all_zero_embedding_raises(self):
        data = Dataset(np.full((3, 1), 1.0), np.ones(3))
        basis = ProjectionBasis(np.array([[800.0]]))
        emb = embed_log_likelihoods(data, basis)
        with pytest.raises(DataError):
            giga_construct(emb, m=2)

    def test_deterministic(self):
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        a = giga_construct(random_embedding(rng_a), m=9)
        b = giga_construct(random_embedding(rng_b), m=9)
        np.testing.assert_array_equal(a.row_indices, b.row_indices)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_bad_budget_raises(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DataError):
            giga_construct(random_embedding(rng), m=0)


class TestGigaMatchesReference:
    """giga_construct scores from memoised products; the reference takes a
    fresh n x d product per iteration. Their coresets agree exactly."""

    def test_random_embeddings(self):
        rng = np.random.default_rng(17)
        for n, f, d in ((20, 3, 8), (60, 4, 20), (300, 5, 40)):
            for m in (1, 7, 40, 200):
                emb = random_embedding(rng, n=n, f=f, d=d)
                assert_same_coreset(giga_construct(emb, m), reference_giga(emb, m))

    def test_duplicate_rows(self):
        rng = np.random.default_rng(18)
        distinct = random_embedding(rng, n=15, f=3, d=10).vectors
        for _ in range(5):
            emb = hand_embedding(distinct[rng.integers(15, size=60)])
            assert_same_coreset(giga_construct(emb, 50), reference_giga(emb, 50))

    def test_rank_one_embedding(self):
        rng = np.random.default_rng(19)
        direction = rng.normal(size=12)
        emb = hand_embedding(rng.uniform(0.5, 2.0, size=(25, 1)) * direction)
        coreset = giga_construct(emb, 10)
        assert_same_coreset(coreset, reference_giga(emb, 10))
        assert coreset.size == 1

    def test_rows_below_the_norm_floor(self):
        rng = np.random.default_rng(20)
        vectors = random_embedding(rng, n=50, f=3, d=12).vectors.copy()
        vectors[::5] *= 1e-3
        vectors[1] = 0.0
        emb = hand_embedding(vectors)
        coreset = giga_construct(emb, 60)
        assert_same_coreset(coreset, reference_giga(emb, 60))
        assert not set(coreset.row_indices) & ({1} | set(range(0, 50, 5)))

    @pytest.mark.parametrize("rows, m, early_stop", [
        ([[0.3, -0.2, 0.9], [0.1, 0.8, 0.4], [0.7, 0.5, 0.1]], 2, None),
        ([[0.3, 0.4]] * 4, 5, "aligned"),
        # Candidates along e1; the rest of the total sits in a row below
        # the norm floor, so after one step every score is zero.
        ([[1.0, 0.0]] * 5 + [[0.0, 0.005]], 4, "no improving direction"),
        # The best alignment with the total is ~1e-15: no step is defined.
        ([[1e3, 1e-12], [-1e3, 1e-12]], 3, "degenerate step"),
        # After e1, the second pick is antipodal up to 1.5e-14, so the
        # half-way step lands on the origin.
        ([[1.0, 0.0]] * 32 + [[-1.0, 1.5e-14]] * 31 + [[0.0, 0.00999]] * 61, 5,
         "iterate collapsed"),
    ])
    def test_each_early_stop(self, rows, m, early_stop):
        emb = hand_embedding(rows)
        coreset = giga_construct(emb, m)
        assert coreset.construction.early_stop == early_stop
        assert_same_coreset(coreset, reference_giga(emb, m))


def assert_same_as_cold_call(coreset, embedding, m):
    """coreset equals giga_construct(embedding, m) on a fresh embedding of
    the same rows, which starts with an empty memo."""
    cold = giga_construct(LikelihoodEmbedding(embedding.vectors, embedding.norms), m)
    np.testing.assert_array_equal(coreset.row_indices, cold.row_indices)
    np.testing.assert_array_equal(coreset.weights, cold.weights)
    got, want = coreset.construction, cold.construction
    assert got.alignment_trace == want.alignment_trace
    assert got.iterations_run == want.iterations_run
    assert got.early_stop == want.early_stop
    assert got.relative_error == want.relative_error


class TestGigaMemo:
    @pytest.mark.parametrize("budgets", [
        (1, 5, 20, 60, 200),
        (200, 60, 20, 5, 1),
        (20, 20, 7, 7, 60, 60),
        (10, 3, 30, 12, 50, 49),
    ], ids=["ascending", "descending", "repeated", "mixed"])
    def test_budget_sequences_match_cold_calls(self, budgets):
        rng = np.random.default_rng(24)
        emb = random_embedding(rng, n=120, f=4, d=30)
        for m in budgets:
            assert_same_as_cold_call(giga_construct(emb, m), emb, m)

    def test_ascending_budgets_walk_once(self, monkeypatch):
        """A larger budget resumes where the last call stopped: 10, 25 and 60
        take 60 steps in all, not 95."""
        rng = np.random.default_rng(25)
        emb = random_embedding(rng, n=120, f=4, d=30)
        steps = []

        def counted(*args):
            steps.append(args)
            return geodesic_step_size(*args)

        monkeypatch.setattr(coreset_module, "geodesic_step_size", counted)
        built = [giga_construct(emb, m) for m in (10, 25, 60)]
        assert [c.construction.iterations_run for c in built] == [10, 25, 60]
        assert len(steps) == 60
        giga_construct(emb, 30)
        assert len(steps) == 90

    @pytest.mark.parametrize("rows, m", [
        ([[0.3, 0.4]] * 4, 5),
        ([[1.0, 0.0]] * 5 + [[0.0, 0.005]], 4),
        ([[1e3, 1e-12], [-1e3, 1e-12]], 3),
        ([[1.0, 0.0]] * 32 + [[-1.0, 1.5e-14]] * 31 + [[0.0, 0.00999]] * 61, 5),
    ], ids=["aligned", "no-improving-direction", "degenerate-step", "collapsed"])
    def test_resumed_early_stop_matches_cold_calls(self, rows, m):
        """After a walk stops early, a larger budget stops at the same place,
        and a budget equal to the iterations it ran reports no early stop."""
        emb = hand_embedding(rows)
        stopped = giga_construct(emb, m)
        assert stopped.construction.early_stop is not None
        ran = stopped.construction.iterations_run
        for budget in (m, 2 * m, max(ran, 1), m + 1, 1, 2 * m):
            assert_same_as_cold_call(giga_construct(emb, budget), emb, budget)

    def test_resumed_walk_past_the_column_cap(self):
        rng = np.random.default_rng(26)
        emb = random_embedding(rng, n=100, f=3, d=3)
        for m in (10, 30, 50, 20, 50, 80):
            assert_same_as_cold_call(giga_construct(emb, m), emb, m)
        assert len(emb.giga_memo["columns"]) == 3

    def test_first_call_holds_no_n_by_d_copy(self):
        """Base scores are built a block of rows at a time, so a first call
        allocates far less than the n x d embedding itself."""
        rng = np.random.default_rng(27)
        giga_construct(random_embedding(rng), 1)  # one-time allocations
        emb = random_embedding(rng, n=2000, f=5, d=200)
        tracemalloc.start()
        try:
            giga_construct(emb, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * emb.vectors.nbytes

    def test_warm_call_matches_cold_call(self):
        rng = np.random.default_rng(21)
        emb = random_embedding(rng, n=80, f=4, d=30)
        cold = giga_construct(emb, 60)
        assert emb.giga_memo["columns"]
        warm = giga_construct(emb, 60)
        np.testing.assert_array_equal(warm.row_indices, cold.row_indices)
        np.testing.assert_array_equal(warm.weights, cold.weights)
        assert warm.construction.alignment_trace == cold.construction.alignment_trace
        assert warm.construction.early_stop == cold.construction.early_stop
        assert_same_coreset(giga_construct(emb, 25), reference_giga(emb, 25))

    def test_holds_at_most_d_columns(self):
        """With d=3 the walk picks more distinct rows than the memo keeps;
        picks past the cap are recomputed, with the same result."""
        rng = np.random.default_rng(23)
        emb = random_embedding(rng, n=100, f=3, d=3)
        expected = reference_giga(emb, 50)
        coreset = giga_construct(emb, 50)
        assert coreset.size > 3
        assert len(emb.giga_memo["columns"]) == 3
        assert_same_coreset(coreset, expected)
        assert_same_coreset(giga_construct(emb, 50), expected)
        assert len(emb.giga_memo["columns"]) == 3


class TestFrankWolfeConstruct:
    def test_single_sample_is_exact(self):
        rng = np.random.default_rng(10)
        data = Dataset(rng.normal(size=(1, 2)), np.array([1.0]))
        basis = ProjectionBasis(rng.normal(size=(4, 2)))
        emb = embed_log_likelihoods(data, basis)
        coreset = frankwolfe_construct(emb, m=3)
        assert coreset.size == 1
        np.testing.assert_allclose(coreset.weights, [1.0], rtol=1e-12)
        assert coreset.construction.relative_error < 1e-12

    def test_budget_one_puts_scaled_mass_on_best_vertex(self):
        """m=1 stops after initialization with weight sum(norms)/norm."""
        rng = np.random.default_rng(11)
        emb = random_embedding(rng, n=12, f=3, d=6)
        coreset = frankwolfe_construct(emb, m=1)
        assert coreset.size == 1
        sigma = emb.norms
        ell = emb.total_vector / np.linalg.norm(emb.total_vector)
        scores = (emb.vectors / sigma[:, None]) @ ell
        n_star = int(np.argmax(scores))
        assert coreset.row_indices[0] == n_star
        np.testing.assert_allclose(
            coreset.weights[0], sigma.sum() / sigma[n_star], rtol=1e-12
        )

    def test_identical_rows_collapse_to_one_entry(self):
        x = np.tile(np.array([[1.0, 0.5]]), (4, 1))
        data = Dataset(x, np.ones(4))
        basis = ProjectionBasis(np.array([[0.2, 0.4], [1.0, -0.3]]))
        emb = embed_log_likelihoods(data, basis)
        coreset = frankwolfe_construct(emb, m=4)
        assert coreset.size == 1
        np.testing.assert_allclose(coreset.weights, [4.0], rtol=1e-12)
        assert coreset.construction.early_stop == "converged"

    def test_more_budget_never_hurts(self):
        rng = np.random.default_rng(12)
        emb = random_embedding(rng, n=40, f=4, d=12)
        small = frankwolfe_construct(emb, m=1)
        large = frankwolfe_construct(emb, m=30)
        assert (
            large.construction.residual_norm
            <= small.construction.residual_norm + 1e-12
        )

    def test_reported_on_brute_force_instances(self):
        """Frank-Wolfe residuals are finite and positive on tiny instances."""
        rng = np.random.default_rng(13)
        for trial in range(5):
            emb = random_embedding(rng, n=6, f=2, d=3)
            coreset = frankwolfe_construct(emb, m=1 + trial % 2)
            assert math.isfinite(coreset.construction.residual_norm)

    def test_deterministic(self):
        rng_a = np.random.default_rng(14)
        rng_b = np.random.default_rng(14)
        a = frankwolfe_construct(random_embedding(rng_a), m=7)
        b = frankwolfe_construct(random_embedding(rng_b), m=7)
        np.testing.assert_array_equal(a.row_indices, b.row_indices)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestCompress:
    """compress against the stages it runs, called one by one."""

    def test_matches_construction_on_a_hand_built_embedding(self):
        data = generate_synthetic(20, 60, f=4, separation=2.0, rng_seed=15)
        params, std, built = compress(data, (5, 12), 30, 16, "laplace", "b")
        expected = apply_standardization(data, fit_standardization(data))
        np.testing.assert_array_equal(std.x, expected.x)
        np.testing.assert_array_equal(std.y, expected.y)
        assert params.to_dict() == fit_standardization(data).to_dict()
        emb = embed_log_likelihoods(
            expected, build_projection_basis(expected, 30, 16, weighting="laplace"))
        for m, coreset in zip((5, 12), built, strict=True):
            direct = giga_construct(emb, m, batch_id="b")
            assert coreset.batch_ids == direct.batch_ids
            np.testing.assert_array_equal(coreset.row_indices, direct.row_indices)
            np.testing.assert_array_equal(coreset.weights, direct.weights)
        (fw,) = compress(data, (7,), 30, 16, "laplace", "b", method="fw")[2]
        direct = frankwolfe_construct(emb, 7, batch_id="b")
        assert fw.construction.method == "frankwolfe"
        np.testing.assert_array_equal(fw.row_indices, direct.row_indices)
        np.testing.assert_array_equal(fw.weights, direct.weights)


class TestRandomConstruct:
    def test_distinct_indices_and_unbiased_weights(self):
        coreset = random_construct(880, 88, rng_seed=0)
        assert coreset.size == 88
        assert np.unique(coreset.row_indices).size == 88
        np.testing.assert_allclose(coreset.weights, 10.0)

    def test_inclusion_frequency_is_uniform(self):
        """Every row appears in roughly m/n of the draws."""
        n, m, draws = 880, 88, 20000
        counts = np.zeros(n)
        for seed in range(draws):
            counts[random_construct(n, m, rng_seed=seed).row_indices] += 1
        freq = counts / draws
        assert np.max(np.abs(freq - 0.1)) < 0.01

    def test_oversized_budget_raises(self):
        with pytest.raises(DataError):
            random_construct(10, 11, rng_seed=0)

    def test_deterministic(self):
        a = random_construct(100, 10, rng_seed=3)
        b = random_construct(100, 10, rng_seed=3)
        np.testing.assert_array_equal(a.row_indices, b.row_indices)


class TestAggregate:
    def make(self, batch_id, rows, weights):
        return Coreset(
            batch_ids=(batch_id,) * len(rows),
            row_indices=np.array(rows),
            weights=np.array(weights, dtype=float),
        )

    def test_sizes_add_and_weights_pass_through(self):
        a = self.make("t1", range(84), np.linspace(1, 5, 84))
        b = self.make("t2", range(82), np.linspace(2, 3, 82))
        merged = aggregate([a, b])
        assert merged.size == 166
        np.testing.assert_array_equal(merged.weights[:84], a.weights)
        np.testing.assert_array_equal(merged.weights[84:], b.weights)
        assert merged.batch_ids[:84] == a.batch_ids
        assert merged.batch_ids[84:] == b.batch_ids

    def test_colliding_entries_raise(self):
        a = self.make("t1", [0, 1], [1.0, 2.0])
        with pytest.raises(DataError):
            aggregate([a, a])

    def test_empty_list_raises(self):
        with pytest.raises(DataError):
            aggregate([])


class TestMaterialize:
    def test_gathers_rows_with_provenance(self):
        d1 = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]))
        d2 = Dataset(np.array([[3.0], [4.0]]), np.array([1.0, 1.0]))
        coreset = Coreset(
            batch_ids=("a", "b", "a"),
            row_indices=np.array([1, 0, 0]),
            weights=np.array([2.0, 3.0, 4.0]),
        )
        x, y, w = materialize(coreset, {"a": d1, "b": d2})
        np.testing.assert_allclose(x, [[2.0], [3.0], [1.0]])
        np.testing.assert_allclose(y, [-1.0, 1.0, 1.0])
        np.testing.assert_allclose(w, [2.0, 3.0, 4.0])

    def test_unknown_batch_raises(self):
        coreset = Coreset(("a",), np.array([0]), np.array([1.0]))
        with pytest.raises(DataError):
            materialize(coreset, {"b": Dataset(np.ones((1, 1)), np.ones(1))})

    def test_out_of_range_row_raises(self):
        coreset = Coreset(("a",), np.array([5]), np.array([1.0]))
        with pytest.raises(DataError):
            materialize(coreset, {"a": Dataset(np.ones((2, 1)), np.ones(2))})


class TestCoresetType:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(DataError):
            Coreset(("a",), np.array([0]), np.array([0.0]))
        with pytest.raises(DataError):
            Coreset(("a",), np.array([0]), np.array([-1.0]))

    def test_rejects_duplicate_entries(self):
        with pytest.raises(DataError):
            Coreset(("a", "a"), np.array([3, 3]), np.array([1.0, 2.0]))


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(15)
        emb = random_embedding(rng)
        coreset = giga_construct(emb, m=8, batch_id="t3")
        path = tmp_path / "coreset.json"
        save_coreset(coreset, path)
        back = load_coreset(path)
        np.testing.assert_array_equal(back.row_indices, coreset.row_indices)
        np.testing.assert_array_equal(back.weights, coreset.weights)
        assert back.batch_ids == coreset.batch_ids
        assert back.construction.method == "giga"
        assert back.construction.iterations_run == coreset.construction.iterations_run
        np.testing.assert_allclose(
            back.construction.alignment_trace, coreset.construction.alignment_trace
        )

    def test_loads_file_carrying_retired_model_family_key(self, tmp_path):
        """Coreset files written before the tag was dropped still load."""
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "model_family": "blr",
            "entries": [{"batch_id": "ds0", "row_index": 4, "weight": 2.5}],
            "construction": None,
        }))
        back = load_coreset(path)
        assert back.batch_ids == ("ds0",)
        np.testing.assert_array_equal(back.row_indices, [4])
        np.testing.assert_array_equal(back.weights, [2.5])
        assert "model_family" not in back.to_dict()

    def test_aggregate_without_diagnostics_round_trips(self, tmp_path):
        a = Coreset(("t1",), np.array([0]), np.array([1.0]))
        b = Coreset(("t2",), np.array([4]), np.array([2.5]))
        merged = aggregate([a, b])
        save_coreset(merged, tmp_path / "agg.json")
        back = load_coreset(tmp_path / "agg.json")
        assert back.construction is None
        assert back.size == 2
