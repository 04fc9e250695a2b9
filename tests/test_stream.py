"""Streaming simulation: reduction rules, bookkeeping, and equivalences."""

import numpy as np
import pytest

from flowcoreset.coreset import giga_construct
from flowcoreset.data import (
    Dataset,
    apply_standardization,
    fit_standardization,
    generate_synthetic,
    stratified_split,
)
from flowcoreset.embed import build_projection_basis, embed_log_likelihoods
from flowcoreset.errors import ConfigError, DataError
from flowcoreset.inference import WeightedBLRModel, accuracy, hmc_sample
from flowcoreset.seeds import derive_seed
from flowcoreset.stream import (
    EVAL_CURRENT,
    MODE_CORESET,
    MODE_POOL,
    MODE_RANDOM,
    StreamPlan,
    run_stream,
)

FAST_HMC = {"total_samples": 240, "burn_frac": 0.5, "thin": 2,
            "leapfrog_steps": 10}


def make_arrivals(n_batches, batch_pos=30, batch_neg=150, test_pos=40,
                  test_neg=40, f=5, separation=6.0, seed=11):
    """Batches and test sets split from one generated pool.

    A single pool keeps every piece on the same class-mean direction, so
    batches are i.i.d. draws from one distribution as the simulation
    assumes.
    """
    pool = generate_synthetic(
        n_batches * (batch_pos + test_pos), n_batches * (batch_neg + test_neg),
        f, separation, derive_seed(seed, "pool"),
    )
    batches, tests = [], []
    remainder = pool
    for j in range(n_batches):
        batch, remainder = stratified_split(
            remainder, batch_pos, batch_neg, derive_seed(seed, "batch", j))
        test, remainder = stratified_split(
            remainder, test_pos, test_neg, derive_seed(seed, "test", j))
        batches.append((f"t{j}", batch))
        tests.append(test)
    return tuple(batches), tuple(tests)


def make_plan(mode, n_batches=2, budget=60, d=30, seed=7, **overrides):
    batches, tests = make_arrivals(n_batches)
    settings = dict(
        batches=batches, test_sets=tests, mode=mode, coreset_budget=budget,
        embedding_dim=d, rng_seed=seed, hmc=FAST_HMC, predict_draws=60,
    )
    settings.update(overrides)
    return StreamPlan(**settings)


class TestPlanValidation:
    def test_rejects_empty_batches(self):
        _, tests = make_arrivals(1)
        with pytest.raises(ConfigError):
            StreamPlan(batches=(), test_sets=tests, mode=MODE_POOL)

    def test_rejects_duplicate_batch_ids(self):
        batches, tests = make_arrivals(2)
        renamed = (("t0", batches[0][1]), ("t0", batches[1][1]))
        with pytest.raises(ConfigError):
            StreamPlan(batches=renamed, test_sets=tests, mode=MODE_POOL)

    def test_rejects_test_count_mismatch(self):
        batches, tests = make_arrivals(2)
        with pytest.raises(ConfigError):
            StreamPlan(batches=batches, test_sets=tests[:1], mode=MODE_POOL)

    def test_rejects_feature_width_mismatch(self):
        batches, tests = make_arrivals(2)
        narrow = generate_synthetic(5, 5, 3, 1.0, 0)
        with pytest.raises(DataError):
            StreamPlan(batches=(batches[0], ("t1", narrow)), test_sets=tests,
                       mode=MODE_POOL)


class TestBookkeeping:
    def test_pool_stored_samples_are_cumulative_batch_sizes(self):
        plan = make_plan(MODE_POOL, n_batches=3)
        records = run_stream(plan)
        sizes = [batch.n for _, batch in plan.batches]
        assert [r.stored_samples for r in records] == [
            sum(sizes[: i + 1]) for i in range(3)
        ]
        assert all(r.added_coreset is None for r in records)
        assert all(r.reduction_seconds >= 0.0 for r in records)

    def test_coreset_stored_samples_sum_per_batch_entries(self):
        plan = make_plan(MODE_CORESET, n_batches=3, budget=40)
        records = run_stream(plan)
        running = 0
        for record in records:
            assert record.added_coreset is not None
            assert record.added_coreset.size <= 40
            running += record.added_coreset.size
            assert record.stored_samples == running

    def test_random_mode_stores_budget_sized_subsets(self):
        plan = make_plan(MODE_RANDOM, n_batches=2, budget=50)
        records = run_stream(plan)
        assert [r.added_coreset.size for r in records] == [50, 50]
        assert records[-1].stored_samples == 100

    def test_union_eval_grows_and_current_eval_does_not(self):
        union = run_stream(make_plan(MODE_POOL, n_batches=3))
        current = run_stream(make_plan(MODE_POOL, n_batches=3,
                                       eval_scope=EVAL_CURRENT))
        assert [r.eval_samples for r in union] == [80, 160, 240]
        assert [r.eval_samples for r in current] == [80, 80, 80]

    def test_earlier_coresets_are_not_revisited(self):
        """A longer stream reproduces its own prefix: step-0 reduction is
        unchanged by anything that arrives later."""
        long_plan = make_plan(MODE_CORESET, n_batches=2)
        short_plan = StreamPlan(
            batches=long_plan.batches[:1], test_sets=long_plan.test_sets[:1],
            mode=MODE_CORESET, coreset_budget=long_plan.coreset_budget,
            embedding_dim=long_plan.embedding_dim, rng_seed=long_plan.rng_seed,
            hmc=FAST_HMC, predict_draws=60,
        )
        first_of_long = run_stream(long_plan)[0]
        only_of_short = run_stream(short_plan)[0]
        assert first_of_long.added_coreset.row_indices.tolist() == \
            only_of_short.added_coreset.row_indices.tolist()
        np.testing.assert_array_equal(first_of_long.added_coreset.weights,
                                      only_of_short.added_coreset.weights)
        assert first_of_long.accuracy == only_of_short.accuracy

    def test_records_are_deterministic_modulo_wall_clock(self):
        a = run_stream(make_plan(MODE_CORESET, n_batches=2))
        b = run_stream(make_plan(MODE_CORESET, n_batches=2))
        for ra, rb in zip(a, b):
            assert ra.accuracy == rb.accuracy
            assert ra.stored_samples == rb.stored_samples
            assert ra.model_diagnostics == rb.model_diagnostics
            np.testing.assert_array_equal(ra.added_coreset.weights,
                                          rb.added_coreset.weights)


class TestOfflineEquivalence:
    def test_single_step_pool_matches_manual_pipeline(self):
        """One pooled step is exactly the offline train-on-everything run."""
        plan = make_plan(MODE_POOL, n_batches=1)
        record = run_stream(plan)[0]

        _, batch = plan.batches[0]
        params = fit_standardization(batch)
        model = WeightedBLRModel.from_dataset(apply_standardization(batch, params))
        posterior = hmc_sample(
            model, rng_seed=derive_seed(plan.rng_seed, "hmc", 0), **FAST_HMC)
        test = apply_standardization(plan.test_sets[0], params)
        expected = accuracy(posterior, test, n_draws=60)
        assert record.accuracy == expected
        assert record.stored_samples == batch.n

    def test_single_step_reduction_matches_direct_construction(self):
        plan = make_plan(MODE_CORESET, n_batches=1, budget=25, d=40)
        record = run_stream(plan)[0]

        _, batch = plan.batches[0]
        params = fit_standardization(batch)
        std = apply_standardization(batch, params)
        basis = build_projection_basis(
            std, 40, derive_seed(plan.rng_seed, "basis", 0))
        embedding = embed_log_likelihoods(std, basis)
        direct = giga_construct(embedding, 25, batch_id="t0")
        assert record.added_coreset.row_indices.tolist() == \
            direct.row_indices.tolist()
        np.testing.assert_array_equal(record.added_coreset.weights,
                                      direct.weights)


class TestLearningBehavior:
    def test_separated_stream_reaches_high_accuracy_in_both_arms(self):
        pool = run_stream(make_plan(MODE_POOL, n_batches=2))
        coreset = run_stream(make_plan(MODE_CORESET, n_batches=2, budget=100))
        assert pool[-1].accuracy >= 0.9
        assert coreset[-1].accuracy >= 0.9

    def test_diagnostics_carry_sampler_settings(self):
        record = run_stream(make_plan(MODE_POOL, n_batches=1))[0]
        diag = record.model_diagnostics
        assert diag["n_draws"] == 60
        assert 0.0 <= diag["acceptance_rate"] <= 1.0
        assert {"acceptance_rate", "n_divergent"} <= set(diag)
