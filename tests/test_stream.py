"""Streaming simulation: reduction rules, bookkeeping, and equivalences."""

from dataclasses import replace

import numpy as np
import pytest

from flowcoreset import coreset, inference, stream
from flowcoreset.coreset import giga_construct
from flowcoreset.data import (
    Dataset,
    apply_standardization,
    fit_standardization,
    generate_synthetic,
    stratified_split,
)
from flowcoreset.embed import build_projection_basis, embed_log_likelihoods
from flowcoreset.errors import ConfigError, DataError, NumericalError
from flowcoreset.experiments import (
    ExperimentConfig,
    _stream_arrivals,
    run_stream_experiment,
)
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
        batches=batches, test_sets=tests, mode=mode, coreset_budgets=(budget,),
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
            mode=MODE_CORESET, coreset_budgets=long_plan.coreset_budgets,
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


def assert_same_apart_from_seconds(a, b):
    """Two step records agree on everything but their *_seconds fields."""
    assert (a.step, a.mode, a.budget, a.stored_samples, a.accuracy,
            a.eval_samples) == (b.step, b.mode, b.budget, b.stored_samples,
                                b.accuracy, b.eval_samples)
    assert a.model_diagnostics == b.model_diagnostics
    if a.added_coreset is None:
        assert b.added_coreset is None
        return
    ca, cb = a.added_coreset, b.added_coreset
    assert ca.batch_ids == cb.batch_ids
    np.testing.assert_array_equal(ca.row_indices, cb.row_indices)
    np.testing.assert_array_equal(ca.weights, cb.weights)
    assert replace(ca.construction, wall_clock_seconds=0.0) == \
        replace(cb.construction, wall_clock_seconds=0.0)


class TestSharedCompression:
    """A plan's budgets share one compression per batch, and each budget's
    arm is the arm a one-budget plan with the same seed runs."""

    @pytest.mark.parametrize("mode", [MODE_CORESET, MODE_RANDOM])
    def test_each_budget_matches_its_one_budget_plan(self, mode):
        shared = run_stream(make_plan(mode, coreset_budgets=(40, 80)))
        assert [r.budget for r in shared] == [40, 40, 80, 80]
        assert [r.step for r in shared] == [0, 1, 0, 1]
        for budget in (40, 80):
            alone = run_stream(make_plan(mode, budget=budget))
            arm = [r for r in shared if r.budget == budget]
            assert len(arm) == len(alone) == 2
            for a, b in zip(arm, alone):
                assert_same_apart_from_seconds(a, b)

    def test_one_basis_and_embedding_per_batch(self, monkeypatch):
        calls = []
        real = coreset.build_projection_basis

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(coreset, "build_projection_basis", counted)
        run_stream(make_plan(MODE_CORESET, n_batches=3,
                             coreset_budgets=(20, 40, 80)))
        assert calls == [30, 30, 30]

    def test_each_budget_counts_the_shared_frame_in_full(self, monkeypatch):
        """reduction_seconds less a budget's own walk is the same frame
        for every budget of a step."""
        walks = []
        real = coreset.giga_construct

        def timed(*args, **kwargs):
            built = real(*args, **kwargs)
            walks.append(built.construction.wall_clock_seconds)
            return built

        monkeypatch.setattr(coreset, "giga_construct", timed)
        records = run_stream(make_plan(MODE_CORESET,
                                       coreset_budgets=(20, 40, 80)))
        for step in (0, 1):
            at = [r for r in records if r.step == step]
            assert [r.reduction_seconds for r in at] == [
                r.added_coreset.construction.wall_clock_seconds for r in at]
            frames = [r.reduction_seconds - walk
                      for r, walk in zip(at, walks[3 * step:3 * step + 3])]
            assert frames[0] > 0.0
            assert frames == pytest.approx([frames[0]] * 3, abs=1e-12)


STREAM_CONFIG = {
    "source": {"kind": "synthetic", "n_datasets": 1, "train_pos": 15,
               "train_neg": 75, "test_pos": 30, "test_neg": 30,
               "features": 5, "separation": 6.0},
    "embedding_dim": 30,
    "budgets": [15, 30],
    "hmc": {"total_samples": 120, "burn_frac": 0.5, "thin": 2,
            "leapfrog_steps": 8},
    "predict_draws": 30,
    "repetitions": 2,
    "rng_seed": 3,
    "stream": {"modes": ["pool_full", "coreset_aggregate"], "n_batches": 2,
               "batch_pos": 15, "batch_neg": 75, "test_pos": 25,
               "test_neg": 25},
}


def stream_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig.from_dict({**STREAM_CONFIG, **overrides})


class TestExperimentArms:
    def test_pool_arm_is_the_pool_plan_seeded_by_repetition(self):
        config = stream_config()
        _, arms = run_stream_experiment(config, None)
        pools = [arm for arm in arms if arm["mode"] == MODE_POOL]
        assert [arm["repetition"] for arm in pools] == [0, 1]
        for arm in pools:
            rep = arm["repetition"]
            batches, tests = _stream_arrivals(config, rep)
            plan = StreamPlan(
                batches=batches, test_sets=tests, mode=MODE_POOL,
                embedding_dim=config.embedding_dim,
                rng_seed=derive_seed(config.rng_seed, "stream", "arm", rep,
                                     "pool_full", 0),
                hmc=config.hmc, predict_draws=config.predict_draws)
            expected = run_stream(plan)
            assert len(arm["records"]) == len(expected) == 2
            for a, b in zip(arm["records"], expected):
                assert_same_apart_from_seconds(a, b)

    def test_a_failed_training_ends_only_its_budget(self, monkeypatch):
        config = stream_config(
            repetitions=1, stream={**STREAM_CONFIG["stream"],
                                   "modes": ["coreset_aggregate"]})
        _, clean = run_stream_experiment(config, None)

        real = inference.hmc_sample
        trained = []

        def failing(model, **kwargs):
            # Step 0 trains budget 15, then budget 30: fail the second.
            trained.append(model.n)
            if len(trained) == 2:
                raise NumericalError("injected divergence")
            return real(model, **kwargs)

        monkeypatch.setattr(inference, "hmc_sample", failing)
        report, arms = run_stream_experiment(config, None)

        assert len(trained) == 3  # budget 30 does not train at step 1
        assert report["failures"] == [{
            "mode": "coreset_aggregate", "budget": 30, "repetition": 0,
            "error": "NumericalError: injected divergence"}]
        assert [(arm["budget"], len(arm["records"])) for arm in arms] == \
            [(15, 2)]
        for a, b in zip(arms[0]["records"], clean[0]["records"]):
            assert_same_apart_from_seconds(a, b)

    def test_a_failed_compression_ends_every_budget(self, monkeypatch):
        def failing(*args, **kwargs):
            raise DataError("injected empty embedding")

        monkeypatch.setattr(stream, "compress", failing)
        report, arms = run_stream_experiment(stream_config(repetitions=1),
                                             None)
        assert [(f["mode"], f["budget"]) for f in report["failures"]] == [
            ("coreset_aggregate", 15), ("coreset_aggregate", 30)]
        assert all("DataError" in f["error"] for f in report["failures"])
        assert [arm["mode"] for arm in arms] == [MODE_POOL]
        assert len(arms[0]["records"]) == 2

    def test_plan_without_errors_raises_the_first(self, monkeypatch):
        def failing(model, **kwargs):
            raise NumericalError("injected divergence")

        monkeypatch.setattr(inference, "hmc_sample", failing)
        with pytest.raises(NumericalError):
            run_stream(make_plan(MODE_CORESET, coreset_budgets=(40, 80)))
