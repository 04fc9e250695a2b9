"""Streaming simulation: batches arrive step by step, models retrain.

At each step a new batch arrives and exactly one data-reduction rule runs:

- ``pool_full``: keep every raw sample seen so far, train on the pool.
- ``coreset_aggregate``: compress the new batch to a greedy coreset on
  arrival (its own pilot and projection basis), then train on the union of
  all stored coresets with their weights.
- ``random_aggregate``: same bookkeeping with uniform random coresets.

Previously stored coresets are never touched again, so the store is
append-only. Reduction time and training time are recorded separately with
a monotonic clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .coreset import Coreset, aggregate, giga_construct, materialize, random_construct
from .data import Dataset, apply_standardization, fit_standardization
from .embed import WEIGHTING_LAPLACE, build_projection_basis, embed_log_likelihoods
from .errors import ConfigError, DataError
from .inference import WeightedBLRModel, accuracy, hmc_sample
from .seeds import derive_seed

MODE_POOL = "pool_full"
MODE_CORESET = "coreset_aggregate"
MODE_RANDOM = "random_aggregate"
MODES = (MODE_POOL, MODE_CORESET, MODE_RANDOM)

EVAL_UNION = "union"
EVAL_CURRENT = "current"
EVAL_SCOPES = (EVAL_UNION, EVAL_CURRENT)


@dataclass(frozen=True)
class StreamPlan:
    """One arm of the streaming simulation.

    batches are (batch_id, dataset) pairs in arrival order; test_sets[i is
    the evaluation set that becomes available together with batch i. With
    eval_scope "union" step i evaluates on the union of test sets 0..i,
    with "current" on test set i alone.

    Its settings come checked from the config; it checks only its data.
    """

    batches: tuple[tuple[str, Dataset], ...]
    test_sets: tuple[Dataset, ...]
    mode: str
    coreset_budget: int = 500
    embedding_dim: int = 500
    rng_seed: int = 0
    weighting: str = WEIGHTING_LAPLACE
    eval_scope: str = EVAL_UNION
    hmc: Mapping[str, float] = field(default_factory=dict)
    predict_draws: int = 1000

    def __post_init__(self):
        if not self.batches:
            raise ConfigError("a stream plan needs at least one batch")
        ids = [batch_id for batch_id, _ in self.batches]
        if len(set(ids)) != len(ids):
            raise ConfigError("batch ids must be unique")
        if len(self.test_sets) != len(self.batches):
            raise ConfigError("need one test set per batch")
        widths = {ds.f for _, ds in self.batches} | {ds.f for ds in self.test_sets}
        if len(widths) != 1:
            raise DataError("all batches and test sets must share feature width")


@dataclass(frozen=True)
class StepRecord:
    """What happened at one time step of one arm."""

    step: int
    mode: str
    stored_samples: int
    reduction_seconds: float
    training_seconds: float
    accuracy: float
    eval_samples: int
    model_diagnostics: dict
    added_coreset: Coreset | None = None


def _concat(datasets: list[Dataset]) -> Dataset:
    if len(datasets) == 1:
        return datasets[0]
    x = np.concatenate([ds.x for ds in datasets], axis=0)
    y = np.concatenate([ds.y for ds in datasets])
    return Dataset(x, y)


def _reduce_batch(plan: StreamPlan, step: int, batch_id: str,
                  batch: Dataset) -> Coreset:
    """Compress one arriving batch according to the plan's mode."""
    if plan.mode == MODE_RANDOM:
        size = min(plan.coreset_budget, batch.n)
        return random_construct(
            batch.n, size, derive_seed(plan.rng_seed, "reduce", step),
            batch_id=batch_id,
        )
    # The pilot sees only this batch: streaming assumes no lookahead.
    params = fit_standardization(batch)
    std = apply_standardization(batch, params)
    basis = build_projection_basis(
        std, plan.embedding_dim, derive_seed(plan.rng_seed, "basis", step),
        weighting=plan.weighting,
    )
    embedding = embed_log_likelihoods(std, basis)
    return giga_construct(embedding, plan.coreset_budget, batch_id=batch_id)


def run_stream(plan: StreamPlan) -> list[StepRecord]:
    """Execute every step of the plan and return one record per step."""
    raw_batches: dict[str, Dataset] = {}
    arrived: list[Dataset] = []
    store: list[Coreset] = []
    records: list[StepRecord] = []

    for step, (batch_id, batch) in enumerate(plan.batches):
        raw_batches[batch_id] = batch
        arrived.append(batch)

        started = time.perf_counter()
        if plan.mode == MODE_POOL:
            added = None
        else:
            added = _reduce_batch(plan, step, batch_id, batch)
            store.append(added)
        reduction_seconds = time.perf_counter() - started

        # Assemble the training set the mode allows us to keep, refit
        # standardization on it, and retrain from scratch.
        if plan.mode == MODE_POOL:
            pool = _concat(arrived)
            params = fit_standardization(pool)
            train = apply_standardization(pool, params)
            model = WeightedBLRModel.from_dataset(train)
            stored_samples = pool.n
        else:
            combined = aggregate(store)
            x, y, weights = materialize(combined, raw_batches)
            entries = Dataset(x, y)
            params = fit_standardization(entries)
            std = apply_standardization(entries, params)
            model = WeightedBLRModel(std.x, std.y, weights)
            stored_samples = combined.size

        started = time.perf_counter()
        posterior = hmc_sample(
            model, rng_seed=derive_seed(plan.rng_seed, "hmc", step), **plan.hmc
        )
        training_seconds = time.perf_counter() - started

        if plan.eval_scope == EVAL_UNION:
            test = _concat(list(plan.test_sets[: step + 1]))
        else:
            test = plan.test_sets[step]
        test_std = apply_standardization(test, params)
        draws = min(plan.predict_draws, posterior.n_draws)
        acc = accuracy(posterior, test_std, n_draws=draws)

        records.append(StepRecord(
            step=step,
            mode=plan.mode,
            stored_samples=stored_samples,
            reduction_seconds=reduction_seconds,
            training_seconds=training_seconds,
            accuracy=acc,
            eval_samples=test.n,
            model_diagnostics=posterior.settings_dict(),
            added_coreset=added,
        ))
    return records
