"""Streaming simulation: batches arrive step by step, models retrain.

At each step a new batch arrives and exactly one data-reduction rule runs:

- ``pool_full``: keep every raw sample seen so far, train on the pool.
- ``coreset_aggregate``: compress the new batch to a greedy coreset on
  arrival (its own pilot and projection basis), then train on the union of
  all stored coresets with their weights.
- ``random_aggregate``: same bookkeeping with uniform random coresets.

A plan runs all of a mode's coreset budgets together, one arm per budget.
Each arriving batch is compressed once for all of them: one pilot, one
basis, one embedding and one GIGA walk, and a smaller budget's coreset is
the walk's prefix, equal to the one a plan of that budget alone builds.
Each budget keeps its own store and trains its own model, and the budgets
share the step's HMC seed.

Previously stored coresets are never touched again, so each store is
append-only. A budget's reduction time is the one `compress` sets on its
coreset (a random coreset's is its construction, the pool's 0), and its
training time is the chain `inference.sample_and_score` times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .coreset import Coreset, aggregate, compress, materialize, random_construct
from .data import Dataset, apply_standardization, fit_standardization
from .embed import WEIGHTING_LAPLACE
from .errors import ConfigError, DataError, FlowCoresetError
from .inference import WeightedBLRModel, sample_and_score
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
    """One mode of the streaming simulation, with an arm per coreset budget.

    batches are (batch_id, dataset) pairs in arrival order; test_sets[i is
    the evaluation set that becomes available together with batch i. With
    eval_scope "union" step i evaluates on the union of test sets 0..i,
    with "current" on test set i alone.

    A coreset or random plan runs one arm per entry of coreset_budgets,
    ascending budgets sharing one compression per batch; a pool plan runs
    one arm and ignores them. Seeds derive from rng_seed and the step: the
    basis from "basis", random coresets from "reduce" and HMC from "hmc",
    the same for every budget.

    Its settings come checked from the config; it checks only its data.
    """

    batches: tuple[tuple[str, Dataset], ...]
    test_sets: tuple[Dataset, ...]
    mode: str
    coreset_budgets: tuple[int, ...] = (500,)
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

    @property
    def budgets(self) -> tuple[int | None, ...]:
        """The budget of each arm: None for the pool's one arm."""
        return (None,) if self.mode == MODE_POOL else self.coreset_budgets


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
    budget: int | None = None


def _concat(datasets: list[Dataset]) -> Dataset:
    if len(datasets) == 1:
        return datasets[0]
    x = np.concatenate([ds.x for ds in datasets], axis=0)
    y = np.concatenate([ds.y for ds in datasets])
    return Dataset(x, y)


def _reduce_batch(plan: StreamPlan, step: int, batch_id: str, batch: Dataset,
                  budgets: tuple[int, ...]) -> list[Coreset]:
    """Compress one arriving batch to a coreset per budget."""
    if plan.mode == MODE_RANDOM:
        seed = derive_seed(plan.rng_seed, "reduce", step)
        return [random_construct(batch.n, min(m, batch.n), seed, batch_id=batch_id)
                for m in budgets]
    # The pilot sees only this batch: streaming assumes no lookahead.
    return compress(batch, budgets, plan.embedding_dim,
                    derive_seed(plan.rng_seed, "basis", step), plan.weighting,
                    batch_id)[2]


def _training_set(arrived: list[Dataset], store: list[Coreset] | None,
                  raw_batches: dict[str, Dataset]):
    """The model an arm may train on, its frame and its stored samples.

    The pool (store None) keeps every arrived row; a coreset arm keeps its
    stored entries with their weights. Either way standardization is refit
    on what is kept and the model retrains from scratch.
    """
    if store is None:
        kept, weights = _concat(arrived), None
    else:
        x, y, weights = materialize(aggregate(store), raw_batches)
        kept = Dataset(x, y)
    params = fit_standardization(kept)
    model = WeightedBLRModel.from_dataset(apply_standardization(kept, params), weights)
    return model, params, kept.n


def run_stream(plan: StreamPlan,
               errors: dict[int | None, FlowCoresetError] | None = None,
               ) -> list[StepRecord]:
    """Execute every step of every arm of the plan.

    Returns one record per arm and step, arm by arm in budget order and
    step by step within an arm. An arm whose reduction or training raises
    a FlowCoresetError ends there; a shared compression that raises ends
    every arm it served. Without `errors` the error propagates. With it,
    each ended arm's error is stored there under its budget, the ended
    arm returns no records and the other arms run on.
    """
    raw_batches: dict[str, Dataset] = {}
    arrived: list[Dataset] = []
    budgets = plan.budgets
    stores: dict = {m: None if m is None else [] for m in budgets}
    records: dict = {m: [] for m in budgets}
    ended: dict = {}

    for step, (batch_id, batch) in enumerate(plan.batches):
        raw_batches[batch_id] = batch
        arrived.append(batch)
        live = tuple(m for m in budgets if m not in ended)
        if not live:
            break

        if plan.mode == MODE_POOL:
            reduced = [None]
        else:
            try:
                reduced = _reduce_batch(plan, step, batch_id, batch, live)
            except FlowCoresetError as exc:
                if errors is None:
                    raise
                ended.update(dict.fromkeys(live, exc))
                break

        if plan.eval_scope == EVAL_UNION:
            test = _concat(list(plan.test_sets[: step + 1]))
        else:
            test = plan.test_sets[step]
        hmc_seed = derive_seed(plan.rng_seed, "hmc", step)

        for budget, added in zip(live, reduced):
            try:
                if added is not None:
                    stores[budget].append(added)
                model, params, stored_samples = _training_set(
                    arrived, stores[budget], raw_batches)
                posterior, training_seconds, acc = sample_and_score(
                    model, apply_standardization(test, params), hmc_seed,
                    plan.hmc, plan.predict_draws)
            except FlowCoresetError as exc:
                if errors is None:
                    raise
                ended[budget] = exc
                continue
            records[budget].append(StepRecord(
                step=step,
                mode=plan.mode,
                stored_samples=stored_samples,
                reduction_seconds=(added.construction.wall_clock_seconds
                                   if added is not None else 0.0),
                training_seconds=training_seconds,
                accuracy=acc,
                eval_samples=test.n,
                model_diagnostics=posterior.settings_dict(),
                added_coreset=added,
                budget=budget,
            ))

    if errors is not None:
        errors.update(ended)
    return [record for m in budgets if m not in ended for record in records[m]]
