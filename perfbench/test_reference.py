"""Each reference check passes on real output and rejects a corrupted copy.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import inputs
import reference
import run
from reference import CheckFailed

BUDGETS = [40, 150]


@pytest.fixture(scope="module")
def offline_run(tmp_path_factory) -> Path:
    """A small offline grid through run_offline, with persisted posteriors."""
    modules = run.load_program()
    base = tmp_path_factory.mktemp("offline")
    x, y = inputs.gaussian_classes(80, 440, seed=3)
    inputs.write_dataset(base / "pool.csv", x, y)
    config = run._offline_config(base / "pool.csv", (40, 400), (40, 40), BUDGETS, 60, 2,
                                 rng_seed=5, label_column="label", labels={"1": 1, "-1": -1})
    experiments = modules["experiments"]
    experiments.run_offline(experiments.ExperimentConfig.from_dict(config), base / "out")
    return base / "out"


@pytest.fixture
def copy(offline_run, tmp_path) -> Path:
    return Path(shutil.copytree(offline_run, tmp_path / "out"))


def check(out: Path, loglik_tolerance: float | None = reference.LOGLIK_TOLERANCE) -> float:
    return reference.check_offline(out, BUDGETS, random_size=100, predict_draws=300,
                                   seed=0, loglik_tolerance=loglik_tolerance)


def rewrite_csv(path: Path, edit) -> None:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def rewrite_coreset(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    for entry in doc["entries"]:
        edit(entry)
    path.write_text(json.dumps(doc))


def test_real_output_passes(offline_run):
    check(offline_run)


def test_reported_accuracy_must_match_draws(copy):
    def edit(rows):
        column = rows[0].index("accuracy")
        row = next(r for r in rows[1:] if r[rows[0].index("condition")] == "blr_full")
        row[column] = repr(float(row[column]) - 0.1)

    rewrite_csv(copy / "results.csv", edit)
    with pytest.raises(CheckFailed, match="draws give"):
        check(copy)


def test_flipped_test_labels_are_caught(copy):
    rewrite_csv(copy / "datasets" / "ds0_test.csv",
                lambda rows: [r.__setitem__(-1, str(-int(r[-1]))) for r in rows[1:]])
    with pytest.raises(CheckFailed):
        check(copy)


def test_perturbed_weights_break_the_likelihood_match(copy):
    rewrite_coreset(copy / "coresets" / "ds0_giga_m150.json",
                    lambda e: e.__setitem__("weight", e["weight"] * 1.1))
    with pytest.raises(CheckFailed, match="log-likelihood gap"):
        check(copy)
    assert check(copy, loglik_tolerance=None) > 0.09


def test_nonpositive_weight_is_caught(copy):
    rewrite_coreset(copy / "coresets" / "ds0_giga_m40.json",
                    lambda e: e.__setitem__("weight", -e["weight"]))
    with pytest.raises(CheckFailed, match="positive and finite"):
        check(copy)


def test_stored_rows_must_be_dataset_rows(copy):
    rewrite_csv(copy / "coresets" / "ds0_giga_m40_rows.csv",
                lambda rows: rows[1].__setitem__(-1, str(-int(rows[1][-1]))))
    with pytest.raises(CheckFailed, match="stored rows differ"):
        check(copy)


def test_relative_error_may_not_rise_with_budget(copy):
    def edit(rows):
        head = rows[0]
        for r in rows[1:]:
            if r[head.index("condition")] == "blr_coreset_m150":
                r[head.index("relative_error")] = "0.9"

    rewrite_csv(copy / "results.csv", edit)
    with pytest.raises(CheckFailed, match="rises with the budget"):
        check(copy)


def test_capture_row_accounting(tmp_path):
    counts = inputs.write_capture(tmp_path / "capture.csv", 30, 60, 7, seed=1)
    clean = reference.read_capture(tmp_path / "capture.csv", inputs.CAPTURE_LABELS)
    assert clean.shape[0] == counts["written"] - 7
    (tmp_path / "datasets").mkdir()
    for split in ("train", "test"):
        inputs.write_dataset(tmp_path / "datasets" / f"ds0_{split}.csv",
                             clean[:10, :-1], clean[:10, -1])
    args = (tmp_path, clean, counts["written"], 7)
    reference.check_capture(*args, (clean.shape[0], 7))
    with pytest.raises(CheckFailed, match="spoiled"):
        reference.check_capture(*args, (clean.shape[0] + 1, 6))
    inputs.write_dataset(tmp_path / "datasets" / "ds0_test.csv",
                         clean[:10, :-1] + 1.0, clean[:10, -1])
    with pytest.raises(CheckFailed, match="not clean capture rows"):
        reference.check_capture(*args, (clean.shape[0], 7))


def _stream(weight_scale: float = 1.0, pool_extra: int = 0, flip: bool = False):
    """A two-step stream whose 'coresets' are whole batches with unit weights."""
    batches, tests = inputs.stream_batches(2, (20, 60), (20, 20), seed=4)
    rows, pool, core = [], [], []
    for step in range(2):
        x = np.vstack([b[0] for b in batches[: step + 1]])
        y = np.concatenate([b[1] for b in batches[: step + 1]])
        xt = np.vstack([t[0] for t in tests[: step + 1]])
        yt = np.concatenate([t[1] for t in tests[: step + 1]])
        frame = reference.standardizer(x)
        acc = reference.map_accuracy(frame(x), y, frame(xt), -yt if flip else yt)
        rows.append({"mode": "pool_full", "step": str(step), "accuracy": repr(acc), "error": ""})
        pool.append(SimpleNamespace(stored_samples=y.size + pool_extra, added_coreset=None))
        n = batches[step][1].size
        coreset = SimpleNamespace(
            row_indices=np.arange(n), weights=np.full(n, weight_scale), size=n,
            construction=SimpleNamespace(relative_error=0.0))
        core.append(SimpleNamespace(stored_samples=n * (step + 1), added_coreset=coreset))
    arms = [{"mode": "pool_full", "budget": None, "records": pool},
            {"mode": "coreset_aggregate", "budget": 100, "records": core}]
    return rows, arms, batches, tests


def test_stream_checks():
    reference.check_stream(*_stream(), seed=0)
    with pytest.raises(CheckFailed, match="rows arrived"):
        reference.check_stream(*_stream(pool_extra=1), seed=0)
    with pytest.raises(CheckFailed, match="log-likelihood gap"):
        reference.check_stream(*_stream(weight_scale=1.1), seed=0)
    with pytest.raises(CheckFailed, match="Newton MAP"):
        reference.check_stream(*_stream(flip=True), seed=0)


def test_min_ess_of_independent_and_sticky_chains():
    rng = np.random.default_rng(0)
    independent = rng.normal(size=(2000, 2))
    sticky = np.repeat(rng.normal(size=(200, 2)), 10, axis=0)
    assert reference.min_ess(independent) > 1500
    assert reference.min_ess(sticky) < 400
