"""A numpy-only reference that checks flowcoreset's outputs apart from it.

Each check raises CheckFailed with a reason. The checks rest on the
method's properties and on an independent fit, never on a stored copy of
an earlier output:

- predictive accuracy recomputed from persisted draws equals the reported one;
- full-data BLR accuracy lies near a Newton-MAP logistic classifier's;
- a coreset's weighted log-likelihood tracks the full-data one at parameter
  draws made here, from a Laplace fit made here;
- coreset weights are positive and finite, entries within budget, and the
  stored rows are the dataset's rows;
- GIGA's relative error does not rise with the budget (its alignment trace
  is monotone, and a larger budget runs the same greedy path further);
- stream stores and capture row counts add up.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# |BLR accuracy - MAP accuracy|: the posterior predictive and the plug-in
# MAP classifier disagree only on rows near the boundary.
ACCURACY_MARGIN = 0.04
# Mean relative gap between coreset and full log-likelihood over Laplace
# draws. GIGA coresets of 80-300 entries for 880 Gaussian rows measure
# 0.002-0.007, about their embedding residual; weights all off by 10% read
# 0.1. On the heavy-tailed capture, where GIGA gives a few entries weights of
# 1e16-1e29, the gap reads 0.001-0.02 on most rounds but 0.06-111 on some,
# so there it is measured (coreset.loglik_gap), not enforced.
LOGLIK_TOLERANCE = 0.05
LAPLACE_DRAWS = 64
_SCALE_FLOOR = 1e-12


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_dataset(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """A dataset CSV in the program's layout: feature columns, then label."""
    with Path(path).open(newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    table = np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), -1)
    return table[:, :-1], table[:, -1]


def standardizer(x: np.ndarray):
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < _SCALE_FLOOR, 1.0, scale)
    return lambda other: (other - mean) / scale


def log_sigmoid(m: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -m)


def newton_map(x: np.ndarray, y: np.ndarray,
               iterations: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Mode and Hessian of the slope-only logistic posterior, N(0, I) prior.

    Newton steps halved until the log posterior does not fall: a full step
    overshoots on heavy-tailed features, where margins reach hundreds.
    """
    def log_post(theta):
        return float(np.sum(log_sigmoid(y * (x @ theta)))) - 0.5 * float(theta @ theta)

    theta = np.zeros(x.shape[1])
    value = log_post(theta)
    for _ in range(iterations):
        s = np.exp(log_sigmoid(-y * (x @ theta)))  # sigmoid(-margin)
        grad = x.T @ (y * s) - theta
        hess = (x * (s * (1.0 - s))[:, None]).T @ x + np.eye(x.shape[1])
        step = np.linalg.solve(hess, grad)
        while True:
            candidate = log_post(theta + step)
            if candidate >= value or np.max(np.abs(step)) < 1e-12:
                break
            step = 0.5 * step
        theta, value = theta + step, candidate
        if np.max(np.abs(step)) < 1e-10:
            break
    s = np.exp(log_sigmoid(-y * (x @ theta)))
    return theta, (x * (s * (1.0 - s))[:, None]).T @ x + np.eye(x.shape[1])


def map_accuracy(x_train, y_train, x_test, y_test) -> float:
    theta, _ = newton_map(x_train, y_train)
    return float(np.mean(np.where(x_test @ theta > 0.0, 1.0, -1.0) == y_test))


def predictive_counts(draws: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[int, int]:
    """(rows classified right, rows within 1e-9 of the 0.5 threshold)."""
    p = np.exp(log_sigmoid(x @ draws.T)).mean(axis=1)
    right = int(np.sum(np.where(p > 0.5, 1.0, -1.0) == y))
    return right, int(np.sum(np.abs(p - 0.5) < 1e-9))


def loglik_gap(x: np.ndarray, y: np.ndarray, rows: np.ndarray, weights: np.ndarray,
               seed: int) -> float:
    """Mean |L_coreset - L_full| / |L_full| over draws from a Laplace fit."""
    theta, hess = newton_map(x, y)
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.linalg.inv(hess))
    draws = theta + rng.normal(size=(LAPLACE_DRAWS, theta.size)) @ chol.T
    full = log_sigmoid(y[:, None] * (x @ draws.T)).sum(axis=0)
    part = weights @ log_sigmoid(y[rows, None] * (x[rows] @ draws.T))
    return float(np.mean(np.abs(part - full) / np.abs(full)))


def min_ess(draws: np.ndarray) -> float:
    """Smallest effective sample size over coordinates of one chain.

    Autocorrelations by FFT, summed in pairs up to the first non-positive
    pair and made monotone (Geyer's initial monotone sequence).
    """
    n = draws.shape[0]
    x = draws - draws.mean(axis=0)
    spec = np.fft.rfft(x, 2 * n, axis=0)
    acov = np.fft.irfft(spec * np.conj(spec), axis=0)[:n]
    smallest = float(n)
    for j in range(x.shape[1]):
        if acov[0, j] <= 0.0:
            continue
        rho = acov[:, j] / acov[0, j]
        half = n // 2
        pairs = rho[0:2 * half:2] + rho[1:2 * half:2]
        stop = np.flatnonzero(pairs <= 0.0)
        pairs = np.minimum.accumulate(pairs[: stop[0] if stop.size else pairs.size])
        tau = max(2.0 * pairs.sum() - 1.0, 1.0 / n)
        smallest = min(smallest, n / tau)
    return smallest


def check_coreset(rows, weights, budget: int, n: int) -> None:
    rows = np.asarray(rows)
    weights = np.asarray(weights, dtype=float)
    require(0 < rows.size <= budget, f"{rows.size} entries for budget {budget}")
    require(bool(np.all(np.isfinite(weights)) and np.all(weights > 0)),
            "coreset weights must be positive and finite")
    require(bool(np.all((rows >= 0) & (rows < n))), "coreset row outside its batch")
    require(np.unique(rows).size == rows.size, "coreset repeats a row")


def check_nonincreasing(errors: list[float], what: str) -> None:
    require(all(b <= a for a, b in zip(errors, errors[1:])),
            f"{what}: relative error rises with the budget: {errors}")


def read_results(path: Path) -> list[dict]:
    with Path(path).open(newline="") as handle:
        return list(csv.DictReader(handle))


def check_offline(run: Path, budgets: list[int], random_size: int, predict_draws: int,
                  seed: int, loglik_tolerance: float | None) -> float:
    """Checks one offline run directory written with persisted posteriors.

    Returns the largest log-likelihood gap of its GIGA coresets, which must
    stay within loglik_tolerance unless that is None.
    """
    results = [r for r in read_results(run / "results.csv") if not r["error"]]
    x_train, y_train = read_dataset(run / "datasets" / "ds0_train.csv")
    x_test, y_test = read_dataset(run / "datasets" / "ds0_test.csv")
    frame = standardizer(x_train)
    xs_train, xs_test = frame(x_train), frame(x_test)

    for row in results:
        if row["condition"] == "svm":
            continue
        draws = np.load(run / "posteriors" / f"ds0_{row['condition']}_rep{row['repetition']}.npy")
        right, ambiguous = predictive_counts(draws[-min(predict_draws, len(draws)):],
                                             xs_test, y_test)
        reported = round(float(row["accuracy"]) * y_test.size)
        require(abs(right - reported) <= ambiguous,
                f"{row['condition']} rep {row['repetition']}: reported {reported} "
                f"right of {y_test.size}, draws give {right}")

    full = [float(r["accuracy"]) for r in results if r["condition"] == "blr_full"]
    require(bool(full), "no full-data BLR result")
    reference = map_accuracy(xs_train, y_train, xs_test, y_test)
    require(abs(np.mean(full) - reference) <= ACCURACY_MARGIN,
            f"full BLR accuracy {np.mean(full):.4f} vs Newton MAP {reference:.4f}")

    errors, gaps = [], []
    for m in budgets:
        stem = run / "coresets" / f"ds0_giga_m{m}"
        entries = json.loads(stem.with_suffix(".json").read_text())["entries"]
        rows = np.array([e["row_index"] for e in entries])
        weights = np.array([e["weight"] for e in entries])
        check_coreset(rows, weights, m, y_train.size)
        x_rows, y_rows = read_dataset(run / "coresets" / f"ds0_giga_m{m}_rows.csv")
        require(np.array_equal(x_rows, x_train[rows]) and np.array_equal(y_rows, y_train[rows]),
                f"giga m{m}: stored rows differ from the dataset rows")
        gaps.append(loglik_gap(xs_train, y_train, rows, weights, seed))
        require(loglik_tolerance is None or gaps[-1] <= loglik_tolerance,
                f"giga m{m}: log-likelihood gap {gaps[-1]:.4f}")
        reported = [r for r in results if r["condition"] == f"blr_coreset_m{m}"]
        require(all(int(r["entries"]) == rows.size for r in reported),
                f"giga m{m}: results.csv entry count differs from the coreset file")
        errors.extend({float(r["relative_error"]) for r in reported})
    check_nonincreasing(errors, "offline giga")

    entries = json.loads((run / "coresets" / "ds0_random.json").read_text())["entries"]
    weights = np.array([e["weight"] for e in entries])
    require(len(entries) == random_size and np.allclose(weights, y_train.size / random_size),
            "random coreset must hold random_size rows weighted n/m")
    return max(gaps)


def read_capture(path: Path, labels: dict) -> np.ndarray:
    """Rows of a capture that have every feature finite, label last."""
    kept = []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            try:
                values = [float(v) for v in row[:-1]]
            except ValueError:
                continue
            if all(np.isfinite(values)):
                kept.append(values + [labels[row[-1].strip()]])
    return np.array(kept)


def check_capture(run: Path, clean: np.ndarray, written: int, spoiled: int,
                  ingested: tuple[int, int]) -> None:
    """Row accounting of the capture, whose clean rows read_capture found.

    kept + dropped = written, dropped = spoiled, and every train and test
    row is a clean capture row.
    """
    kept, dropped = ingested
    require(kept + dropped == written, f"ingest kept {kept} + dropped {dropped} != {written} written")
    require(dropped == spoiled, f"ingest dropped {dropped}, {spoiled} rows were spoiled")
    require(clean.shape[0] == kept, f"ingest kept {kept} rows, {clean.shape[0]} are clean")
    known = {tuple(row) for row in clean.tolist()}
    for split in ("train", "test"):
        x, y = read_dataset(run / "datasets" / f"ds0_{split}.csv")
        table = np.column_stack([x, y]).tolist()
        require(all(tuple(row) in known for row in table),
                f"{split} split holds rows that are not clean capture rows")


def check_stream(rows: list[dict], arms: list[dict], batches: list, tests: list,
                 seed: int) -> float:
    """Checks stream_results.csv rows and the in-memory arm records.

    Returns the largest log-likelihood gap of the stored coresets.
    """
    sizes = np.cumsum([y.size for _, y in batches])
    by_step: dict[int, list[float]] = {}
    gaps = [0.0]
    for arm in arms:
        stored = 0
        for step, record in enumerate(arm["records"]):
            if arm["mode"] == "pool_full":
                require(record.stored_samples == sizes[step],
                        f"pool step {step}: stored {record.stored_samples}, "
                        f"{sizes[step]} rows arrived")
                continue
            coreset = record.added_coreset
            x, y = batches[step]
            check_coreset(coreset.row_indices, coreset.weights, arm["budget"], y.size)
            gaps.append(loglik_gap(standardizer(x)(x), y, np.asarray(coreset.row_indices),
                                   np.asarray(coreset.weights), seed))
            require(gaps[-1] <= LOGLIK_TOLERANCE,
                    f"coreset m{arm['budget']} step {step}: log-likelihood gap {gaps[-1]:.4f}")
            stored += coreset.size
            require(record.stored_samples == stored,
                    f"coreset step {step}: stored {record.stored_samples}, entries sum {stored}")
            by_step.setdefault(step, []).append(coreset.construction.relative_error)
    for step, errors in sorted(by_step.items()):
        check_nonincreasing(errors, f"stream step {step}")

    pool = [r for r in rows if r["mode"] == "pool_full" and not r["error"]]
    require(len(pool) == len(batches), "pool arm lost steps")
    for row in pool:
        step = int(row["step"])
        x = np.vstack([b[0] for b in batches[: step + 1]])
        y = np.concatenate([b[1] for b in batches[: step + 1]])
        x_test = np.vstack([t[0] for t in tests[: step + 1]])
        y_test = np.concatenate([t[1] for t in tests[: step + 1]])
        frame = standardizer(x)
        reference = map_accuracy(frame(x), y, frame(x_test), y_test)
        require(abs(float(row["accuracy"]) - reference) <= ACCURACY_MARGIN,
                f"pool step {step}: accuracy {row['accuracy']} vs Newton MAP {reference:.4f}")
    return max(gaps)
