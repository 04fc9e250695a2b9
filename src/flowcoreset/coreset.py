"""Coreset construction over embedded log-likelihood vectors.

A coreset is a small weighted subset of samples whose weighted
log-likelihood sum approximates the full-data sum. All constructions work
on a LikelihoodEmbedding, where sample n is a vector v_n and the target is
L = sum_n v_n.

Two geometric constructions are provided. The greedy geodesic one (giga)
walks on the unit sphere: it keeps a unit iterate y, picks the candidate
direction best aligned with the residual of the normalized target, and
takes a closed-form step that maximizes post-step alignment. Repeat picks
merge into one entry, which is why entry counts stay well under the
iteration budget. It costs one pass over the n x d embedding for the
target alignments, a block of rows at a time, and one per distinct pick,
for that row's Gram column; the embedding memoises them, up to d columns,
so repeat picks reuse them. It memoises the walk as well: a later call with
a larger budget on the same embedding resumes it, so ascending budgets
cost one walk and a later budget's wall_clock_seconds counts only its
extra iterations.

The Frank-Wolfe one minimizes the reconstruction error over a scaled
simplex whose vertices are single-sample solutions. A uniform random
subsampler provides the baseline both are measured against.
"""

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    StandardizationParams,
    apply_standardization,
    fit_standardization,
    load_json,
)
from .embed import (
    _BLOCK_ROWS,
    LikelihoodEmbedding,
    build_projection_basis,
    embed_log_likelihoods,
)
from .errors import DataError, NumericalError

# Degenerate denominators and residuals below this end construction early.
_EPS = 1e-14

# Rows whose embedded norm is below this fraction of the median norm are not
# candidates. A picked row gets a weight of about 1 / norm, so a row the
# basis draws all classify with certainty would otherwise get weights up to
# 1e29; the relative error still counts what such rows contribute.
_NORM_FLOOR = 0.01


@dataclass(frozen=True)
class CoresetDiagnostics:
    """How a construction went: effort, error, and the alignment path."""

    method: str
    iterations_run: int
    residual_norm: float | None
    relative_error: float | None
    alignment_trace: list[float] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    early_stop: str | None = None


@dataclass(frozen=True)
class Coreset:
    """Weighted sample references, with per-entry batch provenance.

    Entries reference rows of the batch they were constructed from, so a
    coreset stays valid after batches are unioned. Weights are strictly
    positive; zero-weight candidates are never stored.
    """

    batch_ids: tuple[str, ...]
    row_indices: np.ndarray
    weights: np.ndarray
    construction: CoresetDiagnostics | None = None

    def __post_init__(self):
        rows = np.asarray(self.row_indices, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        ids = tuple(self.batch_ids)
        if not (len(ids) == rows.shape[0] == weights.shape[0]):
            raise DataError("entry arrays must have matching lengths")
        if weights.size:
            if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
                raise DataError("weights must be finite and strictly positive")
        if len({(b, int(r)) for b, r in zip(ids, rows)}) != rows.shape[0]:
            raise DataError("duplicate (batch, row) entries in coreset")
        rows.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "batch_ids", ids)
        object.__setattr__(self, "row_indices", rows)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"batch_id": b, "row_index": int(r), "weight": float(w)}
                for b, r, w in zip(self.batch_ids, self.row_indices, self.weights)
            ],
            "construction": (
                asdict(self.construction) if self.construction else None
            ),
        }

    @staticmethod
    def from_dict(d: dict) -> "Coreset":
        entries = d["entries"]
        diag = d.get("construction")
        return Coreset(
            batch_ids=tuple(e["batch_id"] for e in entries),
            row_indices=np.array([e["row_index"] for e in entries], dtype=np.int64),
            weights=np.array([e["weight"] for e in entries], dtype=np.float64),
            construction=CoresetDiagnostics(**diag) if diag else None,
        )


def geodesic_step_size(zeta0: float, zeta1: float, zeta2: float) -> float:
    """Closed-form step that maximizes post-step alignment on the sphere.

    For unit vectors ell (target), y (iterate), ell_n (selected candidate)
    with zeta0 = <ell, y>, zeta1 = <ell, ell_n>, zeta2 = <y, ell_n>, the
    alignment of (1 - g) y + g ell_n with ell after renormalization has a
    single interior critical point, returned here clipped to [0, 1]. It is
    the maximizer over [0, 1] whenever zeta0 >= 0 and the candidate
    improves on the iterate (zeta1 > zeta0 * zeta2), which the greedy
    selection guarantees; callers stepping outside that regime get the
    critical point, not necessarily the maximum.

    Raises:
        NumericalError: the denominator is numerically zero, meaning no
            direction of travel is defined.
    """
    denom = (zeta1 - zeta0 * zeta2) + (zeta0 - zeta1 * zeta2)
    if abs(denom) < _EPS:
        raise NumericalError(
            "degenerate geodesic step",
            diagnostics={"zeta0": zeta0, "zeta1": zeta1, "zeta2": zeta2},
        )
    return min(max((zeta1 - zeta0 * zeta2) / denom, 0.0), 1.0)


def _embedding_geometry(embedding: LikelihoodEmbedding):
    """Shared setup: candidate rows and the normalized target."""
    sigma = embedding.norms
    if not np.any(sigma > 0.0):
        raise DataError("every embedded row has zero norm; nothing to select")
    floor = _NORM_FLOOR * float(np.median(sigma))
    candidates = np.flatnonzero((sigma > 0.0) & (sigma >= floor))
    total_norm = float(np.linalg.norm(embedding.total_vector))
    if total_norm < _EPS:
        raise DataError("total embedded log-likelihood is numerically zero")
    ell = embedding.total_vector / total_norm
    return candidates, sigma, total_norm, ell


def _directions(embedding: LikelihoodEmbedding, rows: np.ndarray) -> np.ndarray:
    """Unit directions of the given rows, a copy divided in place."""
    dirs = embedding.vectors[rows]
    dirs /= embedding.norms[rows, None]
    return dirs


def _finish(
    method, embedding, batch_id, candidates, weights_on_candidates,
    iterations, trace, started, early_stop,
):
    """Prune zero weights, measure reconstruction error, assemble Coreset."""
    support = np.flatnonzero(weights_on_candidates > 0.0)
    built = Coreset(
        batch_ids=(batch_id,) * support.shape[0],
        row_indices=candidates[support],
        weights=weights_on_candidates[support],
    )
    residual, relative_error = reconstruction_residual(built, embedding)
    return replace(built, construction=CoresetDiagnostics(
        method=method,
        iterations_run=iterations,
        residual_norm=residual,
        relative_error=relative_error,
        alignment_trace=trace,
        wall_clock_seconds=time.perf_counter() - started,
        early_stop=early_stop,
    ))


def giga_construct(
    embedding: LikelihoodEmbedding,
    m: int,
    batch_id: str = "batch0",
) -> Coreset:
    """Greedy geodesic construction with iteration budget m.

    Each iteration selects the candidate direction most aligned with the
    current residual direction and moves the unit iterate toward it by the
    closed-form geodesic step. Ties go to the lowest index. Construction
    stops early when the residual direction degenerates or no step
    improves alignment; entry count never exceeds the number of distinct
    picks, so it is at most m.

    The residual is ell - zeta0 y, so a candidate's alignment with it is,
    up to a positive factor, <d_n, ell> - zeta0 <d_n, y>. The first term is
    fixed; the second follows y's own update through the picked row's Gram
    column <d_., d_n>. Both are memoised on the embedding, the columns up to
    d of them, and reused by repeat picks and later calls.

    The walk's state is memoised too. A call whose budget is at least the
    iterations the last call ran resumes from where that call stopped, so
    ascending budgets cost one walk and each later coreset's
    wall_clock_seconds counts only its extra iterations. A smaller budget
    starts over. Either way the coreset equals a cold call's bit for bit.
    """
    if m < 1:
        raise DataError("iteration budget m must be at least 1")
    started = time.perf_counter()
    candidates, sigma, total_norm, ell = _embedding_geometry(embedding)
    memo = embedding.giga_memo
    if not memo:
        # Block by block, so no n x d copy of the unit directions exists.
        memo["base"] = np.concatenate([
            _directions(embedding, candidates[i:i + _BLOCK_ROWS]) @ ell
            for i in range(0, candidates.size, _BLOCK_ROWS)
        ])
        memo["columns"] = {}
    base_scores, columns = memo["base"], memo["columns"]

    sigma_c = sigma[candidates]
    walk = memo.get("walk")
    if walk is not None and walk[0] <= m:
        iterations, y, y_scores, u, trace, zeta0 = walk
        y_scores, u, trace = y_scores.copy(), u.copy(), list(trace)
    else:
        iterations, zeta0, trace = 0, 0.0, []
        y = np.zeros(embedding.d)
        y_scores = np.zeros(candidates.size)  # <d_n, y> for every candidate
        u = np.zeros(candidates.size)
    early_stop = None

    for _ in range(m - iterations):
        residual = ell - zeta0 * y
        if math.sqrt(residual @ residual) < _EPS:
            early_stop = "aligned"
            break
        scores = base_scores - zeta0 * y_scores
        n = int(np.argmax(scores))
        if scores[n] <= 0.0:
            # Every candidate points away from the residual, so the step
            # formula would leave its valid regime. Stop with what we have.
            early_stop = "no improving direction"
            break
        direction = embedding.vectors[candidates[n]] / sigma_c[n]
        zeta1 = float(base_scores[n])
        zeta2 = float(y @ direction)
        try:
            gamma = geodesic_step_size(zeta0, zeta1, zeta2)
        except NumericalError:
            early_stop = "degenerate step"
            break
        if gamma == 0.0:
            early_stop = "no improving direction"
            break
        stepped = (1.0 - gamma) * y + gamma * direction
        nu = math.sqrt(stepped @ stepped)
        if nu < _EPS:
            early_stop = "iterate collapsed"
            break
        column = columns.get(n)
        if column is None:
            column = (embedding.vectors @ direction)[candidates]
            column /= sigma_c
            if len(columns) < embedding.d:
                columns[n] = column
        y = stepped / nu
        y_scores *= 1.0 - gamma
        y_scores += gamma * column
        y_scores /= nu
        u *= 1.0 - gamma
        u[n] += gamma
        u /= nu
        zeta0 = float(ell @ y)
        trace.append(zeta0)
        iterations += 1
    # Every early stop leaves the state as it was, so a resumed call with a
    # larger budget stops at the same place.
    memo["walk"] = (iterations, y, y_scores, u, trace, zeta0)

    # Back to likelihood scale: the best multiple of y approximating the
    # total is (total_norm * <ell, y>) y, and y = sum_n u_n v_n / ||v_n||.
    alpha = total_norm * max(zeta0, 0.0)
    weights = alpha * u / sigma_c
    return _finish(
        "giga", embedding, batch_id, candidates, weights,
        iterations, list(trace), started, early_stop,
    )


def frankwolfe_construct(
    embedding: LikelihoodEmbedding,
    m: int,
    batch_id: str = "batch0",
) -> Coreset:
    """Frank-Wolfe construction with iteration budget m.

    Minimizes the reconstruction error over the simplex scaled so that
    sum_n w_n ||v_n|| is preserved; vertices put all of that mass on one
    sample. Initialization at the best-aligned vertex counts as the first
    iteration, so m=1 returns a single-sample coreset.
    """
    if m < 1:
        raise DataError("iteration budget m must be at least 1")
    started = time.perf_counter()
    candidates, sigma, total_norm, ell = _embedding_geometry(embedding)
    total = embedding.total_vector
    dirs = _directions(embedding, candidates)

    sigma_total = float(sigma[candidates].sum())
    weights = np.zeros(candidates.size)
    n0 = int(np.argmax(dirs @ ell))
    weights[n0] = sigma_total / sigma[candidates[n0]]
    approx = sigma_total * dirs[n0]
    trace = [float(ell @ approx / np.linalg.norm(approx))]
    early_stop = None
    iterations = 1

    for _ in range(1, m):
        residual = total - approx
        if float(np.linalg.norm(residual)) < _EPS * total_norm:
            early_stop = "converged"
            break
        n = int(np.argmax(dirs @ residual))
        vertex = sigma_total * dirs[n]
        step_dir = vertex - approx
        denom = float(step_dir @ step_dir)
        if denom < _EPS:
            early_stop = "degenerate direction"
            break
        gamma = float(np.clip((residual @ step_dir) / denom, 0.0, 1.0))
        if gamma == 0.0:
            early_stop = "no improving step"
            break
        weights *= 1.0 - gamma
        weights[n] += gamma * sigma_total / sigma[candidates[n]]
        approx = (1.0 - gamma) * approx + gamma * vertex
        trace.append(float(ell @ approx / np.linalg.norm(approx)))
        iterations += 1

    return _finish(
        "frankwolfe", embedding, batch_id, candidates, weights,
        iterations, trace, started, early_stop,
    )


def compress(
    data: Dataset, budgets: tuple[int, ...], d: int, rng_seed: int, weighting: str,
    batch_id: str, method: str = "giga",
) -> tuple[StandardizationParams, Dataset, list[Coreset]]:
    """Compress one batch to a coreset per budget, in the batch's own frame.

    The batch is standardized on itself; one basis of d draws seeded by
    rng_seed and one embedding then serve a GIGA (or, with method="fw",
    Frank-Wolfe) construction per budget. Coreset rows index data and the
    returned std alike; train on std's rows, the frame they were built in.

    Returns:
        (params, std, coresets), with coresets in the order of budgets.
    """
    construct = frankwolfe_construct if method == "fw" else giga_construct
    params = fit_standardization(data)
    std = apply_standardization(data, params)
    basis = build_projection_basis(std, d, rng_seed, weighting=weighting)
    embedding = embed_log_likelihoods(std, basis)
    built = [construct(embedding, m, batch_id=batch_id) for m in budgets]
    return params, std, built


def random_construct(
    data_size: int,
    m: int,
    rng_seed: int,
    batch_id: str = "batch0",
) -> Coreset:
    """Uniform random baseline: m distinct rows, each weighted n/m.

    The weight makes the subset's likelihood sum an unbiased estimate of
    the full sum. No embedding is consulted, so diagnostics carry no
    residual; use reconstruction_residual to measure one.
    """
    if data_size < 1:
        raise DataError("data_size must be at least 1")
    if not 1 <= m <= data_size:
        raise DataError(f"m must lie in [1, {data_size}], got {m}")
    started = time.perf_counter()
    rng = np.random.default_rng(rng_seed)
    rows = np.sort(rng.choice(data_size, size=m, replace=False))
    diag = CoresetDiagnostics(
        method="random",
        iterations_run=0,
        residual_norm=None,
        relative_error=None,
        alignment_trace=[],
        wall_clock_seconds=time.perf_counter() - started,
    )
    return Coreset(
        batch_ids=(batch_id,) * m,
        row_indices=rows,
        weights=np.full(m, data_size / m),
        construction=diag,
    )


def reconstruction_residual(
    coreset: Coreset, embedding: LikelihoodEmbedding
) -> tuple[float, float]:
    """Residual of a coreset against an embedding of its source batch.

    Returns (residual_norm, relative_error). Only valid when every entry
    references rows of the embedded dataset.
    """
    if np.any(coreset.row_indices >= embedding.n):
        raise DataError("coreset references rows outside the embedding")
    total = embedding.total_vector
    approx = coreset.weights @ embedding.vectors[coreset.row_indices]
    residual = float(np.linalg.norm(total - approx))
    return residual, residual / float(np.linalg.norm(total))


def aggregate(coresets: list[Coreset]) -> Coreset:
    """Union coresets from disjoint batches; weights pass through unchanged.

    Raises:
        DataError: empty input or colliding (batch, row) entries.
    """
    if not coresets:
        raise DataError("nothing to aggregate")
    return Coreset(
        batch_ids=tuple(b for c in coresets for b in c.batch_ids),
        row_indices=np.concatenate([c.row_indices for c in coresets]),
        weights=np.concatenate([c.weights for c in coresets]),
        construction=None,
    )


def materialize(coreset: Coreset, batches: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather (x, y, weights) for the referenced rows from their batches.

    Args:
        coreset: entries referencing rows by (batch_id, row_index).
        batches: batch_id -> Dataset.
    """
    if not batches:
        raise DataError("no batches supplied")
    xs, ys = [], []
    for batch_id, row in zip(coreset.batch_ids, coreset.row_indices):
        if batch_id not in batches:
            raise DataError(f"coreset references unknown batch {batch_id!r}")
        batch = batches[batch_id]
        if not 0 <= row < batch.n:
            raise DataError(
                f"coreset references row {row} outside batch {batch_id!r}"
            )
        xs.append(batch.x[row])
        ys.append(batch.y[row])
    x = np.vstack(xs) if xs else np.empty((0, next(iter(batches.values())).f))
    return x, np.asarray(ys), coreset.weights.copy()


def save_coreset(coreset: Coreset, path: str | Path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(coreset.to_dict(), indent=2) + "\n")


def load_coreset(path: str | Path) -> Coreset:
    return load_json(path, Coreset.from_dict)
