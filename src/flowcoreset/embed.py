"""Finite-dimensional embeddings of per-sample log-likelihood functions.

Each sample's log-likelihood curve theta -> log L(x, y; theta) is projected
onto D parameter draws theta_1..theta_D from a weighting distribution:

    vectors[i, d] = log L(x_i, y_i; theta_d) / sqrt(D)

so Euclidean geometry on the rows approximates the function-space geometry
that coreset construction needs. The weighting distribution defaults to a
diagonal Laplace approximation of the posterior fitted on a pilot dataset;
the standard normal prior ("prior") is used only when the config asks for
it, never as a fallback.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError
from .inference import WeightedBLRModel, fit_map, log_sigmoid

logger = logging.getLogger(__name__)

WEIGHTING_LAPLACE = "laplace"
WEIGHTING_PRIOR = "prior"

# Rows per block of the in-place embedding pass; 64 rows of d = 500 draws
# fit in a core's L2 cache.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class ProjectionBasis:
    """Parameter draws that define the projection.

    Attributes:
        theta_draws: shape (d, f), one parameter vector per dimension.
    """

    theta_draws: np.ndarray

    def __post_init__(self):
        draws = np.ascontiguousarray(np.asarray(self.theta_draws, dtype=np.float64))
        if draws.ndim != 2 or draws.shape[0] < 1:
            raise DataError("theta_draws must be a nonempty 2-d array")
        if not np.all(np.isfinite(draws)):
            raise DataError("theta_draws contain non-finite values")
        draws.flags.writeable = False
        object.__setattr__(self, "theta_draws", draws)

    @property
    def d(self) -> int:
        return self.theta_draws.shape[0]

    @property
    def f(self) -> int:
        return self.theta_draws.shape[1]


@dataclass(frozen=True)
class LikelihoodEmbedding:
    """Embedded log-likelihood rows for one dataset under one basis.

    total_vector is the row sum. giga_memo holds what coreset.giga_construct
    derives from the rows and reuses across calls on this embedding: target
    scores, Gram columns and the last walk. Each is fixed by vectors, norms
    and a budget, so it never goes stale.
    """

    vectors: np.ndarray
    norms: np.ndarray
    total_vector: np.ndarray = field(init=False)
    giga_memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vectors = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float64))
        norms = np.asarray(self.norms, dtype=np.float64)
        total = vectors.sum(axis=0)
        for array in (vectors, norms, total):
            array.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "norms", norms)
        object.__setattr__(self, "total_vector", total)
        object.__setattr__(self, "giga_memo", {})

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]


def build_projection_basis(
    pilot: Dataset,
    d: int,
    rng_seed: int,
    weighting: str = WEIGHTING_LAPLACE,
) -> ProjectionBasis:
    """Draw d parameter vectors from the weighting distribution.

    With weighting="laplace" the draws come from N(theta_map, diag(1 /
    curvature)): fit_map's damped Newton fit on the pilot dataset gives the
    mode and the Hessian diagonal there. With weighting="prior" they come
    from the standard normal prior and the pilot only fixes the dimension.

    Args:
        pilot: dataset the weighting distribution is tuned on.
        d: number of draws, >= 1.
        rng_seed: seed for the draws.
        weighting: "laplace" or "prior".
    """
    if d < 1:
        raise ConfigError("projection dimension must be at least 1")
    rng = np.random.default_rng(rng_seed)
    noise = rng.normal(size=(d, pilot.f))
    if weighting == WEIGHTING_PRIOR:
        draws = noise
    elif weighting == WEIGHTING_LAPLACE:
        theta_map, curvature = fit_map(WeightedBLRModel.from_dataset(pilot))
        draws = theta_map + noise / np.sqrt(curvature)
    else:
        raise ConfigError(f"unknown weighting {weighting!r}")
    logger.info(
        "projection basis: d=%d f=%d weighting=%s seed=%d",
        d, pilot.f, weighting, rng_seed,
    )
    return ProjectionBasis(draws)


def embed_log_likelihoods(data: Dataset, basis: ProjectionBasis) -> LikelihoodEmbedding:
    """Embed every sample's log-likelihood under the basis draws.

    Raises:
        DataError: the dataset dimension does not match the basis.
    """
    if data.f != basis.f:
        raise DataError(
            f"feature dimension {data.f} does not match basis dimension {basis.f}"
        )
    # One n x d buffer goes from margins to vectors in place, a cache-sized
    # block of rows at a time, so the only temporaries are block-sized.
    vectors = data.x @ basis.theta_draws.T
    norms = np.empty(data.n)
    scale = np.sqrt(basis.d)
    for start in range(0, data.n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = vectors[rows]
        block *= data.y[rows, None]
        log_sigmoid(block, out=block)
        block /= scale
        norms[rows] = np.linalg.norm(block, axis=1)
    return LikelihoodEmbedding(vectors=vectors, norms=norms)
