"""Weighted Bayesian logistic regression and baselines.

The model is slope-only logistic regression with a standard normal prior:

    log p(theta | data) = -||theta||^2 / 2
                          + sum_i w_i * log sigmoid(y_i * theta . x_i) + const

Integer weights replicate samples exactly, which is what lets a small
weighted subset stand in for the full dataset during inference. Sampling
is plain Hamiltonian Monte Carlo with dual-averaging step size adaptation
during burn-in. A linear SVM, the exact minimiser of the L2-regularized
squared hinge found by Newton's method in the primal, provides a
deterministic non-Bayesian reference point.
"""

import json
import math
import sys
import time
from collections import deque
from dataclasses import dataclass, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .data import Dataset, load_json
from .errors import ConfigError, DataError, NumericalError

# MAP fit limits. Far from the mode a Newton step moves a heavily weighted
# row's margin by about 1, so a weight of 1e29 takes ~70 steps.
_MAP_MAX_ITER = 200
_MAP_MAX_HALVINGS = 60
# SVM fit limit on evaluations of its objective, halved steps included.
_SVM_MAX_EVALS = 200

# Dual averaging constants.
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75

# Divergence watchdog: abort when more than half of this many consecutive
# proposals diverge.
_DIVERGENCE_WINDOW = 100

# The initial step-size search halves no further than this; a posterior
# that needs a smaller first step leaves the chain where it started.
_MIN_STEP = 1e-10

# Sampler counts stay within the integers a float holds exactly: the
# sampler does float arithmetic on them (burn-in, jittered step counts).
_MAX_COUNT = 2**53


def _exp_neg_abs(m: np.ndarray) -> np.ndarray:
    """e = exp(-|m|) in a fresh buffer: the one exp both logistic terms need.

    e lies in [0, 1], so nothing overflows for any margin.
    """
    e = np.abs(m, out=np.empty_like(m))
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _log_sigmoid(m: np.ndarray, e: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """log sigmoid(m) from e = exp(-|m|), which it overwrites, written to out."""
    np.log1p(e, out=e)
    low = np.minimum(m, 0.0, out=out)
    return np.subtract(low, e, out=low)


def log_sigmoid(margins: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log sigmoid(m) = min(m, 0) - log1p(exp(-|m|)), exact in both tails.

    Holds one temporary the size of the margins besides its result, so it
    suits the n x d embedding matrix; out=margins writes over the margins.
    """
    m = np.asarray(margins, dtype=np.float64)
    return _log_sigmoid(m, _exp_neg_abs(m), out)


def sigmoid(margins: np.ndarray) -> np.ndarray:
    """sigmoid(m) = where(m >= 0, 1, e) / (1 + e) with e = exp(-|m|)."""
    m = np.asarray(margins, dtype=np.float64)
    e = _exp_neg_abs(m)
    numerator = np.where(m >= 0.0, 1.0, e)
    e += 1.0
    return np.divide(numerator, e, out=numerator)


@dataclass(frozen=True)
class WeightedBLRModel:
    """Design matrix, labels in {+1, -1}, and per-sample likelihood weights.

    n = 0 is allowed and leaves the standard normal prior as the posterior.
    A Dataset checks the rows; the model checks only its weights.
    """

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        rows = Dataset(self.x, self.y)
        x, y = rows.x, rows.y
        if self.weights is None:
            w = np.ones(x.shape[0])
        else:
            w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != y.shape:
            raise DataError("weight vector does not match label vector")
        if w.size and (not np.all(np.isfinite(w)) or np.any(w < 0)):
            raise DataError("weights must be finite and nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "weights", w)
        # Caches for the sampler's inner loop.
        yx = y[:, None] * x
        object.__setattr__(self, "_yx", yx)
        object.__setattr__(self, "_wyx_t", np.ascontiguousarray((w[:, None] * yx).T))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def f(self) -> int:
        return self.x.shape[1]

    @staticmethod
    def from_dataset(data: Dataset, weights: np.ndarray | None = None):
        return WeightedBLRModel(data.x, data.y, weights)


def log_posterior(model: WeightedBLRModel, theta: np.ndarray):
    """Unnormalized log posterior and its gradient at theta.

    Both come from one exp(-|m|) pass over the margins, exact in both
    tails, in three n-sized buffers: the margins, e = exp(-|m|) and
    sigmoid(-m). The sampler calls it once per trajectory, at the last
    leapfrog step, where accept/reject needs the value; its interior
    steps take the gradient from `_gradient`.

    Returns:
        (value, gradient) where gradient has shape (f,). A non-finite
        theta yields value -inf rather than raising, so the sampler can
        treat it as a divergence.
    """
    theta = np.asarray(theta, dtype=np.float64)
    # Overflowing trajectories surface as -inf values, not warnings; the
    # sampler treats them as divergences.
    with np.errstate(over="ignore", invalid="ignore"):
        margins = model._yx @ theta
        e = _exp_neg_abs(margins)
        # d/dm of log sigmoid(m) is sigmoid(-m): e / (1 + e) where m > 0,
        # else 1 / (1 + e).
        s = np.add(e, 1.0)
        positive = margins > 0.0
        np.divide(e, s, out=s, where=positive)
        np.reciprocal(s, out=s, where=np.logical_not(positive, out=positive))
        grad = model._wyx_t @ s - theta
        loglik = float(model.weights @ _log_sigmoid(margins, e, out=margins))
        value = -0.5 * float(theta @ theta) + loglik
    if not math.isfinite(value):
        value = -math.inf
    return value, grad


def _gradient(model: WeightedBLRModel, theta: np.ndarray, sig: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """log_posterior's gradient at theta, written to out, with the n-sized
    sig as scratch; allocates nothing. The caller holds errstate(over="ignore").

    sig turns from the margins into sigmoid(-m) = 1 / (1 + exp(m)) in place:
    an exp overflow gives 1 / inf = 0, exact to well below double precision.
    """
    np.dot(model._yx, theta, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    np.dot(model._wyx_t, sig, out=out)
    return np.subtract(out, theta, out=out)


def fit_map(model: WeightedBLRModel) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mode, and the negative log posterior's Hessian diagonal there.

    Damped Newton (Nocedal & Wright, Numerical Optimization, ch. 3): each
    step solves with H = X^T diag(w s (1 - s)) X + I, s = sigmoid(margin),
    halved until the log posterior does not fall. H's eigenvalues are at
    least 1; any that rounding pushes lower under a huge weight are raised
    to 1. The fit stops once max |gradient| <= 1e-9 max(1, n) or no step
    raises the log posterior.

    Raises:
        NumericalError: the objective or H became non-finite, or max
            |gradient| ended above 1e-4 max(1, n); diagnostics give the
            iterations, the largest gradient entry and the objective.
    """
    scale = max(1.0, model.n)
    theta = np.zeros(model.f)
    value, grad = log_posterior(model, theta)
    for iteration in range(_MAP_MAX_ITER + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            e = _exp_neg_abs(model._yx @ theta)
            # s (1 - s) = e / (1 + e)^2 for either sign of the margin.
            hess = (model.x.T * (model.weights * e / (1.0 + e) ** 2)) @ model.x
        hess.flat[:: model.f + 1] += 1.0
        grad_max = float(np.max(np.abs(grad), initial=0.0))
        finite = np.isfinite([value, grad_max]).all() and np.isfinite(hess).all()
        if not finite or grad_max <= 1e-9 * scale or iteration == _MAP_MAX_ITER:
            break
        eigvals, eigvecs = np.linalg.eigh(hess)
        step = eigvecs @ ((eigvecs.T @ grad) / np.maximum(eigvals, 1.0))
        for _ in range(_MAP_MAX_HALVINGS):
            new_value, new_grad = log_posterior(model, theta + step)
            if new_value >= value:
                break
            step *= 0.5
        if not new_value > value:
            break
        theta, value, grad = theta + step, new_value, new_grad
    if not finite or grad_max > 1e-4 * scale:
        raise NumericalError("MAP optimization did not converge", diagnostics={
            "iterations": iteration, "grad_max": grad_max, "objective": -value})
    return theta, np.diag(hess).copy()


@dataclass(frozen=True)
class PosteriorSamples:
    """Retained HMC draws plus the sampler settings that produced them."""

    draws: np.ndarray
    acceptance_rate: float
    step_size: float
    leapfrog_steps: int
    burn_in: int
    thinning: int
    rng_seed: int
    n_divergent: int = 0

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    def settings_dict(self) -> dict:
        """Every field but the draws, then the draws' shape."""
        return {**{name: getattr(self, name) for name in _SETTINGS},
                "n_draws": int(self.draws.shape[0]),
                "f": int(self.draws.shape[1])}


# The settings a posterior's JSON sidecar holds, in field order.
_SETTINGS = tuple(f.name for f in fields(PosteriorSamples) if f.name != "draws")


def _leapfrog(model, theta, grad, p, eps, n_steps):
    """n_steps >= 1 leapfrog steps under one errstate.

    The n_steps - 1 interior steps take the gradient from `_gradient` in
    one n-buffer and one f-buffer allocated per call, and move theta and
    p in place. Only the last step calls log_posterior, for the value.

    Returns:
        (theta, logp, grad, hamiltonian) at the end; an overflowing
        trajectory gives a non-finite hamiltonian, never a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        theta = theta.copy()
        p = p + 0.5 * eps * grad
        if n_steps > 1:
            sig, step = np.empty(model.n), np.empty(model.f)
            for _ in range(n_steps - 1):
                theta += eps * p
                p += eps * _gradient(model, theta, sig, step)
            # Free the buffer before log_posterior allocates its own.
            del sig
        theta += eps * p
        logp, grad = log_posterior(model, theta)
        p += 0.5 * eps * grad
        return theta, logp, grad, -logp + 0.5 * float(p @ p)


def _find_initial_step(model, theta, logp, grad, rng):
    """Double or halve until one leapfrog step crosses 50% acceptance.

    Raises:
        NumericalError: the next step would fall below _MIN_STEP; the
            diagnostics hold the last step tried and its energy change.
    """
    eps = 1.0
    p = rng.normal(size=theta.shape[0])
    h0 = -logp + 0.5 * float(p @ p)

    def energy_drop(eps):
        delta = h0 - _leapfrog(model, theta, grad, p, eps, 1)[3]
        return delta if math.isfinite(delta) else -math.inf

    delta = energy_drop(eps)
    direction = 1.0 if delta > math.log(0.5) else -1.0
    for _ in range(100):
        # Loop while exp(delta)^direction > 2^-direction, in log space.
        if not direction * delta > -direction * math.log(2.0):
            break
        if eps * 2.0**direction < _MIN_STEP:
            raise NumericalError(
                f"HMC step-size search fell below {_MIN_STEP:g} without "
                "reaching 50% acceptance",
                diagnostics={"step_size": eps, "energy_change": delta})
        eps *= 2.0**direction
        if eps > 1e7:
            break
        delta = energy_drop(eps)
    return eps


def hmc_sample(
    model: WeightedBLRModel,
    *,
    total_samples: int = 10000,
    burn_frac: float = 0.5,
    thin: int = 2,
    target_accept: float = 0.8,
    rng_seed: int = 0,
    leapfrog_steps: int = 20,
    jitter: float = 0.2,
    initial_step_size: float | None = None,
) -> PosteriorSamples:
    """Sample the weighted logistic posterior with HMC.

    Burn-in draws adapt the step size by dual averaging toward
    target_accept and are discarded; the post-burn-in chain runs at the
    frozen averaged step size and is thinned by `thin`. The leapfrog count
    per proposal is jittered uniformly by +-jitter around leapfrog_steps.

    Raises:
        ConfigError: a setting that check_sampler_settings refuses.
        NumericalError: more than half of a recent window of proposals
            diverged (non-finite Hamiltonian), or the initial step-size
            search fell below 1e-10.
    """
    check_sampler_settings({k: v for k, v in locals().items() if k in SAMPLER_DEFAULTS})

    rng = np.random.default_rng(rng_seed)
    theta = np.zeros(model.f)
    logp, grad = log_posterior(model, theta)

    eps = initial_step_size or _find_initial_step(model, theta, logp, grad, rng)
    n_burn = int(round(total_samples * burn_frac))

    mu = math.log(10.0 * eps)
    log_eps = math.log(eps)
    log_eps_bar = 0.0
    h_bar = 0.0
    eps_final = eps

    kept = []
    recent = deque(maxlen=_DIVERGENCE_WINDOW)
    n_divergent = 0
    post_accepted = 0
    post_total = 0

    for t in range(1, total_samples + 1):
        adapting = t <= n_burn
        eps = math.exp(log_eps) if adapting else eps_final
        spread = rng.uniform(1.0 - jitter, 1.0 + jitter)
        n_steps = max(1, int(round(leapfrog_steps * spread)))
        p0 = rng.normal(size=model.f)
        h0 = -logp + 0.5 * float(p0 @ p0)
        theta1, logp1, grad1, h1 = _leapfrog(model, theta, grad, p0, eps, n_steps)
        delta = h0 - h1 if math.isfinite(h1) else -math.inf
        divergent = not math.isfinite(delta)
        alpha = 0.0 if divergent else min(1.0, math.exp(min(delta, 0.0)))
        accepted = False
        if divergent:
            n_divergent += 1
        elif rng.uniform() < alpha:
            theta, logp, grad = theta1, logp1, grad1
            accepted = True

        recent.append(divergent)
        if len(recent) == _DIVERGENCE_WINDOW and sum(recent) > _DIVERGENCE_WINDOW // 2:
            raise NumericalError(
                "HMC aborted: persistent divergences",
                diagnostics={
                    "iteration": t,
                    "step_size": eps,
                    "recent_divergent": int(sum(recent)),
                    "window": _DIVERGENCE_WINDOW,
                    "n_divergent_total": n_divergent,
                    "theta_norm": float(np.linalg.norm(theta)),
                },
            )

        if adapting:
            frac = 1.0 / (t + _DA_T0)
            h_bar = (1.0 - frac) * h_bar + frac * (target_accept - alpha)
            log_eps = mu - math.sqrt(t) / _DA_GAMMA * h_bar
            weight = t**-_DA_KAPPA
            log_eps_bar = weight * log_eps + (1.0 - weight) * log_eps_bar
            if t == n_burn:
                eps_final = math.exp(log_eps_bar)
        else:
            post_total += 1
            post_accepted += int(accepted)
            if (t - n_burn - 1) % thin == 0:
                kept.append(theta.copy())

    return PosteriorSamples(
        draws=np.vstack(kept),
        acceptance_rate=post_accepted / post_total,
        step_size=eps_final,
        leapfrog_steps=leapfrog_steps,
        burn_in=n_burn,
        thinning=thin,
        rng_seed=rng_seed,
        n_divergent=n_divergent,
    )


# hmc_sample's settings and their defaults, read from their one home: its signature.
SAMPLER_DEFAULTS = {name: default for name, default
                    in hmc_sample.__kwdefaults__.items() if name != "rng_seed"}


def check_sampler_settings(settings: dict) -> None:
    """ConfigError unless hmc_sample can run these settings, with its defaults for
    those left out, in the ranges dual averaging needs (Hoffman & Gelman, 2014)."""
    for name, value in settings.items():
        if name not in SAMPLER_DEFAULTS:
            raise ConfigError(f"unknown sampler setting {name!r}")
        count = isinstance(SAMPLER_DEFAULTS[name], int)
        if not (value is None and SAMPLER_DEFAULTS[name] is None
                or isinstance(value, Integral if count else Real)
                and not isinstance(value, bool)
                and (1 <= value <= _MAX_COUNT if count
                     else abs(value) <= sys.float_info.max)):
            kind = "whole number in [1, 2**53]" if count else "finite number"
            raise ConfigError(f"sampler setting {name}={value!r} is not a {kind}")
    s = {**SAMPLER_DEFAULTS, **settings}
    n, burn, step = s["total_samples"], s["burn_frac"], s["initial_step_size"]
    for name, bound, ok in (
            ("burn_frac", "in [0, 1) with a draw kept",
             0 <= burn < 1 and n - round(n * burn) >= 1),
            ("target_accept", "in (0, 1)", 0 < s["target_accept"] < 1),
            ("jitter", "in [0, 1)", 0 <= s["jitter"] < 1),
            ("initial_step_size", "positive or null", step is None or step > 0)):
        if not ok:
            raise ConfigError(f"sampler setting {name}={s[name]!r} is not {bound}")


def predict_batch(
    posterior: PosteriorSamples, x: np.ndarray, n_draws: int = 1000
) -> np.ndarray:
    """Posterior predictive P(y=+1 | x) for each row of x.

    Averages sigmoid(theta . x) over the last n_draws retained draws.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != posterior.draws.shape[1]:
        raise DataError(f"rows have {x.shape[1]} features, "
                        f"the posterior {posterior.draws.shape[1]}")
    if n_draws < 1:
        raise DataError("n_draws must be at least 1")
    if n_draws > posterior.n_draws:
        raise DataError(
            f"requested {n_draws} draws, posterior holds {posterior.n_draws}"
        )
    draws = posterior.draws[-n_draws:]
    return sigmoid(x @ draws.T).mean(axis=1)


def classify(probabilities: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Map predictive probabilities to labels: +1 strictly above threshold."""
    return np.where(np.asarray(probabilities) > threshold, 1.0, -1.0)


def accuracy(
    posterior: PosteriorSamples, data: Dataset, n_draws: int = 1000
) -> float:
    probs = predict_batch(posterior, data.x, n_draws)
    return float(np.mean(classify(probs) == data.y))


def sample_and_score(model: WeightedBLRModel, test: Dataset, rng_seed: int, hmc: dict,
                     predict_draws: int) -> tuple[PosteriorSamples, float, float]:
    """(posterior, seconds, accuracy): HMC on model, timed alone, scored on test
    in the model's frame by its last predict_draws draws, or all it kept."""
    started = time.perf_counter()
    posterior = hmc_sample(model, rng_seed=rng_seed, **hmc)
    seconds = time.perf_counter() - started
    draws = min(predict_draws, posterior.n_draws)
    return posterior, seconds, accuracy(posterior, test, n_draws=draws)


def svm_train(data: Dataset, reg: float = 1e-3) -> np.ndarray:
    """Slope-only linear SVM theta, predicting sign(theta . x): the exact minimiser
    of J(theta) = reg/2 ||theta||^2 + (1/n) sum_i max(0, 1 - y_i theta . x_i)^2.

    Newton's method in the primal (Chapelle, Neural Computation 2007): on the
    rows sv that violate the margin, J is the quadratic minimised where
    H theta = (2/n) X_sv^T y_sv, H = reg I + (2/n) X_sv^T X_sv. Each step
    moves there, halved while J rises. The fit stops once a whole step keeps
    sv, or a step leaves J unchanged. It is deterministic.

    Raises:
        DataError: an empty dataset or a reg that is not positive.
        NumericalError: J, its gradient or H turned non-finite, or J was
            evaluated _SVM_MAX_EVALS times; diagnostics give the Newton steps
            taken and the largest gradient entry.
    """
    if data.n < 1:
        raise DataError("cannot train on an empty dataset")
    if reg <= 0:
        raise DataError("reg must be positive")
    x, y, scale = data.x, data.y, 2.0 / data.n
    theta, step = np.zeros(data.f), np.zeros(data.f)
    value, sv, steps, whole = math.inf, None, 0, True
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SVM_MAX_EVALS):
            trial = theta + step
            hinge = np.maximum(1.0 - y * (x @ trial), 0.0)
            trial_value = 0.5 * reg * (trial @ trial) + (hinge @ hinge) / data.n
            if trial_value > value:
                step, whole = step * 0.5, False
                continue
            # A whole step that keeps the violating set lands on J's minimiser.
            if whole and np.array_equal(hinge > 0.0, sv) or trial_value == value:
                return trial
            theta, value, sv = trial, trial_value, hinge > 0.0
            x_sv = x[sv]
            grad = reg * theta - scale * (x_sv.T @ (y[sv] * hinge[sv]))
            hess = scale * (x_sv.T @ x_sv) + reg * np.eye(data.f)
            diag = {"steps": steps, "grad_max": float(np.abs(grad).max(initial=0.0))}
            if not (math.isfinite(value) and math.isfinite(diag["grad_max"])
                    and np.isfinite(hess).all()):
                raise NumericalError("SVM fit turned non-finite", diag)
            # H's eigenvalues are at least reg; any that rounding lowers are raised.
            eigvals, eigvecs = np.linalg.eigh(hess)
            rhs = eigvecs.T @ (scale * (x_sv.T @ y[sv]))
            step = eigvecs @ (rhs / np.maximum(eigvals, reg)) - theta
            steps, whole = steps + 1, True
    raise NumericalError("SVM fit did not converge", diag)


def svm_predict(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Labels from the linear score; nonpositive scores go to -1."""
    scores = np.atleast_2d(np.asarray(x, dtype=np.float64)) @ theta
    return np.where(scores > 0.0, 1.0, -1.0)


def svm_accuracy(theta: np.ndarray, data: Dataset) -> float:
    return float(np.mean(svm_predict(theta, data.x) == data.y))


def save_posterior(posterior: PosteriorSamples, stem: str | Path):
    """Persist draws as <stem>.npy and settings as <stem>.json."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    np.save(stem.with_suffix(".npy"), posterior.draws)
    stem.with_suffix(".json").write_text(
        json.dumps(posterior.settings_dict()) + "\n"
    )


def load_posterior(stem: str | Path) -> PosteriorSamples:
    stem = Path(stem)
    npy = stem.with_suffix(".npy")
    if not npy.is_file():
        raise DataError(f"{npy}: no such file")
    try:
        draws = np.load(npy)
    except (EOFError, OSError, ValueError) as exc:
        raise DataError(f"{npy}: malformed ({exc})") from exc
    return load_json(stem.with_suffix(".json"), lambda meta: PosteriorSamples(
        draws=draws, **{name: meta[name] for name in _SETTINGS}))
