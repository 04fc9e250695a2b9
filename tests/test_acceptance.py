"""Thirteen acceptance checks at experiment scale, one verdict line each.

Every test prints "criterion NN: PASS/FAIL (detail)" before asserting, so
`pytest tests/test_acceptance.py -s` gives the full scoreboard. The module
reruns the packaged offline grid and several streaming grids; expect a few
minutes of wall clock.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import nnls

from flowcoreset.cli import resolve_config
from flowcoreset.coreset import (
    frankwolfe_construct,
    geodesic_step_size,
    giga_construct,
    random_construct,
    reconstruction_residual,
)
from flowcoreset.data import generate_synthetic, stratified_split
from flowcoreset.embed import build_projection_basis, embed_log_likelihoods
from flowcoreset.experiments import _prepare_dataset, run_offline
from flowcoreset.inference import (
    WeightedBLRModel,
    hmc_sample,
    log_posterior,
    log_sigmoid,
)
from flowcoreset.seeds import derive_seed
from flowcoreset.stream import MODE_CORESET, MODE_POOL, StreamPlan, run_stream

BUDGETS = (100, 500, 1000)
ENTRY_BANDS = {100: (40, 100), 500: (120, 400), 1000: (180, 600)}


def verdict(number, ok, detail):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d}: {detail}"


def strip_seconds(node):
    if isinstance(node, dict):
        return {key: strip_seconds(value) for key, value in node.items()
                if not key.endswith("_seconds")}
    if isinstance(node, list):
        return [strip_seconds(item) for item in node]
    return node


@pytest.fixture(scope="module")
def sim1_config():
    return resolve_config("sim1")


@pytest.fixture(scope="module")
def prepared(sim1_config):
    """The five imbalanced training sets with their coresets and splits."""
    return [_prepare_dataset(sim1_config, i, None) for i in range(5)]


@pytest.fixture(scope="module")
def offline_report(sim1_config):
    return run_offline(sim1_config, None)


def two_step_arrivals(rep):
    """Two 80/800 batches plus a 200/200 test per step, from one pool."""
    pool = generate_synthetic(560, 2000, 20, 4.0,
                              derive_seed(0, "c4", rep, "pool"))
    remainder, batches, tests = pool, [], []
    for j in range(2):
        batch, remainder = stratified_split(
            remainder, 80, 800, derive_seed(0, "c4", rep, "batch", j))
        test, remainder = stratified_split(
            remainder, 200, 200, derive_seed(0, "c4", rep, "test", j))
        batches.append((f"t{j}", batch))
        tests.append(test)
    return tuple(batches), tuple(tests)


@pytest.fixture(scope="module")
def stream_improvement():
    """Accuracies and alignment traces for the two-step aggregation study.

    Ten repetitions, three arms: pooled full data, aggregated coresets at
    budget 500, aggregated coresets at budget 100.
    """
    settings = {"total_samples": 1200, "burn_frac": 0.5, "thin": 2,
                "leapfrog_steps": 20}
    acc = {}
    traces = []
    for rep in range(10):
        batches, tests = two_step_arrivals(rep)
        for mode, budget in ((MODE_POOL, 500), (MODE_CORESET, 500),
                             (MODE_CORESET, 100)):
            plan = StreamPlan(
                batches=batches, test_sets=tests, mode=mode,
                coreset_budgets=(budget,), embedding_dim=500,
                rng_seed=derive_seed(0, "c4", rep, mode, budget),
                hmc=settings, predict_draws=300)
            for record in run_stream(plan):
                acc.setdefault((mode, budget, record.step),
                               []).append(record.accuracy)
                if record.added_coreset is not None:
                    traces.append(
                        record.added_coreset.construction.alignment_trace)
    means = {key: float(np.mean(values)) for key, values in acc.items()}
    return means, traces


class TestCoresetStructure:
    def test_criterion_01_sparsity_bands_and_runtime(self, prepared):
        entries = {m: [p.coresets[f"giga_m{m}"][0].size for p in prepared]
                   for m in BUDGETS}
        walls = [p.coresets[f"giga_m{m}"][0].construction.wall_clock_seconds
                 for p in prepared for m in BUDGETS]
        ok = all(
            ENTRY_BANDS[m][0] <= k <= ENTRY_BANDS[m][1] and k < m and k < 440
            for m in BUDGETS for k in entries[m]
        ) and max(walls) < 60.0
        detail = ("entries " +
                  " ".join(f"m={m}:{min(v)}-{max(v)}"
                           for m, v in entries.items()) +
                  f", slowest build {max(walls):.2f}s of 60s")
        verdict(1, ok, detail)

    def test_criterion_02_minority_class_subsampling(self, prepared):
        fractions = []
        for p in prepared:
            coreset = p.coresets["giga_m100"][0]
            rows = coreset.row_indices
            minority = int(np.sum(p.train.y[rows] == p.minority_label))
            fractions.append(minority / coreset.size)
        below = sum(f < 1.0 / 11.0 for f in fractions)
        detail = ("coreset minority fractions " +
                  " ".join(f"{f:.3f}" for f in fractions) +
                  f", {below}/5 below source 1/11")
        verdict(2, below >= 4, detail)

    def test_criterion_07_alignment_never_decreases(self, prepared,
                                                    stream_improvement):
        _, stream_traces = stream_improvement
        traces = [p.coresets[f"giga_m{m}"][0].construction.alignment_trace
                  for p in prepared for m in BUDGETS]
        traces.extend(stream_traces)
        worst = min(float(np.min(np.diff(t))) if len(t) > 1 else 0.0
                    for t in traces)
        ok = worst >= -1e-9
        verdict(7, ok, f"{len(traces)} traces, smallest step {worst:.2e}")

    def test_criterion_09_beats_matched_size_random(self, prepared,
                                                    sim1_config):
        wins = 0
        for s in range(10):
            p = prepared[s % 5]
            basis = build_projection_basis(
                p.train_std, sim1_config.embedding_dim,
                derive_seed(0, "basis", s % 5),
                weighting=sim1_config.weighting)
            embedding = embed_log_likelihoods(p.train_std, basis)
            giga = p.coresets["giga_m100"][0]
            rand = random_construct(p.train.n, giga.size,
                                    derive_seed(0, "c9", s))
            rand_res, _ = reconstruction_residual(rand, embedding)
            wins += giga.construction.residual_norm <= rand_res
        verdict(9, wins >= 9, f"giga at or below random on {wins}/10 seeds")


class TestAccuracyStructure:
    def test_criterion_03_accuracy_ordering(self, offline_report):
        grand = offline_report["grand_mean_accuracy"]
        full = grand["blr_full"]
        m1000 = grand["blr_coreset_m1000"]
        m100 = grand["blr_coreset_m100"]
        svm = grand["svm"]
        ok = (full >= m1000 >= m100
              and full - m1000 <= 0.03
              and abs(svm - full) <= 0.02)
        detail = (f"full={full:.4f} m1000={m1000:.4f} m100={m100:.4f} "
                  f"svm={svm:.4f}, full-m1000={full - m1000:+.4f}, "
                  f"|svm-full|={abs(svm - full):.4f}")
        verdict(3, ok, detail)

    def test_criterion_04_aggregation_improves(self, stream_improvement):
        means, _ = stream_improvement
        pool2 = means[(MODE_POOL, 500, 1)]
        cs500_2 = means[(MODE_CORESET, 500, 1)]
        cs100_1 = means[(MODE_CORESET, 100, 0)]
        cs100_2 = means[(MODE_CORESET, 100, 1)]
        ok = abs(pool2 - cs500_2) <= 0.02 and cs100_2 > cs100_1
        detail = (f"|pool-cs500|@step2={abs(pool2 - cs500_2):.4f}, "
                  f"cs100 step2-step1={cs100_2 - cs100_1:+.4f}")
        verdict(4, ok, detail)

    def test_criterion_05_training_time_growth(self):
        settings = {"total_samples": 400, "burn_frac": 0.5, "thin": 2,
                    "leapfrog_steps": 10}
        times = {}
        for rep in range(3):
            pool = generate_synthetic(1250, 9250, 20, 4.0,
                                      derive_seed(0, "c5", rep, "pool"))
            remainder, batches, tests = pool, [], []
            for j in range(5):
                batch, remainder = stratified_split(
                    remainder, 200, 1800, derive_seed(0, "c5", rep, "batch", j))
                test, remainder = stratified_split(
                    remainder, 50, 50, derive_seed(0, "c5", rep, "test", j))
                batches.append((f"t{j}", batch))
                tests.append(test)
            for mode in (MODE_POOL, MODE_CORESET):
                plan = StreamPlan(
                    batches=tuple(batches), test_sets=tuple(tests), mode=mode,
                    coreset_budgets=(25,), embedding_dim=500,
                    rng_seed=derive_seed(0, "c5", rep, mode),
                    hmc=settings, predict_draws=50)
                for record in run_stream(plan):
                    times.setdefault((mode, record.step),
                                     []).append(record.training_seconds)
        pool_first = float(np.mean(times[(MODE_POOL, 0)]))
        pool_last = float(np.mean(times[(MODE_POOL, 4)]))
        cs_first = float(np.mean(times[(MODE_CORESET, 0)]))
        cs_last = float(np.mean(times[(MODE_CORESET, 4)]))
        pool_ratio = pool_last / pool_first
        cs_ratio = cs_last / cs_first
        ok = pool_ratio >= 3.0 and cs_ratio <= 1.8
        verdict(5, ok, f"pooled step5/step1 = {pool_ratio:.2f} (need >= 3), "
                       f"coreset {cs_ratio:.2f} (need <= 1.8)")


def sphere_alignment(zeta0, zeta1, zeta2, gammas):
    num = (1.0 - gammas) * zeta0 + gammas * zeta1
    sq = (1.0 - gammas) ** 2 + gammas**2 + 2.0 * gammas * (1.0 - gammas) * zeta2
    return num / np.sqrt(sq)


def tiny_embedding(rng, n=6, f=2, d=3):
    data = generate_synthetic(n // 2, n - n // 2, f=f, separation=2.0,
                              rng_seed=int(rng.integers(1 << 31)))
    basis = build_projection_basis(
        data, d=d, rng_seed=int(rng.integers(1 << 31)),
        weighting="prior")
    return embed_log_likelihoods(data, basis)


def brute_force_residual(vectors, m):
    total = vectors.sum(axis=0)
    best = math.inf
    for k in range(1, m + 1):
        for support in itertools.combinations(range(vectors.shape[0]), k):
            _, residual = nnls(vectors[list(support)].T, total)
            best = min(best, residual)
    return best


class TestGeometryOracles:
    def test_criterion_06_step_size_matches_dense_grid(self):
        rng = np.random.default_rng(6)
        gammas = np.linspace(0.0, 1.0, 10001)
        worst = 0.0
        checked = 0
        while checked < 1000:
            dim = int(rng.integers(3, 501))
            ell, y, cand = (v / np.linalg.norm(v)
                            for v in rng.normal(size=(3, dim)))
            if float(ell @ y) < 0.0:
                y = -y
            if float(ell @ cand) - float(ell @ y) * float(y @ cand) < 0.0:
                cand = -cand
            z0, z1, z2 = float(ell @ y), float(ell @ cand), float(y @ cand)
            if z1 - z0 * z2 < 1e-12:
                continue
            gamma = geodesic_step_size(z0, z1, z2)
            best_grid = float(sphere_alignment(z0, z1, z2, gammas).max())
            achieved = float(sphere_alignment(z0, z1, z2, np.array([gamma]))[0])
            worst = max(worst, best_grid - achieved)
            checked += 1
        verdict(6, worst <= 1e-6,
                f"1000 triples in dims 3-500, largest grid gap {worst:.2e}")

    def test_criterion_08_brute_force_bound(self):
        rng = np.random.default_rng(8)
        giga_ratios, fw_ratios = [], []
        for _ in range(50):
            emb = tiny_embedding(rng)
            best = brute_force_residual(emb.vectors, 1)
            giga = giga_construct(emb, m=1)
            fw = frankwolfe_construct(emb, m=1)
            giga_ratios.append(giga.construction.residual_norm / best)
            fw_ratios.append(fw.construction.residual_norm / best)
        ok = max(giga_ratios) <= 1.5
        detail = (f"50 instances at m=1: giga/optimal max "
                  f"{max(giga_ratios):.6f} (bound 1.5); frank-wolfe mean "
                  f"{np.mean(fw_ratios):.3f} max {max(fw_ratios):.3f}")
        verdict(8, ok, detail)


def quadrature_1d(model, lo=-10.0, hi=10.0, points=4001):
    theta = np.linspace(lo, hi, points)
    logp = np.array([log_posterior(model, np.array([t]))[0] for t in theta])
    dens = np.exp(logp - logp.max())
    dens /= np.trapezoid(dens, theta)
    mean = np.trapezoid(dens * theta, theta)
    var = np.trapezoid(dens * (theta - mean) ** 2, theta)
    return mean, math.sqrt(var)


def quadrature_2d(model, lo=-8.0, hi=8.0, points=801):
    axis = np.linspace(lo, hi, points)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    logp = -0.5 * (g1**2 + g2**2)
    for i in range(model.n):
        margins = model.y[i] * (model.x[i, 0] * g1 + model.x[i, 1] * g2)
        logp += model.weights[i] * log_sigmoid(margins)
    dens = np.exp(logp - logp.max())
    dens /= dens.sum()
    means = np.array([(dens * g1).sum(), (dens * g2).sum()])
    stds = np.sqrt(np.array([(dens * (g1 - means[0]) ** 2).sum(),
                             (dens * (g2 - means[1]) ** 2).sum()]))
    return means, stds


def random_model(rng, integer_weights=False):
    n = int(rng.integers(1, 12))
    f = int(rng.integers(1, 6))
    x = rng.normal(size=(n, f))
    y = rng.choice([-1.0, 1.0], size=n)
    if integer_weights:
        w = rng.integers(0, 5, size=n).astype(float)
    else:
        w = rng.uniform(0.0, 3.0, size=n)
    return WeightedBLRModel(x, y, w)


class TestPosteriorOracles:
    def test_criterion_10_sampler_matches_quadrature(self):
        model_1d = WeightedBLRModel(
            np.array([[1.2], [0.4], [-0.3], [2.0], [0.8]]),
            np.array([1.0, 1.0, -1.0, 1.0, -1.0]),
            np.array([1.0, 2.0, 1.0, 1.0, 3.0]))
        post_1d = hmc_sample(model_1d, rng_seed=1)
        mean_1d, std_1d = quadrature_1d(model_1d)
        err_1d = max(abs(float(post_1d.draws.mean()) - mean_1d),
                     abs(float(post_1d.draws.std()) - std_1d))

        rng = np.random.default_rng(5)
        model_2d = WeightedBLRModel(rng.normal(size=(8, 2)),
                                    rng.choice([-1.0, 1.0], size=8),
                                    rng.uniform(0.5, 2.0, size=8))
        post_2d = hmc_sample(model_2d, rng_seed=2)
        means, stds = quadrature_2d(model_2d)
        err_2d = max(float(np.max(np.abs(post_2d.draws.mean(axis=0) - means))),
                     float(np.max(np.abs(post_2d.draws.std(axis=0) - stds))))

        prior = WeightedBLRModel(np.empty((0, 3)), np.empty(0))
        post_prior = hmc_sample(prior, rng_seed=3)
        band = 3.0 / math.sqrt(post_prior.n_draws / 2.0)
        prior_ok = (np.all(np.abs(post_prior.draws.mean(axis=0)) < band)
                    and np.all(np.abs(post_prior.draws.std(axis=0) - 1.0)
                               < 2.0 * band))

        rng = np.random.default_rng(7)
        h = 1e-6
        grad_worst = 0.0
        for _ in range(100):
            model = random_model(rng)
            theta = rng.normal(size=model.f)
            _, grad = log_posterior(model, theta)
            for k in range(model.f):
                bump = np.zeros(model.f)
                bump[k] = h
                hi_v, _ = log_posterior(model, theta + bump)
                lo_v, _ = log_posterior(model, theta - bump)
                fd = (hi_v - lo_v) / (2.0 * h)
                rel = abs(fd - grad[k]) / max(1.0, abs(grad[k]))
                grad_worst = max(grad_worst, rel)

        ok = (err_1d < 0.05 and err_2d < 0.05 and prior_ok
              and grad_worst < 1e-5)
        detail = (f"quadrature gap 1d={err_1d:.4f} 2d={err_2d:.4f} "
                  f"(bound 0.05), prior moments within bands: {prior_ok}, "
                  f"gradient vs finite differences {grad_worst:.2e}")
        verdict(10, ok, detail)

    def test_criterion_11_integer_weights_replicate(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            model = random_model(rng, integer_weights=True)
            reps = model.weights.astype(int)
            rep_x = np.repeat(model.x, reps, axis=0)
            rep_y = np.repeat(model.y, reps)
            if rep_x.shape[0] == 0:
                rep_x = np.empty((0, model.f))
            replicated = WeightedBLRModel(rep_x, rep_y)
            theta = rng.normal(size=model.f)
            v1, g1 = log_posterior(model, theta)
            v2, g2 = log_posterior(replicated, theta)
            worst = max(worst, abs(v1 - v2) / max(1.0, abs(v1)),
                        float(np.max(np.abs(g1 - g2))) if model.f else 0.0)
        verdict(11, worst <= 1e-10,
                f"100 instances, largest replication gap {worst:.2e}")

    def test_criterion_12_default_protocol_arithmetic(self, prepared):
        draws, accepts = [], []
        for i in range(2):
            model = WeightedBLRModel.from_dataset(prepared[i].train_std)
            post = hmc_sample(model, rng_seed=derive_seed(0, "c12", i))
            draws.append(post.n_draws)
            accepts.append(post.acceptance_rate)
        ok = (all(d == 2500 for d in draws)
              and all(0.6 <= a <= 0.9 for a in accepts))
        verdict(12, ok, f"retained draws {draws} (need exactly 2500), "
                        "acceptance " +
                        " ".join(f"{a:.3f}" for a in accepts) +
                        " (band 0.6-0.9)")


class TestDeterminism:
    def test_criterion_13_identical_runs_identical_reports(
            self, sim1_config, offline_report):
        again = run_offline(sim1_config, None)
        ok = strip_seconds(again) == strip_seconds(offline_report)
        verdict(13, ok, "two offline runs compared field by field, "
                        "wall-clock fields excluded")
