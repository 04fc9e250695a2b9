"""Benchmark for flowcoreset, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It drives the program in process through the entry points the
`flowcoreset offline` and `flowcoreset stream` commands call
(`run_offline`, `run_stream_experiment`), on inputs it generates from the
seed. A run sets up (imports, inputs, warm-up) in separate child
processes to time set-up, then repeats whole rounds of the workload for
about S seconds, checks every round's outputs against a numpy-only
reference, and prints one JSON object as its last line. With --trace 0 it
reports the end-to-end metrics, each the median over rounds; with
--trace 1 it alternates plain and traced rounds and reports the per-layer
metrics of the traced ones. BLAS threading is left at the machine's
default, as a user runs the program. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import reference
from spans import COMPRESS, PROBED, TRACED, Tracer, dump_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "_runs"
TRACES = BENCH / "_traces"
SETUP_PROBES = 3
MIN_ROUNDS = 3
PROGRAM_MODULES = ("data", "embed", "coreset", "inference", "stream", "experiments", "cli")

_HMC = {"burn_frac": 0.5, "thin": 2, "target_accept": 0.8, "leapfrog_steps": 20,
        "jitter": 0.2}
_DATASET_LABELS = {"1": 1, "-1": -1}


def _offline_config(path: Path, train: tuple, test: tuple, budgets: list, samples: int,
                    svm_epochs: int, rng_seed: int, label_column: str, labels: dict) -> dict:
    """An offline grid on one CSV source, persisting posteriors for the checks."""
    return {
        "source": {"kind": "csv", "paths": [str(path)], "label_column": label_column,
                   "label_map": labels, "feature_columns": None,
                   "train_pos": train[0], "train_neg": train[1],
                   "test_pos": test[0], "test_neg": test[1]},
        "embedding_dim": 500, "budgets": budgets, "random_size": 100,
        "weighting": "laplace", "hmc": {**_HMC, "total_samples": samples},
        "predict_draws": 300, "svm": {"epochs": svm_epochs, "reg": 0.01},
        "repetitions": 2, "rng_seed": rng_seed, "parallelism": 1,
        "persist_posteriors": True, "stream": None,
    }


class OfflineGrid:
    """sim1 on one 80/800 dataset per round: SVM, full, random, GIGA 100/500/1000."""

    kind = "offline"
    train, test = (80, 800), (200, 200)
    budgets = [100, 500, 1000]
    samples, svm_epochs = 200, 100
    loglik_tolerance = reference.LOGLIK_TOLERANCE

    def round_config(self, seed: int, r: int, rdir: Path) -> dict:
        x, y = inputs.gaussian_classes(self.train[0] + self.test[0],
                                       self.train[1] + self.test[1],
                                       inputs.derive(seed, r, "pool"))
        path = rdir / "pool.csv"
        inputs.write_dataset(path, x, y)
        return _offline_config(path, self.train, self.test, self.budgets, self.samples,
                               self.svm_epochs, inputs.derive(seed, r, "program"),
                               "label", _DATASET_LABELS)

    def check(self, out: Path, config: dict, seed: int, tracer: Tracer, arms) -> float:
        return reference.check_offline(out, self.budgets, config["random_size"],
                                       config["predict_draws"], seed, self.loglik_tolerance)


class CaptureCompress(OfflineGrid):
    """A CICIDS-shaped capture per round, subsampled to a 9 900-row train set."""

    train, test = (900, 9000), (500, 500)
    # At m = 100 the relative error swings by a third from capture to capture,
    # too much for a run's median to repeat; m = 500 and 1000 vary by 15%.
    budgets = [500, 1000]
    samples, svm_epochs = 60, 5
    attack, benign = 1500, 9800
    # GIGA's weights of up to 1e29 here break the log-likelihood match on some
    # seeds, a fault of the program: the gap is reported, not enforced.
    loglik_tolerance = None

    def round_config(self, seed: int, r: int, rdir: Path) -> dict:
        self.capture = rdir / "capture.csv"
        self.counts = inputs.write_capture(
            self.capture, self.attack, self.benign,
            100 + inputs.derive(seed, r, "spoiled") % 200, inputs.derive(seed, r, "capture"))
        return _offline_config(self.capture, self.train, self.test, self.budgets,
                               self.samples, self.svm_epochs,
                               inputs.derive(seed, r, "program"), "Label",
                               inputs.CAPTURE_LABELS)

    def check(self, out: Path, config: dict, seed: int, tracer: Tracer, arms) -> float:
        gap = super().check(out, config, seed, tracer, arms)
        clean = reference.read_capture(self.capture, inputs.CAPTURE_LABELS)
        (ingest,) = tracer.named("data.ingest_csv")
        reference.check_capture(out, clean, self.counts["written"],
                                self.counts["spoiled"], ingest.kept)
        return gap


class StreamGrowth:
    """sim2 cut down: pool_full beside coreset_aggregate (GIGA 100, 500), five batches."""

    kind = "stream"
    n_batches, batch, test = 5, (80, 800), (200, 200)
    budgets = [100, 500]
    samples = 120

    def round_config(self, seed: int, r: int, rdir: Path) -> dict:
        self.batches, self.tests = inputs.stream_batches(
            self.n_batches, self.batch, self.test, inputs.derive(seed, r, "stream"))
        paths = {"batch_paths": [], "test_paths": []}
        for j, (b, t) in enumerate(zip(self.batches, self.tests)):
            for key, (x, y), name in (("batch_paths", b, "batch"), ("test_paths", t, "test")):
                path = rdir / f"{name}{j}.csv"
                inputs.write_dataset(path, x, y)
                paths[key].append(str(path))
        return {
            # The stream reads its batches from the files; the source only
            # satisfies the config schema.
            "source": {"kind": "synthetic", "n_datasets": 1, "train_pos": 1, "train_neg": 1,
                       "test_pos": 1, "test_neg": 1, "features": inputs.FEATURES,
                       "separation": inputs.SEPARATION},
            "embedding_dim": 500, "budgets": self.budgets, "weighting": "laplace",
            "hmc": {**_HMC, "total_samples": self.samples}, "predict_draws": 300,
            "repetitions": 1, "rng_seed": inputs.derive(seed, r, "program"),
            "stream": {"modes": ["pool_full", "coreset_aggregate"], **paths,
                       "eval_scope": "union"},
        }

    def check(self, out: Path, config: dict, seed: int, tracer: Tracer, arms) -> float:
        rows = reference.read_results(out / "stream_results.csv")
        return reference.check_stream(rows, arms, self.batches, self.tests, seed)


WORKLOADS = {"offline-grid": OfflineGrid, "stream-growth": StreamGrowth,
             "capture-compress": CaptureCompress}

# A tiny grid through the same entry point, so that lazy imports, BLAS
# thread start-up and first-call costs land in set-up, not in round 0.
_WARMUP = {
    "source": {"kind": "synthetic", "n_datasets": 1, "train_pos": 10, "train_neg": 30,
               "test_pos": 5, "test_neg": 5, "features": 4, "separation": 2.0},
    "embedding_dim": 20, "budgets": [5], "hmc": {**_HMC, "total_samples": 20},
    "predict_draws": 5, "svm": {"epochs": 1},
}


def load_program() -> dict:
    """Import flowcoreset from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "flowcoreset" / "__init__.py").is_file():
        sys.exit(f"perfbench: no flowcoreset sources under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"flowcoreset.{name}")
               for name in PROGRAM_MODULES}
    if not Path(modules["data"].__file__).resolve().is_relative_to(src):
        sys.exit("perfbench: flowcoreset was imported from outside this checkout")
    return modules


def setup(workload, seed: int, workdir: Path) -> tuple[dict, dict]:
    """Imports, the first round's inputs and warm-up.

    Returns the program's modules and the first round's config.
    """
    modules = load_program()
    (workdir / "round0").mkdir(parents=True)
    config = workload.round_config(seed, 0, workdir / "round0")
    experiments = modules["experiments"]
    warm = dict(_WARMUP)
    if workload.kind == "stream":
        warm["stream"] = {"modes": ["pool_full", "coreset_aggregate"], "n_batches": 2,
                          "batch_pos": 10, "batch_neg": 30, "test_pos": 5, "test_neg": 5}
        experiments.run_stream_experiment(experiments.ExperimentConfig.from_dict(warm), None)
    else:
        experiments.run_offline(experiments.ExperimentConfig.from_dict(warm), None)
    return modules, config


def time_setup(args, workdir: Path) -> float:
    """Seconds for a fresh process to set up this workload and exit."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only", str(workdir)],
        stdout=subprocess.DEVNULL, timeout=150)
    elapsed = time.perf_counter() - started
    shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        sys.exit(f"perfbench: set-up exited with code {done.returncode}")
    return elapsed


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or 0 if it cannot be asked."""
    maps = Path("/proc/self/maps").read_text()
    for lib in sorted(set(re.findall(r"(\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return 0


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(workload, config: dict, tracer: Tracer, wall: float, out: Path, arms):
    """The round's end-to-end metrics, operations attempted and failed.

    Returns (metrics, parts, attempted, failed). parts maps each summed
    time metric to its calls' seconds, keyed by the call's place in the
    round (condition and repetition, arm and step, or n-th construction
    call), so that a run can take medians call by call.
    """
    seen: dict[str, int] = {}
    compress = {}
    for span in tracer.named(*COMPRESS):
        seen[span.name] = seen.get(span.name, 0) + 1
        compress[(span.name, seen[span.name])] = span.seconds
    if workload.kind == "offline":
        rows = reference.read_results(out / "results.csv")
        ok = [r for r in rows if not r["error"]]
        full = [r for r in ok if r["condition"] == "blr_full"]
        core = [r for r in ok if r["condition"].startswith("blr_coreset_m")]
        built = [r for r in core if r["repetition"] == "0"]
        key, seconds = (lambda r: (r["condition"], r["repetition"])), "train_seconds"
        n_built = sum(not p.name.endswith(".csv.json")
                      for p in (out / "coresets").glob("ds0_*.json"))
        rel_err = [float(r["relative_error"]) for r in built]
        kept_frac = _ratio(sum(int(r["entries"]) for r in built),
                           sum(workload.train) * len(built))
        # SVM, full, random and one model per budget in every repetition,
        # then the GIGA and random coresets of the dataset.
        budgets = len(config["budgets"])
        attempted = (3 + budgets) * config["repetitions"] + budgets + 1
    else:
        rows = reference.read_results(out / "stream_results.csv")
        ok = [r for r in rows if not r["error"]]
        full = [r for r in ok if r["mode"] == "pool_full"]
        core = [r for r in ok if r["mode"] == "coreset_aggregate"]
        coresets = [rec.added_coreset for arm in arms if arm["mode"] == "coreset_aggregate"
                    for rec in arm["records"]]
        key, seconds = (lambda r: (r["mode"], r["budget"], r["step"])), "training_seconds"
        n_built, rel_err = len(coresets), [c.construction.relative_error for c in coresets]
        batch_rows = sum(y.size for _, y in workload.batches)
        kept_frac = _ratio(sum(c.size for c in coresets), batch_rows * len(workload.budgets))
        # One model per arm and step, one coreset per coreset arm and step.
        attempted = workload.n_batches * (1 + 2 * len(config["budgets"]))
    parts = {
        "train_s.full": {key(r): float(r[seconds]) for r in full},
        "train_s.coreset": {key(r): float(r[seconds]) for r in core},
        "compress_s": compress,
    }
    metrics = {name: sum(calls.values()) for name, calls in parts.items()}
    metrics.update({
        "wall_s": wall,
        "accuracy.full": _mean(float(r["accuracy"]) for r in full),
        "accuracy.coreset": _mean(float(r["accuracy"]) for r in core),
        "coreset_rel_err": _mean(rel_err),
        "kept_frac": kept_frac,
    })
    failed = attempted - len(ok) - n_built
    return metrics, parts, attempted, failed


def per_layer(workload, tracer: Tracer, out: Path) -> dict:
    """The traced round's per-layer metrics, derived from its spans."""
    spans = tracer.spans
    m: dict[str, float] = {}
    ingest = tracer.named("data.ingest_csv")
    m["data.ingest_s"] = sum(s.seconds for s in ingest)
    m["data.ingest_rows_per_s"] = _ratio(sum(sum(s.kept) for s in ingest), m["data.ingest_s"])
    m["data.split_s"] = tracer.seconds("data.stratified_split")
    m["data.standardize_s"] = tracer.seconds("data.fit_standardization",
                                             "data.apply_standardization")
    m["data.serialize_s"] = tracer.seconds("data.save_dataset") + sum(
        s.seconds for s in tracer.named("data.dataset_csv_text")
        if s.parent < 0 or spans[s.parent].name != "data.save_dataset")

    m["embed.map_s"] = tracer.seconds("inference.fit_map")
    m["embed.basis_s"] = tracer.seconds("embed.build_projection_basis")
    m["embed.embed_s"] = tracer.seconds("embed.embed_log_likelihoods")
    m["embed.calls"] = len(tracer.named("embed.embed_log_likelihoods"))

    giga = tracer.named("coreset.giga_construct")
    m["coreset.giga_s"] = sum(s.seconds for s in giga)
    m["coreset.iterations"] = sum(s.kept.construction.iterations_run for s in giga)
    m["coreset.us_per_iter"] = 1e6 * _ratio(m["coreset.giga_s"], m["coreset.iterations"])
    m["coreset.entries"] = sum(s.kept.size for s in giga)
    m["coreset.random_s"] = tracer.seconds("coreset.random_construct")
    m["coreset.materialize_s"] = tracer.seconds("coreset.materialize")
    m["coreset.aggregate_s"] = tracer.seconds("coreset.aggregate")

    hmc = tracer.named("inference.hmc_sample")
    for kind in ("full", "coreset"):
        chains = [s for s in hmc if s.kept[1] == kind]
        seconds = sum(s.seconds for s in chains)
        grads = sum(s.grads for s in chains)
        m[f"inference.hmc_s.{kind}"] = seconds
        m[f"inference.grads.{kind}"] = grads
        m[f"inference.us_per_grad.{kind}"] = 1e6 * _ratio(seconds, grads)
        m[f"inference.rows.{kind}"] = _mean(s.kept[0] for s in chains)
        m[f"inference.min_ess.{kind}"] = (
            statistics.median(reference.min_ess(s.kept[2].draws) for s in chains)
            if chains else 0.0)
    m["inference.accept_rate"] = _mean(s.kept[2].acceptance_rate for s in hmc)
    m["inference.divergent"] = sum(s.kept[2].n_divergent for s in hmc)
    m["inference.predict_s"] = tracer.seconds("inference.accuracy")
    m["inference.svm_s"] = tracer.seconds("inference.svm_train")

    pool, core, reduce_s = {}, {}, 0.0
    if workload.kind == "stream":
        for r in reference.read_results(out / "stream_results.csv"):
            arm = pool if r["mode"] == "pool_full" else core.setdefault(r["budget"], {})
            arm[int(r["step"])] = (float(r["training_seconds"]), int(r["stored_samples"]))
            if r["mode"] != "pool_full":
                reduce_s += float(r["reduction_seconds"])
    growth = lambda arm: _ratio(arm[max(arm)][0], arm[0][0]) if arm else 0.0  # noqa: E731
    m["stream.reduce_s"] = reduce_s
    m["stream.growth.pool"] = growth(pool)
    m["stream.growth.coreset"] = _mean(growth(a) for a in core.values())
    m["stream.stored.pool"] = pool[max(pool)][1] if pool else 0
    m["stream.stored.coreset"] = _mean(a[max(a)][1] for a in core.values())

    (top,) = [i for i, s in enumerate(spans) if s.parent < 0 and s.name.startswith("experiments.")]
    m["experiments.self_s"] = spans[top].seconds - sum(s.seconds for s in spans if s.parent == top)
    m["experiments.trials"] = len(reference.read_results(
        out / ("stream_results.csv" if workload.kind == "stream" else "results.csv")))
    return m


def run_round(workload, modules: dict, config: dict, seed: int, rdir: Path, traced: bool):
    """One whole round on inputs in rdir: the pipeline (timed), then checks."""
    experiments = modules["experiments"]
    parsed = experiments.ExperimentConfig.from_dict(config)
    out = rdir / "out"
    tracer = Tracer()
    tracer.install(modules, TRACED if traced else PROBED, count_grads=traced)
    try:
        started = time.perf_counter()
        if workload.kind == "stream":
            _, arms = experiments.run_stream_experiment(parsed, out)
        else:
            experiments.run_offline(parsed, out)
            arms = ()
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    gap = workload.check(out, config, seed, tracer, arms)
    metrics, parts, attempted, failed = end_to_end(workload, config, tracer, wall, out, arms)
    layers = per_layer(workload, tracer, out) if traced else None
    if traced:
        layers["coreset.loglik_gap"] = gap
    shutil.rmtree(rdir)
    return metrics, parts, layers, attempted, failed, tracer


def medians(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()

    if args.setup_only:
        setup(workload, args.seed, args.setup_only)
        return 0

    workdir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_s = [time_setup(args, workdir / f"setup{k}") for k in range(SETUP_PROBES)]
        modules, config = setup(workload, args.seed, workdir)
        plain, traced, attempted, failed = [], [], 0, 0
        all_spans = []
        measuring = time.perf_counter()
        r = 0
        while True:
            trace_round = bool(args.trace) and r % 2 == 1
            rdir = workdir / f"round{r}"
            if r:
                rdir.mkdir()
                config = workload.round_config(args.seed, r, rdir)
            try:
                metrics, parts, layers, n, bad, tracer = run_round(
                    workload, modules, config, args.seed, rdir, trace_round)
            except reference.CheckFailed as exc:
                print(f"perfbench: {args.workload} round {r}: check failed: {exc}",
                      file=sys.stderr)
                print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                                  "failed": failed, "metrics": {}}))
                return 1
            attempted, failed = attempted + n, failed + bad
            print(f"# round {r}{' traced' if trace_round else ''}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in sorted(metrics.items())), flush=True)
            if trace_round:
                traced.append((metrics["wall_s"], layers))
                all_spans.extend(tracer.spans)
            else:
                plain.append((metrics, parts))
            r += 1
            elapsed = time.perf_counter() - measuring
            enough = len(plain) >= (1 if args.trace else MIN_ROUNDS) and (
                traced or not args.trace)
            # Stop where the next round would end nearer after --seconds than
            # this one ends before it, so runs measure about --seconds.
            if enough and elapsed + 0.5 * elapsed / r > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = medians([layers for _, layers in traced])
        values["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                      - statistics.median(m["wall_s"] for m, _ in plain))
        path = TRACES / f"{args.workload}-seed{args.seed}.jsonl"
        dump_spans(all_spans, path)
    else:
        values = medians([m for m, _ in plain])
        # A summed time is the sum, call by call, of each call's median over
        # rounds: a call slowed by the host in one round does not move it.
        for name in plain[0][1]:
            calls = [p[name] for _, p in plain]
            values[name] = sum(statistics.median(c[k] for c in calls if k in c)
                               for k in set().union(*calls))
        values["setup_s"] = statistics.median(setup_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        sys.exit(f"perfbench: measured metrics differ from BENCHMARK.json: "
                 f"{sorted({m['name'] for m in declared} ^ set(values))}")
    print(f"# flowcoreset perfbench: workload={args.workload} seed={args.seed} "
          f"rounds={r} blas_threads={blas_threads()}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
