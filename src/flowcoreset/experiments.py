"""Experiment grids: the offline benchmark and the streaming benchmark.

The offline runner trains an SVM baseline, full-data BLR, a random-subset
BLR baseline, and one coreset BLR per budget on each dataset, repeating
every training with fresh seeds. The streaming runner replays the same
batches through each requested reduction mode. Both write a trial-level
results CSV (the source of truth), and the report files are derived from
that CSV alone, so regenerating a report never recomputes anything and is
byte-identical across invocations.

Every random draw descends from the config's root seed through named
derivation paths, so two runs with the same config agree everywhere except
wall-clock fields.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .coreset import Coreset, giga_construct, materialize, random_construct, save_coreset
from .data import (
    CsvSchema,
    Dataset,
    apply_standardization,
    dataset_csv_text,
    fit_standardization,
    generate_synthetic,
    ingest_csv,
    load_dataset,
    save_dataset,
    stratified_split,
)
from .embed import (
    WEIGHTING_LAPLACE,
    WEIGHTING_PRIOR,
    build_projection_basis,
    embed_log_likelihoods,
)
from .errors import ConfigError, DataError, FlowCoresetError
from .inference import (
    WeightedBLRModel,
    accuracy,
    hmc_sample,
    save_posterior,
    svm_accuracy,
    svm_train,
)
from .seeds import derive_seed
from .stream import (
    EVAL_SCOPES,
    MODES,
    StepRecord,
    StreamPlan,
    run_stream,
)

_TIMING_NOTE = (
    "Wall-clock fields depend on host load and hardware; compare ratios "
    "within a run, not absolute values across runs or machines."
)


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


# Sampler settings a config may forward to hmc_sample, each with the type
# it takes; only initial_step_size may be null.
HMC_KEYS = {"total_samples": Integral, "burn_frac": Real, "thin": Integral,
            "target_accept": Real, "leapfrog_steps": Integral,
            "jitter": Real, "initial_step_size": (Real, type(None))}


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-dataset generation counts for the synthetic source."""

    n_datasets: int
    train_pos: int
    train_neg: int
    test_pos: int
    test_neg: int
    features: int
    separation: float

    def __post_init__(self):
        _require(self.n_datasets >= 1, "n_datasets must be at least 1")
        for name in ("train_pos", "train_neg", "test_pos", "test_neg",
                     "features"):
            _require(getattr(self, name) >= 1, f"{name} must be positive")
        _require(self.separation >= 0.0, "separation must be nonnegative")


@dataclass(frozen=True)
class CsvSpec:
    """CSV-file source: one file per dataset, subsampled per split."""

    paths: tuple[str, ...]
    label_column: str
    label_map: dict
    feature_columns: tuple[str, ...] | None
    train_pos: int
    train_neg: int
    test_pos: int
    test_neg: int

    def __post_init__(self):
        _require(len(self.paths) >= 1, "csv source needs at least one path")
        for name in ("train_pos", "train_neg", "test_pos", "test_neg"):
            _require(getattr(self, name) >= 1, f"{name} must be positive")

    def schema(self) -> CsvSchema:
        columns = list(self.feature_columns) if self.feature_columns else None
        return CsvSchema(feature_columns=columns,
                         label_column=self.label_column,
                         label_map=dict(self.label_map))


@dataclass(frozen=True)
class StreamSpec:
    """Batch arrivals for the streaming benchmark.

    Synthetic streams cut every batch and test set of a repetition from one
    generated pool so all steps draw from a single distribution. File-based
    streams list one batch path and one test path per step.
    """

    modes: tuple[str, ...]
    n_batches: int = 0
    batch_pos: int = 0
    batch_neg: int = 0
    test_pos: int = 0
    test_neg: int = 0
    batch_paths: tuple[str, ...] = ()
    test_paths: tuple[str, ...] = ()
    eval_scope: str = "union"

    def __post_init__(self):
        _require(len(self.modes) >= 1, "stream needs at least one mode")
        for mode in self.modes:
            _require(mode in MODES, f"unknown stream mode {mode!r}")
        _require(self.eval_scope in EVAL_SCOPES,
                 f"unknown eval scope {self.eval_scope!r}")
        if self.batch_paths:
            _require(len(self.batch_paths) == len(self.test_paths),
                     "need one test path per batch path")
        else:
            _require(self.n_batches >= 1, "n_batches must be at least 1")
            for name in ("batch_pos", "batch_neg", "test_pos", "test_neg"):
                _require(getattr(self, name) >= 1, f"{name} must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    source: SyntheticSpec | CsvSpec
    embedding_dim: int = 500
    budgets: tuple[int, ...] = (100, 500, 1000)
    random_size: int | None = None
    weighting: str = WEIGHTING_LAPLACE
    hmc: dict = field(default_factory=dict)
    predict_draws: int = 1000
    svm_epochs: int = 5
    svm_reg: float = 1e-3
    repetitions: int = 1
    rng_seed: int = 0
    persist_posteriors: bool = False
    stream: StreamSpec | None = None

    def __post_init__(self):
        _require(self.embedding_dim >= 1, "embedding_dim must be at least 1")
        _require(len(self.budgets) >= 1, "budgets must be nonempty")
        _require(all(m >= 1 for m in self.budgets), "budgets must be positive")
        _require(list(self.budgets) == sorted(set(self.budgets)),
                 "budgets must be strictly ascending")
        if self.random_size is not None:
            _require(self.random_size >= 1, "random_size must be positive")
        _require(self.weighting in (WEIGHTING_LAPLACE, WEIGHTING_PRIOR),
                 f"unknown weighting {self.weighting!r}")
        for key, value in self.hmc.items():
            _require(key in HMC_KEYS, f"unknown hmc setting {key!r}")
            kind = HMC_KEYS[key]
            _require(isinstance(value, kind) and not isinstance(value, bool),
                     f"hmc {key} must be a "
                     f"{'whole ' if kind is Integral else ''}number, got {value!r}")
        _require(self.predict_draws >= 1, "predict_draws must be at least 1")
        _require(self.svm_epochs >= 1, "svm_epochs must be at least 1")
        _require(self.svm_reg > 0.0, "svm_reg must be positive")
        _require(self.repetitions >= 1, "repetitions must be at least 1")
        _require(self.rng_seed >= 0, "rng_seed must be nonnegative")
        _require(isinstance(self.persist_posteriors, bool),
                 "persist_posteriors must be true or false")

    @property
    def effective_random_size(self) -> int:
        return self.random_size if self.random_size else min(self.budgets)

    @property
    def n_datasets(self) -> int:
        if isinstance(self.source, SyntheticSpec):
            return self.source.n_datasets
        return len(self.source.paths)

    def to_dict(self) -> dict:
        """The config's JSON form, the one from_dict reads."""
        out = asdict(self)
        kind = "synthetic" if isinstance(self.source, SyntheticSpec) else "csv"
        out["source"] = {"kind": kind, **out["source"]}
        out["svm"] = {"epochs": out.pop("svm_epochs"), "reg": out.pop("svm_reg")}
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(_FIELD_KEYS) - set(_SECTION_KEYS)
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        _require(isinstance(raw.get("source"), dict),
                 "config needs a source section, a JSON object")
        for name in ("stream", "hmc", "svm"):
            _require(isinstance(raw.get(name) or {}, dict),
                     f"{name} section must be a JSON object")
        # Wrong value types surface as TypeError/ValueError from the
        # conversions and the spec checks below.
        try:
            return cls._from_sections(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    @classmethod
    def _from_sections(cls, raw: dict) -> "ExperimentConfig":
        source_raw = dict(raw["source"])
        kind = source_raw.pop("kind", None)
        if kind == "synthetic":
            source: SyntheticSpec | CsvSpec = SyntheticSpec(**source_raw)
        elif kind == "csv":
            source_raw["paths"] = tuple(source_raw.get("paths", ()))
            columns = source_raw.get("feature_columns")
            source_raw["feature_columns"] = tuple(columns) if columns else None
            source = CsvSpec(**source_raw)
        else:
            raise ConfigError(f"source kind must be synthetic or csv, got {kind!r}")

        stream = None
        if raw.get("stream"):
            stream_raw = dict(raw["stream"])
            stream_raw["modes"] = tuple(stream_raw.get("modes", ()))
            stream_raw["batch_paths"] = tuple(stream_raw.get("batch_paths", ()))
            stream_raw["test_paths"] = tuple(stream_raw.get("test_paths", ()))
            stream = StreamSpec(**stream_raw)

        settings = {name: convert(raw[name])
                    for name, convert in _FIELD_KEYS.items() if name in raw}
        svm = raw.get("svm") or {}
        unknown = set(svm) - set(_SVM_KEYS)
        _require(not unknown, f"unknown svm settings: {sorted(unknown)}")
        settings.update({f"svm_{key}": _SVM_KEYS[key](value)
                         for key, value in svm.items()})
        return cls(source=source, stream=stream, **settings)


# Top-level config keys that set one field each, with the conversion of
# their JSON value. Only the keys a config holds are passed, so each default
# lives in the dataclass alone. "parallelism" is retired; older configs and
# run directories still carry it, so it is accepted and ignored.
_FIELD_KEYS = {
    "embedding_dim": int,
    "budgets": lambda budgets: tuple(int(m) for m in budgets),
    "random_size": lambda size: None if size is None else int(size),
    "weighting": str,
    "hmc": lambda hmc: dict(hmc or {}),
    "predict_draws": int,
    "repetitions": int,
    "rng_seed": int,
    "persist_posteriors": lambda flag: flag,
}
_SECTION_KEYS = ("source", "svm", "stream", "parallelism")
_SVM_KEYS = {"epochs": int, "reg": float}


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return ExperimentConfig.from_dict(raw)


# --------------------------------------------------------------------------
# Results tables. The CSV written here is the source of truth for reports;
# kinds drive both formatting and parsing so a round trip is exact.

OFFLINE_COLUMNS = (
    ("dataset", "int"), ("condition", "str"), ("repetition", "int"),
    ("accuracy", "float"), ("train_seconds", "float"),
    ("reduce_seconds", "float"), ("entries", "int"),
    ("minority_entries", "int"), ("residual_norm", "float"),
    ("relative_error", "float"), ("storage_bytes", "int"),
    ("full_bytes", "int"), ("acceptance_rate", "float"),
    ("step_size", "float"), ("n_divergent", "int"),
    ("weight_rescale", "float"), ("error", "str"),
)

STREAM_COLUMNS = (
    ("mode", "str"), ("budget", "int"), ("repetition", "int"),
    ("step", "int"), ("stored_samples", "int"),
    ("reduction_seconds", "float"), ("training_seconds", "float"),
    ("accuracy", "float"), ("eval_samples", "int"),
    ("acceptance_rate", "float"), ("n_divergent", "int"), ("error", "str"),
)


def _format_cell(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == "float":
        return repr(float(value))
    if kind == "int":
        return str(int(value))
    return str(value)


def _parse_cell(text: str, kind: str):
    if text == "":
        return None if kind != "str" else ""
    if kind == "float":
        return float(text)
    if kind == "int":
        return int(text)
    return text


def write_rows(path: Path, rows: list[dict], columns) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([name for name, _ in columns])
        for row in rows:
            writer.writerow(
                [_format_cell(row.get(name), kind) for name, kind in columns])


def read_rows(path: Path, columns) -> list[dict]:
    expected = [name for name, _ in columns]
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != expected:
            raise DataError(f"{path}: unexpected results header {header}")
        return [
            {name: _parse_cell(cell, kind)
             for (name, kind), cell in zip(columns, row)}
            for row in reader
        ]


def _environment() -> dict:
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "timing_note": _TIMING_NOTE,
    }


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


# --------------------------------------------------------------------------
# Offline experiment.


@dataclass(frozen=True)
class _PreparedDataset:
    index: int
    train: Dataset
    train_std: Dataset
    test_std: Dataset
    minority_label: float
    train_bytes: int
    coresets: dict  # condition name -> (Coreset, storage_bytes)


def _dataset_pair(config: ExperimentConfig,
                  index: int) -> tuple[Dataset, Dataset, int]:
    """Train and test splits of one dataset, and the CSV rows dropped."""
    root = config.rng_seed
    src = config.source
    if isinstance(src, SyntheticSpec):
        pool = generate_synthetic(
            src.train_pos + src.test_pos, src.train_neg + src.test_neg,
            src.features, src.separation, derive_seed(root, "data", index))
        train, rest = stratified_split(
            pool, src.train_pos, src.train_neg, derive_seed(root, "split", index))
        return train, rest, 0
    # Real capture files carry unreadable rows; they are tolerated and
    # counted in the train split's provenance.
    data, dropped = ingest_csv(src.paths[index], src.schema())
    train, rest = stratified_split(
        data, src.train_pos, src.train_neg, derive_seed(root, "split", index))
    test, _ = stratified_split(
        rest, src.test_pos, src.test_neg, derive_seed(root, "testsplit", index))
    return train, test, dropped


def _save_splits(config: ExperimentConfig, index: int, train: Dataset,
                 test: Dataset, dropped: int, train_text: str,
                 out: Path) -> list[Path]:
    """Write one dataset's splits under out/datasets with provenance."""
    datasets_dir = out / "datasets"
    train_path = datasets_dir / f"ds{index}_train.csv"
    test_path = datasets_dir / f"ds{index}_test.csv"
    save_dataset(train, train_path, text=train_text,
                 provenance={"role": "train", "dataset": index,
                             "rng_seed": config.rng_seed,
                             "dropped_rows": dropped})
    save_dataset(test, test_path,
                 provenance={"role": "test", "dataset": index,
                             "rng_seed": config.rng_seed})
    return [train_path, test_path]


def prepare_datasets(config: ExperimentConfig,
                     out_dir: str | Path) -> list[Path]:
    """Materialize the train/test splits the offline grid would use."""
    written: list[Path] = []
    for index in range(config.n_datasets):
        train, test, dropped = _dataset_pair(config, index)
        written.extend(_save_splits(config, index, train, test, dropped,
                                    dataset_csv_text(train), Path(out_dir)))
    return written


def _prepare_dataset(config: ExperimentConfig, index: int,
                     out: Path | None) -> _PreparedDataset:
    """Everything reps share for one dataset: splits, embedding, coresets."""
    root = config.rng_seed
    train, test, dropped = _dataset_pair(config, index)

    pos = int(np.sum(train.y == 1.0))
    minority_label = 1.0 if pos <= train.n - pos else -1.0

    params = fit_standardization(train)
    train_std = apply_standardization(train, params)
    test_std = apply_standardization(test, params)

    train_text = dataset_csv_text(train)
    train_bytes = len(train_text.encode())
    if out is not None:
        _save_splits(config, index, train, test, dropped, train_text, out)

    basis = build_projection_basis(
        train_std, config.embedding_dim, derive_seed(root, "basis", index),
        weighting=config.weighting)
    embedding = embed_log_likelihoods(train_std, basis)

    batch_id = f"ds{index}"
    coresets: dict[str, tuple[Coreset, int]] = {}

    def store(name: str, built: Coreset) -> None:
        # What retraining from the condensed form needs: entry list with
        # weights plus the referenced raw rows. Construction diagnostics
        # carry wall-clock noise and are excluded from the byte count.
        essential = {k: v for k, v in built.to_dict().items()
                     if k != "construction"}
        x, y, _ = materialize(built, {batch_id: train})
        rows = Dataset(x, y)
        rows_text = dataset_csv_text(rows)
        storage = (len(json.dumps(essential, indent=2).encode())
                   + len(rows_text.encode()))
        if out is not None:
            stem = f"ds{index}_{name}"
            save_coreset(built, out / "coresets" / f"{stem}.json")
            save_dataset(rows, out / "coresets" / f"{stem}_rows.csv",
                         text=rows_text,
                         provenance={"role": "coreset_rows",
                                     "dataset": index, "name": name})
        coresets[name] = (built, storage)

    for m in config.budgets:
        store(f"giga_m{m}", giga_construct(embedding, m, batch_id=batch_id))
    size = min(config.effective_random_size, train.n)
    store("random",
          random_construct(train.n, size, derive_seed(root, "randcs", index),
                           batch_id=batch_id))

    return _PreparedDataset(
        index=index, train=train, train_std=train_std,
        test_std=test_std, minority_label=minority_label,
        train_bytes=train_bytes, coresets=coresets)


def _run_trial(config: ExperimentConfig, prepared: _PreparedDataset,
               condition: str, rep: int, out: Path | None) -> dict:
    root = config.rng_seed
    index = prepared.index
    row: dict = {"dataset": index, "condition": condition, "repetition": rep,
                 "error": ""}
    try:
        if condition == "svm":
            started = time.perf_counter()
            theta = svm_train(prepared.train_std, epochs=config.svm_epochs,
                              reg=config.svm_reg,
                              rng_seed=derive_seed(root, "svm", index, rep))
            row["train_seconds"] = time.perf_counter() - started
            row["accuracy"] = svm_accuracy(theta, prepared.test_std)
            return row

        if condition == "blr_full":
            model = WeightedBLRModel.from_dataset(prepared.train_std)
            tag = "full"
        else:
            # blr_random -> "random", blr_coreset_m<m> -> "m<m>" (giga_m<m>).
            tag = condition.removeprefix("blr_").removeprefix("coreset_")
            built, storage = prepared.coresets[
                tag if tag == "random" else f"giga_{tag}"]
            model = WeightedBLRModel(
                *materialize(built, {f"ds{index}": prepared.train_std}))
            row.update(_coreset_fields(prepared, built, storage))

        started = time.perf_counter()
        posterior = hmc_sample(
            model, rng_seed=derive_seed(root, "hmc", index, tag, rep),
            **config.hmc)
        row["train_seconds"] = time.perf_counter() - started
        draws = min(config.predict_draws, posterior.n_draws)
        row["accuracy"] = accuracy(posterior, prepared.test_std, n_draws=draws)
        row["acceptance_rate"] = posterior.acceptance_rate
        row["step_size"] = posterior.step_size
        row["n_divergent"] = posterior.n_divergent
        row["weight_rescale"] = posterior.weight_rescale
        if out is not None and config.persist_posteriors:
            posterior_dir = out / "posteriors"
            posterior_dir.mkdir(parents=True, exist_ok=True)
            save_posterior(posterior,
                           posterior_dir / f"ds{index}_{condition}_rep{rep}")
    except FlowCoresetError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        row["accuracy"] = None
    return row


def _coreset_fields(prepared: _PreparedDataset, built: Coreset,
                    storage: int) -> dict:
    rows = built.row_indices
    minority = int(np.sum(prepared.train.y[rows] == prepared.minority_label))
    fields = {
        "entries": built.size,
        "minority_entries": minority,
        "storage_bytes": storage,
        "full_bytes": prepared.train_bytes,
    }
    if built.construction is not None:
        fields["reduce_seconds"] = built.construction.wall_clock_seconds
        fields["residual_norm"] = built.construction.residual_norm
        fields["relative_error"] = built.construction.relative_error
    return fields


def offline_conditions(config: ExperimentConfig) -> list[str]:
    return (["svm", "blr_full", "blr_random"]
            + [f"blr_coreset_m{m}" for m in config.budgets])


def run_offline(config: ExperimentConfig, out_dir: str | Path | None) -> dict:
    """Run the full offline grid; returns the report dict.

    With an output directory, persists datasets, coresets, optional
    posteriors, results.csv, report.json, report.csv, and the resolved
    config.
    """
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")

    conditions = offline_conditions(config)
    rows: list[dict] = []
    for index in range(config.n_datasets):
        prepared = _prepare_dataset(config, index, out)
        rows.extend(_run_trial(config, prepared, condition, rep, out)
                    for rep in range(config.repetitions)
                    for condition in conditions)

    if out is not None:
        write_rows(out / "results.csv", rows, OFFLINE_COLUMNS)
        report = _offline_report(read_rows(out / "results.csv",
                                           OFFLINE_COLUMNS),
                                 config.to_dict())
        _write_report(out, report, "report")
        return report
    return _offline_report(rows, config.to_dict())


def _offline_report(rows: list[dict], config_dict: dict) -> dict:
    """Aggregate trial rows; deviations are over repetitions per dataset."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["dataset"], row["condition"]), []).append(row)

    conditions = []
    by_condition: dict[str, list[float]] = {}
    for (dataset, condition) in sorted(groups, key=lambda k: (k[0], k[1])):
        group = groups[(dataset, condition)]
        ok = [r for r in group if not r["error"]]
        accs = [r["accuracy"] for r in ok if r["accuracy"] is not None]
        mean_acc, std_acc = _mean_std(accs)
        times = [r["train_seconds"] for r in ok
                 if r.get("train_seconds") is not None]
        entry = {
            "dataset": dataset,
            "condition": condition,
            "trials": len(group),
            "failures": len(group) - len(ok),
            "errors": sorted({r["error"] for r in group if r["error"]}),
            "mean_accuracy": mean_acc,
            "std_accuracy": std_acc,
            "mean_train_seconds": (float(np.mean(times)) if times else None),
        }
        sample = next((r for r in ok if r.get("entries") is not None), None)
        if sample is not None:
            entry["entries"] = sample["entries"]
            entry["minority_entries"] = sample["minority_entries"]
            entry["residual_norm"] = sample["residual_norm"]
            entry["relative_error"] = sample["relative_error"]
            entry["reduce_seconds"] = sample["reduce_seconds"]
            entry["storage_bytes"] = sample["storage_bytes"]
            entry["full_bytes"] = sample["full_bytes"]
        conditions.append(entry)
        by_condition.setdefault(condition, []).extend(accs)

    grand = {condition: _mean_std(values)[0]
             for condition, values in sorted(by_condition.items())}
    return {
        "kind": "offline",
        "config": config_dict,
        "environment": _environment(),
        "conditions": conditions,
        "grand_mean_accuracy": grand,
    }


# --------------------------------------------------------------------------
# Streaming experiment.


def _stream_arrivals(config: ExperimentConfig, rep: int):
    """Batches and test sets for one repetition, shared across arms."""
    spec = config.stream
    root = config.rng_seed
    if spec.batch_paths:
        batches = []
        tests = []
        for j, (bpath, tpath) in enumerate(zip(spec.batch_paths,
                                               spec.test_paths)):
            batches.append((f"t{j}", load_dataset(bpath)[0]))
            tests.append(load_dataset(tpath)[0])
        return tuple(batches), tuple(tests)
    src = config.source
    if not isinstance(src, SyntheticSpec):
        raise ConfigError("synthetic stream batches need a synthetic source")
    steps = spec.n_batches
    pool = generate_synthetic(
        steps * (spec.batch_pos + spec.test_pos),
        steps * (spec.batch_neg + spec.test_neg),
        src.features, src.separation,
        derive_seed(root, "stream", "pool", rep))
    batches, tests = [], []
    remainder = pool
    for j in range(steps):
        batch, remainder = stratified_split(
            remainder, spec.batch_pos, spec.batch_neg,
            derive_seed(root, "stream", "batch", rep, j))
        test, remainder = stratified_split(
            remainder, spec.test_pos, spec.test_neg,
            derive_seed(root, "stream", "test", rep, j))
        batches.append((f"t{j}", batch))
        tests.append(test)
    return tuple(batches), tuple(tests)


def stream_arms(config: ExperimentConfig,
                mode_override: str | None = None) -> list[tuple[str, int | None]]:
    spec = config.stream
    if spec is None:
        raise ConfigError("config has no stream section")
    modes = (mode_override,) if mode_override else spec.modes
    arms: list[tuple[str, int | None]] = []
    for mode in modes:
        if mode == "pool_full":
            arms.append((mode, None))
        else:
            arms.extend((mode, m) for m in config.budgets)
    return arms


def run_stream_experiment(
    config: ExperimentConfig, out_dir: str | Path | None,
    mode_override: str | None = None,
) -> tuple[dict, list[dict]]:
    """Run every stream arm for every repetition.

    Returns (report, arm_records); arm_records keeps the in-memory
    StepRecords (with their coresets) for callers that inspect
    construction diagnostics.
    """
    arms = stream_arms(config, mode_override)

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")

    rows: list[dict] = []
    arm_records: list[dict] = []
    for rep in range(config.repetitions):
        batches, tests = _stream_arrivals(config, rep)
        for mode, budget in arms:
            plan = StreamPlan(
                batches=batches, test_sets=tests, mode=mode,
                coreset_budget=budget or 1,
                embedding_dim=config.embedding_dim,
                rng_seed=derive_seed(config.rng_seed, "stream", "arm", rep,
                                     mode, budget or 0),
                weighting=config.weighting,
                eval_scope=config.stream.eval_scope,
                hmc=config.hmc, predict_draws=config.predict_draws,
            )
            try:
                records = run_stream(plan)
            except FlowCoresetError as exc:
                rows.append({"mode": mode, "budget": budget,
                             "repetition": rep, "step": None,
                             "error": f"{type(exc).__name__}: {exc}"})
                continue
            arm_records.append({"mode": mode, "budget": budget,
                                "repetition": rep, "records": records})
            for record in records:
                rows.append(_stream_row(record, mode, budget, rep))

    if out is not None:
        write_rows(out / "stream_results.csv", rows, STREAM_COLUMNS)
        report = _stream_report(
            read_rows(out / "stream_results.csv", STREAM_COLUMNS),
            config.to_dict())
        _write_report(out, report, "stream_report")
        return report, arm_records
    return _stream_report(rows, config.to_dict()), arm_records


def _stream_row(record: StepRecord, mode: str, budget: int | None,
                rep: int) -> dict:
    diag = record.model_diagnostics
    return {
        "mode": mode, "budget": budget, "repetition": rep,
        "step": record.step, "stored_samples": record.stored_samples,
        "reduction_seconds": record.reduction_seconds,
        "training_seconds": record.training_seconds,
        "accuracy": record.accuracy, "eval_samples": record.eval_samples,
        "acceptance_rate": diag.get("acceptance_rate"),
        "n_divergent": diag.get("n_divergent"), "error": "",
    }


def _stream_report(rows: list[dict], config_dict: dict) -> dict:
    groups: dict[tuple, list[dict]] = {}
    failures = []
    for row in rows:
        if row.get("error"):
            failures.append({"mode": row["mode"], "budget": row["budget"],
                             "repetition": row["repetition"],
                             "error": row["error"]})
            continue
        groups.setdefault((row["mode"], row["budget"]), []).append(row)

    arms = []
    for (mode, budget) in sorted(groups,
                                 key=lambda k: (k[0], k[1] if k[1] else 0)):
        group = groups[(mode, budget)]
        steps = []
        for step in sorted({row["step"] for row in group}):
            at = [row for row in group if row["step"] == step]
            mean_acc, std_acc = _mean_std([row["accuracy"] for row in at])
            steps.append({
                "step": step,
                "trials": len(at),
                "mean_accuracy": mean_acc,
                "std_accuracy": std_acc,
                "mean_stored_samples": float(np.mean(
                    [row["stored_samples"] for row in at])),
                "mean_training_seconds": float(np.mean(
                    [row["training_seconds"] for row in at])),
                "mean_reduction_seconds": float(np.mean(
                    [row["reduction_seconds"] for row in at])),
            })
        arms.append({"mode": mode, "budget": budget, "steps": steps})

    stream_cfg = config_dict.get("stream") or {}
    return {
        "kind": "stream",
        "config": config_dict,
        "environment": _environment(),
        "eval_scope": stream_cfg.get("eval_scope", "union"),
        "arms": arms,
        "failures": failures,
    }


# --------------------------------------------------------------------------
# Report files and regeneration.


def _write_report(out: Path, report: dict, stem: str,
                  fmt: str = "both") -> list[Path]:
    written = []
    if fmt in ("json", "both"):
        path = out / f"{stem}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        written.append(path)
    if fmt not in ("csv", "both"):
        return written

    table = report["conditions"] if report["kind"] == "offline" else [
        {"mode": arm["mode"], "budget": arm["budget"], **step}
        for arm in report["arms"] for step in arm["steps"]
    ]
    path = out / f"{stem}.csv"
    written.append(path)
    if not table:
        path.write_text("")
        return written
    names = sorted({key for row in table for key in row})
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in table:
            cells = []
            for name in names:
                value = row.get(name)
                if value is None:
                    cells.append("")
                elif isinstance(value, float):
                    cells.append(repr(value))
                elif isinstance(value, list):
                    cells.append(json.dumps(value))
                else:
                    cells.append(str(value))
            writer.writerow(cells)
    return written


def regenerate_report(run_dir: str | Path, fmt: str = "both") -> list[Path]:
    """Rebuild report files from persisted results without recomputation.

    The results CSVs and the stored config are the only inputs, so repeated
    invocations produce byte-identical reports. Returns the written paths.
    """
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"unknown report format {fmt!r}")
    run = Path(run_dir)
    config_path = run / "config.json"
    offline_path = run / "results.csv"
    stream_path = run / "stream_results.csv"
    if not run.is_dir():
        raise DataError(f"run directory not found: {run}")
    missing = [str(p) for p in (config_path,) if not p.exists()]
    if not offline_path.exists() and not stream_path.exists():
        missing.extend([f"{offline_path} or {stream_path}"])
    if missing:
        raise DataError("missing run artifacts: " + ", ".join(missing))
    config_dict = json.loads(config_path.read_text())

    written: list[Path] = []
    jobs = []
    if offline_path.exists():
        jobs.append(("report", _offline_report(
            read_rows(offline_path, OFFLINE_COLUMNS), config_dict)))
    if stream_path.exists():
        jobs.append(("stream_report", _stream_report(
            read_rows(stream_path, STREAM_COLUMNS), config_dict)))
    for stem, report in jobs:
        written.extend(_write_report(run, report, stem, fmt))
    return written
