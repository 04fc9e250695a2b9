"""Experiment grids: the offline benchmark and the streaming benchmark.

The offline runner trains an SVM baseline, full-data BLR, a random-subset
BLR baseline, and one coreset BLR per budget on each dataset, repeating
every training with fresh seeds. The streaming runner replays the same
batches through each requested reduction mode. Both write a trial-level
results CSV (the source of truth), and the report files are derived from
that CSV alone, so regenerating a report never recomputes anything and is
byte-identical across invocations. Both take a coreset's reduction
seconds from `coreset.compress` and a model's training seconds from
`inference.sample_and_score`, so the two grids define them alike.

Every random draw descends from the config's root seed through named
derivation paths, so two runs with the same config agree everywhere except
wall-clock fields.
"""

from __future__ import annotations

import csv
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .coreset import Coreset, compress, materialize, random_construct, save_coreset
from .data import (
    CsvSchema,
    Dataset,
    apply_standardization,
    dataset_csv_text,
    generate_synthetic,
    ingest_csv,
    load_dataset,
    load_json,
    save_dataset,
    stratified_split,
)
from .embed import WEIGHTING_LAPLACE, WEIGHTING_PRIOR
from .errors import ConfigError, DataError, FlowCoresetError, shown
from .inference import (
    WeightedBLRModel,
    check_sampler_settings,
    sample_and_score,
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


def _require_count(value, name: str, least: int = 1):
    """A whole-number setting of at least `least`: floats, strings and bools
    are refused, never truncated or parsed."""
    _require(isinstance(value, Integral) and not isinstance(value, bool)
             and value >= least,
             f"{name} must be a whole number >= {least}, got {shown(value)}")


def _require_real(value, name: str, positive: bool = False):
    """A real setting float64 holds, >= 0 or, if `positive`, > 0: bools,
    strings, NaN and infinities are refused."""
    _require(isinstance(value, Real) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max
             and (value > 0 if positive else value >= 0),
             f"{name} must be a finite number {'>' if positive else '>='} 0, "
             f"got {shown(value)}")


def _require_names(value, name: str, empty: bool = False):
    """A JSON list of strings, nonempty unless `empty`: a bare string is
    refused, never split into characters."""
    _require(isinstance(value, tuple) and (empty or len(value) >= 1)
             and all(isinstance(item, str) for item in value),
             f"{name} must be a {'' if empty else 'nonempty '}list of strings, "
             f"got {shown(value)}")


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
        for name in ("n_datasets", "train_pos", "train_neg", "test_pos",
                     "test_neg", "features"):
            _require_count(getattr(self, name), name)
        _require_real(self.separation, "separation")


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
        _require_names(self.paths, "paths")
        _require(isinstance(self.label_column, str),
                 f"label_column must be a string, got {shown(self.label_column)}")
        _require(isinstance(self.label_map, dict),
                 f"label_map must be a JSON object, got {shown(self.label_map)}")
        if self.feature_columns is not None:
            _require_names(self.feature_columns, "feature_columns")
        for name in ("train_pos", "train_neg", "test_pos", "test_neg"):
            _require_count(getattr(self, name), name)
        try:
            self.schema()
        except DataError as exc:
            raise ConfigError(str(exc)) from None

    def schema(self) -> CsvSchema:
        return CsvSchema(self.feature_columns, self.label_column, self.label_map)


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
        _require_names(self.modes, "modes")
        for mode in self.modes:
            _require(mode in MODES, f"unknown stream mode {shown(mode)}")
        _require(self.eval_scope in EVAL_SCOPES,
                 f"unknown eval scope {shown(self.eval_scope)}")
        _require_names(self.batch_paths, "batch_paths", empty=True)
        _require_names(self.test_paths, "test_paths", empty=True)
        if self.batch_paths:
            _require(len(self.batch_paths) == len(self.test_paths),
                     "need one test path per batch path")
        else:
            for name in ("n_batches", "batch_pos", "batch_neg", "test_pos",
                         "test_neg"):
                _require_count(getattr(self, name), name)


@dataclass(frozen=True)
class SvmSpec:
    """The SVM baseline's regularizer weight."""

    reg: float = 1e-3

    def __post_init__(self):
        _require_real(self.reg, "svm.reg", positive=True)


@dataclass(frozen=True)
class ExperimentConfig:
    source: SyntheticSpec | CsvSpec
    embedding_dim: int = 500
    budgets: tuple[int, ...] = (100, 500, 1000)
    random_size: int | None = None
    weighting: str = WEIGHTING_LAPLACE
    hmc: dict = field(default_factory=dict)
    predict_draws: int = 1000
    svm: SvmSpec = field(default_factory=SvmSpec)
    repetitions: int = 1
    rng_seed: int = 0
    persist_posteriors: bool = False
    stream: StreamSpec | None = None

    def __post_init__(self):
        _require_count(self.embedding_dim, "embedding_dim")
        _require(isinstance(self.budgets, tuple) and len(self.budgets) >= 1,
                 f"budgets must be a nonempty list, got {shown(self.budgets)}")
        for budget in self.budgets:
            _require_count(budget, "each budget")
        _require(list(self.budgets) == sorted(set(self.budgets)),
                 "budgets must be strictly ascending")
        if self.random_size is not None:
            _require_count(self.random_size, "random_size")
        _require(self.weighting in (WEIGHTING_LAPLACE, WEIGHTING_PRIOR),
                 f"unknown weighting {shown(self.weighting)}")
        _require(isinstance(self.hmc, dict), "hmc must be a JSON object")
        check_sampler_settings(self.hmc)
        _require_count(self.predict_draws, "predict_draws")
        _require_count(self.repetitions, "repetitions")
        _require_count(self.rng_seed, "rng_seed", least=0)
        _require(isinstance(self.persist_posteriors, bool),
                 "persist_posteriors must be true or false")
        _require(self.stream is None or bool(self.stream.batch_paths)
                 or isinstance(self.source, SyntheticSpec),
                 "synthetic stream batches need a synthetic source")

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
        return out

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """Read the JSON form: `_section` reads each section and its spec
        checks every field. A null or empty hmc, svm or stream means none.
        A TypeError or ValueError the checks let through, such as a missing
        source count, still ends as a ConfigError."""
        try:
            settings = _section(cls, raw, "config")
            source = settings.get("source")
            kind = source.get("kind") if isinstance(source, dict) else None
            spec = {"synthetic": SyntheticSpec, "csv": CsvSpec}.get(kind)
            _require(spec is not None, "source must be a JSON object of kind "
                     f"synthetic or csv, got kind {shown(kind)}")
            source = {key: source[key] for key in source if key != "kind"}
            svm, stream = settings.get("svm") or {}, settings.get("stream")
            settings["source"] = spec(**_section(spec, source, "source"))
            settings["svm"] = SvmSpec(**_section(SvmSpec, svm, "svm"))
            settings["stream"] = (
                StreamSpec(**_section(StreamSpec, stream, "stream"))
                if stream else None)
            settings["hmc"] = settings.get("hmc") or {}
            return cls(**settings)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc


# Retired keys, as "section.key", or "key" at the top level. Older configs
# and run directories still carry them, so each is accepted as the whole
# number >= 1 it had to be while it was live, then dropped.
_RETIRED = ("parallelism", "svm.epochs")


def _section(cls, raw, name: str) -> dict:
    """The keyword arguments config section `name` gives `cls`.

    The section must be a JSON object whose keys are fields of `cls` or
    retired keys. Its JSON lists, and only those, become tuples; every other
    value passes as JSON gave it, for `cls` to check.
    """
    _require(isinstance(raw, dict), f"{name} must be a JSON object")
    prefix = "" if name == "config" else f"{name}."
    settings = {}
    for key, value in raw.items():
        if prefix + key in _RETIRED:
            _require_count(value, prefix + key)
        else:
            settings[key] = tuple(value) if isinstance(value, list) else value
    unknown = sorted(set(settings) - {spec.name for spec in fields(cls)})
    _require(not unknown, f"unknown {name} keys: {unknown}")
    return settings


def load_config(name: str | Path) -> ExperimentConfig:
    """The config in the JSON file `name`, or else the packaged config of
    that name (sim1, sim2)."""
    path = Path(name)
    if not path.is_file():
        path = resources.files("flowcoreset") / "configs" / f"{name}.json"
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config {str(name)!r} is neither a JSON file nor a "
                          f"packaged config ({exc})") from exc
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
    ("step_size", "float"), ("n_divergent", "int"), ("error", "str"),
)

STREAM_COLUMNS = (
    ("mode", "str"), ("budget", "int"), ("repetition", "int"),
    ("step", "int"), ("stored_samples", "int"),
    ("reduction_seconds", "float"), ("training_seconds", "float"),
    ("accuracy", "float"), ("eval_samples", "int"),
    ("acceptance_rate", "float"), ("n_divergent", "int"), ("error", "str"),
)


def _format_cell(value, kind: str = "str") -> str:
    """One CSV cell; report tables pass no kind, so floats go by repr and
    lists as JSON."""
    if value is None:
        return ""
    if kind == "int":
        return str(int(value))
    if kind == "float" or isinstance(value, float):
        return repr(float(value))
    if isinstance(value, list):
        return json.dumps(value)
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
    """Rows of a results CSV, by header name; extra columns are ignored, so
    files written by older versions still read."""
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle, restval="")
        missing = [name for name, _ in columns
                   if name not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"{path}: results header lacks {missing}")
        rows = []
        for row in reader:
            rows.append({})
            for name, kind in columns:
                try:
                    rows[-1][name] = _parse_cell(row[name], kind)
                except ValueError:
                    raise DataError(f"{path}: line {reader.line_num}, column "
                                    f"{name}: {row[name]!r} is not {kind}"
                                    ) from None
        return rows


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
    coresets: dict  # coreset name -> (Coreset, its CORESET_FIELDS)
    models: dict  # BLR condition -> (HMC seed tag, model, CORESET_FIELDS or {})


# What a coreset condition's results row carries beyond the trial itself.
CORESET_FIELDS = ("entries", "minority_entries", "storage_bytes", "full_bytes",
                  "reduce_seconds", "residual_norm", "relative_error")


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
    """Everything reps share for one dataset: splits, coresets, models."""
    root = config.rng_seed
    train, test, dropped = _dataset_pair(config, index)

    pos = int(np.sum(train.y == 1.0))
    minority_label = 1.0 if pos <= train.n - pos else -1.0

    batch_id = f"ds{index}"
    params, train_std, gigas = compress(
        train, config.budgets, config.embedding_dim,
        derive_seed(root, "basis", index), config.weighting, batch_id)
    test_std = apply_standardization(test, params)

    train_text = dataset_csv_text(train)
    full_bytes = len(train_text.encode())
    if out is not None:
        _save_splits(config, index, train, test, dropped, train_text, out)

    coresets: dict[str, tuple[Coreset, dict]] = {}
    models = {"blr_full": ("full", WeightedBLRModel.from_dataset(train_std), {})}

    def store(name: str, condition: str, tag: str, built: Coreset) -> None:
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
        diag = built.construction
        fields = {
            "entries": built.size,
            "minority_entries": int(np.sum(
                train.y[built.row_indices] == minority_label)),
            "storage_bytes": storage,
            "full_bytes": full_bytes,
            "reduce_seconds": diag.wall_clock_seconds,
            "residual_norm": diag.residual_norm,
            "relative_error": diag.relative_error,
        }
        coresets[name] = (built, fields)
        models[condition] = (tag, WeightedBLRModel(
            *materialize(built, {batch_id: train_std})), fields)

    for m, giga in zip(config.budgets, gigas):
        store(f"giga_m{m}", f"blr_coreset_m{m}", f"m{m}", giga)
    size = min(config.effective_random_size, train.n)
    store("random", "blr_random", "random",
          random_construct(train.n, size, derive_seed(root, "randcs", index),
                           batch_id=batch_id))

    return _PreparedDataset(
        index=index, train=train, train_std=train_std, test_std=test_std,
        minority_label=minority_label, coresets=coresets, models=models)


def _run_trial(config: ExperimentConfig, prepared: _PreparedDataset,
               condition: str, rep: int, out: Path | None) -> dict:
    index = prepared.index
    row: dict = {"dataset": index, "condition": condition, "repetition": rep,
                 "error": ""}
    try:
        if condition == "svm":
            started = time.perf_counter()
            theta = svm_train(prepared.train_std, reg=config.svm.reg)
            row["train_seconds"] = time.perf_counter() - started
            row["accuracy"] = svm_accuracy(theta, prepared.test_std)
            return row

        tag, model, fields = prepared.models[condition]
        row.update(fields)
        posterior, row["train_seconds"], row["accuracy"] = sample_and_score(
            model, prepared.test_std,
            derive_seed(config.rng_seed, "hmc", index, tag, rep), config.hmc,
            config.predict_draws)
        row["acceptance_rate"] = posterior.acceptance_rate
        row["step_size"] = posterior.step_size
        row["n_divergent"] = posterior.n_divergent
        if out is not None and config.persist_posteriors:
            posterior_dir = out / "posteriors"
            posterior_dir.mkdir(parents=True, exist_ok=True)
            save_posterior(posterior,
                           posterior_dir / f"ds{index}_{condition}_rep{rep}")
    except FlowCoresetError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        row["accuracy"] = None
    return row


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
    report, _ = _finish_run(out, "offline", rows, config.to_dict())
    return report


def _offline_report(rows: list[dict], config_dict: dict) -> dict:
    """The offline report's own fields from its trial rows; deviations are
    over repetitions per dataset."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["dataset"], row["condition"]), []).append(row)

    conditions = []
    by_condition: dict[str, list[float]] = {}
    for (dataset, condition), group in sorted(groups.items()):
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
            entry.update({name: sample[name] for name in CORESET_FIELDS})
        conditions.append(entry)
        by_condition.setdefault(condition, []).extend(accs)

    grand = {condition: _mean_std(values)[0]
             for condition, values in sorted(by_condition.items())}
    return {"conditions": conditions, "grand_mean_accuracy": grand}


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


def run_stream_experiment(
    config: ExperimentConfig, out_dir: str | Path | None,
    mode_override: str | None = None,
) -> tuple[dict, list[dict]]:
    """Run every stream arm for every repetition.

    Each mode runs as one plan per repetition, seeded by the repetition
    and mode alone: the pool's one arm, or one arm per budget.
    Returns (report, arm_records); arm_records keeps the in-memory
    StepRecords (with their coresets) of each arm that finished, mode by
    mode and budget by budget, for callers that inspect construction
    diagnostics.
    """
    spec = config.stream
    if spec is None:
        raise ConfigError("config has no stream section")
    modes = (mode_override,) if mode_override else spec.modes

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")

    rows: list[dict] = []
    arm_records: list[dict] = []
    for rep in range(config.repetitions):
        batches, tests = _stream_arrivals(config, rep)
        for mode in modes:
            plan = StreamPlan(
                batches=batches, test_sets=tests, mode=mode,
                coreset_budgets=config.budgets,
                embedding_dim=config.embedding_dim,
                rng_seed=derive_seed(config.rng_seed, "stream", "arm", rep,
                                     mode, 0),
                weighting=config.weighting,
                eval_scope=spec.eval_scope,
                hmc=config.hmc, predict_draws=config.predict_draws,
            )
            errors: dict = {}
            records = run_stream(plan, errors)
            for budget in plan.budgets:
                if budget in errors:
                    exc = errors[budget]
                    rows.append({"mode": mode, "budget": budget,
                                 "repetition": rep, "step": None,
                                 "error": f"{type(exc).__name__}: {exc}"})
                    continue
                arm = [r for r in records if r.budget == budget]
                arm_records.append({"mode": mode, "budget": budget,
                                    "repetition": rep, "records": arm})
                rows.extend(_stream_row(record, rep) for record in arm)
    report, _ = _finish_run(out, "stream", rows, config.to_dict())
    return report, arm_records


def _stream_row(record: StepRecord, rep: int) -> dict:
    diag = record.model_diagnostics
    return {
        "mode": record.mode, "budget": record.budget, "repetition": rep,
        "step": record.step, "stored_samples": record.stored_samples,
        "reduction_seconds": record.reduction_seconds,
        "training_seconds": record.training_seconds,
        "accuracy": record.accuracy, "eval_samples": record.eval_samples,
        "acceptance_rate": diag.get("acceptance_rate"),
        "n_divergent": diag.get("n_divergent"), "error": "",
    }


# Stream columns a report step averages over its repetitions.
_STEP_MEANS = ("stored_samples", "training_seconds", "reduction_seconds")


def _stream_report(rows: list[dict], config_dict: dict) -> dict:
    """The stream report's own fields from its step rows."""
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
    for (mode, budget), group in sorted(
            groups.items(), key=lambda item: (item[0][0], item[0][1] or 0)):
        steps = []
        for step in sorted({row["step"] for row in group}):
            at = [row for row in group if row["step"] == step]
            mean_acc, std_acc = _mean_std([row["accuracy"] for row in at])
            steps.append({
                "step": step,
                "trials": len(at),
                "mean_accuracy": mean_acc,
                "std_accuracy": std_acc,
                **{f"mean_{name}": float(np.mean([row[name] for row in at]))
                   for name in _STEP_MEANS},
            })
        arms.append({"mode": mode, "budget": budget, "steps": steps})

    stream_cfg = config_dict.get("stream") or {}
    return {"eval_scope": stream_cfg.get("eval_scope", "union"),
            "arms": arms, "failures": failures}


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
            writer.writerow([_format_cell(row.get(name)) for name in names])
    return written


# Each grid's results file, its columns, its report builder and report stem.
_GRIDS = {
    "offline": ("results.csv", OFFLINE_COLUMNS, _offline_report, "report"),
    "stream": ("stream_results.csv", STREAM_COLUMNS, _stream_report,
               "stream_report"),
}


def _finish_run(out: Path | None, kind: str, rows: list[dict] | None,
                config_dict: dict, fmt: str = "both") -> tuple[dict, list[Path]]:
    """One grid's report, and the report files written.

    Without a run directory the report comes from the rows in memory. With
    one, the rows go to the results CSV (rows=None keeps the CSV already
    there) and the report is built from that file alone, so regenerating it
    gives the same bytes.
    """
    results, columns, build, stem = _GRIDS[kind]
    if out is not None:
        if rows is not None:
            write_rows(out / results, rows, columns)
        rows = read_rows(out / results, columns)
    report = {"kind": kind, "config": config_dict,
              "environment": _environment(), **build(rows, config_dict)}
    if out is None:
        return report, []
    return report, _write_report(out, report, stem, fmt)


def regenerate_report(run_dir: str | Path, fmt: str = "both") -> list[Path]:
    """Rebuild report files from persisted results without recomputation.

    The results CSVs and the stored config are the only inputs, so repeated
    invocations produce byte-identical reports. Returns the written paths.
    """
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"unknown report format {fmt!r}")
    run = Path(run_dir)
    config_dict = load_json(run / "config.json")
    kinds = [kind for kind, (results, *_) in _GRIDS.items()
             if (run / results).exists()]
    if not kinds:
        raise DataError(f"{run}: no " + " or ".join(
            results for results, *_ in _GRIDS.values()))
    return [path for kind in kinds
            for path in _finish_run(run, kind, None, config_dict, fmt)[1]]
