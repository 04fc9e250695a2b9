"""Network flow datasets: CSV ingestion, subsampling, standardization, synthesis.

Feature matrices are float64 throughout and labels live in {+1, -1}.
Cleaned datasets can be persisted as CSV plus a one-line JSON sidecar
holding provenance, so an experiment directory is self-describing.
"""

import csv
import json
import logging
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, require, shown

logger = logging.getLogger(__name__)

# Below this, a feature is considered constant and passes through unscaled.
_SCALE_FLOOR = 1e-12


@dataclass(frozen=True)
class Dataset:
    """An immutable labelled dataset.

    Attributes:
        x: feature matrix, shape (n, f), float64, all finite.
        y: label vector, shape (n,), values in {+1, -1}.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.x, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=np.float64))
        if x.ndim != 2:
            raise DataError(f"feature matrix must be 2-d, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise DataError(
                f"label vector shape {y.shape} does not match {x.shape[0]} rows"
            )
        if x.shape[1] < 1:
            raise DataError("datasets need at least one feature column")
        if not np.all(np.isfinite(x)):
            raise DataError("feature matrix contains non-finite values")
        if y.size and not np.all(np.isin(y, (-1.0, 1.0))):
            raise DataError("labels must be +1 or -1")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def f(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature affine transform fitted on a training set."""

    mean: np.ndarray
    scale: np.ndarray

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "StandardizationParams":
        return StandardizationParams(
            mean=np.asarray(d["mean"], dtype=np.float64),
            scale=np.asarray(d["scale"], dtype=np.float64),
        )


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion.

    Attributes:
        feature_columns: ordered feature column names, or None to use every
            non-label column in file order.
        label_column: name of the label column.
        label_map: raw label string -> +1 or -1.
    """

    feature_columns: list[str] | None
    label_column: str
    label_map: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for raw, mapped in self.label_map.items():  # 1, not true or 1.0
            require(type(mapped) is int and mapped in (-1, 1),
                    f"label_map[{shown(raw)}] must be +1 or -1, got {shown(mapped)}")


def ingest_csv(path: str | Path, schema: CsvSchema) -> tuple[Dataset, int]:
    """Load a labelled flow dataset from a headered CSV file.

    Cells and header names are read stripped of surrounding whitespace.
    Rows with any missing feature value (empty, NaN, or infinite cells) are
    deleted whole, once every row's cells are in one float64 buffer.

    Args:
        path: CSV file with a header row.
        schema: column mapping; see CsvSchema.

    Returns:
        (dataset, n_dropped) where n_dropped counts deleted rows.

    Raises:
        DataError: missing file or columns, a label or listed feature column
            the header repeats, unmapped label values, ragged or
            non-numeric rows.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such CSV file")
    cells = array("d")
    labels = array("d")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [name.strip() for name in header]
        label_name = schema.label_column.strip()
        listed = [name.strip() for name in schema.feature_columns or ()]
        missing = [name for name in listed + [label_name] if name not in header]
        if missing:
            raise DataError(f"{path}: columns missing from header: {missing}")
        repeated = [name for name in listed + [label_name] if header.count(name) > 1]
        if repeated:
            raise DataError(f"{path}: columns repeated in header: {repeated}")
        label_idx = header.index(label_name)
        feat_idx = ([i for i in range(len(header)) if i != label_idx]
                    if schema.feature_columns is None else list(map(header.index, listed)))

        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_num} has {len(row)} cells, header has {len(header)}"
                )
            raw_label = row[label_idx].strip()
            if raw_label not in schema.label_map:
                raise DataError(
                    f"{path}: row {row_num} has unmapped label value {raw_label!r}"
                )
            labels.append(schema.label_map[raw_label])
            for i in feat_idx:
                text = row[i].strip()
                try:
                    cells.append(float(text) if text else math.nan)
                except ValueError:
                    raise DataError(f"row {row_num}: column {header[i]!r} has "
                                    f"non-numeric value {row[i]!r}") from None

    x = np.frombuffer(cells).reshape(len(labels), len(feat_idx))
    # "NaN" and "Infinity" parse fine but count as missing.
    keep = np.isfinite(x).all(axis=1)
    dropped = len(labels) - int(np.count_nonzero(keep))
    if dropped == len(labels):
        raise DataError(f"{path}: no usable rows after dropping {dropped}")
    data = Dataset(x[keep], np.frombuffer(labels)[keep])
    logger.info("ingested %s: %d rows kept, %d dropped", path, data.n, dropped)
    return data, dropped


def stratified_split(
    data: Dataset, n_pos: int, n_neg: int, rng_seed: int
) -> tuple[Dataset, Dataset]:
    """Partition into a stratified draw and its complement.

    The first returned dataset holds exactly n_pos positives and n_neg
    negatives drawn without replacement, deterministically given rng_seed;
    the second holds every remaining row in original order. Useful for
    carving a train set out of one generated pool so both halves come from
    the same distribution.
    """
    if n_pos < 0 or n_neg < 0:
        raise DataError("requested sizes must be nonnegative")
    pos = np.flatnonzero(data.y > 0)
    neg = np.flatnonzero(data.y < 0)
    if n_pos > pos.size:
        raise DataError(f"requested {n_pos} positives, only {pos.size} available")
    if n_neg > neg.size:
        raise DataError(f"requested {n_neg} negatives, only {neg.size} available")
    rng = np.random.default_rng(rng_seed)
    chosen = np.concatenate(
        [
            rng.choice(pos, size=n_pos, replace=False),
            rng.choice(neg, size=n_neg, replace=False),
        ]
    )
    rng.shuffle(chosen)
    mask = np.ones(data.n, dtype=bool)
    mask[chosen] = False
    rest = np.flatnonzero(mask)
    return (
        Dataset(data.x[chosen], data.y[chosen]),
        Dataset(data.x[rest], data.y[rest]),
    )


def fit_standardization(train: Dataset) -> StandardizationParams:
    """Fit per-feature mean and population standard deviation.

    Features whose standard deviation falls below 1e-12 get scale 1 so a
    constant column passes through centred but unscaled.

    Raises:
        DataError: an empty dataset, or a column whose mean or standard
            deviation overflows (a spread beyond about 1e154), naming it.
    """
    if train.n == 0:
        raise DataError("cannot fit standardization on an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.x.mean(axis=0)
        scale = train.x.std(axis=0)
    overflowed = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(scale)))
    if overflowed.size:
        raise DataError(f"feature column {int(overflowed[0])} overflows float64 "
                        "when standardized: its mean or spread is not finite")
    scale = np.where(scale < _SCALE_FLOOR, 1.0, scale)
    return StandardizationParams(mean=mean, scale=scale)


def apply_standardization(data: Dataset, params: StandardizationParams) -> Dataset:
    """Apply fitted params; never refits on the incoming data.

    Raises:
        DataError: a feature count other than the fitted one, or a column
            that lies so far outside the fitted frame that it overflows
            float64 when standardized, naming it.
    """
    if not np.shape(params.mean) == np.shape(params.scale) == (data.f,):
        raise DataError(f"standardization fitted on {np.size(params.mean)} "
                        f"features, data has {data.f}")
    with np.errstate(all="ignore"):
        x = (data.x - params.mean) / params.scale
    try:
        return Dataset(x, data.y)
    except DataError:  # data is finite, so only the quotient can fail
        column = int(np.flatnonzero(~np.isfinite(x).all(axis=0))[0])
        raise DataError(f"feature column {column} overflows float64 when "
                        "standardized: it lies too far outside the fitted "
                        "frame") from None


def generate_synthetic(
    n_pos: int, n_neg: int, f: int, separation: float, rng_seed: int
) -> Dataset:
    """Generate a two-class Gaussian dataset with controlled separation.

    A unit direction u is drawn once from the seed. Positives are sampled
    from N(+separation/2 * u, I), negatives from N(-separation/2 * u, I),
    and the rows are shuffled.

    Args:
        n_pos: positive count.
        n_neg: negative count.
        f: feature dimension.
        separation: distance between class means, >= 0.
        rng_seed: seed; output is bitwise reproducible given it.
    """
    if n_pos < 0 or n_neg < 0 or n_pos + n_neg < 1:
        raise DataError("need at least one sample")
    if f < 1:
        raise DataError("feature dimension must be at least 1")
    if separation < 0:
        raise DataError("separation must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    u = rng.normal(size=f)
    u /= np.linalg.norm(u)
    shift = 0.5 * separation * u
    x = np.vstack(
        [
            shift + rng.normal(size=(n_pos, f)),
            -shift + rng.normal(size=(n_neg, f)),
        ]
    )
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    order = rng.permutation(n_pos + n_neg)
    return Dataset(x[order], y[order])


def _sidecar_path(path: Path) -> Path:
    return path.parent / (path.name + ".json")


def dataset_csv_text(data: Dataset) -> str:
    """The exact CSV text save_dataset writes, for byte accounting.

    The text is csv.writer's default dialect, joined by hand: no field
    needs quoting, since a float's repr holds no comma or quote, and every
    line ends in CRLF.
    """
    lines = [",".join([f"f{j}" for j in range(data.f)] + ["label"])]
    lines += [f"{','.join(map(repr, row))},{int(label)}"
              for row, label in zip(data.x.tolist(), data.y.tolist())]
    lines.append("")
    return "\r\n".join(lines)


def save_dataset(data: Dataset, path: str | Path, provenance: dict | None = None,
                 text: str | None = None):
    """Write a dataset as CSV plus a one-line JSON provenance sidecar.

    The CSV has columns f0..f{F-1},label and full-precision floats, so
    load_dataset round-trips bitwise. A caller that already holds
    dataset_csv_text(data) passes it as text to skip building it again.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        handle.write(dataset_csv_text(data) if text is None else text)
    meta = {"n": data.n, "f": data.f}
    meta.update(provenance or {})
    _sidecar_path(path).write_text(json.dumps(meta) + "\n")


def load_json(path: str | Path, parse=dict):
    """parse(the JSON object in an artifact file).

    A missing file, text that is not a JSON object, or a field that parse
    finds missing or of the wrong type is a DataError.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    try:
        raw = json.loads(path.read_text())
        if not isinstance(raw, dict):
            raise DataError(f"{path}: not a JSON object")
        return parse(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed ({type(exc).__name__}: {exc})") from exc


def load_dataset(path: str | Path) -> tuple[Dataset, dict]:
    """Load a dataset written by save_dataset. Returns (dataset, provenance)."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such dataset file")
    sidecar = _sidecar_path(path)
    meta = load_json(sidecar) if sidecar.exists() else {}
    with path.open(newline="") as handle:
        header = next(csv.reader(handle), [])
        if not header:
            raise DataError(f"{path}: empty file, expected a header row")
        schema = CsvSchema(
            feature_columns=header[:-1],
            label_column=header[-1],
            label_map={"1": 1, "-1": -1},
        )
    data, dropped = ingest_csv(path, schema)
    if dropped:
        raise DataError(f"{path}: persisted dataset has {dropped} unreadable rows")
    return data, meta
