"""Property: ingest_csv reads every CSV as the per-cell rule does.

The reference parser below decides each feature cell on its own: strip
it; an empty cell is missing; a cell float() refuses is a DataError naming
its row and column; a NaN or infinite value is missing; a row with a
missing cell is dropped. ingest_csv must return the same x and y bytes and
the same dropped count, or raise a DataError with the same text, on files
with padded and Unicode-whitespace cells, empty cells, NaN, Infinity,
-inf, 1e400, 1_0, quoted cells with commas, blank lines, CRLF, ragged
rows, unmapped labels and non-numeric cells.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from flowcoreset.data import CsvSchema, Dataset, ingest_csv
from flowcoreset.errors import DataError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LABEL_MAP = {"benign": -1, "attack": 1, "port,scan": 1}

# Whitespace str.strip() removes, some of which float() keeps: "\x1c"
# and "\x1f" are stripped but not skipped by float().
SPACES = ("", " ", "  ", "\t", "\xa0", "　", " ", "\x1c", "\x1f", "\x85")
SPECIAL = ("", "   ", "NaN", "nan", "Infinity", "-inf", "1e400", "-1e400",
           "1_0", "1e-400", "0", "-0.0", "+3")
NOT_NUMBERS = ("1,5", "banana", "1 2", "0x10", "1__0")


def reference_ingest(path: Path, schema: CsvSchema) -> tuple[Dataset, int]:
    """The per-cell reader ingest_csv must agree with, on headers without
    repeated names."""
    rows, labels, dropped = [], [], 0
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [name.strip() for name in header]
        label_name = schema.label_column.strip()
        if schema.feature_columns is None:
            feature_names = [name for name in header if name != label_name]
        else:
            feature_names = [name.strip() for name in schema.feature_columns]
        positions = {name: i for i, name in enumerate(header)}
        missing = [n for n in feature_names + [label_name] if n not in positions]
        if missing:
            raise DataError(f"{path}: columns missing from header: {missing}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_num} has {len(row)} cells, header has {len(header)}")
            raw_label = row[positions[label_name]].strip()
            if raw_label not in schema.label_map:
                raise DataError(
                    f"{path}: row {row_num} has unmapped label value {raw_label!r}")
            values = []
            for name in feature_names:
                cell = row[positions[name]]
                text = cell.strip()
                if not text:
                    values.append(math.nan)
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(f"row {row_num}: column {name!r} has "
                                    f"non-numeric value {cell!r}") from None
                values.append(value if math.isfinite(value) else math.nan)
            if any(math.isnan(v) for v in values):
                dropped += 1
                continue
            rows.append(np.asarray(values, dtype=np.float64))
            labels.append(float(schema.label_map[raw_label]))
    if not rows:
        raise DataError(f"{path}: no usable rows after dropping {dropped}")
    return Dataset(np.vstack(rows), np.asarray(labels)), dropped


def quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def feature_cells(draw) -> str:
    kind = draw(st.integers(0, 39))
    if kind == 0:
        core = draw(st.sampled_from(NOT_NUMBERS))
    elif kind < 8:
        core = draw(st.sampled_from(SPECIAL))
    else:
        core = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    return draw(st.sampled_from(SPACES)) + core + draw(st.sampled_from(SPACES))


@st.composite
def csv_files(draw) -> tuple[str, CsvSchema]:
    """A header of 1-4 features and a label column in any place, 0-12 rows
    that may be ragged or carry unmapped labels, blank lines, LF or CRLF."""
    f = draw(st.integers(1, 4))
    names = [f"f{j}" for j in range(f)]
    label_at = draw(st.integers(0, f))
    header = names[:label_at] + ["label"] + names[label_at:]
    padded = [draw(st.sampled_from(SPACES)) + name + draw(st.sampled_from(SPACES))
              for name in header]
    lines = [",".join(quoted(n) if "," in n or draw(st.booleans()) else n
                      for n in padded)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        cells = [draw(feature_cells()) for _ in range(f)]
        label = ("ddos" if draw(st.integers(0, 39)) == 0 else
                 draw(st.sampled_from(("benign", " attack ", "port,scan"))))
        cells.insert(label_at, label)
        shape = draw(st.integers(0, 59))
        if shape == 0:
            cells.pop()
        elif shape == 1:
            cells.append("1.0")
        lines.append(",".join(quoted(c) if "," in c or draw(st.integers(0, 5)) == 0
                              else c for c in cells))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    text = newline.join(lines) + draw(st.sampled_from(("", newline)))
    listed = draw(st.one_of(st.none(), st.permutations(names).flatmap(
        lambda order: st.integers(1, f).map(lambda k: order[:k]))))
    label_column = draw(st.sampled_from(("label", " label ")))
    return text, CsvSchema(listed, label_column, LABEL_MAP)


def outcome(read, path, schema):
    try:
        data, dropped = read(path, schema)
    except DataError as exc:
        return ("error", str(exc))
    return ("data", data.x.shape, data.x.tobytes(), data.y.tobytes(), dropped)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(case=csv_files())
def test_ingest_matches_the_per_cell_rule(tmp_path_factory, case):
    text, schema = case
    path = tmp_path_factory.mktemp("ingest") / "flows.csv"
    with path.open("w", newline="") as handle:
        handle.write(text)
    assert outcome(ingest_csv, path, schema) == outcome(reference_ingest, path, schema)
