"""Property: every flow CSV, from ingest to predict, ends in a result or a
typed exit.

Each generated file goes through `coreset`, `train` with and without that
coreset, and `eval` of each posterior, all through cli.main with numpy's
RuntimeWarnings raised as errors. Every call returns 0 (result), 1
(config), 2 (data) or 3 (numerical) and never raises, and every value
printed on exit 0 is finite.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowcoreset.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Cells ingestion counts as missing, or reads with stripping.
SPECIAL_CELLS = ("", "NaN", "Infinity", " 2 ")


@st.composite
def flow_csvs(draw) -> str:
    """A 0-byte file, a header alone, or 0-30 rows of 1-4 features.

    A feature column is Gaussian, Gaussian times 1e300 or 1e-300, or
    constant; the labels may all be one class; none, one or five feature
    cells are replaced by SPECIAL_CELLS.
    """
    shape = draw(st.sampled_from(("empty", "header", "rows", "rows", "rows")))
    if shape == "empty":
        return ""
    f = draw(st.integers(1, 4))
    header = ",".join([f"f{j}" for j in range(f)] + ["label"])
    if shape == "header":
        return header + "\r\n"
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(f):
        style = draw(st.sampled_from(("gaussian", "gaussian", "1e300", "1e-300",
                                      "constant")))
        if style == "constant":
            columns.append(np.full(n, rng.normal()))
        else:
            scale = 1.0 if style == "gaussian" else float(style)
            columns.append(rng.normal(size=n) * scale)
    one_class = draw(st.booleans())
    labels = np.ones(n, dtype=int) if one_class else rng.choice([-1, 1], size=n)
    cells = [[repr(float(c[i])) for c in columns] + [str(labels[i])]
             for i in range(n)]
    if n:
        # A persisted dataset with a dropped row is refused whole, so most
        # files keep every cell and reach the sampler.
        for _ in range(draw(st.sampled_from((0, 0, 0, 1, 5)))):
            row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, f - 1))
            cells[row][col] = draw(st.sampled_from(SPECIAL_CELLS))
    return "\r\n".join([header] + [",".join(row) for row in cells]) + "\r\n"


def run(argv: list) -> int:
    """main's exit code; on 0, every number it printed must be finite."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(arg) for arg in argv])
    assert code in (0, 1, 2, 3), argv
    if code == 0:
        printed = json.loads(stdout.getvalue().splitlines()[-1])
        for name, value in printed.items():
            assert isinstance(value, str) or (
                isinstance(value, (int, float)) and math.isfinite(value)), (name, value)
    return code


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(text=flow_csvs())
def test_every_csv_ends_in_a_result_or_a_typed_exit(text):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tmp = Path(tmp)
        data = tmp / "flows.csv"
        data.write_text(text, newline="")
        coreset = tmp / "cs.json"
        run(["coreset", "--data", data, "--out", coreset, "--d", 5,
             "--budget", 3])
        for stem, extra in ((tmp / "post", []),
                            (tmp / "post_cs", ["--coreset", coreset])):
            run(["train", "--data", data, "--out", stem, "--total-samples", 20,
                 "--leapfrog-steps", 3, *extra])
            run(["eval", "--posterior", stem, "--data", data, "--draws", 5])
