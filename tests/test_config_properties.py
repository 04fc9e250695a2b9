"""Properties: every whole-number config setting refuses floats, strings
and bools with ConfigError, wherever in the config it sits, every real
sampler setting refuses values outside its range, and every list-, string-
or object-valued key refuses a JSON value of another shape, all when the
config loads."""

import json
import math

import pytest

from flowcoreset.errors import ConfigError
from flowcoreset.experiments import ExperimentConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASE = {
    "source": {"kind": "synthetic", "n_datasets": 1, "train_pos": 15,
               "train_neg": 75, "test_pos": 30, "test_neg": 30,
               "features": 5, "separation": 6.0},
    "embedding_dim": 30,
    "budgets": [15, 30],
    "random_size": 15,
    "predict_draws": 40,
    "svm": {"epochs": 3, "reg": 0.001},
    "repetitions": 2,
    "rng_seed": 0,
    "hmc": {"total_samples": 40, "thin": 2, "leapfrog_steps": 5},
    "stream": {"modes": ["pool_full"], "n_batches": 2, "batch_pos": 15,
               "batch_neg": 75, "test_pos": 25, "test_neg": 25},
}

# Paths to every integer setting: (section or None, key, list index or None).
INTEGER_FIELDS = [
    *((None, key, None) for key in ("embedding_dim", "random_size",
                                    "predict_draws", "repetitions",
                                    "rng_seed")),
    (None, "budgets", 0),
    (None, "budgets", 1),
    ("svm", "epochs", None),
    *(("source", key, None) for key in ("n_datasets", "train_pos",
                                        "train_neg", "test_pos", "test_neg",
                                        "features")),
    *(("stream", key, None) for key in ("n_batches", "batch_pos",
                                        "batch_neg", "test_pos", "test_neg")),
    *(("hmc", key, None) for key in ("total_samples", "thin",
                                     "leapfrog_steps")),
]

NOT_INTEGERS = st.one_of(st.floats(allow_nan=True), st.text(), st.booleans())


def test_base_config_loads():
    ExperimentConfig.from_dict(json.loads(json.dumps(BASE)))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(field=st.sampled_from(INTEGER_FIELDS), value=NOT_INTEGERS)
def test_non_integer_count_is_a_config_error(field, value):
    raw = json.loads(json.dumps(BASE))
    section, key, index = field
    holder = raw[section] if section else raw
    if index is None:
        holder[key] = value
    else:
        holder[key][index] = value
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


# Values outside each real sampler setting's range, by setting.
# -0.0 lies in [0, 1), so the largest value below zero is the tiniest
# negative subnormal.
BELOW_ZERO = st.floats(max_value=-math.ulp(0.0))
OUT_OF_RANGE = {
    "burn_frac": st.one_of(BELOW_ZERO, st.floats(min_value=1.0)),
    "target_accept": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0)),
    "jitter": st.one_of(BELOW_ZERO, st.floats(min_value=1.0)),
    "initial_step_size": st.floats(max_value=0.0),
}
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(setting=st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(OUT_OF_RANGE[key], NON_FINITE))))
def test_out_of_range_sampler_value_is_a_config_error(setting):
    raw = json.loads(json.dumps(BASE))
    key, value = setting
    raw["hmc"][key] = value
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


# A csv source with a file-based stream: every list-valued key is present.
CSV_BASE = {
    **BASE,
    "source": {"kind": "csv", "paths": ["pool.csv"], "label_column": "label",
               "label_map": {"1": 1, "-1": -1}, "feature_columns": ["f0", "f1"],
               "train_pos": 15, "train_neg": 75, "test_pos": 30,
               "test_neg": 30},
    "stream": {"modes": ["pool_full"], "batch_paths": ["b0.csv"],
               "test_paths": ["t0.csv"]},
}

TEXT = st.text()
NUMBERS = st.one_of(st.integers(), st.floats())
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT)
OBJECTS = st.dictionaries(TEXT, SCALARS, max_size=3)


def holding(items, wrong):
    """Lists of `items` with one `wrong` element among them."""
    return st.tuples(st.lists(items, max_size=2), wrong,
                     st.lists(items, max_size=2)).map(
        lambda parts: [*parts[0], parts[1], *parts[2]])


NOT_NAMES = st.one_of(TEXT, NUMBERS, st.booleans(), OBJECTS, holding(
    TEXT, st.one_of(st.none(), st.booleans(), NUMBERS, OBJECTS,
                    st.lists(TEXT, max_size=2))))

# Values of the wrong JSON shape for each key that takes a list, a string
# or an object.
WRONG_SHAPES = {
    **{("source", key): NOT_NAMES for key in ("paths", "feature_columns")},
    **{("stream", key): NOT_NAMES for key in ("modes", "batch_paths",
                                              "test_paths")},
    ("source", "label_column"): st.one_of(NUMBERS, st.booleans(), OBJECTS,
                                          st.lists(SCALARS, max_size=3)),
    ("source", "label_map"): st.one_of(TEXT, NUMBERS, st.booleans(),
                                       st.lists(SCALARS, max_size=3)),
    (None, "budgets"): st.one_of(TEXT, NUMBERS, st.booleans(), OBJECTS,
                                 holding(st.integers(1, 100), TEXT)),
}


def test_csv_base_config_loads():
    config = ExperimentConfig.from_dict(json.loads(json.dumps(CSV_BASE)))
    assert config.source.feature_columns == ("f0", "f1")


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(setting=st.sampled_from(sorted(WRONG_SHAPES, key=str)).flatmap(
    lambda key: st.tuples(st.just(key), WRONG_SHAPES[key])))
def test_wrong_shaped_value_is_a_config_error(setting):
    """A value of the wrong JSON shape is refused when the config loads, never
    split into characters or left to fail when the data is read."""
    (section, key), value = setting
    raw = json.loads(json.dumps(CSV_BASE))
    (raw[section] if section else raw)[key] = value
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)
