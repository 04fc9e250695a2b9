"""Property: every whole-number config setting refuses floats, strings and
bools with ConfigError, wherever in the config it sits."""

import json

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
