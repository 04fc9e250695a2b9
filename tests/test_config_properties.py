"""Properties: every whole-number config setting refuses floats, strings
and bools with ConfigError, wherever in the config it sits, and every real
sampler setting refuses values outside its range when the config loads."""

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
