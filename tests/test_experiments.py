"""Experiment grids: configs, artifacts, reports, and regeneration."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from flowcoreset import experiments
from flowcoreset.coreset import load_coreset
from flowcoreset.data import load_dataset
from flowcoreset.errors import ConfigError, DataError
from flowcoreset.experiments import (
    ExperimentConfig,
    OFFLINE_COLUMNS,
    StreamSpec,
    SyntheticSpec,
    load_config,
    offline_conditions,
    prepare_datasets,
    read_rows,
    regenerate_report,
    run_offline,
    run_stream_experiment,
)

TINY = {
    "source": {"kind": "synthetic", "n_datasets": 2, "train_pos": 15,
               "train_neg": 75, "test_pos": 30, "test_neg": 30,
               "features": 5, "separation": 6.0},
    "embedding_dim": 30,
    "budgets": [15, 30],
    "random_size": 15,
    "weighting": "laplace",
    "hmc": {"total_samples": 160, "burn_frac": 0.5, "thin": 2,
            "leapfrog_steps": 8},
    "predict_draws": 40,
    "svm": {"epochs": 3, "reg": 0.001},
    "repetitions": 2,
    "rng_seed": 0,
    "persist_posteriors": False,
    "stream": None,
}


def tiny_config(**overrides) -> ExperimentConfig:
    raw = json.loads(json.dumps(TINY))
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def strip_seconds(node):
    """Recursively drop every *_seconds field for determinism comparison."""
    if isinstance(node, dict):
        return {key: strip_seconds(value) for key, value in node.items()
                if not key.endswith("_seconds")}
    if isinstance(node, list):
        return [strip_seconds(item) for item in node]
    return node


class TestConfig:
    def test_round_trips_through_dict(self):
        config = tiny_config()
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config

    def test_retired_parallelism_key_is_accepted_and_dropped(self):
        config = tiny_config(parallelism=1)
        assert config == tiny_config()
        assert "parallelism" not in config.to_dict()

    def test_retired_svm_epochs_key_is_accepted_and_dropped(self):
        config = tiny_config(svm={"epochs": 3, "reg": 0.001})
        assert config == tiny_config(svm={"reg": 0.001})
        assert config.to_dict()["svm"] == {"reg": 0.001}
        assert not hasattr(config, "svm_epochs")

    def test_rejects_unknown_top_level_keys(self):
        with pytest.raises(ConfigError):
            tiny_config(coresets="lots")

    def test_rejects_bad_source_kind(self):
        with pytest.raises(ConfigError):
            tiny_config(source={"kind": "parquet"})

    def test_rejects_unsorted_or_duplicate_budgets(self):
        with pytest.raises(ConfigError):
            tiny_config(budgets=[500, 100])
        with pytest.raises(ConfigError):
            tiny_config(budgets=[100, 100])

    def test_rejects_nonpositive_counts(self):
        bad = dict(TINY["source"])
        bad["train_pos"] = 0
        with pytest.raises(ConfigError):
            tiny_config(source=bad)

    def test_rejects_unknown_hmc_keys_and_weighting(self):
        with pytest.raises(ConfigError):
            tiny_config(hmc={"samples": 3})
        with pytest.raises(ConfigError):
            tiny_config(weighting="bootstrap")

    def test_rejects_bad_stream_section(self):
        with pytest.raises(ConfigError):
            tiny_config(stream={"modes": ["teleport"], "n_batches": 2,
                                "batch_pos": 1, "batch_neg": 1,
                                "test_pos": 1, "test_neg": 1})
        with pytest.raises(ConfigError):
            tiny_config(stream={"modes": ["pool_full"], "n_batches": 0})
        with pytest.raises(ConfigError):
            tiny_config(stream={"modes": ["pool_full"], "n_batches": 2,
                                "batch_pos": 1, "batch_neg": 1,
                                "test_pos": 1, "test_neg": 1,
                                "eval_scope": "latest"})

    @pytest.mark.parametrize("override", [
        {"source": "synthetic"},
        {"embedding_dim": "many"},
        {"hmc": [1]},
        {"stream": "yes"},
        {"persist_posteriors": "false"},
        {"hmc": {"thin": "x"}},
        {"hmc": {"total_samples": 1200.5}},
        {"svm": {"epoch": 3}},
        {"random_size": 0},
        {"embedding_dim": 5.7},
        {"budgets": [15.9, 30]},
        {"repetitions": "2"},
        {"rng_seed": True},
        {"predict_draws": 40.0},
        {"svm": {"epochs": "3"}},
        {"svm": {"reg": "0.001"}},
        {"source": {**TINY["source"], "train_pos": 15.5}},
        {"stream": {"modes": ["pool_full"], "n_batches": 2.5,
                    "batch_pos": 1, "batch_neg": 1,
                    "test_pos": 1, "test_neg": 1}},
        {"svm": {"epochs": 0}},
        {"parallelism": 0},
        {"parallelism": "x"},
        {"source": {**TINY["source"], "separation": math.inf}},
        {"source": {**TINY["source"], "separation": math.nan}},
        {"source": {**TINY["source"], "separation": -1.0}},
        {"source": {**TINY["source"], "separation": 10**400}},
        {"source": {**TINY["source"], "separation": "4"}},
        {"source": {**TINY["source"], "separation": True}},
        {"svm": {"reg": math.inf}},
        {"svm": {"reg": math.nan}},
        {"svm": {"reg": 0.0}},
        {"svm": {"reg": 10**400}},
        {"svm": {"reg": True}},
    ])
    def test_malformed_values_are_config_errors(self, override):
        with pytest.raises(ConfigError):
            tiny_config(**override)

    def test_null_initial_step_size_loads(self):
        config = tiny_config(hmc={"initial_step_size": None})
        assert config.hmc == {"initial_step_size": None}

    def test_random_size_defaults_to_smallest_budget(self):
        config = tiny_config(random_size=None)
        assert config.effective_random_size == 15

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_condition_grid_shape(self):
        names = offline_conditions(tiny_config())
        assert names == ["svm", "blr_full", "blr_random",
                         "blr_coreset_m15", "blr_coreset_m30"]


class TestPrepare:
    def test_writes_loadable_splits_with_exact_counts(self, tmp_path):
        written = prepare_datasets(tiny_config(), tmp_path)
        assert len(written) == 4
        train, meta = load_dataset(tmp_path / "datasets" / "ds0_train.csv")
        assert meta["role"] == "train"
        assert meta["dropped_rows"] == 0
        assert int(np.sum(train.y == 1.0)) == 15
        assert int(np.sum(train.y == -1.0)) == 75
        test, _ = load_dataset(tmp_path / "datasets" / "ds1_test.csv")
        assert test.n == 60

    def test_csv_dropped_rows_land_in_train_provenance(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["a,b,Label"]
        for i in range(40):
            label = "ATTACK" if i % 2 else "BENIGN"
            lines.append(f"{rng.normal()},{rng.normal()},{label}")
        lines += ["1.0,,BENIGN", "NaN,2.0,ATTACK", "Infinity,0.5,BENIGN"]
        capture = tmp_path / "capture.csv"
        capture.write_text("\n".join(lines) + "\n")
        source = {"kind": "csv", "paths": [str(capture)],
                  "label_column": "Label",
                  "label_map": {"BENIGN": -1, "ATTACK": 1},
                  "feature_columns": None, "train_pos": 10, "train_neg": 10,
                  "test_pos": 5, "test_neg": 5}
        prepare_datasets(tiny_config(source=source), tmp_path / "out")
        datasets = tmp_path / "out" / "datasets"
        _, train_meta = load_dataset(datasets / "ds0_train.csv")
        _, test_meta = load_dataset(datasets / "ds0_test.csv")
        assert train_meta["dropped_rows"] == 3
        assert "dropped_rows" not in test_meta


@pytest.fixture(scope="module")
def offline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("offline")
    report = run_offline(tiny_config(), out)
    return out, report


@pytest.fixture(scope="module")
def stream_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("stream")
    config = tiny_config(
        budgets=[25],
        stream={"modes": ["pool_full", "coreset_aggregate"],
                "n_batches": 2, "batch_pos": 15, "batch_neg": 75,
                "test_pos": 25, "test_neg": 25, "eval_scope": "union"},
    )
    report, arm_records = run_stream_experiment(config, out)
    return out, config, report, arm_records


class TestOffline:
    def test_every_condition_appears_once_per_dataset(self, offline_run):
        _, report = offline_run
        keys = [(c["dataset"], c["condition"]) for c in report["conditions"]]
        assert len(keys) == len(set(keys)) == 10
        for entry in report["conditions"]:
            assert entry["trials"] == 2
            assert entry["failures"] == 0
            assert entry["std_accuracy"] is not None

    def test_learned_models_beat_chance_comfortably(self, offline_run):
        _, report = offline_run
        grand = report["grand_mean_accuracy"]
        assert grand["blr_full"] >= 0.85
        assert grand["svm"] >= 0.85
        assert grand["blr_coreset_m30"] >= 0.8

    def test_trial_rows_and_artifacts_on_disk(self, offline_run):
        out, _ = offline_run
        rows = read_rows(out / "results.csv", OFFLINE_COLUMNS)
        assert len(rows) == 2 * 5 * 2
        for name in ("config.json", "report.json", "report.csv"):
            assert (out / name).exists()
        for index in range(2):
            assert (out / "datasets" / f"ds{index}_train.csv").exists()
            assert (out / "coresets" / f"ds{index}_giga_m15.json").exists()
            assert (out / "coresets" / f"ds{index}_giga_m30_rows.csv").exists()
            assert (out / "coresets" / f"ds{index}_random.json").exists()

    def test_coreset_rows_store_fewer_bytes_than_the_pool(self, offline_run):
        out, report = offline_run
        for entry in report["conditions"]:
            if entry["condition"].startswith("blr_coreset"):
                assert entry["storage_bytes"] < entry["full_bytes"]
                assert entry["entries"] <= 30

    def test_identical_configs_reproduce_the_report(self, offline_run, tmp_path):
        out, report = offline_run
        again = run_offline(tiny_config(), tmp_path / "again")
        assert strip_seconds(again) == strip_seconds(report)

    def test_report_regeneration_is_byte_identical(self, offline_run):
        out, _ = offline_run
        original = (out / "report.json").read_bytes()
        (out / "report.json").unlink()
        (out / "report.csv").unlink()
        written = regenerate_report(out)
        assert (out / "report.json").read_bytes() == original
        assert sorted(p.name for p in written) == ["report.csv", "report.json"]

    def test_giga_reduce_seconds_count_the_shared_embedding(self, offline_run):
        """A coreset row's reduction time is its saved coreset's
        wall_clock_seconds, which for GIGA compress sets to include the
        shared standardization, basis and embedding."""
        out, _ = offline_run
        checked = 0
        for row in read_rows(out / "results.csv", OFFLINE_COLUMNS):
            name = row["condition"].removeprefix("blr_").replace("coreset_", "giga_")
            path = out / "coresets" / f"ds{row['dataset']}_{name}.json"
            if name == "random" or name.startswith("giga_"):
                built = load_coreset(path).construction.wall_clock_seconds
                assert row["reduce_seconds"] == built > 0.0
                checked += 1
        assert checked

    def test_failed_trials_become_error_rows(self, tmp_path):
        config = tiny_config(
            hmc={"total_samples": 120, "burn_frac": 0.0, "thin": 1,
                 "leapfrog_steps": 8, "initial_step_size": 1e15},
            repetitions=1,
            source={**TINY["source"], "n_datasets": 1},
        )
        report = run_offline(config, tmp_path / "failing")
        blr = [c for c in report["conditions"]
               if c["condition"] != "svm"]
        assert blr and all(entry["failures"] == 1 for entry in blr)
        assert all("NumericalError" in entry["errors"][0] for entry in blr)
        svm = [c for c in report["conditions"] if c["condition"] == "svm"]
        assert svm[0]["failures"] == 0

    def test_each_condition_builds_its_model_once_per_dataset(
            self, monkeypatch):
        """Every repetition of a BLR condition samples the one model its
        dataset built for it, each under its own HMC seed."""
        trained = []  # (model, seed); holding each model keeps its id unique
        real = experiments.sample_and_score

        def recorded(model, test, rng_seed, hmc, draws):
            trained.append((model, rng_seed))
            return real(model, test, rng_seed, hmc, draws)

        monkeypatch.setattr(experiments, "sample_and_score", recorded)
        config = tiny_config(repetitions=3,
                             source={**TINY["source"], "n_datasets": 1})
        run_offline(config, None)
        blr = [name for name in offline_conditions(config) if name != "svm"]
        assert len(trained) == 3 * len(blr)
        assert len({id(model) for model, _ in trained}) == len(blr)
        assert len({seed for _, seed in trained}) == 3 * len(blr)


class TestStreamExperiment:
    def test_arm_and_step_grid(self, stream_run):
        _, _, report, _ = stream_run
        arms = {(arm["mode"], arm["budget"]) for arm in report["arms"]}
        assert arms == {("pool_full", None), ("coreset_aggregate", 25)}
        for arm in report["arms"]:
            assert [step["step"] for step in arm["steps"]] == [0, 1]
            assert all(step["trials"] == 2 for step in arm["steps"])

    def test_pool_arm_stores_every_sample(self, stream_run):
        _, _, report, _ = stream_run
        pool = next(a for a in report["arms"] if a["mode"] == "pool_full")
        assert [s["mean_stored_samples"] for s in pool["steps"]] == [90.0, 180.0]
        coreset = next(a for a in report["arms"]
                       if a["mode"] == "coreset_aggregate")
        assert coreset["steps"][-1]["mean_stored_samples"] <= 50.0

    def test_records_expose_reduction_diagnostics(self, stream_run):
        _, _, _, arm_records = stream_run
        coreset_arms = [a for a in arm_records
                        if a["mode"] == "coreset_aggregate"]
        assert len(coreset_arms) == 2
        for arm in coreset_arms:
            for record in arm["records"]:
                trace = record.added_coreset.construction.alignment_trace
                assert len(trace) >= 1

    def test_stream_report_regenerates_identically(self, stream_run):
        out, _, _, _ = stream_run
        original = (out / "stream_report.json").read_bytes()
        (out / "stream_report.json").unlink()
        regenerate_report(out, fmt="json")
        assert (out / "stream_report.json").read_bytes() == original

    def test_stream_requires_stream_section(self, tmp_path):
        with pytest.raises(ConfigError):
            run_stream_experiment(tiny_config(), tmp_path / "nostream")


class TestReportPaths:
    """A report built from the rows in memory equals the one built from the
    results CSV a run directory gets."""

    def test_offline_report_without_a_run_directory(self, offline_run):
        _, on_disk = offline_run
        in_memory = run_offline(tiny_config(), None)
        assert strip_seconds(in_memory) == strip_seconds(on_disk)

    def test_stream_report_without_a_run_directory(self, tmp_path):
        modes = ["pool_full", "coreset_aggregate", "random_aggregate"]
        config = tiny_config(
            budgets=[20],
            stream={"modes": modes, "n_batches": 2, "batch_pos": 15,
                    "batch_neg": 75, "test_pos": 25, "test_neg": 25})
        on_disk, _ = run_stream_experiment(config, tmp_path / "run")
        in_memory, _ = run_stream_experiment(config, None)
        assert {arm["mode"] for arm in on_disk["arms"]} == set(modes)
        assert strip_seconds(in_memory) == strip_seconds(on_disk)


class TestRegenerate:
    def test_empty_run_dir_lists_missing_artifacts(self, tmp_path):
        with pytest.raises(DataError) as err:
            regenerate_report(tmp_path)
        assert "config.json" in str(err.value)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            regenerate_report(tmp_path, fmt="yaml")

    def test_results_with_a_retired_column_still_regenerate(self, offline_run,
                                                            tmp_path):
        """Older runs wrote a weight_rescale column; columns are read by
        name, so their reports rebuild, and a missing column is a data
        error."""
        out, _ = offline_run
        with (out / "results.csv").open(newline="") as handle:
            header, *rows = csv.reader(handle)

        def run_dir(name, table):
            run = tmp_path / name
            run.mkdir()
            (run / "config.json").write_bytes((out / "config.json").read_bytes())
            with (run / "results.csv").open("w", newline="") as handle:
                csv.writer(handle).writerows(table)
            return run

        older = run_dir("older", [header[:-1] + ["weight_rescale", "error"]]
                        + [row[:-1] + ["1.0", row[-1]] for row in rows])
        regenerate_report(older, fmt="json")
        assert ((older / "report.json").read_bytes()
                == (out / "report.json").read_bytes())
        broken = run_dir("broken", [row[1:] for row in [header, *rows]])
        with pytest.raises(DataError):
            regenerate_report(broken, fmt="json")

    def test_missing_directory_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            regenerate_report(tmp_path / "never_ran")
