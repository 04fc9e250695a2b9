"""End-to-end command-line tests driven through main(argv) in-process."""

import csv
import importlib
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import flowcoreset
from flowcoreset.cli import build_parser, main
from flowcoreset.coreset import load_coreset
from flowcoreset.data import fit_standardization, load_dataset
from flowcoreset.errors import ConfigError, NumericalError
from flowcoreset.experiments import OFFLINE_COLUMNS, load_config, write_rows

TINY = {
    "source": {"kind": "synthetic", "n_datasets": 1, "train_pos": 15,
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
    "repetitions": 1,
    "rng_seed": 0,
    "persist_posteriors": False,
    "stream": None,
}

TRAIN_FLAGS = ["--total-samples", "200", "--thin", "2",
               "--leapfrog-steps", "10"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One prepared dataset directory shared by the pipeline-stage tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    code = main(["prepare", "--config", str(cfg), "--out", str(root / "prep")])
    assert code == 0
    train_csv = root / "prep" / "datasets" / "ds0_train.csv"
    test_csv = root / "prep" / "datasets" / "ds0_test.csv"
    assert train_csv.exists() and test_csv.exists()
    return root, cfg, train_csv, test_csv


def last_json(capsys):
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    return json.loads(lines[-1])


@pytest.fixture(scope="module")
def full_posterior(workspace, tmp_path_factory):
    _, _, train_csv, _ = workspace
    stem = tmp_path_factory.mktemp("post") / "full"
    code = main(["train", "--data", str(train_csv), "--out", str(stem),
                 *TRAIN_FLAGS])
    assert code == 0
    return stem


class TestConfigResolution:
    def test_packaged_sim1_resolves_by_name(self):
        config = load_config("sim1")
        assert config.budgets == (100, 500, 1000)
        assert config.stream is None

    def test_packaged_sim2_has_a_stream_section(self):
        config = load_config("sim2")
        assert config.stream is not None
        assert config.stream.n_batches == 5

    def test_unknown_name_is_a_config_error(self):
        with pytest.raises(ConfigError):
            load_config("sim99")

    def test_to_dict_reproduces_the_packaged_configs(self):
        """config.json, written from to_dict, keeps the packaged layout."""
        def packaged(name):
            path = resources.files("flowcoreset") / "configs" / f"{name}.json"
            return json.loads(path.read_text())

        def written(name):
            return json.loads(json.dumps(load_config(name).to_dict()))

        assert written("sim1") == packaged("sim1")
        sim2 = packaged("sim2")
        sim2["stream"].update(batch_paths=[], test_paths=[])
        assert written("sim2") == sim2

    def test_file_path_wins_over_packaged_names(self, tmp_path):
        path = tmp_path / "sim1"
        spec = dict(TINY)
        spec["rng_seed"] = 7
        path.write_text(json.dumps(spec))
        assert load_config(str(path)).rng_seed == 7


class TestExitCodes:
    def test_usage_error_exits_one(self, capsys):
        assert main(["coreset", "--data", "x.csv"]) == 1
        capsys.readouterr()

    def test_unknown_config_exits_one(self, tmp_path):
        code = main(["offline", "--config", "sim99",
                     "--out", str(tmp_path / "run")])
        assert code == 1

    def test_malformed_config_value_exits_one(self, tmp_path, caplog):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "embedding_dim": "many"}))
        code = main(["offline", "--config", str(path),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "config error:" in caplog.text

    @pytest.mark.parametrize("hmc", [
        pytest.param({"thin": "x"}, id="thin-x"),
        pytest.param({"burn_frac": 1.5}, id="burn_frac-1.5"),
        pytest.param({"target_accept": 1.0}, id="target_accept-1"),
        pytest.param({"jitter": -0.1}, id="jitter-neg"),
        pytest.param({"initial_step_size": -1.0}, id="initial_step_size-neg"),
        pytest.param({"initial_step_size": 0.0}, id="initial_step_size-0"),
        pytest.param({"total_samples": 1, "burn_frac": 0.9},
                     id="no-retained-draw"),
        pytest.param({"total_samples": 10**400}, id="total_samples-overflow"),
        pytest.param({"initial_step_size": 10**400},
                     id="initial_step_size-overflow"),
    ])
    def test_mistyped_sampler_setting_exits_before_any_work(self, tmp_path,
                                                            caplog, hmc):
        """A sampler setting hmc_sample would refuse is refused when the
        config loads, before the run directory holds anything."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "hmc": hmc}))
        out = tmp_path / "run"
        code = main(["offline", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert "config error:" in caplog.text
        assert not (out / "config.json").exists()
        assert not (out / "datasets").exists()

    def test_fractional_stream_count_exits_one_without_a_run(self, tmp_path,
                                                            capsys, caplog):
        stream = {"modes": ["pool_full"], "n_batches": 2.5, "batch_pos": 15,
                  "batch_neg": 75, "test_pos": 25, "test_neg": 25}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "stream": stream}))
        out = tmp_path / "run"
        code = main(["stream", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert "config error:" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not out.exists()

    def test_synthetic_stream_on_a_csv_source_exits_one_without_a_run(
            self, workspace, tmp_path, capsys, caplog):
        _, _, train_csv, _ = workspace
        source = {"kind": "csv", "paths": [str(train_csv)],
                  "label_column": "label", "label_map": {"1": 1, "-1": -1},
                  "feature_columns": None, "train_pos": 5, "train_neg": 5,
                  "test_pos": 5, "test_neg": 5}
        stream = {"modes": ["pool_full"], "n_batches": 2, "batch_pos": 15,
                  "batch_neg": 75, "test_pos": 25, "test_neg": 25}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "source": source,
                                    "stream": stream}))
        out = tmp_path / "run"
        code = main(["stream", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert "synthetic stream batches need a synthetic source" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,override,message", [
        pytest.param("csv", {"paths": "pool.csv"},
                     'paths must be a nonempty list of strings, got "pool.csv"',
                     id="paths-string"),
        pytest.param("csv", {"feature_columns": "f0"},
                     'feature_columns must be a nonempty list of strings, '
                     'got "f0"', id="feature_columns-string"),
        pytest.param("csv", {"feature_columns": []},
                     "feature_columns must be a nonempty list of strings, "
                     "got []", id="feature_columns-empty"),
        pytest.param("csv", {"label_map": [1]},
                     "label_map must be a JSON object, got [1]",
                     id="label_map-list"),
        pytest.param("csv", {"label_column": 5},
                     "label_column must be a string, got 5",
                     id="label_column-number"),
        pytest.param("csv", {"label_map": {"1": 5}},
                     'label_map["1"] must be +1 or -1, got 5',
                     id="label_map-value-5"),
        pytest.param("csv", {"label_map": {"1": True, "-1": -1}},
                     'label_map["1"] must be +1 or -1, got true',
                     id="label_map-value-true"),
        pytest.param("csv", {"label_map": {"1": 1, "-1": -1.0}},
                     'label_map["-1"] must be +1 or -1, got -1.0',
                     id="label_map-value-float"),
        pytest.param("source", {"speed": 1}, "unknown source keys: ['speed']",
                     id="source-unknown-key"),
        pytest.param("stream", {"speed": 1}, "unknown stream keys: ['speed']",
                     id="stream-unknown-key"),
        pytest.param("stream", {"modes": "pool_full"},
                     'modes must be a nonempty list of strings, got "pool_full"',
                     id="modes-string"),
        pytest.param(None, {"budgets": "100"},
                     'budgets must be a nonempty list, got "100"',
                     id="budgets-string"),
        pytest.param("source", {"separation": math.inf},
                     "separation must be a finite number >= 0, got Infinity",
                     id="separation-inf"),
        pytest.param(None, {"svm": {"reg": math.inf}},
                     "svm.reg must be a finite number > 0, got Infinity",
                     id="svm-reg-inf"),
    ])
    def test_malformed_config_exits_one_before_any_work(
            self, workspace, tmp_path, capsys, caplog, section, override,
            message):
        """A value of the wrong shape is a config error naming its key:
        never split into characters, a data error or a raw exception."""
        _, _, train_csv, _ = workspace
        spec = {**TINY, "stream": {"modes": ["pool_full"], "n_batches": 2,
                                   "batch_pos": 15, "batch_neg": 75,
                                   "test_pos": 25, "test_neg": 25}}
        if section == "csv":
            spec.update(stream=None, source={
                "kind": "csv", "paths": [str(train_csv)],
                "label_column": "label", "label_map": {"1": 1, "-1": -1},
                "feature_columns": None, "train_pos": 5, "train_neg": 5,
                "test_pos": 5, "test_neg": 5, **override})
        elif section:
            spec[section] = {**spec[section], **override}
        else:
            spec.update(override)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        code = main(["offline", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert f"config error: {message}" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("key", ["train_pos", "embedding_dim",
                                     "repetitions", "n_datasets"])
    def test_huge_config_count_exits_one_without_a_run(self, tmp_path, capsys,
                                                       caplog, key):
        """A count past 2**53 is a config error, not a numpy exception or a
        grid that never ends."""
        spec = json.loads(json.dumps(TINY))
        (spec["source"] if key in spec["source"] else spec)[key] = 10**400
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        code = main(["offline", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert f"config error: {key} must be a whole number in [1, 2^53]" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not out.exists()

    def test_huge_dimension_flag_exits_one(self, workspace, tmp_path, capsys,
                                           caplog):
        _, _, train_csv, _ = workspace
        out = tmp_path / "cs.json"
        code = main(["coreset", "--data", str(train_csv), "--out", str(out),
                     "--budget", "5", "--d", "1" + "0" * 30])
        assert code == 1
        assert ("config error: argument --d: expected a whole number in "
                "[1, 2^53]") in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not out.exists()

    def test_bad_budget_override_exits_one(self, tmp_path, capsys):
        code = main(["offline", "--config", "sim1", "--budgets", "a,b",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        capsys.readouterr()

    def test_budget_override_reads_each_item_as_a_count(self, tmp_path,
                                                        capsys):
        args = build_parser().parse_args(["offline", "--config", "sim1",
                                          "--budgets", "100, 500",
                                          "--out", "run"])
        assert args.budgets == (100, 500)
        for text in ("0", "100,1.5", ","):
            assert main(["offline", "--config", "sim1", "--budgets", text,
                         "--out", str(tmp_path / "run")]) == 1
        assert not (tmp_path / "run").exists()
        capsys.readouterr()

    def test_missing_data_file_exits_two(self, tmp_path, capsys):
        code = main(["coreset", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "cs.json"), "--budget", "5"])
        assert code == 2
        capsys.readouterr()

    def test_report_on_empty_directory_exits_two(self, tmp_path):
        assert main(["report", "--run", str(tmp_path)]) == 2

    @pytest.mark.parametrize("column,cell", [("accuracy", "abc"),
                                             ("n_divergent", "1.5")])
    def test_damaged_results_cell_exits_two(self, tmp_path, capsys, caplog,
                                            column, cell):
        """A results cell that does not read as its column's kind is a data
        error that names the file, the line and the column."""
        run = tmp_path / "run"
        run.mkdir()
        (run / "config.json").write_text(json.dumps(TINY))
        names = [name for name, _ in OFFLINE_COLUMNS]
        good = {"dataset": "0", "condition": "blr_full", "repetition": "0",
                "accuracy": "0.9", "n_divergent": "0"}
        bad = {**good, "repetition": "1", column: cell}
        with (run / "results.csv").open("w", newline="") as handle:
            csv.writer(handle).writerows(
                [names] + [[row.get(name, "") for name in names]
                           for row in (good, bad)])
        assert main(["report", "--run", str(run)]) == 2
        assert (f"data error: {run / 'results.csv'}: line 3, column {column}"
                in caplog.text)
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not (run / "report.json").exists()

    @pytest.mark.parametrize("command,flag", [
        ("coreset", "--budget"), ("coreset", "--d"), ("eval", "--draws"),
        ("train", "--total-samples"), ("train", "--thin"),
        ("train", "--leapfrog-steps"),
    ])
    @pytest.mark.parametrize("value", ["0", "-3", "2.5"])
    def test_count_flag_below_one_exits_one(self, workspace, tmp_path, caplog,
                                            command, flag, value):
        """A count flag's bad value is a usage error, even on good data."""
        _, _, train_csv, _ = workspace
        argv = [command, "--data", str(train_csv), flag, value]
        if command == "coreset":
            argv += ["--out", str(tmp_path / "cs.json"), "--budget", "5"]
        elif command == "train":
            argv += ["--out", str(tmp_path / "post")]
        else:
            argv += ["--posterior", str(tmp_path / "post")]
        assert main(argv) == 1
        assert "config error:" in caplog.text
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["prepare", "offline", "stream",
                                         "coreset", "train"])
    @pytest.mark.parametrize("value", ["-1", "1.5"])
    def test_seed_flag_below_zero_exits_one(self, workspace, tmp_path, capsys,
                                            caplog, command, value):
        """Every --seed flag takes a whole number >= 0, as the config's
        rng_seed does, and refuses anything else before any work."""
        _, cfg, train_csv, _ = workspace
        if command in ("coreset", "train"):
            argv = [command, "--data", str(train_csv),
                    "--out", str(tmp_path / "out")]
            if command == "coreset":
                argv += ["--budget", "5", "--method", "random"]
        else:
            argv = [command, "--config", str(cfg),
                    "--out", str(tmp_path / "out")]
        assert main(argv + ["--seed", value]) == 1
        assert ("config error: argument --seed: expected a whole number >= 0, "
                f"got '{value}'") in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value", [
        ("--burn-frac", "1.5"), ("--jitter", "2"),
        ("--initial-step-size", "-1"), ("--initial-step-size", "0"),
        ("--target-accept", "nan"),
    ])
    def test_out_of_range_sampler_flag_exits_one(self, workspace, tmp_path,
                                                 capsys, caplog, flag, value):
        """The sampler's own check makes a bad flag a usage error."""
        _, _, train_csv, _ = workspace
        code = main(["train", "--data", str(train_csv),
                     "--out", str(tmp_path / "post"), flag, value])
        assert code == 1
        assert "config error:" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("readable", [False, True])
    def test_sampler_flags_are_checked_before_the_data_is_read(
            self, workspace, tmp_path, caplog, readable):
        """A bad sampler flag is a config error whether or not the data file
        exists, and no data is ingested first."""
        _, _, train_csv, _ = workspace
        caplog.set_level(logging.INFO, logger="flowcoreset")
        data = train_csv if readable else tmp_path / "missing.csv"
        code = main(["train", "--data", str(data),
                     "--out", str(tmp_path / "post"), "--thin", "0"])
        assert code == 1
        assert "config error:" in caplog.text
        assert "ingested" not in caplog.text
        assert not (tmp_path / "post.npy").exists()

    @pytest.mark.parametrize("command,case", [
        ("coreset", "0-byte"), ("train", "0-byte"), ("eval", "0-byte"),
        ("coreset", "overflowing-column"), ("train", "overflowing-column"),
    ])
    def test_unusable_data_csv_exits_two(self, full_posterior, tmp_path,
                                         capsys, caplog, command, case):
        """A 0-byte CSV, and a column whose spread overflows the sd, are
        data errors: exit 2 with a data error line, no output written."""
        data = tmp_path / "data.csv"
        data.write_text("" if case == "0-byte" else
                        "f0,f1,label\n-1.54,0.3,1\n-1.28,-0.2,-1\n"
                        "-7.19e201,1.1,1\n0.5,0.7,-1\n")
        out = tmp_path / "out"
        argv = {"coreset": ["coreset", "--out", str(out), "--budget", "3",
                            "--d", "5"],
                "train": ["train", "--out", str(out), *TRAIN_FLAGS],
                "eval": ["eval", "--posterior", str(full_posterior)]}[command]
        assert main(argv + ["--data", str(data)]) == 2
        assert "data error:" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eval_far_outside_the_trained_frame_exits_two(self, tmp_path,
                                                          capsys, caplog):
        """A test cell that overflows float64 in the trained frame (scale
        5e-11) is a data error naming its column, with no warning."""
        train = tmp_path / "train.csv"
        train.write_text("f0,label\n1.0,-1\n1.0,-1\n"
                         "1.0000000001,1\n1.0000000001,1\n")
        test = tmp_path / "test.csv"
        test.write_text("f0,label\n1e300,1\n1.0,-1\n")
        stem = tmp_path / "post"
        assert main(["train", "--data", str(train), "--out", str(stem),
                     *TRAIN_FLAGS]) == 0
        capsys.readouterr()
        assert main(["eval", "--posterior", str(stem),
                     "--data", str(test)]) == 2
        assert "data error: feature column 0 overflows" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err

    @pytest.mark.parametrize("case", ["coreset-no-weight", "coreset-not-json",
                                      "posterior-sidecar-empty",
                                      "posterior-draws-truncated",
                                      "run-config-truncated",
                                      "eval-without-std-json"])
    def test_malformed_artifact_exits_two(self, workspace, full_posterior,
                                          tmp_path, capsys, caplog, case):
        """A damaged or missing artifact file is a data error, never a raw
        exception or an answer in the wrong feature frame."""
        _, _, train_csv, test_csv = workspace
        stem = tmp_path / "post"
        for suffix in (".npy", ".json", ".std.json"):
            shutil.copy(full_posterior.with_suffix(suffix),
                        stem.with_suffix(suffix))
        eval_argv = ["eval", "--posterior", str(stem), "--data", str(test_csv)]
        coreset = tmp_path / "cs.json"
        train_argv = ["train", "--data", str(train_csv), "--coreset",
                      str(coreset), "--out", str(tmp_path / "cs_post"),
                      *TRAIN_FLAGS]
        if case == "coreset-no-weight":
            coreset.write_text(json.dumps({"entries": [
                {"batch_id": "batch0", "row_index": 0}]}))
            argv = train_argv
        elif case == "coreset-not-json":
            coreset.write_text("{\"entries\": [")
            argv = train_argv
        elif case == "posterior-sidecar-empty":
            stem.with_suffix(".json").write_text("{}")
            argv = eval_argv
        elif case == "posterior-draws-truncated":
            npy = stem.with_suffix(".npy")
            npy.write_bytes(npy.read_bytes()[:100])
            argv = eval_argv
        elif case == "run-config-truncated":
            run = tmp_path / "run"
            run.mkdir()
            write_rows(run / "results.csv", [], OFFLINE_COLUMNS)
            (run / "config.json").write_text(json.dumps(TINY)[:40])
            argv = ["report", "--run", str(run)]
        else:
            stem.with_suffix(".std.json").unlink()
            argv = eval_argv
        assert main(argv) == 2
        assert "data error:" in caplog.text
        assert "accuracy" not in capsys.readouterr().out

    @pytest.mark.parametrize("case, message", [
        pytest.param("std-json", "standardization fitted on 3 features, "
                     "data has 5", id="std-json"),
        pytest.param("posterior", "rows have 5 features, the posterior 3",
                     id="posterior"),
    ])
    def test_eval_width_mismatch_exits_two(self, workspace, full_posterior,
                                           tmp_path, capsys, caplog, case,
                                           message):
        """A .std.json or posterior narrower than the test CSV's 5 features
        is a data error that names both widths."""
        _, _, _, test_csv = workspace
        stem = tmp_path / "post"
        for suffix in (".npy", ".json", ".std.json"):
            shutil.copy(full_posterior.with_suffix(suffix),
                        stem.with_suffix(suffix))
        if case == "std-json":
            stem.with_suffix(".std.json").write_text(
                json.dumps({"mean": [0.0] * 3, "scale": [1.0] * 3}))
        else:
            npy = stem.with_suffix(".npy")
            np.save(npy, np.load(npy)[:, :3])
        code = main(["eval", "--posterior", str(stem), "--data", str(test_csv)])
        assert code == 2
        assert f"data error: {message}" in caplog.text
        assert "accuracy" not in capsys.readouterr().out


class TestCoresetCommand:
    @pytest.mark.parametrize("method", ["giga", "fw", "random"])
    def test_builds_and_saves_each_method(self, workspace, tmp_path,
                                          capsys, method):
        _, _, train_csv, _ = workspace
        out = tmp_path / f"{method}.json"
        code = main(["coreset", "--data", str(train_csv), "--out", str(out),
                     "--method", method, "--budget", "10", "--d", "20"])
        assert code == 0
        info = last_json(capsys)
        assert info["method"] == method
        assert 1 <= info["entries"] <= 10
        built = load_coreset(out)
        assert built.size == info["entries"]
        if method == "random":
            assert info["relative_error"] is None
        else:
            assert 0.0 <= info["relative_error"] <= 1.0


class TestTrainEvalCommands:
    def test_train_writes_posterior_and_standardization(self, full_posterior):
        stem = full_posterior
        assert stem.with_suffix(".npy").exists()
        assert stem.with_suffix(".json").exists()
        assert stem.with_suffix(".std.json").exists()
        meta = json.loads(stem.with_suffix(".json").read_text())
        assert meta["n_draws"] == 50

    def test_eval_reports_accuracy_on_held_out_data(self, workspace,
                                                    full_posterior, capsys):
        _, _, _, test_csv = workspace
        code = main(["eval", "--posterior", str(full_posterior),
                     "--data", str(test_csv)])
        assert code == 0
        result = last_json(capsys)
        assert result["samples"] == 60
        assert result["draws"] == 50
        assert result["accuracy"] >= 0.85

    def test_train_on_a_coreset_matches_full_closely(self, workspace,
                                                     tmp_path, capsys):
        _, _, train_csv, test_csv = workspace
        cs = tmp_path / "cs.json"
        assert main(["coreset", "--data", str(train_csv), "--out", str(cs),
                     "--budget", "30", "--d", "30"]) == 0
        stem = tmp_path / "coreset_post"
        code = main(["train", "--data", str(train_csv),
                     "--coreset", str(cs), "--out", str(stem), *TRAIN_FLAGS])
        assert code == 0
        capsys.readouterr()
        # The coreset rows are trained in the frame `coreset` built them in.
        frame = json.loads(stem.with_suffix(".std.json").read_text())
        assert frame == fit_standardization(load_dataset(train_csv)[0]).to_dict()
        assert main(["eval", "--posterior", str(stem),
                     "--data", str(test_csv)]) == 0
        assert last_json(capsys)["accuracy"] >= 0.8

    def test_unset_sampler_flags_keep_the_sampler_defaults(self, workspace,
                                                           tmp_path, capsys):
        _, _, train_csv, _ = workspace
        stem = tmp_path / "defaults"
        code = main(["train", "--data", str(train_csv), "--out", str(stem),
                     "--total-samples", "120"])
        assert code == 0
        capsys.readouterr()
        meta = json.loads(stem.with_suffix(".json").read_text())
        assert meta["leapfrog_steps"] == 20
        assert meta["thinning"] == 2

    def test_numerical_failure_exits_three_with_diagnostics(self, workspace,
                                                            tmp_path, capsys):
        _, _, train_csv, _ = workspace
        stem = tmp_path / "blown"
        code = main(["train", "--data", str(train_csv), "--out", str(stem),
                     "--total-samples", "120", "--burn-frac", "0.0",
                     "--initial-step-size", "1e15"])
        assert code == 3
        capsys.readouterr()
        report = json.loads((stem / "numerical_failure.json").read_text())
        assert "divergen" in report["error"]
        assert report["diagnostics"]["window"] == 100


class TestExperimentCommands:
    def test_offline_prints_the_report_path(self, workspace, tmp_path,
                                            capsys):
        _, cfg, _, _ = workspace
        out = tmp_path / "run"
        code = main(["offline", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert printed == str(out / "report.json")
        assert (out / "report.json").exists()
        assert (out / "results.csv").exists()

    def test_budget_override_changes_the_condition_grid(self, workspace,
                                                        tmp_path, capsys):
        _, cfg, _, _ = workspace
        out = tmp_path / "run"
        code = main(["offline", "--config", str(cfg), "--budgets", "10,20",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        grand = report["grand_mean_accuracy"]
        assert "blr_coreset_m10" in grand and "blr_coreset_m20" in grand
        assert "blr_coreset_m15" not in grand

    def test_stream_single_mode_flag(self, workspace, tmp_path, capsys):
        root, _, _, _ = workspace
        spec = dict(TINY)
        spec["budgets"] = [25]
        spec["stream"] = {"modes": ["pool_full", "coreset_aggregate"],
                          "n_batches": 2, "batch_pos": 15, "batch_neg": 75,
                          "test_pos": 25, "test_neg": 25,
                          "eval_scope": "union"}
        cfg = tmp_path / "stream.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "run"
        code = main(["stream", "--config", str(cfg), "--mode", "pool",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "stream_report.json").read_text())
        assert [arm["mode"] for arm in report["arms"]] == ["pool_full"]

    def test_offline_logs_a_condition_with_no_successful_trial(
            self, workspace, tmp_path, capsys, caplog, monkeypatch):
        """A condition whose every chain failed is logged as such, not
        formatted as a number."""
        _, cfg, _, _ = workspace
        caplog.set_level(logging.INFO, logger="flowcoreset")

        def diverge(*args, **kwargs):
            raise NumericalError("HMC aborted: persistent divergences")
            yield  # a generator, as each chain is

        monkeypatch.setattr("flowcoreset.inference._chain", diverge)
        out = tmp_path / "run"
        assert main(["offline", "--config", str(cfg), "--out", str(out)]) == 0
        assert "Logging error" not in capsys.readouterr().err
        assert "blr_full: no successful trial" in caplog.text
        report = json.loads((out / "report.json").read_text())
        assert report["grand_mean_accuracy"]["blr_full"] is None
        assert report["grand_mean_accuracy"]["svm"] is not None

    def test_report_command_recreates_deleted_outputs(self, workspace,
                                                      tmp_path, capsys):
        _, cfg, _, _ = workspace
        out = tmp_path / "run"
        assert main(["offline", "--config", str(cfg),
                     "--out", str(out)]) == 0
        original = (out / "report.json").read_bytes()
        (out / "report.json").unlink()
        (out / "report.csv").unlink()
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        printed = capsys.readouterr().out
        assert str(out / "report.json") in printed
        assert (out / "report.json").read_bytes() == original


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        """Importing scipy costs about half a second of set-up and loads a
        second BLAS; nothing the program runs needs it."""
        src = Path(flowcoreset.__file__).resolve().parents[1]
        code = ("import sys, flowcoreset.cli; print(sorted(m for m in sys.modules"
                " if m == 'scipy' or m.startswith('scipy.')))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_only_coreset_compress_builds_likelihood_coresets(self):
        """Standardize, basis, embed and construct are one path: offline,
        stream and CLI reach the basis and embedding only through compress."""
        for name in ("experiments", "stream", "cli"):
            module = importlib.import_module(f"flowcoreset.{name}")
            for stage in ("build_projection_basis", "embed_log_likelihoods"):
                assert not hasattr(module, stage), f"{name}.{stage}"
