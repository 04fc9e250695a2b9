"""End-to-end command-line tests driven through main(argv) in-process."""

import json
from importlib import resources

import pytest

from flowcoreset.cli import main, resolve_config
from flowcoreset.coreset import load_coreset
from flowcoreset.errors import ConfigError

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
        config = resolve_config("sim1")
        assert config.budgets == (100, 500, 1000)
        assert config.stream is None

    def test_packaged_sim2_has_a_stream_section(self):
        config = resolve_config("sim2")
        assert config.stream is not None
        assert config.stream.n_batches == 5

    def test_unknown_name_is_a_config_error(self):
        with pytest.raises(ConfigError):
            resolve_config("sim99")

    def test_to_dict_reproduces_the_packaged_configs(self):
        """config.json, written from to_dict, keeps the packaged layout."""
        def packaged(name):
            path = resources.files("flowcoreset") / "configs" / f"{name}.json"
            return json.loads(path.read_text())

        def written(name):
            return json.loads(json.dumps(resolve_config(name).to_dict()))

        assert written("sim1") == packaged("sim1")
        sim2 = packaged("sim2")
        sim2["stream"].update(batch_paths=[], test_paths=[])
        assert written("sim2") == sim2

    def test_file_path_wins_over_packaged_names(self, tmp_path):
        path = tmp_path / "sim1"
        spec = dict(TINY)
        spec["rng_seed"] = 7
        path.write_text(json.dumps(spec))
        assert resolve_config(str(path)).rng_seed == 7


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

    def test_mistyped_sampler_setting_exits_before_any_work(self, tmp_path,
                                                            caplog):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "hmc": {"thin": "x"}}))
        out = tmp_path / "run"
        code = main(["offline", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert "config error:" in caplog.text
        assert not (out / "datasets").exists()

    def test_bad_budget_override_exits_one(self, tmp_path, capsys):
        code = main(["offline", "--config", "sim1", "--budgets", "a,b",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        capsys.readouterr()

    def test_missing_data_file_exits_two(self, tmp_path, capsys):
        code = main(["coreset", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "cs.json"), "--budget", "5"])
        assert code == 2
        capsys.readouterr()

    def test_report_on_empty_directory_exits_two(self, tmp_path):
        assert main(["report", "--run", str(tmp_path)]) == 2


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
