"""Tests for dataset ingestion, subsampling, standardization, and synthesis."""

import csv
import io
import json
import warnings

import numpy as np
import pytest

from flowcoreset.data import (
    CsvSchema,
    Dataset,
    apply_standardization,
    fit_standardization,
    generate_synthetic,
    dataset_csv_text,
    ingest_csv,
    load_dataset,
    save_dataset,
    stratified_split,
)
from flowcoreset.errors import DataError


def write_csv(tmp_path, text, name="flows.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


SCHEMA = CsvSchema(
    feature_columns=["dur", "pkts"],
    label_column="label",
    label_map={"benign": 1, "attack": -1},
)


class TestIngestCsv:
    def test_drops_rows_with_missing_values(self, tmp_path):
        """A NaN cell removes exactly that row and the drop is counted."""
        path = write_csv(
            tmp_path,
            "dur,pkts,label\n1.0,2.0,benign\nNaN,3.0,attack\n4.0,5.0,benign\n",
        )
        data, dropped = ingest_csv(path, SCHEMA)
        assert data.n == 2
        assert dropped == 1
        np.testing.assert_allclose(data.x, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_allclose(data.y, [1.0, 1.0])

    def test_infinity_and_empty_cells_count_as_missing(self, tmp_path):
        path = write_csv(
            tmp_path,
            "dur,pkts,label\nInfinity,1.0,benign\n2.0,,attack\n-Infinity,0.5,benign\n3.0,4.0,attack\n",
        )
        data, dropped = ingest_csv(path, SCHEMA)
        assert data.n == 1
        assert dropped == 3
        np.testing.assert_allclose(data.y, [-1.0])

    def test_label_values_map_to_plus_minus_one(self, tmp_path):
        path = write_csv(tmp_path, "dur,pkts,label\n1,2,attack\n3,4,benign\n")
        data, _ = ingest_csv(path, SCHEMA)
        assert set(np.unique(data.y)) == {-1.0, 1.0}

    def test_unknown_label_value_raises(self, tmp_path):
        path = write_csv(tmp_path, "dur,pkts,label\n1,2,ddos\n")
        with pytest.raises(DataError):
            ingest_csv(path, SCHEMA)

    def test_missing_schema_column_raises(self, tmp_path):
        path = write_csv(tmp_path, "dur,label\n1,benign\n")
        with pytest.raises(DataError):
            ingest_csv(path, SCHEMA)

    def test_ragged_row_raises(self, tmp_path):
        path = write_csv(tmp_path, "dur,pkts,label\n1,2,benign\n1,2\n")
        with pytest.raises(DataError):
            ingest_csv(path, SCHEMA)

    def test_garbage_feature_value_raises(self, tmp_path):
        path = write_csv(tmp_path, "dur,pkts,label\n1,banana,benign\n")
        with pytest.raises(DataError):
            ingest_csv(path, SCHEMA)

    def test_default_feature_columns_take_all_but_label(self, tmp_path):
        """With feature_columns=None every non-label column is a feature."""
        schema = CsvSchema(
            feature_columns=None,
            label_column=" Label",
            label_map={"BENIGN": 1, "FTP-Patator": -1, "SSH-Patator": -1},
        )
        path = write_csv(
            tmp_path,
            " Flow Duration, Total Fwd Packets, Label\n"
            "100,3,BENIGN\n"
            "200,9,FTP-Patator\n"
            "50,1,SSH-Patator\n",
        )
        data, dropped = ingest_csv(path, schema)
        assert data.f == 2
        assert dropped == 0
        np.testing.assert_allclose(data.y, [1.0, -1.0, -1.0])

    def test_repeated_header_names_read_each_column_by_position(self, tmp_path):
        """With feature_columns=None a name the header repeats after
        stripping is read once per copy, in file order; a repeated label or
        listed feature column is a DataError naming it."""
        path = write_csv(tmp_path, "a, a,label\n1,2,benign\n3,4,attack\n")
        data, _ = ingest_csv(path, CsvSchema(None, "label", SCHEMA.label_map))
        np.testing.assert_array_equal(data.x, [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DataError, match=r"columns repeated in header: \['a'\]"):
            ingest_csv(path, CsvSchema(["a"], "label", SCHEMA.label_map))
        path = write_csv(tmp_path, "a,label, label\n1,benign,attack\n")
        with pytest.raises(DataError, match=r"columns repeated in header: \['label'\]"):
            ingest_csv(path, CsvSchema(None, "label", SCHEMA.label_map))

    def test_column_order_follows_schema_not_file(self, tmp_path):
        schema = CsvSchema(
            feature_columns=["pkts", "dur"],
            label_column="label",
            label_map={"benign": 1, "attack": -1},
        )
        path = write_csv(tmp_path, "dur,pkts,label\n1.0,2.0,benign\n")
        data, _ = ingest_csv(path, schema)
        np.testing.assert_allclose(data.x, [[2.0, 1.0]])


class TestStratifiedSubsample:
    def make(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        y = np.concatenate([np.ones(70), -np.ones(30)])
        return Dataset(x, y)

    def test_exact_class_counts(self):
        sub = stratified_split(self.make(), n_pos=10, n_neg=5, rng_seed=1)[0]
        assert sub.n == 15
        assert int((sub.y > 0).sum()) == 10
        assert int((sub.y < 0).sum()) == 5

    def test_deterministic_given_seed(self):
        a = stratified_split(self.make(), 10, 5, rng_seed=7)[0]
        b = stratified_split(self.make(), 10, 5, rng_seed=7)[0]
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = stratified_split(self.make(), 10, 5, rng_seed=7)[0]
        b = stratified_split(self.make(), 10, 5, rng_seed=8)[0]
        assert not np.array_equal(a.x, b.x)

    def test_zero_positives_gives_all_negative_subsample(self):
        sub = stratified_split(self.make(), n_pos=0, n_neg=12, rng_seed=3)[0]
        assert sub.n == 12
        assert np.all(sub.y < 0)

    def test_overdraw_raises(self):
        with pytest.raises(DataError):
            stratified_split(self.make(), n_pos=71, n_neg=0, rng_seed=0)
        with pytest.raises(DataError):
            stratified_split(self.make(), n_pos=0, n_neg=31, rng_seed=0)

    def test_split_partitions_the_pool(self):
        """Split halves are disjoint and together cover every row."""
        pool = self.make()
        head, rest = stratified_split(pool, n_pos=40, n_neg=10, rng_seed=2)
        assert head.n == 50
        assert rest.n == 50
        assert int((rest.y > 0).sum()) == 30
        combined = np.vstack([head.x, rest.x])
        assert np.unique(combined, axis=0).shape[0] == pool.n


class TestStandardization:
    def test_train_set_becomes_zero_mean_unit_scale(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(3.0, 5.0, size=(400, 4)), np.ones(400))
        params = fit_standardization(data)
        out = apply_standardization(data, params)
        np.testing.assert_allclose(out.x.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.x.std(axis=0), 1.0, atol=1e-12)

    def test_population_std_not_sample_std(self):
        x = np.array([[0.0], [2.0]])
        params = fit_standardization(Dataset(x, np.array([1.0, -1.0])))
        np.testing.assert_allclose(params.scale, [1.0])

    def test_zero_variance_feature_gets_unit_scale(self):
        """A constant column must pass through unscaled, not divide by zero."""
        x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        params = fit_standardization(Dataset(x, np.ones(10)))
        assert params.scale[0] == 1.0
        out = apply_standardization(Dataset(x, np.ones(10)), params)
        np.testing.assert_allclose(out.x[:, 0], 0.0, atol=1e-12)

    def test_apply_uses_supplied_params_without_refitting(self):
        rng = np.random.default_rng(3)
        train = Dataset(rng.normal(size=(50, 2)), np.ones(50))
        test = Dataset(rng.normal(5.0, 1.0, size=(50, 2)), np.ones(50))
        params = fit_standardization(train)
        out = apply_standardization(test, params)
        assert np.all(np.abs(out.x.mean(axis=0)) > 1.0)
        np.testing.assert_allclose(out.x, (test.x - params.mean) / params.scale)

    def test_empty_dataset_raises(self):
        empty = Dataset(np.empty((0, 2)), np.empty(0))
        with pytest.raises(DataError):
            fit_standardization(empty)

    def test_overflowing_column_is_a_data_error(self):
        """A spread past about 1e154 overflows the sd; the column is named,
        not divided to zero behind a warning, and finite columns keep
        numpy's mean and sd bit for bit."""
        x = np.array([[0.3, -1.54], [-0.2, -1.28], [1.1, -7.19e201]])
        y = np.array([1.0, -1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="feature column 1 overflows"):
                fit_standardization(Dataset(x, y))
            finite = Dataset(x[:, :1], y)
            params = fit_standardization(finite)
        np.testing.assert_array_equal(params.mean, finite.x.mean(axis=0))
        np.testing.assert_array_equal(params.scale, finite.x.std(axis=0))


class TestGenerateSynthetic:
    def test_same_seed_is_bitwise_identical(self):
        a = generate_synthetic(50, 5, f=6, separation=4.0, rng_seed=11)
        b = generate_synthetic(50, 5, f=6, separation=4.0, rng_seed=11)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_class_counts_and_shape(self):
        data = generate_synthetic(800, 80, f=20, separation=4.0, rng_seed=0)
        assert data.x.shape == (880, 20)
        assert int((data.y > 0).sum()) == 800
        assert int((data.y < 0).sum()) == 80

    def test_class_mean_distance_matches_separation(self):
        data = generate_synthetic(4000, 4000, f=10, separation=4.0, rng_seed=5)
        gap = data.x[data.y > 0].mean(axis=0) - data.x[data.y < 0].mean(axis=0)
        assert abs(np.linalg.norm(gap) - 4.0) < 0.3

    def test_zero_separation_mixes_classes(self):
        data = generate_synthetic(500, 500, f=4, separation=0.0, rng_seed=6)
        gap = data.x[data.y > 0].mean(axis=0) - data.x[data.y < 0].mean(axis=0)
        assert np.linalg.norm(gap) < 0.3

    def test_bad_arguments_raise(self):
        with pytest.raises(DataError):
            generate_synthetic(0, 0, f=3, separation=1.0, rng_seed=0)
        with pytest.raises(DataError):
            generate_synthetic(10, 10, f=0, separation=1.0, rng_seed=0)
        with pytest.raises(DataError):
            generate_synthetic(10, 10, f=3, separation=-1.0, rng_seed=0)


class TestDataset:
    def test_rejects_labels_outside_plus_minus_one(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_rejects_non_finite_features(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0, np.nan]]), np.array([1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.ones(2))

    def test_arrays_are_immutable(self):
        data = Dataset(np.zeros((2, 2)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            data.x[0, 0] = 5.0
        with pytest.raises(ValueError):
            data.y[0] = -1.0


class TestSaveLoad:
    def test_round_trip_is_exact(self, tmp_path):
        data = generate_synthetic(20, 10, f=5, separation=3.0, rng_seed=9)
        path = tmp_path / "out" / "train.csv"
        save_dataset(data, path, provenance={"rng_seed": 9, "n_dropped": 0})
        back, meta = load_dataset(path)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)
        assert meta["rng_seed"] == 9

    @pytest.mark.parametrize("text", ["", "\n"], ids=["0-byte", "blank-line"])
    def test_file_without_a_header_is_a_data_error(self, tmp_path, text):
        path = write_csv(tmp_path, text)
        with pytest.raises(DataError, match="empty file"):
            load_dataset(path)

    def test_sidecar_is_single_line_json(self, tmp_path):
        data = generate_synthetic(5, 5, f=2, separation=1.0, rng_seed=1)
        path = tmp_path / "d.csv"
        save_dataset(data, path, provenance={"source": "synthetic"})
        sidecar = path.with_suffix(".csv.json")
        text = sidecar.read_text()
        assert text.count("\n") <= 1
        assert json.loads(text)["source"] == "synthetic"

    @pytest.mark.parametrize("x", [
        [[-0.0, 5e-324, 1e308], [0.1, 3.0, -2.0], [-1e-308, 1.0, 1e16]],
        np.empty((0, 3)),
    ])
    def test_csv_text_matches_csv_writer(self, x):
        """Edge floats and an empty dataset come out as csv.writer writes
        them, one repr per float."""
        data = Dataset(np.asarray(x, dtype=float), np.array([1.0, -1.0, 1.0][:len(x)]))
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["f0", "f1", "f2", "label"])
        for row, label in zip(data.x, data.y):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
        assert dataset_csv_text(data) == buffer.getvalue()

    def test_csv_text_matches_file_bytes(self, tmp_path):
        data = generate_synthetic(7, 4, f=3, separation=2.0, rng_seed=3)
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        text = dataset_csv_text(data)
        assert path.stat().st_size == len(text.encode())
        assert path.read_bytes() == text.encode()
