"""Ingestion, imputation, scaling, class encoding, and split tests."""

import numpy as np
import pytest

from heartnet import data as hdata
from heartnet.data import (
    Dataset,
    FormatError,
    ImputationError,
    ParseError,
    Scaler,
    ValidationError,
    bundled_fixture_path,
    decode_output,
    decode_outputs,
    encode_class,
    encode_labels,
    fit_scaler,
    impute,
    load_dataset,
    load_scaler,
    save_scaler,
    split,
)

# the worked example row used throughout: a 63-year-old male, class 0
EXAMPLE_ROW = "63,1,1,145,233,1,2,150,0,2.3,3,0,6,0"


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_example_row(self, tmp_path):
        ds = load_dataset(write_csv(tmp_path, EXAMPLE_ROW + "\n"))
        assert len(ds) == 1
        np.testing.assert_array_equal(
            ds.features[0],
            [63, 1, 1, 145, 233, 1, 2, 150, 0, 2.3, 3, 0, 6],
        )
        assert ds.labels[0] == 0
        assert not ds.missing_mask.any()

    def test_bundled_fixture_shape(self):
        ds = load_dataset(bundled_fixture_path())
        assert len(ds) == 303
        assert ds.features.shape == (303, 13)
        assert ds.labels.min() >= 0 and ds.labels.max() <= 3

    def test_fixture_missing_cells_match_raw_text(self):
        # independent oracle: count '?' tokens straight off the file text
        raw = bundled_fixture_path().read_text(encoding="utf-8")
        expected = raw.count("?")
        ds = load_dataset(bundled_fixture_path())
        assert int(ds.missing_mask.sum()) == expected
        assert ds.has_missing_values

    def test_header_row_skipped(self, tmp_path):
        names = ",".join(c.name for c in hdata.HEART_SCHEMA) + ",num"
        ds = load_dataset(write_csv(tmp_path, names + "\n" + EXAMPLE_ROW + "\n"))
        assert len(ds) == 1

    def test_blank_lines_skipped(self, tmp_path):
        ds = load_dataset(write_csv(tmp_path, "\n" + EXAMPLE_ROW + "\n\n" + EXAMPLE_ROW + "\n"))
        assert len(ds) == 2

    def test_field_count_error_names_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2: expected 14 fields, got 3"):
            load_dataset(write_csv(tmp_path, EXAMPLE_ROW + "\n1,2,3\n"))

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        bad = EXAMPLE_ROW.replace("233", "abc")
        with pytest.raises(ParseError, match="line 1.*'abc'.*Chol"):
            load_dataset(write_csv(tmp_path, bad + "\n"))

    def test_missing_label_rejected(self, tmp_path):
        bad = EXAMPLE_ROW[: EXAMPLE_ROW.rfind(",")] + ",?"
        with pytest.raises(ParseError, match="missing class label"):
            load_dataset(write_csv(tmp_path, bad + "\n"))

    def test_fractional_label_rejected(self, tmp_path):
        bad = EXAMPLE_ROW[:-1] + "1.5"
        with pytest.raises(ValidationError, match="non-integer class label"):
            load_dataset(write_csv(tmp_path, bad + "\n"))

    def test_label_clamping(self, tmp_path):
        text = EXAMPLE_ROW[:-1] + "4\n" + EXAMPLE_ROW[:-1] + "-1\n"
        ds = load_dataset(write_csv(tmp_path, text), label_policy=hdata.LABELS_CLAMP)
        np.testing.assert_array_equal(ds.labels, [3, 0])
        assert len(ds.warnings) == 2
        assert "clamped" in ds.warnings[0]

    def test_label_strict_rejects(self, tmp_path):
        bad = EXAMPLE_ROW[:-1] + "4"
        with pytest.raises(ValidationError, match="outside 0..3"):
            load_dataset(write_csv(tmp_path, bad + "\n"), label_policy=hdata.LABELS_STRICT)

    def test_unknown_policy(self, tmp_path):
        with pytest.raises(ValueError, match="label_policy"):
            load_dataset(write_csv(tmp_path, EXAMPLE_ROW), label_policy="ignore")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="no data rows"):
            load_dataset(write_csv(tmp_path, "\n"))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope.csv")

    def test_features_are_read_only(self):
        ds = load_dataset(bundled_fixture_path())
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0


class TestImpute:
    def make(self, tmp_path, rows):
        return load_dataset(write_csv(tmp_path, "\n".join(rows) + "\n"))

    def test_drop_rows(self, tmp_path):
        rows = [EXAMPLE_ROW, EXAMPLE_ROW.replace(",0,6,", ",?,6,"), EXAMPLE_ROW]
        ds = self.make(tmp_path, rows)
        out = impute(ds, hdata.IMPUTE_DROP_ROWS)
        assert len(out) == 2
        assert not out.has_missing_values

    def test_drop_rows_on_fixture_matches_text_scan(self):
        raw = bundled_fixture_path().read_text(encoding="utf-8")
        rows_with_missing = sum("?" in line for line in raw.splitlines() if line.strip())
        ds = load_dataset(bundled_fixture_path())
        assert len(impute(ds, hdata.IMPUTE_DROP_ROWS)) == 303 - rows_with_missing

    def test_median_fill_continuous(self, tmp_path):
        # Chol column: observed 100, 200, 300 -> median 200
        rows = [
            EXAMPLE_ROW.replace("233", "100"),
            EXAMPLE_ROW.replace("233", "200"),
            EXAMPLE_ROW.replace("233", "300"),
            EXAMPLE_ROW.replace("233", "?"),
        ]
        out = impute(self.make(tmp_path, rows), hdata.IMPUTE_MEDIAN_MODE)
        assert out.features[3, 4] == 200.0

    def test_mode_fill_categorical_tie_takes_smallest(self, tmp_path):
        # Thal observed 3,3,7,7: tied counts, fill must pick 3
        rows = [
            EXAMPLE_ROW.replace(",6,", ",3,"),
            EXAMPLE_ROW.replace(",6,", ",3,"),
            EXAMPLE_ROW.replace(",6,", ",7,"),
            EXAMPLE_ROW.replace(",6,", ",7,"),
            EXAMPLE_ROW.replace(",6,", ",?,"),
        ]
        out = impute(self.make(tmp_path, rows), hdata.IMPUTE_MEDIAN_MODE)
        assert out.features[4, 12] == 3.0

    def test_mask_preserved_as_provenance(self, tmp_path):
        rows = [EXAMPLE_ROW, EXAMPLE_ROW.replace(",0,6,", ",?,6,")]
        out = impute(self.make(tmp_path, rows), hdata.IMPUTE_MEDIAN_MODE)
        assert not np.isnan(out.features).any()
        assert out.missing_mask[1, 11]

    def test_no_missing_is_identity(self, tmp_path):
        ds = self.make(tmp_path, [EXAMPLE_ROW, EXAMPLE_ROW])
        out = impute(ds, hdata.IMPUTE_MEDIAN_MODE)
        np.testing.assert_array_equal(out.features, ds.features)

    def test_all_missing_column_fails(self, tmp_path):
        rows = [EXAMPLE_ROW.replace(",0,6,", ",?,6,")] * 3
        with pytest.raises(ImputationError, match="Ca"):
            impute(self.make(tmp_path, rows), hdata.IMPUTE_MEDIAN_MODE)

    def test_unknown_policy(self, tmp_path):
        ds = self.make(tmp_path, [EXAMPLE_ROW])
        with pytest.raises(ValueError, match="imputation policy"):
            impute(ds, "zeros")


class TestScaler:
    def fixture_scaler(self):
        ds = impute(load_dataset(bundled_fixture_path()))
        return ds, fit_scaler(ds)

    def test_known_value(self):
        # (54 - 29) / (77 - 29) = 25/48
        scaler = Scaler((hdata.ColumnScale("Age", 29.0, 77.0),))
        row = scaler.transform([54.0])
        assert row.values[0] == pytest.approx(25.0 / 48.0, rel=1e-15)
        assert not row.out_of_range.any()

    def test_unit_interval_on_fit_data(self):
        ds, scaler = self.fixture_scaler()
        scaled = scaler.transform(ds.features).values
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_round_trip(self):
        ds, scaler = self.fixture_scaler()
        for row in ds.features[:40]:
            back = scaler.inverse_transform(scaler.transform(row).values)
            np.testing.assert_allclose(back, row, rtol=1e-12, atol=1e-12)

    def test_degenerate_column(self):
        scaler = Scaler(
            (hdata.ColumnScale("Age", 29.0, 77.0), hdata.ColumnScale("Sex", 1.0, 1.0))
        )
        assert scaler.degenerate_columns == ("Sex",)
        row = scaler.transform([53.0, 1.0])
        assert row.values[1] == 0.0
        back = scaler.inverse_transform(row.values)
        assert back[1] == 1.0

    def test_out_of_range_extrapolates_and_flags(self):
        scaler = Scaler((hdata.ColumnScale("Age", 29.0, 77.0),))
        row = scaler.transform([101.0])  # 29 + 1.5*48
        assert row.values[0] == pytest.approx(1.5, rel=1e-15)
        assert row.out_of_range[0]
        low = scaler.transform([5.0])  # 29 - 0.5*48
        assert low.values[0] == pytest.approx(-0.5, rel=1e-15)
        assert low.out_of_range[0]

    def test_fit_requires_imputed_data(self):
        ds = load_dataset(bundled_fixture_path())
        with pytest.raises(ValidationError, match="impute"):
            fit_scaler(ds)

    def test_save_load_round_trip(self, tmp_path):
        _, scaler = self.fixture_scaler()
        path = tmp_path / "scaler.json"
        save_scaler(scaler, path)
        loaded = load_scaler(path)
        assert loaded.columns == scaler.columns

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "scaler.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_scaler(path)

    def test_load_rejects_bad_bounds(self, tmp_path):
        path = tmp_path / "scaler.json"
        path.write_text('{"Age": {"min": 29.0}}', encoding="utf-8")
        with pytest.raises(FormatError, match="Age"):
            load_scaler(path)

    def test_matrix_matches_row_by_row(self):
        ds, scaler = self.fixture_scaler()
        shifted = ds.features * 1.1  # pushes some cells past the fitted max
        scaled = scaler.transform(shifted)
        for i, row in enumerate(shifted):
            single = scaler.transform(row)
            np.testing.assert_array_equal(scaled.values[i], single.values)
            np.testing.assert_array_equal(scaled.out_of_range[i], single.out_of_range)
        assert scaled.out_of_range.any()

    def test_column_count_checked(self):
        ds, _ = self.fixture_scaler()
        short = Scaler(tuple(hdata.ColumnScale(f"c{j}", 0.0, 1.0) for j in range(12)))
        with pytest.raises(ValidationError, match="scaler has 12 columns but the input has 13"):
            short.transform(ds.features)
        with pytest.raises(ValidationError, match="12 columns but the input has 13"):
            short.transform(ds.features[0])

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError, match="delta"):
            Scaler((hdata.ColumnScale("Age", 77.0, 29.0),))


class TestClassCodes:
    def test_codebook(self):
        np.testing.assert_array_equal(encode_class(0), [0.0, 0.0])
        np.testing.assert_array_equal(encode_class(1), [0.0, 1.0])
        np.testing.assert_array_equal(encode_class(2), [1.0, 0.0])
        np.testing.assert_array_equal(encode_class(3), [1.0, 1.0])

    def test_encode_decode_round_trip(self):
        for label in range(4):
            assert decode_output(encode_class(label)) == label

    def test_threshold_and_ties(self):
        assert decode_output([0.49, 0.51]) == 1
        assert decode_output([0.51, 0.49]) == 2
        assert decode_output([0.5, 0.5]) == 3  # ties round up
        assert decode_output([0.499999, 0.499999]) == 0

    def test_encode_labels_matrix(self):
        targets = encode_labels([0, 3, 1])
        np.testing.assert_array_equal(targets, [[0, 0], [1, 1], [0, 1]])

    def test_out_of_range_label(self):
        with pytest.raises(ValidationError):
            encode_class(4)
        with pytest.raises(ValidationError):
            encode_class(-1)

    def test_decode_shape_check(self):
        with pytest.raises(ValidationError):
            decode_output([0.1, 0.2, 0.3])

    def test_non_finite_output_has_no_class(self):
        for bad in ([np.nan, np.nan], [0.7, np.nan], [np.inf, 0.2]):
            with pytest.raises(ValidationError, match="non-finite"):
                decode_output(bad)
        with pytest.raises(ValidationError, match="non-finite network output in row 1"):
            decode_outputs([[0.1, 0.9], [np.nan, 0.3], [0.6, 0.6]])

    def test_rows_match_single_decode(self):
        outputs = np.random.default_rng(2).uniform(0, 1, (50, 2))
        outputs[0] = [0.5, 0.5]  # ties round up
        np.testing.assert_array_equal(
            decode_outputs(outputs), [decode_output(row) for row in outputs]
        )


class TestSplit:
    def test_sizes_and_disjointness(self):
        ds = impute(load_dataset(bundled_fixture_path()))
        train_set, test_set = split(ds, 235, 67, seed=0)
        assert len(train_set) == 235 and len(test_set) == 67
        # a row appears in exactly one side: feature rows form disjoint sets
        all_rows = {tuple(r) for r in ds.features}
        train_rows = [tuple(r) for r in train_set.features]
        test_rows = [tuple(r) for r in test_set.features]
        assert set(train_rows) <= all_rows and set(test_rows) <= all_rows

    def test_seed_determinism(self):
        ds = impute(load_dataset(bundled_fixture_path()))
        a1, b1 = split(ds, 100, 100, seed=5)
        a2, b2 = split(ds, 100, 100, seed=5)
        np.testing.assert_array_equal(a1.features, a2.features)
        np.testing.assert_array_equal(b1.labels, b2.labels)
        a3, _ = split(ds, 100, 100, seed=6)
        assert not np.array_equal(a1.features, a3.features)

    def test_oversized_request_names_both_sizes(self):
        ds = impute(load_dataset(bundled_fixture_path()))
        with pytest.raises(ValidationError, match="350.*100|100.*350"):
            split(ds, 350, 100, seed=0)


class TestDataset:
    def test_label_bounds_enforced(self):
        with pytest.raises(ValidationError):
            Dataset(
                features=np.zeros((1, 13)),
                labels=np.array([7]),
                missing_mask=np.zeros((1, 13), dtype=bool),
            )

    def test_shape_agreement_enforced(self):
        with pytest.raises(ValidationError):
            Dataset(
                features=np.zeros((2, 13)),
                labels=np.array([0]),
                missing_mask=np.zeros((2, 13), dtype=bool),
            )

    def test_subset(self):
        ds = load_dataset(bundled_fixture_path())
        sub = ds.subset(np.arange(10))
        assert len(sub) == 10
        np.testing.assert_array_equal(sub.features, ds.features[:10])
