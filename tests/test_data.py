"""Ingestion, imputation, scaling, class encoding, and split tests."""

import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartnet import data as hdata
from heartnet.data import (
    Dataset,
    FormatError,
    ImputationError,
    ParseError,
    Scaler,
    ValidationError,
    bundled_fixture_path,
    decode_outputs,
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
        assert not ds.has_missing_values

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
        assert int(np.isnan(ds.features).sum()) == expected
        assert ds.has_missing_values

    def test_header_row_skipped(self, tmp_path):
        names = ",".join(c.name for c in hdata.HEART_SCHEMA) + ",num"
        ds = load_dataset(write_csv(tmp_path, names + "\n" + EXAMPLE_ROW + "\n"))
        assert len(ds) == 1

    def test_first_row_with_missing_cells_is_data(self, tmp_path):
        # a "?" cell makes a row data, not a header, even with no number in it
        text = ",".join(["?"] * 13 + ["abc"]) + "\n" + EXAMPLE_ROW + "\n"
        with pytest.raises(ParseError, match="line 1: non-numeric value 'abc' in column class"):
            load_dataset(write_csv(tmp_path, text))

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

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, token):
        bad = EXAMPLE_ROW.replace("233", token)
        text = EXAMPLE_ROW + "\n" + bad + "\n"
        with pytest.raises(ParseError, match=f"line 2: non-finite value '{token}' in column Chol"):
            load_dataset(write_csv(tmp_path, text))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_label_names_line(self, tmp_path, token):
        bad = EXAMPLE_ROW[:-1] + token
        with pytest.raises(ParseError, match=f"line 1: non-finite value '{token}' in column class"):
            load_dataset(write_csv(tmp_path, bad + "\n"))

    @pytest.mark.parametrize(
        "line_2",
        [
            EXAMPLE_ROW.replace("233", "abc"),  # non-numeric cell
            "1,2,3",  # field count
            EXAMPLE_ROW[:-1] + "1.5",  # fractional label
        ],
        ids=["non-numeric", "field-count", "fractional-label"],
    )
    def test_earliest_bad_line_wins(self, tmp_path, line_2):
        # the non-finite cell on line 1 is reported, not line 2's error
        line_1 = EXAMPLE_ROW.replace("233", "inf")
        with pytest.raises(ParseError, match="line 1: non-finite value 'inf' in column Chol"):
            load_dataset(write_csv(tmp_path, line_1 + "\n" + line_2 + "\n"))

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

    def test_fixture_regenerates_byte_identical(self, tmp_path):
        # every CLI test and the trend test read this file
        tool = Path(__file__).resolve().parent.parent / "tools" / "generate_fixture.py"
        out = tmp_path / "regenerated.csv"
        subprocess.run([sys.executable, str(tool), "--seed", "7", "--out", str(out)],
                       check=True, capture_output=True, timeout=120)
        assert out.read_bytes() == bundled_fixture_path().read_bytes()

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

    def test_fills_nan_in_a_built_dataset(self):
        # a cell is missing exactly when it is NaN, however the Dataset was made
        features = np.tile(np.arange(13.0), (3, 1))
        features[1, 4] = np.nan
        ds = Dataset(features=features, labels=np.zeros(3, dtype=int))
        assert impute(ds, hdata.IMPUTE_MEDIAN_MODE).features[1, 4] == 4.0
        assert len(impute(ds, hdata.IMPUTE_DROP_ROWS)) == 2

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
        scaler = Scaler(("Age",), [29.0], [77.0])
        row = scaler.transform([54.0])
        assert row[0] == pytest.approx(25.0 / 48.0, rel=1e-15)
        assert scaler.mins[0] <= 54.0 <= scaler.maxs[0]

    def test_bounds_are_read_only_arrays(self):
        scaler = Scaler(["Age", "Sex"], [29, 0], (77, 1))
        assert scaler.names == ("Age", "Sex")
        for bounds in (scaler.mins, scaler.maxs):
            assert bounds.dtype == np.float64
            with pytest.raises(ValueError):
                bounds[0] = 1.0

    def test_unit_interval_on_fit_data(self):
        ds, scaler = self.fixture_scaler()
        scaled = scaler.transform(ds.features)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_round_trip(self):
        ds, scaler = self.fixture_scaler()
        for row in ds.features[:40]:
            back = scaler.inverse_transform(scaler.transform(row))
            np.testing.assert_allclose(back, row, rtol=1e-12, atol=1e-12)
        whole = scaler.inverse_transform(scaler.transform(ds.features[:40]))
        np.testing.assert_allclose(whole, ds.features[:40], rtol=1e-12, atol=1e-12)

    def test_degenerate_column(self):
        scaler = Scaler(("Age", "Sex"), [29.0, 1.0], [77.0, 1.0])
        assert scaler.degenerate_columns == ("Sex",)
        row = scaler.transform([53.0, 1.0])
        assert row[1] == 0.0
        back = scaler.inverse_transform(row)
        assert back[1] == 1.0

    def test_out_of_range_extrapolates_and_flags(self):
        # extrapolated, not clipped; evaluate counts such rows from the bounds
        scaler = Scaler(("Age",), [29.0], [77.0])
        high = scaler.transform([101.0])  # 29 + 1.5*48
        assert high[0] == pytest.approx(1.5, rel=1e-15)
        assert 101.0 > scaler.maxs[0]
        low = scaler.transform([5.0])  # 29 - 0.5*48
        assert low[0] == pytest.approx(-0.5, rel=1e-15)
        assert 5.0 < scaler.mins[0]

    def test_fit_requires_imputed_data(self):
        ds = load_dataset(bundled_fixture_path())
        with pytest.raises(ValidationError, match="impute"):
            fit_scaler(ds)

    def test_save_load_round_trip(self, tmp_path):
        _, scaler = self.fixture_scaler()
        path = tmp_path / "scaler.json"
        save_scaler(scaler, path)
        loaded = load_scaler(path)
        assert loaded.names == scaler.names
        assert loaded.mins.tobytes() == scaler.mins.tobytes()
        assert loaded.maxs.tobytes() == scaler.maxs.tobytes()

    def test_load_rejects_bad_json(self, tmp_path):
        # not JSON, not UTF-8, and nested deeper than the parser recurses
        path = tmp_path / "scaler.json"
        for content in (b"{not json", b'{"Age": "\xff"}', b"[" * 100_000):
            path.write_bytes(content)
            with pytest.raises(FormatError, match=re.escape(f"{path}: not valid JSON")):
                load_scaler(path)

    def test_load_rejects_bad_bounds(self, tmp_path):
        path = tmp_path / "scaler.json"
        path.write_text('{"Age": {"min": 29.0}}', encoding="utf-8")
        with pytest.raises(FormatError, match="Age"):
            load_scaler(path)

    @pytest.mark.parametrize(
        "bound",
        ['"29"', "true", "false", "null", "NaN", "Infinity", "-Infinity", "1" + "0" * 400,
         "[29]"],
        ids=["string", "true", "false", "null", "nan", "inf", "-inf", "huge-int", "list"],
    )
    @pytest.mark.parametrize("key", ["min", "max"])
    def test_load_takes_bounds_only_as_finite_numbers(self, tmp_path, key, bound):
        bounds = {"min": "29", "max": "77.5"}
        bounds[key] = bound
        path = tmp_path / "scaler.json"
        path.write_text(
            '{"Sex": {"min": 0, "max": 1}, "Age": {"min": %(min)s, "max": %(max)s}}' % bounds,
            encoding="utf-8",
        )
        message = f"{path}: column 'Age' needs finite numeric min/max"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_scaler(path)

    def test_load_accepts_integer_bounds(self, tmp_path):
        path = tmp_path / "scaler.json"
        path.write_text('{"Age": {"min": 29, "max": 77.5}}', encoding="utf-8")
        loaded = load_scaler(path)
        assert loaded.mins.tolist() == [29.0] and loaded.maxs.tolist() == [77.5]

    def test_matrix_matches_row_by_row(self):
        ds, scaler = self.fixture_scaler()
        shifted = ds.features * 1.1  # pushes some cells past the fitted max
        scaled = scaler.transform(shifted)
        back = scaler.inverse_transform(scaled)
        for i, row in enumerate(shifted):
            np.testing.assert_array_equal(scaled[i], scaler.transform(row))
            np.testing.assert_array_equal(back[i], scaler.inverse_transform(scaled[i]))
        assert (shifted > scaler.maxs).any()

    def test_column_count_checked(self):
        ds, _ = self.fixture_scaler()
        short = Scaler(tuple(f"c{j}" for j in range(12)), np.zeros(12), np.ones(12))
        with pytest.raises(ValidationError, match="scaler has 12 columns but the input has 13"):
            short.transform(ds.features)
        with pytest.raises(ValidationError, match="12 columns but the input has 13"):
            short.transform(ds.features[0])
        with pytest.raises(ValidationError, match="scaler has 12 columns but the input has 13"):
            short.inverse_transform(ds.features)
        with pytest.raises(ValidationError, match="row or a matrix"):
            short.inverse_transform(5.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError, match="delta"):
            Scaler(("Age",), [77.0], [29.0])

    def test_bounds_per_name_checked(self):
        with pytest.raises(ValidationError, match="one min and one max"):
            Scaler(("Age", "Sex"), [29.0], [77.0])


class TestClassCodes:
    def test_codebook(self):
        np.testing.assert_array_equal(
            encode_labels([0, 1, 2, 3]), [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        )

    def test_encode_decode_round_trip(self):
        labels = np.arange(4)
        np.testing.assert_array_equal(decode_outputs(encode_labels(labels)), labels)

    def test_threshold_and_ties(self):
        outputs = [[0.49, 0.51], [0.51, 0.49], [0.5, 0.5], [0.499999, 0.499999]]
        np.testing.assert_array_equal(decode_outputs(outputs), [1, 2, 3, 0])  # ties round up

    def test_encode_labels_matrix(self):
        targets = encode_labels([0, 3, 1])
        np.testing.assert_array_equal(targets, [[0, 0], [1, 1], [0, 1]])

    def test_out_of_range_label(self):
        with pytest.raises(ValidationError):
            encode_labels([4])
        with pytest.raises(ValidationError):
            encode_labels([0, -1])

    def test_decode_shape_check(self):
        with pytest.raises(ValidationError):
            decode_outputs([0.1, 0.2])
        with pytest.raises(ValidationError):
            decode_outputs([[0.1, 0.2, 0.3]])

    def test_non_finite_output_has_no_class(self):
        for bad in ([np.nan, np.nan], [0.7, np.nan], [np.inf, 0.2]):
            with pytest.raises(ValidationError, match="non-finite"):
                decode_outputs([bad])
        with pytest.raises(ValidationError, match="non-finite network output in row 1"):
            decode_outputs([[0.1, 0.9], [np.nan, 0.3], [0.6, 0.6]])

    def test_rows_match_single_decode(self):
        outputs = np.random.default_rng(2).uniform(0, 1, (50, 2))
        outputs[0] = [0.5, 0.5]  # ties round up
        by_hand = [2 * int(high >= 0.5) + int(low >= 0.5) for high, low in outputs]
        np.testing.assert_array_equal(decode_outputs(outputs), by_hand)


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
            )

    def test_shape_agreement_enforced(self):
        with pytest.raises(ValidationError):
            Dataset(
                features=np.zeros((2, 13)),
                labels=np.array([0]),
            )

    def test_subset(self):
        ds = load_dataset(bundled_fixture_path())
        sub = ds.subset(np.arange(10))
        assert len(sub) == 10
        np.testing.assert_array_equal(sub.features, ds.features[:10])

    def test_subset_and_impute_keep_warnings(self):
        ds = load_dataset(bundled_fixture_path())  # raw labels 0..4: 13 clamped
        assert len(ds.warnings) == 13
        assert ds.subset(np.arange(3)).warnings == ds.warnings
        for policy in (hdata.IMPUTE_DROP_ROWS, hdata.IMPUTE_MEDIAN_MODE):
            assert impute(ds, policy).warnings == ds.warnings


# Values a cell may hold: finite, and written with repr so the parser
# reads back the same double.
CELL_VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def heart_tables(draw, missing=True):
    """A (values, missing mask, labels) table of 1-12 rows of 13 columns."""
    n_rows = draw(st.integers(1, 12))
    cells = st.lists(CELL_VALUES, min_size=13, max_size=13)
    values = np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    flags = st.lists(st.booleans() if missing else st.just(False), min_size=13, max_size=13)
    mask = np.array(draw(st.lists(flags, min_size=n_rows, max_size=n_rows)), dtype=bool)
    labels = draw(st.lists(st.integers(0, 3), min_size=n_rows, max_size=n_rows))
    return values, mask, labels


def table_text(values, mask, labels) -> str:
    lines = []
    for row, row_mask, label in zip(values, mask, labels):
        cells = ["?" if gone else repr(float(v)) for v, gone in zip(row, row_mask)]
        lines.append(",".join(cells + [str(label)]))
    return "\n".join(lines) + "\n"


HEADER = [col.name for col in hdata.HEART_SCHEMA] + ["num"]
PADDING = st.sampled_from(["", " ", "  ", "\t", " \t"])


@st.composite
def raw_table_texts(draw):
    """Text of a table with random whitespace around every token, blank
    lines, an optional header row, "?" feature cells and labels -1..5."""
    values, mask, _ = draw(heart_tables())
    labels = draw(st.lists(st.integers(-1, 5), min_size=len(values), max_size=len(values)))
    rows = [
        ["?" if gone else repr(float(v)) for v, gone in zip(row, row_mask)] + [str(label)]
        for row, row_mask, label in zip(values, mask, labels)
    ]
    if draw(st.booleans()):
        rows.insert(0, HEADER)
    lines = []
    for tokens in rows:
        lines += draw(st.lists(PADDING, max_size=2))  # blank lines
        lines.append(",".join(draw(PADDING) + tok + draw(PADDING) for tok in tokens))
    return "\n".join(lines) + "\n"


def read_cell_by_cell(text):
    """Independent oracle for :func:`load_dataset` under ``clamp``: every
    cell read on its own with ``float(tok.strip())``, "?" as NaN."""
    features, mask, labels, warnings = [], [], [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = [tok.strip() for tok in line.split(",")]
        if tokens == [""] or tokens == HEADER:
            continue
        features.append([math.nan if tok == "?" else float(tok) for tok in tokens[:13]])
        mask.append([tok == "?" for tok in tokens[:13]])
        label = int(float(tokens[13]))
        clamped = min(max(label, 0), 3)
        if clamped != label:
            warnings.append(f"line {line_no}: class label {label} clamped to {clamped}")
        labels.append(clamped)
    return np.array(features), np.array(mask), labels, tuple(warnings)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(table=heart_tables(), policy=st.sampled_from(["median_mode", "drop_rows"]))
    def test_parse_then_impute_keeps_observed_cells(self, table, policy):
        values, mask, labels = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_text(table_text(values, mask, labels), encoding="utf-8")
            loaded = load_dataset(path)
        np.testing.assert_array_equal(np.isnan(loaded.features), mask)
        np.testing.assert_array_equal(loaded.labels, labels)
        # every observed cell is read back bit for bit
        assert loaded.features[~mask].tobytes() == values[~mask].tobytes()

        if policy == "median_mode" and mask.all(axis=0).any():
            with pytest.raises(ImputationError, match="no observed values"):
                impute(loaded, policy)
            return
        filled = impute(loaded, policy)
        assert not np.isnan(filled.features).any()
        keep = ~mask.any(axis=1) if policy == "drop_rows" else np.ones(len(labels), bool)
        assert len(filled) == int(keep.sum())
        observed = ~mask[keep]
        assert filled.features[observed].tobytes() == values[keep][observed].tobytes()
        for j in range(13):
            gone = ~observed[:, j]
            if gone.any():
                # one fill per column, within the column's observed range
                present = values[~mask[:, j], j]
                assert len(set(filled.features[gone, j].tolist())) == 1
                assert present.min() <= filled.features[gone, j][0] <= present.max()

    @settings(max_examples=30, deadline=None)
    @given(text=raw_table_texts())
    def test_bulk_parse_matches_cell_by_cell(self, text):
        features, mask, labels, warnings = read_cell_by_cell(text)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_text(text, encoding="utf-8")
            loaded = load_dataset(path, label_policy=hdata.LABELS_CLAMP)
        assert loaded.features.tobytes() == features.tobytes()
        np.testing.assert_array_equal(np.isnan(loaded.features), mask)
        np.testing.assert_array_equal(loaded.labels, labels)
        assert loaded.warnings == warnings

    @settings(max_examples=30, deadline=None)
    @given(
        table=heart_tables(missing=False),
        constant=st.lists(st.booleans(), min_size=13, max_size=13),
    )
    def test_transform_then_inverse_round_trips(self, table, constant):
        values, _, labels = table
        values[:, constant] = values[0, constant]  # degenerate columns
        ds = Dataset(features=values, labels=labels)
        scaler = fit_scaler(ds)
        flat = (values == values[0]).all(axis=0)  # forced or drawn constant
        assert flat[constant].all()
        assert scaler.degenerate_columns == tuple(
            col.name for col, is_flat in zip(hdata.HEART_SCHEMA, flat) if is_flat
        )
        assert ((values >= scaler.mins) & (values <= scaler.maxs)).all()
        scaled = scaler.transform(values)
        assert ((scaled >= 0.0) & (scaled <= 1.0)).all()
        back_all = scaler.inverse_transform(scaled)
        for row, scaled_row, back_row in zip(values, scaled, back_all):
            back = scaler.inverse_transform(scaled_row)
            np.testing.assert_array_equal(back, back_row)
            np.testing.assert_allclose(back, row, rtol=0, atol=1e-9)
            assert (scaled_row[flat] == 0.0).all()
            assert (back[flat] == row[flat]).all()

    @settings(max_examples=40, deadline=None)
    @given(labels=st.lists(st.integers(0, 3), max_size=30))
    def test_class_codes_round_trip(self, labels):
        np.testing.assert_array_equal(decode_outputs(encode_labels(labels)), labels)
