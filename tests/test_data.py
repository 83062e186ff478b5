"""Ingestion, imputation, scaling, class encoding, and split tests."""

import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heartnet import data as hdata
from heartnet.data import (
    HEART_SCHEMA,
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


def padded_fixture_text() -> str:
    """The bundled table with every cell wrapped in "\x1f"."""
    lines = bundled_fixture_path().read_text(encoding="utf-8").splitlines()
    return "".join(",".join(f"\x1f{c}\x1f" for c in line.split(",")) + "\n" for line in lines)


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
        # float() alone reads "2_33" and the full-width "２３３" as 233
        for token in ("abc", "2_33", "２３３"):
            bad = EXAMPLE_ROW.replace("233", token)
            message = f"line 1: non-numeric value {token!r} in column Chol"
            with pytest.raises(ParseError, match=re.escape(message)):
                load_dataset(write_csv(tmp_path, bad + "\n"))

    @pytest.mark.parametrize("token", ["-?", "+?", "1?", "??", "?5", "- ?"])
    def test_question_mark_in_a_longer_cell_is_non_numeric(self, tmp_path, token):
        # only a cell that is "?" alone is missing; np.loadtxt reads "-nan" as NaN,
        # so "-?" must not become "-nan" on the way
        bad = EXAMPLE_ROW.replace("233", token)
        message = f"line 1: non-numeric value {token!r} in column Chol"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_dataset(write_csv(tmp_path, bad + "\n"))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, token):
        bad = EXAMPLE_ROW.replace("233", token)
        text = EXAMPLE_ROW + "\n" + bad + "\n"
        with pytest.raises(ParseError, match=f"line 2: non-finite value '{token}' in column Chol"):
            load_dataset(write_csv(tmp_path, text))

    @pytest.mark.parametrize("column", ["Chol", "class"])
    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan", "+NAN"])
    def test_spelled_nan_beside_missing_cells_names_its_cell(self, tmp_path, token, column):
        # the fixture's six "?" cells are read as NaN; one NaN more, spelled
        # out in a row with no "?", is refused and named all the same
        lines = bundled_fixture_path().read_text(encoding="utf-8").split("\n")
        assert sum(line.count("?") for line in lines) == 6 and "?" not in lines[99]
        cells = lines[99].split(",")
        cells[4 if column == "Chol" else 13] = token
        lines[99] = ",".join(cells)
        message = f"line 100: non-finite value {token!r} in column {column}"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_dataset(write_csv(tmp_path, "\n".join(lines)))

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

    def test_cells_padded_with_unit_separators_load_as_plain(self, tmp_path):
        # np.loadtxt strips "\x1f" around a cell as str.strip() does, so
        # this table is parsed in bulk
        plain = load_dataset(bundled_fixture_path())
        loaded = load_dataset(write_csv(tmp_path, padded_fixture_text()))
        assert loaded.features.tobytes() == plain.features.tobytes()
        np.testing.assert_array_equal(loaded.labels, plain.labels)
        assert loaded.warnings == plain.warnings

    def test_line_walker_runs_only_on_bad_tables(self, tmp_path, monkeypatch):
        def walked(*args):
            raise AssertionError("a table that loads was walked line by line")

        missing = EXAMPLE_ROW + "\n" + EXAMPLE_ROW.replace("233", " ? ").replace(",6,", ",?,") + "\n"
        monkeypatch.setattr(hdata, "_parse_line", walked)
        load_dataset(bundled_fixture_path())
        load_dataset(write_csv(tmp_path, padded_fixture_text(), "padded.csv"))
        assert load_dataset(write_csv(tmp_path, missing)).has_missing_values
        with pytest.raises(AssertionError, match="walked line by line"):
            load_dataset(write_csv(tmp_path, EXAMPLE_ROW.replace("233", "abc"), "bad.csv"))

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

    @pytest.mark.parametrize("header", [False, True], ids=["headerless", "headed"])
    def test_byte_order_mark_is_dropped(self, tmp_path, header):
        # spreadsheet "CSV UTF-8" exports start with one
        text = bundled_fixture_path().read_text(encoding="utf-8")
        if header:
            text = ",".join(c.name for c in HEART_SCHEMA) + ",num\n" + text
        plain = load_dataset(write_csv(tmp_path, text, "plain.csv"))
        marked = load_dataset(write_csv(tmp_path, "\ufeff" + text, "bom.csv"))
        assert marked.features.tobytes() == plain.features.tobytes()
        assert marked.labels.tobytes() == plain.labels.tobytes()
        assert marked.warnings == plain.warnings

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_non_utf8_error_names_the_line(self, tmp_path, mark):
        path = tmp_path / "bad.csv"
        path.write_bytes(mark + f"{EXAMPLE_ROW}\n\n{EXAMPLE_ROW}\n63,\xff\n".encode("latin-1"))
        with pytest.raises(ParseError, match=r"line 4: not UTF-8 text \(byte 0xff\)"):
            load_dataset(path)

    def test_non_utf8_error_counts_newlines_only(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(f"{EXAMPLE_ROW}\x0c\n63,\xff\n".encode("latin-1"))
        with pytest.raises(ParseError, match=r"line 2: not UTF-8 text \(byte 0xff\)"):
            load_dataset(path)

    def test_form_feed_does_not_end_a_line(self, tmp_path):
        # str.splitlines would break line 1 in two and call the bad line 3
        text = EXAMPLE_ROW + "\x0c\n" + EXAMPLE_ROW.replace("233", "abc") + "\n"
        with pytest.raises(ParseError, match="line 2: non-numeric value 'abc' in column Chol"):
            load_dataset(write_csv(tmp_path, text))

    def test_record_separator_inside_a_cell_stays_in_the_cell(self, tmp_path):
        # str.splitlines would cut line 2 at the "\x1e" into rows of 5 and 10 fields
        text = EXAMPLE_ROW + "\n" + EXAMPLE_ROW.replace("233", "2\x1e33") + "\n"
        message = "line 2: non-numeric value '2\\x1e33' in column Chol"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_dataset(write_csv(tmp_path, text))

    @pytest.mark.parametrize(
        "pad", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_other_line_breaks_pad_cells_and_lines(self, tmp_path, pad):
        # whitespace to str.strip, so stripped around a cell and a line alike
        lines = bundled_fixture_path().read_text(encoding="utf-8").split("\n")
        text = "\n".join(pad + ",".join(c + pad for c in line.split(",")) for line in lines)
        plain = load_dataset(bundled_fixture_path())
        loaded = load_dataset(write_csv(tmp_path, text))
        assert loaded.features.tobytes() == plain.features.tobytes()
        assert loaded.labels.tobytes() == plain.labels.tobytes()
        assert loaded.warnings == plain.warnings

    def test_crlf_line_ends_load_as_lf(self, tmp_path):
        text = bundled_fixture_path().read_text(encoding="utf-8")
        plain = load_dataset(write_csv(tmp_path, text, "lf.csv"))
        crlf = load_dataset(write_csv(tmp_path, text.replace("\n", "\r\n"), "crlf.csv"))
        assert crlf.features.tobytes() == plain.features.tobytes()
        assert crlf.labels.tobytes() == plain.labels.tobytes()
        assert crlf.warnings == plain.warnings

    @pytest.mark.parametrize(
        "text",
        [
            EXAMPLE_ROW + "\r" + EXAMPLE_ROW + "\r",
            EXAMPLE_ROW + "\n" + EXAMPLE_ROW.replace("233", "233 \r") + "\n",
            EXAMPLE_ROW + "\n" + EXAMPLE_ROW.replace("233", "?\r") + "\n",
        ],
        ids=["cr-only-line-ends", "cr-padding-a-cell", "cr-padding-a-missing-cell"],
    )
    def test_carriage_return_inside_a_line_is_refused(self, tmp_path, text):
        line_no = 1 if text.count("\n") == 0 else 2
        with pytest.raises(ParseError, match=f"line {line_no}: carriage return inside the line"):
            load_dataset(write_csv(tmp_path, text))

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


# Values for a column to fill from: a few drawn often, for ties, +-0.0,
# subnormals and values whose sum overflows, or any finite float.
FILL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1.0, 3.0, 1e308, -1e308,
                     sys.float_info.max, -sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False),
)


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

    @pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)], ids=["minus-first", "plus-first"])
    def test_mode_fill_keeps_the_sign_of_the_first_zero(self, zeros):
        # Thal observed as two zeros and a 7: the mode is zero, signed as first seen
        features = np.tile(np.arange(13.0), (4, 1))
        features[:, 12] = [*zeros, 7.0, np.nan]
        ds = Dataset(features=features, labels=np.zeros(4, dtype=int))
        fill = impute(ds, hdata.IMPUTE_MEDIAN_MODE).features[3, 12]
        assert fill == 0.0
        assert math.copysign(1.0, fill) == math.copysign(1.0, zeros[0])

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

    def test_first_all_missing_column_in_schema_order_is_named(self):
        features = np.tile(np.arange(13.0), (3, 1))
        features[:, [11, 4]] = np.nan  # Ca and Chol
        ds = Dataset(features=features, labels=np.zeros(3, dtype=int))
        with pytest.raises(ImputationError, match="^column Chol has no observed values$"):
            impute(ds, hdata.IMPUTE_MEDIAN_MODE)

    @pytest.mark.parametrize("columns", [[], [4], [1, 4, 9, 12]], ids=["none", "one", "several"])
    def test_fill_matches_a_per_column_reference(self, columns):
        # gaps only where the fixture has none, then NaN cells in `columns`
        full = impute(load_dataset(bundled_fixture_path()), hdata.IMPUTE_DROP_ROWS)
        features = full.features.copy()
        rng = np.random.default_rng(3)
        for j in columns:
            features[rng.choice(len(full), size=40, replace=False), j] = np.nan
        ds = Dataset(features=features, labels=full.labels)

        expected = features.copy()
        for j, col in enumerate(HEART_SCHEMA):
            gaps = np.isnan(expected[:, j])
            if gaps.any():
                present = expected[~gaps, j]
                values, counts = np.unique(present, return_counts=True)
                if col.kind == hdata.CATEGORICAL:
                    expected[gaps, j] = values[np.argmax(counts)]  # smallest of the most common
                else:
                    expected[gaps, j] = np.median(present)
        assert impute(ds, hdata.IMPUTE_MEDIAN_MODE).features.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(column=st.lists(FILL_VALUES, min_size=1, max_size=40))
    @example(column=[-0.0])  # np.median signs a zero as the sum inside its mean does
    @example(column=[-0.0, -0.0])
    @example(column=[1.6e308, 1.7e308])  # the sum overflows, the midpoint does not
    @example(column=[-1.7e308, 3.0, -1.6e308, -1.7e308])
    @example(column=[7.0, -0.0, 7.0, 0.0])  # a tie: the smallest, signed as first seen
    def test_fills_match_np_median_and_np_unique_bit_for_bit(self, column):
        # the same values in Chol (continuous) and Thal (categorical), then a gap in both
        values = np.array(column, dtype=np.float64)
        features = np.zeros((len(values) + 1, 13))
        features[:-1, 4] = features[:-1, 12] = values
        features[-1, [4, 12]] = np.nan
        ds = Dataset(features=features, labels=np.zeros(len(features), dtype=int))
        filled = impute(ds, hdata.IMPUTE_MEDIAN_MODE).features[-1]

        with np.errstate(over="ignore"):
            median = np.median(values)
        if not np.isfinite(median):  # the two middle values' sum overflows
            middle = np.sort(values)[(len(values) - 1) // 2 : len(values) // 2 + 1]
            median = float(sum(map(Fraction, middle.tolist())) / 2)  # rounded once
        uniques, counts = np.unique(values, return_counts=True)
        mode = values[values == uniques[np.argmax(counts)]][0]
        assert np.float64(filled[4]).tobytes() == np.float64(median).tobytes()
        assert np.float64(filled[12]).tobytes() == np.float64(mode).tobytes()

    def test_unknown_policy(self, tmp_path):
        ds = self.make(tmp_path, [EXAMPLE_ROW])
        with pytest.raises(ValueError, match="imputation policy"):
            impute(ds, "zeros")


NAMES = [col.name for col in HEART_SCHEMA]


def bounds_with(**columns):
    """``{name: {"min": lo, "max": hi}}`` for the table's 13 columns in
    order: each spans [0, 1] except those given as ``name=(lo, hi)``."""
    bounds = {name: (0.0, 1.0) for name in NAMES}
    bounds.update(columns)
    return {name: {"min": lo, "max": hi} for name, (lo, hi) in bounds.items()}


def scaler_with(**columns):
    """A scaler over the table's 13 columns, built as :func:`bounds_with`."""
    bounds = bounds_with(**columns).values()
    return Scaler([b["min"] for b in bounds], [b["max"] for b in bounds])


def row_with(**cells):
    """A 13-value feature row: 0.5 in each column, except the ``cells`` given."""
    return [cells.get(name, 0.5) for name in NAMES]


class TestScaler:
    def fixture_scaler(self):
        ds = impute(load_dataset(bundled_fixture_path()))
        return ds, fit_scaler(ds)

    def test_known_value(self):
        # (54 - 29) / (77 - 29) = 25/48; the [0, 1] columns keep their 0.5
        scaler = scaler_with(Age=(29.0, 77.0))
        row = scaler.transform(row_with(Age=54.0))
        assert row[0] == pytest.approx(25.0 / 48.0, rel=1e-15)
        assert row[1:].tolist() == [0.5] * 12
        assert scaler.mins[0] <= 54.0 <= scaler.maxs[0]

    def test_bounds_are_read_only_arrays(self):
        scaler = Scaler([29] + [0] * 12, (77,) + (1,) * 12)
        assert scaler.mins.tolist()[:2] == [29.0, 0.0]
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
        scaler = scaler_with(Age=(29.0, 77.0), Sex=(1.0, 1.0))
        assert scaler.degenerate_columns == ("Sex",)
        row = scaler.transform(row_with(Age=53.0, Sex=1.0))
        assert row[1] == 0.0
        back = scaler.inverse_transform(row)
        assert back[1] == 1.0

    def test_out_of_range_extrapolates_and_flags(self):
        # extrapolated, not clipped; evaluate counts such rows from the bounds
        scaler = scaler_with(Age=(29.0, 77.0))
        high = scaler.transform(row_with(Age=101.0))  # 29 + 1.5*48
        assert high[0] == pytest.approx(1.5, rel=1e-15)
        assert 101.0 > scaler.maxs[0]
        low = scaler.transform(row_with(Age=5.0))  # 29 - 0.5*48
        assert low[0] == pytest.approx(-0.5, rel=1e-15)
        assert 5.0 < scaler.mins[0]

    def test_fit_requires_imputed_data(self):
        ds = load_dataset(bundled_fixture_path())
        with pytest.raises(ValidationError, match="impute"):
            fit_scaler(ds)

    def test_fit_refuses_an_empty_dataset(self):
        empty = impute(load_dataset(bundled_fixture_path())).subset(np.arange(0))
        with pytest.raises(ValidationError, match="empty dataset"):
            fit_scaler(empty)

    def test_save_load_round_trip(self, tmp_path):
        _, scaler = self.fixture_scaler()
        path = tmp_path / "scaler.json"
        save_scaler(scaler, path)
        loaded = load_scaler(path)
        assert list(json.loads(path.read_text(encoding="utf-8"))) == NAMES
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

    def test_load_rejects_min_above_max(self, tmp_path):
        path = tmp_path / "scaler.json"
        path.write_text(json.dumps(bounds_with(Age=(5, 1))), encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path}: column 'Age' has min 5 > max 1")):
            load_scaler(path)
        path.write_text(json.dumps(bounds_with(Age=(5, 5))), encoding="utf-8")
        assert load_scaler(path).degenerate_columns == ("Age",)

    def test_load_accepts_integer_bounds(self, tmp_path):
        path = tmp_path / "scaler.json"
        path.write_text(json.dumps(bounds_with(Age=(29, 77.5), Sex=(0, 1))), encoding="utf-8")
        loaded = load_scaler(path)
        assert loaded.mins.dtype == loaded.maxs.dtype == np.float64
        assert loaded.mins.tolist()[:2] == [29.0, 0.0] and loaded.maxs.tolist()[:2] == [77.5, 1.0]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda names: [names[3], *names[1:3], names[0], *names[4:]],
             "column 1 is 'Trestbps' but the table has 'Age' there"),
            (lambda names: [*names[:5], "Cholesterol", *names[6:]],
             "column 6 is 'Cholesterol' but the table has 'Fbs' there"),
            (lambda names: names[:12], "12 columns but the table has 13"),
            (lambda names: [*names, "Num"], "14 columns but the table has 13"),
            (lambda names: [], "0 columns but the table has 13"),
        ],
        ids=["swapped", "renamed", "short", "long", "empty"],
    )
    def test_load_checks_columns_against_the_table(self, tmp_path, edit, message):
        path = tmp_path / "scaler.json"
        bounds = {name: {"min": 0, "max": 1} for name in edit(NAMES)}
        path.write_text(json.dumps(bounds), encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            load_scaler(path)

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
        ds, scaler = self.fixture_scaler()
        narrow = ds.features[:, :12]
        with pytest.raises(ValidationError, match="scaler has 13 columns but the input has 12"):
            scaler.transform(narrow)
        with pytest.raises(ValidationError, match="13 columns but the input has 12"):
            scaler.transform(narrow[0])
        with pytest.raises(ValidationError, match="scaler has 13 columns but the input has 12"):
            scaler.inverse_transform(narrow)
        with pytest.raises(ValidationError, match="row or a matrix"):
            scaler.inverse_transform(5.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError, match="delta"):
            scaler_with(Age=(77.0, 29.0))

    @pytest.mark.parametrize("mins, maxs", [
        (np.full(13, np.nan), np.zeros(13)),
        (np.zeros(13), np.full(13, np.nan)),
        (np.r_[-np.inf, np.zeros(12)], np.ones(13)),
        (np.zeros(13), np.r_[np.ones(12), np.inf]),
    ])
    def test_non_finite_bounds_rejected(self, mins, maxs):
        with pytest.raises(ValidationError, match="bounds must be finite"):
            Scaler(mins, maxs)

    def test_span_float64_cannot_hold_rejected(self):
        # max - min overflowed, and every Chol scaled to 0 or NaN
        message = "column Chol: span 1.5e+308 - -1.5e+308 is more than float64 holds"
        with pytest.raises(ValidationError, match=re.escape(message)):
            scaler_with(Chol=(-1.5e308, 1.5e308))
        assert scaler_with(Chol=(-8e307, 8e307)).maxs[4] == 8e307

    @pytest.mark.parametrize("span", [1e-307, 5e-324])
    def test_value_scaled_past_float64_rejected(self, span):
        # dividing by the span overflowed, and the row scaled to inf
        scaler = scaler_with(Chol=(0.0, span))
        message = f"column Chol: value 200.0 scales to inf by the span 0.0..{span!r}"
        for values in (row_with(Chol=200.0), [row_with(Chol=0.0), row_with(Chol=200.0)]):
            with pytest.raises(ValidationError, match=re.escape(message)):
                scaler.transform(values)
        # a value in range scales as before; NaN and infinite cells pass through
        rows = [row_with(Chol=span), row_with(Chol=0.0, Age=np.nan, Sex=-np.inf)]
        scaled = scaler.transform(rows)
        assert scaled[0, 4] == 1.0
        assert np.isnan(scaled[1, 0]) and scaled[1, 1] == -np.inf

    def test_load_rejects_a_span_float64_cannot_hold(self, tmp_path):
        path = tmp_path / "scaler.json"
        path.write_text(json.dumps(bounds_with(Chol=(-1.5e308, 1.5e308))), encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"{path}: column Chol: span")):
            load_scaler(path)

    def test_bounds_per_name_checked(self):
        # one min and one max for each of the table's 13 columns, no more, no fewer
        for mins, maxs in ((np.zeros(12), np.ones(12)), (np.zeros(13), np.ones(12)),
                           (np.zeros(14), np.ones(14)), (np.zeros((1, 13)), np.ones((1, 13)))):
            with pytest.raises(ValidationError, match="one min and one max for each column"):
                Scaler(mins, maxs)


class TestWrite:
    """The one artifact writer: a file lands whole or not at all."""

    def test_helpers_write_json_and_csv(self, tmp_path):
        hdata._write_json(tmp_path / "a.json", {"x": [1, 2.5]})
        assert (tmp_path / "a.json").read_bytes() == b'{\n  "x": [\n    1,\n    2.5\n  ]\n}\n'
        hdata._write_csv(tmp_path / "a.csv", ["k", "v"], iter([["a", 1], ["b,c", 2]]))
        assert (tmp_path / "a.csv").read_bytes() == b'k,v\r\na,1\r\n"b,c",2\r\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.json"]

    @staticmethod
    def fill_then_fail(handle):
        handle.write("partial")
        raise RuntimeError("killed mid-write")

    @staticmethod
    def rows_then_fail():
        yield ["1", "2"]
        raise RuntimeError("killed mid-write")

    @pytest.mark.parametrize("how", ["fill", "rows"])
    def test_failure_mid_write_keeps_the_old_file(self, tmp_path, how):
        target = tmp_path / "artifact"
        target.write_bytes(b"old bytes\n")
        with pytest.raises(RuntimeError, match="killed mid-write"):
            if how == "fill":
                hdata._write(target, self.fill_then_fail)
            else:
                hdata._write_csv(target, ["a", "b"], self.rows_then_fail())
        assert target.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]  # no .tmp left

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_fresh_file_mode_follows_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            hdata._write_json(tmp_path / "a.json", {})
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "a.json").stat().st_mode) == 0o666 & ~umask

    def test_symlink_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("{}\n", encoding="utf-8")
        link.symlink_to(real)
        hdata._write_json(link, [1])
        assert link.is_symlink() and json.loads(real.read_text(encoding="utf-8")) == [1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]

    def test_link_to_an_open_descriptor_is_written_through(self, tmp_path):
        # the shape of /dev/stdout when stdout is redirected to a file
        real, link = tmp_path / "out.txt", tmp_path / "stdout"
        with real.open("w+", encoding="utf-8") as handle:
            link.symlink_to(f"/proc/self/fd/{handle.fileno()}")
            hdata._write_json(link, {"n_test": 3})
        assert real.read_bytes() == b'{\n  "n_test": 3\n}\n'
        assert link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "stdout"]

    def test_missing_directory_error_names_the_target(self, tmp_path):
        target = tmp_path / "nodir" / "m.json"
        with pytest.raises(FileNotFoundError) as caught:
            hdata._write_json(target, {})
        assert caught.value.filename == str(target)

    def test_error_under_a_regular_file_names_the_target(self, tmp_path):
        # the temporary file's unlink failed as its open had, and the error
        # named the temporary file, pid and all
        (tmp_path / "table.csv").write_text("1\n", encoding="utf-8")
        target = tmp_path / "table.csv" / "m.json"
        with pytest.raises(NotADirectoryError) as caught:
            hdata._write_json(target, {})
        assert caught.value.filename == str(target)

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as handle:  # blocks until a writer opens it
                received.append(handle.read())

        # a daemon, so a writer that never opens the FIFO fails the test, not the run
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        hdata._write_json(fifo, {"n_test": 3})
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b'{\n  "n_test": 3\n}\n']
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


# Labels no public call may take: out of 0..3 (never wrapped or clamped),
# fractional (never truncated), non-finite, or not numbers at all.
BAD_LABELS = [[4], [0, -1], [1.5, 2.7], [1.5, 2.9], [np.nan], [0, np.inf], [True], ["1"]]


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
        for labels in BAD_LABELS:
            with pytest.raises(ValidationError, match="labels must be"):
                encode_labels(labels)

    def test_decode_shape_check(self):
        with pytest.raises(ValidationError, match=re.escape("got shape (2,)")):
            decode_outputs([0.1, 0.2])
        with pytest.raises(ValidationError, match=re.escape("got shape (1, 3)")):
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

    def test_negative_size_refused(self):
        ds = impute(load_dataset(bundled_fixture_path()))
        with pytest.raises(ValidationError, match="non-negative"):
            split(ds, -1, 5, seed=0)


class TestDataset:
    def test_label_bounds_enforced(self):
        with pytest.raises(ValidationError):
            Dataset(
                features=np.zeros((1, 13)),
                labels=np.array([7]),
            )
        for labels in BAD_LABELS:
            with pytest.raises(ValidationError, match="labels must be"):
                Dataset(features=np.zeros((len(labels), 13)), labels=labels)
        # whole floats are labels, stored as int64
        ds = Dataset(features=np.zeros((2, 13)), labels=[3.0, -0.0])
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [3, 0]

    def test_shape_agreement_enforced(self):
        with pytest.raises(ValidationError, match="labels length"):
            Dataset(
                features=np.zeros((2, 13)),
                labels=np.array([0]),
            )
        with pytest.raises(ValidationError, match=re.escape("features must be (n, 13)")):
            Dataset(features=np.zeros((3, 12)), labels=np.zeros(3, dtype=np.int64))

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
# "\x0c" and "\x1e" end a line for str.splitlines, not for load_dataset
PADDING = st.sampled_from(["", " ", "  ", "\t", " \t", "\x0c", "\x1e "])


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
    for line_no, line in enumerate(text.split("\n"), start=1):
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


# Pieces of cell text near the edge of what a number is: digits ASCII and
# not, signs, exponents, the words float() reads, "_", "?", whitespace
# str.strip() drops (and "\x1f", which float() refuses, and the line breaks
# of str.splitlines that are not "\n" or "\r") and a NUL.
CELL_PIECES = st.sampled_from([
    "0", "2", "3", "9", "２", "٣", ".", "e", "E", "+", "-", "_", "nan", "inf", "Infinity",
    "x", "?", " ", "\t", "\x1f", "\xa0", "\u3000", "\x00", "\x0c", "\x1e", "\x85", "\u2028",
])
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
# Any text a single cell can hold: no comma, no "\n" or "\r".
CELL_TEXTS = st.one_of(
    st.lists(CELL_PIECES, max_size=6).map("".join),
    st.floats().map(repr),
    st.integers(1000, 10**7).map(lambda n: f"{n:_}"),  # digit groups: 1_000
    st.integers(0, 999).map(lambda n: str(n).translate(FULL_WIDTH)),
    st.text(max_size=8),
).filter(lambda s: not any(c in s for c in ",\n\r"))


def loadtxt_reads(cell) -> bool:
    try:
        np.loadtxt([f"1,{cell},2"], delimiter=",", comments=None, dtype=np.float64)
    except ValueError:
        return False
    return True


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(cell=CELL_TEXTS)
    @example(cell="2_33")
    @example(cell="２３３")
    @example(cell="\x1f233\x1f")
    def test_bulk_parse_and_line_walker_agree_on_a_cell(self, cell):
        # _is_number is the rule np.loadtxt follows on a cell
        assert hdata._is_number(cell.strip()) == loadtxt_reads(cell)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_text(EXAMPLE_ROW.replace("233", cell) + "\n", encoding="utf-8")
            try:
                chol = load_dataset(path).features[0, 4]
            except ParseError as exc:
                assert str(exc).startswith(f"{path}: line 1: ")
                assert str(exc).endswith(" in column Chol")
                return
        if cell.strip() == "?":
            assert np.isnan(chol)
        else:
            assert np.float64(float(cell.strip())).tobytes() == chol.tobytes()

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
