"""Heart-disease table ingestion (parsing, imputation, min-max scaling,
class codes, seeded splits), :func:`_write`, the artifact writer, and
the program's number rules: :func:`_is_number` for a table cell or an
integer flag, :func:`_is_integer` and :func:`_is_real` for a JSON or
config value, :func:`_numbers` for an array of numbers,
:func:`_class_labels` for the class labels a
:class:`Dataset`, :func:`encode_labels` or
:func:`heartnet.evaluation.evaluate` is given, and :func:`_sample_rows`
for a matrix of samples: the training set, the features ``evaluate``
scores and the network outputs :func:`decode_outputs` reads.

:func:`load_dataset` parses a table with one ``np.loadtxt`` call and,
when it has bad rows, names its file and its earliest bad line.

A :class:`Scaler` holds the bounds of the :data:`HEART_SCHEMA` columns
once, in read-only float64 arrays; ``transform`` and ``inverse_transform``
take a row or a matrix of rows and return a plain array.

All operations are pure; :class:`Dataset` and :class:`Scaler` values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import NoReturn

import numpy as np

N_ATTRIBUTES = 13
N_CLASSES = 4

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

MISSING_TOKEN = "?"

IMPUTE_DROP_ROWS = "drop_rows"
IMPUTE_MEDIAN_MODE = "median_mode"

LABELS_STRICT = "strict"
LABELS_CLAMP = "clamp"


class DataError(ValueError):
    """Base class for problems with input data or serialized artifacts."""


class ParseError(DataError):
    """Input file is malformed (wrong field count, non-numeric cell, ...)."""


class ValidationError(DataError):
    """Well-formed input that violates a contract (bad label, bad sizes)."""


class ImputationError(DataError):
    """Missing values that cannot be filled (e.g. a fully-missing column)."""


class FormatError(DataError):
    """Serialized artifact is unreadable or has an incompatible version."""


@dataclass(frozen=True)
class AttributeSchema:
    """One input column: its name and kind."""

    name: str
    kind: str


# The 13 predictive attributes of the Cleveland heart-disease table, in
# file order.  Kinds follow the table's Range column; Ca is recorded as
# continuous there even though its values are 0-3.
HEART_SCHEMA: tuple[AttributeSchema, ...] = (
    AttributeSchema("Age", CONTINUOUS),
    AttributeSchema("Sex", CATEGORICAL),
    AttributeSchema("Cp", CATEGORICAL),
    AttributeSchema("Trestbps", CONTINUOUS),
    AttributeSchema("Chol", CONTINUOUS),
    AttributeSchema("Fbs", CATEGORICAL),
    AttributeSchema("Restecg", CATEGORICAL),
    AttributeSchema("Thalach", CONTINUOUS),
    AttributeSchema("Exang", CATEGORICAL),
    AttributeSchema("Oldpeak", CONTINUOUS),
    AttributeSchema("Slope", CATEGORICAL),
    AttributeSchema("Ca", CONTINUOUS),
    AttributeSchema("Thal", CATEGORICAL),
)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable table of feature rows and integer labels; a cell that
    was missing in the source file holds NaN."""

    features: np.ndarray  # (n, 13) float64; NaN where missing
    labels: np.ndarray  # (n,) int64, each in 0..3
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        features = _frozen_array(self.features, np.float64)
        labels = _frozen_array(_class_labels(self.labels), np.int64)
        if features.ndim != 2 or features.shape[1] != N_ATTRIBUTES:
            raise ValidationError(f"features must be (n, {N_ATTRIBUTES}), got {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValidationError("labels length does not match feature rows")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def has_missing_values(self) -> bool:
        """True while any cell still holds NaN (i.e. before imputation)."""
        return bool(np.isnan(self.features).any())

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The rows ``indices`` picks (index array or boolean mask); warnings kept."""
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            warnings=self.warnings,
        )


def _tokens(line: str) -> list[str]:
    return [tok.strip() for tok in line.split(",")]


def _is_number(token: str) -> bool:
    """True iff the text ``token`` (a cell, or an integer flag's value) is
    a number as ``np.loadtxt`` reads one: ASCII, no ``_``, and ``float``
    reads it.  ``float`` alone also reads digit-group underscores and
    non-ASCII digits."""
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _is_integer(value) -> bool:
    """An int or a numpy integer, but not ``True``/``False``."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def _is_real(value) -> bool:
    """A real number a float64 can hold: an int, a float or a numpy
    scalar, but not ``True``/``False``, and no integer beyond
    +-``sys.float_info.max``.  +-inf and NaN pass; a bound refuses them."""
    if type(value) is float:  # the common case, tested before the slower ABC check
        return True
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Real)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _looks_like_header(tokens: list[str]) -> bool:
    # Header iff nothing in the row parses as data; a row with even one
    # numeric or "?" cell is data (possibly corrupt, reported as such).
    return not any(tok == MISSING_TOKEN or _is_number(tok) for tok in tokens)


def _parse_line(path, line_no: int, line: str, label_policy: str) -> None:
    """Raise the error of the first failing check of the stripped data
    row ``line``, line ``line_no`` of file ``path``, in the order carriage
    return, field count, feature cells left to right, class label,
    non-finite feature cells; return if the row passes them all."""
    where = f"{path}: line {line_no}:"
    if "\r" in line:
        # np.loadtxt ends a line at "\r" too, so it refuses a row holding one
        raise ParseError(f"{where} carriage return inside the line (lines end at \\n)")
    tokens = _tokens(line)
    if len(tokens) != N_ATTRIBUTES + 1:
        raise ParseError(f"{where} expected {N_ATTRIBUTES + 1} fields, got {len(tokens)}")
    for column, token in zip([*(col.name for col in HEART_SCHEMA), "class"], tokens):
        if token != MISSING_TOKEN and not _is_number(token):
            raise ParseError(f"{where} non-numeric value {token!r} in column {column}")
    values = [math.nan if token == MISSING_TOKEN else float(token) for token in tokens]
    label_token, label = tokens[N_ATTRIBUTES], values[N_ATTRIBUTES]
    if label_token == MISSING_TOKEN:
        raise ParseError(f"{where} missing class label")
    if not math.isfinite(label):
        raise ParseError(f"{where} non-finite value {label_token!r} in column class")
    if not label.is_integer():
        raise ValidationError(f"{where} non-integer class label {label_token!r}")
    if label_policy == LABELS_STRICT and not 0 <= label < N_CLASSES:
        raise ValidationError(f"{where} class label {int(label)} outside 0..{N_CLASSES - 1}")
    for col, token, value in zip(HEART_SCHEMA, tokens, values):
        if token != MISSING_TOKEN and not math.isfinite(value):
            raise ParseError(f"{where} non-finite value {token!r} in column {col.name}")


def _raise_earliest_bad_line(path, lines, line_numbers, label_policy) -> NoReturn:
    """Raise the error of the earliest of ``lines`` that :func:`_parse_line` refuses."""
    for line_no, line in zip(line_numbers, lines):
        _parse_line(path, line_no, line, label_policy)
    raise AssertionError(f"{path}: the table was refused, yet every line passes")


def load_dataset(path, label_policy: str = LABELS_CLAMP) -> Dataset:
    """Read a comma-separated heart-disease file into a :class:`Dataset`.

    The file is UTF-8 text and may start with a byte-order mark.  A line
    ends at ``\\n`` only, as ``wc -l`` counts, and surrounding whitespace,
    a trailing ``\\r`` too, is stripped; so a ``\\r`` left inside a line,
    as in a file with CR-only line endings, is a parse error.  Rows
    carry 13 attribute values plus a class label; ``?`` marks a missing
    cell.  Blank lines, and leading rows with no numeric or ``?``
    cell (a header), are skipped.  ``label_policy`` controls labels
    outside 0..3 (the raw Cleveland file uses 0..4): ``strict`` rejects
    them, ``clamp`` maps them to the nearest bound and records a warning.

    One ``np.loadtxt`` call parses every cell in C, each ``?`` read as
    NaN, and the parsed table is checked as a whole: it may hold no
    infinity, no NaN but one for each ``?`` (so a cell that spells NaN is
    refused) and no label but a whole number, under ``strict`` one in
    0..3.  Only when the parse or a check refuses the table does
    :func:`_parse_line` walk it line by line, to raise the error of the
    earliest bad line, the first failing check of that line, naming the
    file and the line.
    """
    if label_policy not in (LABELS_STRICT, LABELS_CLAMP):
        raise ValueError(f"unknown label_policy {label_policy!r}")
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        # the bad byte's line: one more than the line ends before it;
        # exc.object is the file's bytes after any byte-order mark
        raw = exc.object
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"{path}: line {line_no}: not UTF-8 text (byte 0x{raw[exc.start]:02x})"
        ) from None
    stripped = list(map(str.strip, text.split("\n")))
    lines = list(filter(None, stripped))
    # a row's line number is its index + 1, unless a blank line comes before it
    if all(stripped[: len(lines)]):
        line_numbers = range(1, len(lines) + 1)
    else:
        line_numbers = [line_no for line_no, line in enumerate(stripped, start=1) if line]
    start = 0
    while start < len(lines) and _looks_like_header(_tokens(lines[start])):
        start += 1
    lines, line_numbers = lines[start:], line_numbers[start:]
    if not lines:
        raise ParseError(f"{path}: no data rows")

    # Each "?" is read as " nan", which rests on two facts about np.loadtxt.
    # It refuses whitespace inside a number, so " nan" parses only where
    # "?" stood alone in its cell, padding aside: "-?" gives "- nan", which
    # fails as "-?" does, where a plain "nan" would give "-nan", which
    # parses.  And after a parse each "?" is exactly one NaN, so the NaN
    # count differs from the "?" count iff the table spells NaN itself.
    data = "\n".join(lines)
    try:
        # a table whose rows all have the same wrong field count parses,
        # and then fails the reshape
        values = np.loadtxt(
            data.replace(MISSING_TOKEN, " nan").split("\n"),
            delimiter=",", comments=None, dtype=np.float64, ndmin=2,
        ).reshape(len(lines), N_ATTRIBUTES + 1)
    except ValueError:
        _raise_earliest_bad_line(path, lines, line_numbers, label_policy)
    features, labels = values[:, :N_ATTRIBUTES], values[:, N_ATTRIBUTES]
    # loadtxt also reads inf and a spelled NaN, which are neither numbers
    # the scaler can use nor the "?" that marks a cell missing; a "?" or
    # NaN label fails the whole-number test (!= is true for NaN, and
    # raises no floating-point flag, as < would)
    if (
        np.isinf(values).any()
        or np.isnan(values).sum() != data.count(MISSING_TOKEN)
        or (labels != np.floor(labels)).any()
    ):
        _raise_earliest_bad_line(path, lines, line_numbers, label_policy)
    out_of_range = (labels < 0) | (labels >= N_CLASSES)
    if label_policy == LABELS_STRICT and out_of_range.any():
        _raise_earliest_bad_line(path, lines, line_numbers, label_policy)

    warnings = tuple(
        f"line {line_numbers[i]}: class label {int(labels[i])} clamped to "
        f"{0 if labels[i] < 0 else N_CLASSES - 1}"
        for i in np.flatnonzero(out_of_range)
    )
    return Dataset(
        features=features,
        labels=np.clip(labels, 0, N_CLASSES - 1).astype(np.int64),
        warnings=warnings,
    )


def _column_median(values: np.ndarray) -> float:
    """``np.median(values)`` of a column of finite values, with its bits
    wherever it is finite, and the midpoint, not infinity, where the sum
    of the two middle values overflows."""
    n, half = values.size, values.size // 2
    # np.median's own partition, its trailing -1 included (so tied +-0.0
    # land where they do there), and its mean: np.add.reduce of the
    # middle value(s) over their count, which gives +0.0 for [-0.0]
    kth = [half, -1] if n % 2 else [half - 1, half, -1]
    middle = np.partition(values, kth)[half - 1 + n % 2 : half + 1]
    with np.errstate(over="ignore"):
        total = np.add.reduce(middle)
    if math.isinf(total):  # middle values whose sum overflows halve exactly
        return float(np.add.reduce(middle / 2))
    return float(total / middle.size)


def _column_mode(values: np.ndarray) -> float:
    """The most frequent of ``values``, counted in one pass over them
    sorted: a tie goes to the smallest value, and a zero keeps the sign
    it first has in ``values``."""
    ordered = np.sort(values)
    # where each run of equal values starts, and where the last one ends
    starts = np.concatenate(
        ([0], (ordered[1:] != ordered[:-1]).nonzero()[0] + 1, [ordered.size])
    )
    mode = ordered[starts[(starts[1:] - starts[:-1]).argmax()]]  # the first longest run
    return float(values[(values == mode).argmax()])  # the first value equal to it


def impute(dataset: Dataset, policy: str = IMPUTE_MEDIAN_MODE) -> Dataset:
    """Resolve missing (NaN) cells, either by dropping their rows or by
    filling a column's gaps from its observed values: a continuous
    column's with their median, ``np.median``'s value computed without
    overflow (:func:`_column_median`), and a categorical column's with
    their mode, the most frequent value, where a tie goes to the smallest
    value and a zero keeps the sign it first has (:func:`_column_mode`).

    Rows without missing values are returned bit-identical.
    """
    missing = np.isnan(dataset.features)
    if policy == IMPUTE_DROP_ROWS:
        return dataset.subset(~missing.any(axis=1))
    if policy != IMPUTE_MEDIAN_MODE:
        raise ValueError(f"unknown imputation policy {policy!r}")

    features = dataset.features.copy()
    for j in np.flatnonzero(missing.any(axis=0)):  # schema order
        col, col_missing = HEART_SCHEMA[j], missing[:, j]
        present = features[~col_missing, j]
        if present.size == 0:
            raise ImputationError(f"column {col.name} has no observed values")
        fill = _column_mode(present) if col.kind == CATEGORICAL else _column_median(present)
        features[col_missing, j] = fill
    return replace(dataset, features=features)


def _read_json(path, error: type[Exception]):
    """The JSON value in file ``path``.  A file that is not UTF-8 JSON, or
    nests too deep to parse, raises ``error`` naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None


def _write(path, fill) -> None:
    """Write ``path`` whole or not at all: ``fill(handle)`` writes a UTF-8
    text handle (``newline=""``) on ``.<name>.<pid>.tmp`` beside it, which
    then replaces ``path``.  A symlink, a FIFO or a device is written in
    place, since a rename would replace the link or the node itself."""
    path = Path(path)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with path.open("w", newline="", encoding="utf-8") as handle:
            fill(handle)
        return
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("w", newline="", encoding="utf-8") as handle:
            fill(handle)
        os.replace(temporary, path)
    except BaseException as exc:
        # unlink fails too where the open did, as under a regular file
        with contextlib.suppress(OSError):
            temporary.unlink()
        if isinstance(exc, OSError) and exc.filename == str(temporary):
            exc.filename = str(path)  # name the file the caller asked for
        raise


def _write_json(path, payload) -> None:
    _write(path, lambda handle: handle.write(json.dumps(payload, indent=2) + "\n"))


def _write_csv(path, header, rows) -> None:
    _write(path, lambda handle: csv.writer(handle).writerows(chain([header], rows)))


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-column linear map x -> (x - min) / (max - min) over the 13
    :data:`HEART_SCHEMA` columns, held as read-only float64 arrays ``mins`` and ``maxs``.

    In-range inputs land in [0, 1]; others are extrapolated, not clipped.
    Degenerate (constant) columns map to 0.0 and invert back to their
    single observed value.  A span ``max - min`` that float64 cannot
    hold is refused when the scaler is built, and a finite value that
    scales to a non-finite one (a span so small that dividing by it
    overflows) is refused by ``transform``; either error names the column.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = _frozen_array(self.mins, np.float64)
        maxs = _frozen_array(self.maxs, np.float64)
        if not mins.shape == maxs.shape == (N_ATTRIBUTES,):
            raise ValidationError("scaler needs one min and one max for each column of the table")
        if not (np.isfinite(mins).all() and np.isfinite(maxs).all()):
            raise ValidationError("scaler bounds must be finite for every column")
        with np.errstate(over="ignore"):
            span = maxs - mins
        if not np.isfinite(span).all():
            j = int(np.flatnonzero(~np.isfinite(span))[0])
            raise ValidationError(
                f"column {HEART_SCHEMA[j].name}: span {maxs[j]} - {mins[j]} "
                f"is more than float64 holds"
            )
        if (span < 0).any():
            raise ValidationError("scaler delta must be >= 0 for every column")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def degenerate_columns(self) -> tuple[str, ...]:
        flat = self.maxs - self.mins == 0.0
        return tuple(col.name for col, is_flat in zip(HEART_SCHEMA, flat) if is_flat)

    def _checked(self, values) -> np.ndarray:
        x = np.asarray(values, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValidationError(f"expected a row or a matrix of features, got shape {x.shape}")
        if x.shape[-1] != N_ATTRIBUTES:
            raise ValidationError(
                f"scaler has {N_ATTRIBUTES} columns but the input has {x.shape[-1]}"
            )
        return x

    def transform(self, features) -> np.ndarray:
        """Scale one row of 13 values or an (n, 13) matrix."""
        x = self._checked(features)
        delta = self.maxs - self.mins
        flat = delta == 0.0
        with np.errstate(over="ignore"):
            scaled = (x - self.mins) / np.where(flat, 1.0, delta)
        scaled[..., flat] = 0.0
        if not np.isfinite(scaled).all():  # NaN and infinite cells stay as they are
            overflowed = np.argwhere(~np.isfinite(scaled) & np.isfinite(x))
            if overflowed.size:
                cell = tuple(overflowed[0])  # (column,) of a row, (row, column) of a matrix
                j = cell[-1]
                raise ValidationError(
                    f"column {HEART_SCHEMA[j].name}: value {x[cell]} scales to "
                    f"{scaled[cell]} by the span {self.mins[j]}..{self.maxs[j]}"
                )
        return scaled

    def inverse_transform(self, scaled) -> np.ndarray:
        """Map one scaled row or a matrix of them back to feature values."""
        y = self._checked(scaled)
        delta = self.maxs - self.mins
        return np.where(delta == 0.0, self.mins, y * delta + self.mins)


def fit_scaler(dataset: Dataset) -> Scaler:
    """Record per-column observed extremes; constant columns are kept but
    flagged degenerate."""
    if len(dataset) == 0:
        raise ValidationError("cannot fit a scaler on an empty dataset")
    if dataset.has_missing_values:
        raise ValidationError("dataset has missing cells; impute before scaling")
    x = dataset.features
    return Scaler(x.min(axis=0), x.max(axis=0))


def save_scaler(scaler: Scaler, path) -> None:
    """Write the scaler as a JSON object mapping column name -> {min, max}."""
    bounds = zip(HEART_SCHEMA, scaler.mins.tolist(), scaler.maxs.tolist())
    _write_json(path, {col.name: {"min": lo, "max": hi} for col, lo, hi in bounds})


def load_scaler(path) -> Scaler:
    """Read a :func:`save_scaler` file.  A bound that is not a finite JSON
    number, a ``min`` above its ``max``, a span ``max - min`` that float64
    cannot hold, or columns other than the table's 13 in order are a
    :class:`FormatError` naming the file."""
    payload = _read_json(path, FormatError)
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object of columns")
    bounds = []
    for name, column in payload.items():
        pair = [column.get("min"), column.get("max")] if isinstance(column, dict) else [None]
        # abs(v) <= max is False for NaN, +-inf and integers too large for a float
        if not all(_is_real(v) and abs(v) <= sys.float_info.max for v in pair):
            raise FormatError(f"{path}: column {name!r} needs finite numeric min/max")
        if pair[0] > pair[1]:
            raise FormatError(f"{path}: column {name!r} has min {pair[0]} > max {pair[1]}")
        bounds.append(pair)
    for position, (name, col) in enumerate(zip(payload, HEART_SCHEMA), start=1):
        if name != col.name:
            raise FormatError(
                f"{path}: column {position} is {name!r} but the table has {col.name!r} there"
            )
    if len(bounds) != N_ATTRIBUTES:
        raise FormatError(f"{path}: {len(bounds)} columns but the table has {N_ATTRIBUTES}")
    mins, maxs = np.array(bounds, dtype=np.float64).T
    try:
        return Scaler(mins, maxs)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None


# Four classes on two output neurons: the code is the label's two-bit
# binary representation, high bit first.
_CLASS_CODES = np.array(
    [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], dtype=np.float64
)


def _numbers(values, name: str) -> np.ndarray:
    """``values`` as an array of an integer or float dtype: the rule both
    :func:`_class_labels` and :func:`_sample_rows` start from.  A ragged
    sequence, which has no shape, and any other dtype (bool, complex,
    string, object) are a ValidationError naming ``name``; converted, a
    string ``"1_0"`` would read as 10 and a complex value would lose its
    imaginary part."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy makes no array of a ragged sequence
        raise ValidationError(f"{name} is a ragged sequence, with no shape") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be integers or floats, got dtype {arr.dtype}")
    return arr


def _class_labels(labels) -> np.ndarray:
    """``labels`` as an int64 array: the one label rule.  Each label must
    be a whole number in 0..3, in an array of an integer or float dtype
    (:func:`_numbers`); anything else (a fraction, NaN, an infinity, a
    bool, a string) is a ValidationError, never wrapped, truncated or
    clamped."""
    arr = _numbers(labels, "labels")
    # min and max are NaN if any label is, and NaN fails both bounds; an
    # integer dtype holds only whole numbers
    whole = arr.dtype.kind != "f" or (arr == np.floor(arr)).all()
    if arr.size and not (arr.min() >= 0 and arr.max() < N_CLASSES and whole):
        raise ValidationError(f"labels must be whole numbers in 0..{N_CLASSES - 1}")
    return arr.astype(np.int64)


def _sample_rows(values, width: int, name: str) -> np.ndarray:
    """``values`` as a contiguous float64 ``(n, width)`` matrix of finite
    numbers: the one rule for a matrix of samples.  A ragged sequence or a
    dtype other than integer or float (:func:`_numbers`), any other shape,
    or a NaN or infinite cell is a ValidationError naming ``name`` and the
    dtype, the shape, or the first bad cell in row order."""
    rows = _numbers(values, name)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValidationError(f"{name} must be (n, {width}), got shape {rows.shape}")
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if not np.isfinite(rows).all():
        row, column = np.argwhere(~np.isfinite(rows))[0]
        value = rows[row, column]
        raise ValidationError(f"non-finite {name} in row {row}, column {column}: {value}")
    return rows


def encode_labels(labels) -> np.ndarray:
    """Two-neuron target rows for an array of class labels 0..3
    (:func:`_class_labels`)."""
    return _CLASS_CODES[_class_labels(labels)]


def decode_outputs(outputs) -> np.ndarray:
    """Class labels of an (n, 2) matrix of output rows: threshold each
    output neuron at 0.5 (ties round up) and invert the class code.  A
    non-finite output has no class and is rejected (:func:`_sample_rows`)."""
    bits = (_sample_rows(outputs, 2, "network output") >= 0.5).astype(np.int64)
    return 2 * bits[:, 0] + bits[:, 1]


def split(dataset: Dataset, n_train: int, n_test: int, seed: int) -> tuple[Dataset, Dataset]:
    """Draw disjoint train/test subsets of the requested sizes by a seeded
    shuffle; the same seed always yields the same partition."""
    if n_train < 0 or n_test < 0:
        raise ValidationError("split sizes must be non-negative")
    total = n_train + n_test
    if total > len(dataset):
        raise ValidationError(
            f"requested {n_train} train + {n_test} test = {total} rows, "
            f"but dataset has only {len(dataset)}"
        )
    order = np.random.default_rng(seed).permutation(len(dataset))
    return dataset.subset(order[:n_train]), dataset.subset(order[n_train:total])


def bundled_fixture_path() -> Path:
    """Path of the synthetic Cleveland-shaped sample shipped with the
    package (303 rows, same schema and missing-value pattern as the
    public file; generated, not clinical data)."""
    return Path(__file__).parent / "fixtures" / "cleveland_synthetic.csv"
