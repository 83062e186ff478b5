"""Heart-disease table ingestion: parsing, imputation, min-max scaling,
class codes, and reproducible train/test splits.

:func:`load_dataset` parses a table in one bulk pass and, when it has
bad rows, reports the earliest bad line.

A :class:`Scaler` holds each column's bounds once, in read-only float64
arrays; ``transform`` and ``inverse_transform`` take a row or a matrix of
rows and return a plain array.

All operations are pure; :class:`Dataset` and :class:`Scaler` values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
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
        labels = _frozen_array(self.labels, np.int64)
        if features.ndim != 2 or features.shape[1] != N_ATTRIBUTES:
            raise ValidationError(f"features must be (n, {N_ATTRIBUTES}), got {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValidationError("labels length does not match feature rows")
        if labels.size and (labels.min() < 0 or labels.max() >= N_CLASSES):
            raise ValidationError(f"labels must lie in 0..{N_CLASSES - 1}")
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
    try:
        float(token)
    except ValueError:
        return False
    return True


def _looks_like_header(tokens: list[str]) -> bool:
    # Header iff nothing in the row parses as data; a row with even one
    # numeric or "?" cell is data (possibly corrupt, reported as such).
    return not any(tok == MISSING_TOKEN or _is_number(tok) for tok in tokens)


def _raise_line_error(line_no: int, tokens: list[str], label_policy: str) -> NoReturn:
    """Raise the error of the bad data row ``tokens`` from file line
    ``line_no``: its first failing check, in the order field count,
    feature cells left to right, class label, non-finite feature cells."""
    where = f"line {line_no}:"
    if len(tokens) != N_ATTRIBUTES + 1:
        raise ParseError(f"{where} expected {N_ATTRIBUTES + 1} fields, got {len(tokens)}")
    cells = [(col.name, token) for col, token in zip(HEART_SCHEMA, tokens)]
    for column, token in [*cells, ("class", tokens[-1])]:
        if token != MISSING_TOKEN and not _is_number(token):
            raise ParseError(f"{where} non-numeric value {token!r} in column {column}")
    label_token = tokens[N_ATTRIBUTES]
    if label_token == MISSING_TOKEN:
        raise ParseError(f"{where} missing class label")
    label = float(label_token)
    if not math.isfinite(label):
        raise ParseError(f"{where} non-finite value {label_token!r} in column class")
    if not label.is_integer():
        raise ValidationError(f"{where} non-integer class label {label_token!r}")
    if label_policy == LABELS_STRICT and not 0 <= label < N_CLASSES:
        raise ValidationError(f"{where} class label {int(label)} outside 0..{N_CLASSES - 1}")
    for column, token in cells:
        if token != MISSING_TOKEN and not math.isfinite(float(token)):
            raise ParseError(f"{where} non-finite value {token!r} in column {column}")
    raise AssertionError(f"{where} flagged bad, yet it passes every check")


def load_dataset(path, label_policy: str = LABELS_CLAMP) -> Dataset:
    """Read a comma-separated heart-disease file into a :class:`Dataset`.

    Rows carry 13 attribute values plus a class label; ``?`` marks a
    missing cell.  Blank lines, and leading rows with no numeric or ``?``
    cell (a header), are skipped.  ``label_policy`` controls labels
    outside 0..3 (the raw Cleveland file uses 0..4): ``strict`` rejects
    them, ``clamp`` maps them to the nearest bound and records a warning.

    One bulk pass splits each line once, converts every cell with one
    ``map(float, ...)`` and checks labels and features as whole arrays.
    A file with bad rows raises the error of its earliest bad line, the
    first failing check of that line as :func:`_raise_line_error` orders
    them; only that line is walked cell by cell, to name its token.  A
    file that is not UTF-8 text is a :class:`ParseError` naming its line.
    """
    if label_policy not in (LABELS_STRICT, LABELS_CLAMP):
        raise ValueError(f"unknown label_policy {label_policy!r}")
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line: the lines of the valid text before it, plus one
        line_no = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(
            f"{path}: line {line_no}: not UTF-8 text (byte 0x{raw[exc.start]:02x})"
        ) from None
    stripped = list(map(str.strip, text.splitlines()))
    line_numbers = [line_no for line_no, line in enumerate(stripped, start=1) if line]
    lines = list(filter(None, stripped))
    start = 0
    while start < len(lines) and _looks_like_header(_tokens(lines[start])):
        start += 1
    lines, line_numbers = lines[start:], line_numbers[start:]
    if not lines:
        raise ParseError(f"{path}: no data rows")

    # rows[:n_ok] have the right field count and every cell a number
    n_fields = N_ATTRIBUTES + 1
    rows = [line.split(",") for line in lines]
    n_ok = next((i for i, row in enumerate(rows) if len(row) != n_fields), len(rows))
    missing = np.zeros((n_ok, n_fields), dtype=bool)
    for i in range(n_ok):
        if MISSING_TOKEN in lines[i]:
            missing[i] = [tok.strip() == MISSING_TOKEN for tok in rows[i]]
            rows[i] = ["nan" if gone else tok for tok, gone in zip(rows[i], missing[i])]
    try:
        values = np.fromiter(map(float, chain.from_iterable(rows[:n_ok])), np.float64)
    except ValueError:
        # float() skips the whitespace str.strip() does, bar \x1c-\x1f, so
        # this slow pass strips; it stops at the first row with a non-number
        parsed = []
        for row in rows[:n_ok]:
            try:
                parsed.append(list(map(float, map(str.strip, row))))
            except ValueError:
                break
        n_ok, values = len(parsed), np.array(parsed, dtype=np.float64)
    values, missing = values.reshape(n_ok, n_fields), missing[:n_ok, :N_ATTRIBUTES]

    features, raw_labels = values[:, :N_ATTRIBUTES], values[:, N_ATTRIBUTES]
    # a "?" label was read as NaN, so it fails this test too
    label_ok = np.isfinite(raw_labels) & (raw_labels == np.floor(raw_labels))
    labels = np.where(label_ok, raw_labels, 0.0)
    out_of_range = (labels < 0) | (labels >= N_CLASSES)
    # float() also reads nan, inf and -inf, which are neither numbers the
    # scaler can use nor the "?" that marks a cell missing
    bad = ~label_ok | ~(np.isfinite(features) | missing).all(axis=1)
    if label_policy == LABELS_STRICT:
        bad |= out_of_range
    if bad.any() or n_ok < len(rows):
        first = int(np.argmax(bad)) if bad.any() else n_ok
        _raise_line_error(line_numbers[first], _tokens(lines[first]), label_policy)

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


def _column_mode(values: np.ndarray) -> float:
    # Ties break toward the smallest value so imputation is deterministic.
    counts = Counter(values.tolist())
    best = max(counts.items(), key=lambda item: (item[1], -item[0]))
    return float(best[0])


def impute(dataset: Dataset, policy: str = IMPUTE_MEDIAN_MODE) -> Dataset:
    """Resolve missing (NaN) cells, either by dropping their rows or by
    filling with the column median (continuous) / mode (categorical).

    Rows without missing values are returned bit-identical.
    """
    missing = np.isnan(dataset.features)
    if policy == IMPUTE_DROP_ROWS:
        return dataset.subset(~missing.any(axis=1))
    if policy != IMPUTE_MEDIAN_MODE:
        raise ValueError(f"unknown imputation policy {policy!r}")

    features = dataset.features.copy()
    for j, col in enumerate(HEART_SCHEMA):
        col_missing = missing[:, j]
        if not col_missing.any():
            continue
        present = features[~col_missing, j]
        if present.size == 0:
            raise ImputationError(f"column {col.name} has no observed values")
        fill = _column_mode(present) if col.kind == CATEGORICAL else float(np.median(present))
        features[col_missing, j] = fill
    return replace(dataset, features=features)


def _read_json(path, error: type[Exception]):
    """The JSON value in file ``path``.  A file that is not UTF-8 JSON, or
    nests too deep to parse, raises ``error`` naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None


def _is_json_number(value) -> bool:
    """An int or a float, the types JSON numbers load as; not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-column linear map x -> (x - min) / (max - min), held as the
    column ``names`` and read-only float64 arrays ``mins`` and ``maxs``.

    In-range inputs land in [0, 1]; others are extrapolated, not clipped.
    Degenerate (constant) columns map to 0.0 and invert back to their
    single observed value.
    """

    names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        mins = _frozen_array(self.mins, np.float64)
        maxs = _frozen_array(self.maxs, np.float64)
        if not mins.shape == maxs.shape == (len(names),):
            raise ValidationError(f"scaler needs one min and one max for each of {names}")
        if (maxs - mins < 0).any():
            raise ValidationError("scaler delta must be >= 0 for every column")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def n_columns(self) -> int:
        return len(self.names)

    @property
    def degenerate_columns(self) -> tuple[str, ...]:
        flat = self.maxs - self.mins == 0.0
        return tuple(name for name, is_flat in zip(self.names, flat) if is_flat)

    def check_columns(self) -> None:
        """Raise unless the scaler's columns are the table's, by name and in
        order; the message names the first one that differs."""
        for position, (name, col) in enumerate(zip(self.names, HEART_SCHEMA), start=1):
            if name != col.name:
                raise ValidationError(
                    f"scaler column {position} is {name!r} but the data has {col.name!r} there"
                )
        if self.n_columns != N_ATTRIBUTES:
            raise ValidationError(
                f"scaler has {self.n_columns} columns but the input has {N_ATTRIBUTES}"
            )

    def _checked(self, values) -> np.ndarray:
        x = np.asarray(values, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValidationError(f"expected a row or a matrix of features, got shape {x.shape}")
        if x.shape[-1] != self.n_columns:
            raise ValidationError(
                f"scaler has {self.n_columns} columns but the input has {x.shape[-1]}"
            )
        return x

    def transform(self, features) -> np.ndarray:
        """Scale one row of ``n_columns`` values or an (n, n_columns) matrix."""
        x = self._checked(features)
        delta = self.maxs - self.mins
        flat = delta == 0.0
        scaled = (x - self.mins) / np.where(flat, 1.0, delta)
        scaled[..., flat] = 0.0
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
    return Scaler(tuple(col.name for col in HEART_SCHEMA), x.min(axis=0), x.max(axis=0))


def save_scaler(scaler: Scaler, path) -> None:
    """Write the scaler as a JSON object mapping column name -> {min, max}."""
    bounds = zip(scaler.names, scaler.mins.tolist(), scaler.maxs.tolist())
    payload = {name: {"min": lo, "max": hi} for name, lo, hi in bounds}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_scaler(path) -> Scaler:
    """Read a :func:`save_scaler` file; a column whose ``min`` or ``max`` is
    not a finite JSON number is a :class:`FormatError` naming it."""
    payload = _read_json(path, FormatError)
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object of columns")
    if not payload:
        raise FormatError(f"{path}: no columns")
    bounds = []
    for name, column in payload.items():
        pair = [column.get("min"), column.get("max")] if isinstance(column, dict) else [None]
        # abs(v) <= max is False for NaN, +-inf and integers too large for a float
        if not all(_is_json_number(v) and abs(v) <= sys.float_info.max for v in pair):
            raise FormatError(f"{path}: column {name!r} needs finite numeric min/max")
        bounds.append(pair)
    mins, maxs = np.array(bounds, dtype=np.float64).T
    return Scaler(tuple(payload), mins, maxs)


# Four classes on two output neurons: the code is the label's two-bit
# binary representation, high bit first.
_CLASS_CODES = np.array(
    [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], dtype=np.float64
)


def encode_labels(labels) -> np.ndarray:
    """Two-neuron target rows for an array of class labels 0..3."""
    arr = np.asarray(labels)
    if arr.size and (arr.min() < 0 or arr.max() >= N_CLASSES):
        raise ValidationError(f"labels must lie in 0..{N_CLASSES - 1}")
    return _CLASS_CODES[arr.astype(np.int64)]


def decode_outputs(outputs) -> np.ndarray:
    """Class labels of an (n, 2) matrix of output rows: threshold each
    output neuron at 0.5 (ties round up) and invert the class code.  A
    non-finite output has no class and is rejected."""
    out = np.asarray(outputs, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != 2:
        raise ValidationError(f"expected rows of 2 output values, got shape {out.shape}")
    if not np.isfinite(out).all():
        bad = int(np.flatnonzero(~np.isfinite(out).all(axis=1))[0])
        raise ValidationError(f"non-finite network output in row {bad}: {out[bad].tolist()}")
    bits = (out >= 0.5).astype(np.int64)
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
