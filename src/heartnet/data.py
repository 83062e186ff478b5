"""Heart-disease table ingestion: parsing, imputation, min-max scaling,
class codes, and reproducible train/test splits.

All operations are pure; :class:`Dataset` and :class:`Scaler` values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

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
    """One input column: its name, kind, and category values if discrete."""

    name: str
    kind: str
    column_index: int
    allowed_values: tuple[float, ...] | None = None


# The 13 predictive attributes of the Cleveland heart-disease table, in
# file order.  Kind and category values follow the table's Range column;
# Ca is recorded as continuous there even though its values are 0-3.
HEART_SCHEMA: tuple[AttributeSchema, ...] = (
    AttributeSchema("Age", CONTINUOUS, 0),
    AttributeSchema("Sex", CATEGORICAL, 1, (0.0, 1.0)),
    AttributeSchema("Cp", CATEGORICAL, 2, (1.0, 2.0, 3.0, 4.0)),
    AttributeSchema("Trestbps", CONTINUOUS, 3),
    AttributeSchema("Chol", CONTINUOUS, 4),
    AttributeSchema("Fbs", CATEGORICAL, 5, (0.0, 1.0)),
    AttributeSchema("Restecg", CATEGORICAL, 6, (0.0, 1.0, 2.0)),
    AttributeSchema("Thalach", CONTINUOUS, 7),
    AttributeSchema("Exang", CATEGORICAL, 8, (0.0, 1.0)),
    AttributeSchema("Oldpeak", CONTINUOUS, 9),
    AttributeSchema("Slope", CATEGORICAL, 10, (1.0, 2.0, 3.0)),
    AttributeSchema("Ca", CONTINUOUS, 11),
    AttributeSchema("Thal", CATEGORICAL, 12, (3.0, 6.0, 7.0)),
)

CLASS_NAMES = ("normal", "first stroke", "second stroke", "end of life")


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable table of feature rows, integer labels, and a per-cell
    flag marking values that were missing in the source file."""

    features: np.ndarray  # (n, 13) float64; NaN where missing
    labels: np.ndarray  # (n,) int64, each in 0..3
    missing_mask: np.ndarray  # (n, 13) bool
    schema: tuple[AttributeSchema, ...] = HEART_SCHEMA
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        features = _frozen_array(self.features, np.float64)
        labels = _frozen_array(self.labels, np.int64)
        mask = _frozen_array(self.missing_mask, bool)
        n_cols = len(self.schema)
        if features.ndim != 2 or features.shape[1] != n_cols:
            raise ValidationError(
                f"features must be (n, {n_cols}), got {features.shape}"
            )
        if labels.shape != (features.shape[0],):
            raise ValidationError("labels length does not match feature rows")
        if mask.shape != features.shape:
            raise ValidationError("missing_mask shape does not match features")
        if labels.size and (labels.min() < 0 or labels.max() >= N_CLASSES):
            raise ValidationError(f"labels must lie in 0..{N_CLASSES - 1}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "missing_mask", mask)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def has_missing_values(self) -> bool:
        """True while any cell still holds NaN (i.e. before imputation)."""
        return bool(np.isnan(self.features).any())

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            missing_mask=self.missing_mask[indices],
            schema=self.schema,
        )


def _parse_cell(token: str, line_no: int, column: str) -> tuple[float, bool]:
    if token == MISSING_TOKEN:
        return float("nan"), True
    try:
        return float(token), False
    except ValueError:
        raise ParseError(
            f"line {line_no}: non-numeric value {token!r} in column {column}"
        ) from None


def _looks_like_header(tokens: list[str]) -> bool:
    # Header iff nothing in the row parses as data; a row with even one
    # numeric or "?" cell is data (possibly corrupt, reported as such).
    for token in tokens:
        if token == MISSING_TOKEN:
            return False
        try:
            float(token)
        except ValueError:
            continue
        return False
    return True


def load_dataset(path, label_policy: str = LABELS_CLAMP) -> Dataset:
    """Read a comma-separated heart-disease file into a :class:`Dataset`.

    Rows carry 13 attribute values plus a class label; ``?`` marks a
    missing cell.  A non-numeric first row is treated as a header and
    skipped.  ``label_policy`` controls labels outside 0..3 (the raw
    Cleveland file uses 0..4): ``strict`` rejects them, ``clamp`` maps
    them to the nearest bound and records a warning on the dataset.
    """
    if label_policy not in (LABELS_STRICT, LABELS_CLAMP):
        raise ValueError(f"unknown label_policy {label_policy!r}")
    path = Path(path)
    text = path.read_text(encoding="utf-8")

    n_fields = N_ATTRIBUTES + 1
    feature_rows: list[list[float]] = []
    mask_rows: list[list[bool]] = []
    labels: list[int] = []
    warnings: list[str] = []
    first_data_row_seen = False

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        tokens = [tok.strip() for tok in line.split(",")]
        if not first_data_row_seen and _looks_like_header(tokens):
            continue
        first_data_row_seen = True
        if len(tokens) != n_fields:
            raise ParseError(
                f"line {line_no}: expected {n_fields} fields, got {len(tokens)}"
            )

        values: list[float] = []
        missing: list[bool] = []
        for schema_col, token in zip(HEART_SCHEMA, tokens[:N_ATTRIBUTES]):
            value, is_missing = _parse_cell(token, line_no, schema_col.name)
            values.append(value)
            missing.append(is_missing)

        label_token = tokens[N_ATTRIBUTES]
        if label_token == MISSING_TOKEN:
            raise ParseError(f"line {line_no}: missing class label")
        raw_label, _ = _parse_cell(label_token, line_no, "class")
        if raw_label != int(raw_label):
            raise ValidationError(
                f"line {line_no}: non-integer class label {label_token!r}"
            )
        label = int(raw_label)
        if not 0 <= label < N_CLASSES:
            if label_policy == LABELS_STRICT:
                raise ValidationError(
                    f"line {line_no}: class label {label} outside 0..{N_CLASSES - 1}"
                )
            clamped = min(max(label, 0), N_CLASSES - 1)
            warnings.append(
                f"line {line_no}: class label {label} clamped to {clamped}"
            )
            label = clamped

        feature_rows.append(values)
        mask_rows.append(missing)
        labels.append(label)

    if not feature_rows:
        raise ParseError(f"{path}: no data rows")

    return Dataset(
        features=np.array(feature_rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        missing_mask=np.array(mask_rows, dtype=bool),
        warnings=tuple(warnings),
    )


def _column_mode(values: np.ndarray) -> float:
    # Ties break toward the smallest value so imputation is deterministic.
    counts = Counter(values.tolist())
    best = max(counts.items(), key=lambda item: (item[1], -item[0]))
    return float(best[0])


def impute(dataset: Dataset, policy: str = IMPUTE_MEDIAN_MODE) -> Dataset:
    """Resolve missing cells, either by dropping their rows or by filling
    with the column median (continuous) / mode (categorical).

    Filled cells stay flagged in ``missing_mask`` so their provenance is
    not lost; rows without missing values are returned bit-identical.
    """
    if policy == IMPUTE_DROP_ROWS:
        keep = ~dataset.missing_mask.any(axis=1)
        return Dataset(
            features=dataset.features[keep],
            labels=dataset.labels[keep],
            missing_mask=dataset.missing_mask[keep],
            schema=dataset.schema,
            warnings=dataset.warnings,
        )
    if policy != IMPUTE_MEDIAN_MODE:
        raise ValueError(f"unknown imputation policy {policy!r}")

    features = dataset.features.copy()
    for col in dataset.schema:
        j = col.column_index
        col_missing = dataset.missing_mask[:, j]
        if not col_missing.any():
            continue
        present = features[~col_missing, j]
        if present.size == 0:
            raise ImputationError(f"column {col.name} has no observed values")
        if col.kind == CATEGORICAL:
            fill = _column_mode(present)
        else:
            fill = float(np.median(present))
        features[col_missing, j] = fill

    return Dataset(
        features=features,
        labels=dataset.labels,
        missing_mask=dataset.missing_mask,
        schema=dataset.schema,
        warnings=dataset.warnings,
    )


class ScaledRow(NamedTuple):
    """Scaled feature values, one row or a matrix of rows, plus per-cell
    flags for inputs that fell outside the fitted [min, max] range
    (extrapolated, not clipped)."""

    values: np.ndarray
    out_of_range: np.ndarray


@dataclass(frozen=True)
class ColumnScale:
    name: str
    x_min: float
    x_max: float

    @property
    def delta(self) -> float:
        return self.x_max - self.x_min

    @property
    def degenerate(self) -> bool:
        return self.delta == 0.0


@dataclass(frozen=True)
class Scaler:
    """Per-column linear map x -> (x - x_min) / (x_max - x_min).

    In-range inputs land in [0, 1]; degenerate (constant) columns map to
    0.0 and invert back to their single observed value.
    """

    columns: tuple[ColumnScale, ...]
    _mins: np.ndarray = field(init=False, repr=False, compare=False)
    _maxs: np.ndarray = field(init=False, repr=False, compare=False)
    _deltas: np.ndarray = field(init=False, repr=False, compare=False)
    _degenerate: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mins = _frozen_array([c.x_min for c in self.columns], np.float64)
        maxs = _frozen_array([c.x_max for c in self.columns], np.float64)
        deltas = np.array([c.delta for c in self.columns], dtype=np.float64)
        if (deltas < 0).any():
            raise ValidationError("scaler delta must be >= 0 for every column")
        degenerate = deltas == 0.0
        deltas[degenerate] = 1.0  # placeholder; degenerate output forced to 0
        deltas.setflags(write=False)
        object.__setattr__(self, "_mins", mins)
        object.__setattr__(self, "_maxs", maxs)
        object.__setattr__(self, "_deltas", deltas)
        object.__setattr__(self, "_degenerate", _frozen_array(degenerate, bool))

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def degenerate_columns(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.degenerate)

    def check_columns(self, schema) -> None:
        """Raise unless the scaler's columns are ``schema``'s columns, by
        name and in order; the message names the first one that differs."""
        for position, (col, expected) in enumerate(zip(self.columns, schema), start=1):
            if col.name != expected.name:
                raise ValidationError(
                    f"scaler column {position} is {col.name!r} but the data has "
                    f"{expected.name!r} there"
                )
        if self.n_columns != len(schema):
            raise ValidationError(
                f"scaler has {self.n_columns} columns but the input has {len(schema)}"
            )

    def transform(self, features) -> ScaledRow:
        """Scale one row of ``n_columns`` values or an (n, n_columns)
        matrix, flagging every cell outside the fitted range."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValidationError(f"expected a row or a matrix of features, got shape {x.shape}")
        if x.shape[-1] != self.n_columns:
            raise ValidationError(
                f"scaler has {self.n_columns} columns but the input has {x.shape[-1]}"
            )
        values = (x - self._mins) / self._deltas
        values[..., self._degenerate] = 0.0
        out_of_range = (x < self._mins) | (x > self._maxs)
        return ScaledRow(values, out_of_range)

    def inverse_transform(self, scaled) -> np.ndarray:
        y = np.asarray(scaled, dtype=np.float64)
        if y.shape != (self.n_columns,):
            raise ValidationError(
                f"expected {self.n_columns} scaled values, got shape {y.shape}"
            )
        x = y * self._deltas + self._mins
        x[self._degenerate] = self._mins[self._degenerate]
        return x


def fit_scaler(dataset: Dataset) -> Scaler:
    """Record per-column observed extremes; constant columns are kept but
    flagged degenerate."""
    if len(dataset) == 0:
        raise ValidationError("cannot fit a scaler on an empty dataset")
    if dataset.has_missing_values:
        raise ValidationError("dataset has missing cells; impute before scaling")
    mins = dataset.features.min(axis=0)
    maxs = dataset.features.max(axis=0)
    columns = tuple(
        ColumnScale(col.name, float(mins[col.column_index]), float(maxs[col.column_index]))
        for col in dataset.schema
    )
    return Scaler(columns)


def save_scaler(scaler: Scaler, path) -> None:
    """Write the scaler as a JSON object mapping column name -> {min, max}."""
    payload = {c.name: {"min": c.x_min, "max": c.x_max} for c in scaler.columns}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_scaler(path) -> Scaler:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object of columns")
    columns = []
    for name, bounds in payload.items():
        try:
            columns.append(ColumnScale(name, float(bounds["min"]), float(bounds["max"])))
        except (TypeError, KeyError, ValueError):
            raise FormatError(f"{path}: column {name!r} needs numeric min/max") from None
    if not columns:
        raise FormatError(f"{path}: no columns")
    return Scaler(tuple(columns))


# Four classes on two output neurons: the code is the label's two-bit
# binary representation, high bit first.
_CLASS_CODES = np.array(
    [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], dtype=np.float64
)


def encode_class(label: int) -> np.ndarray:
    """Map a class label 0..3 to its two-neuron target vector."""
    if not 0 <= int(label) < N_CLASSES or label != int(label):
        raise ValidationError(f"class label {label!r} outside 0..{N_CLASSES - 1}")
    return _CLASS_CODES[int(label)].copy()


def encode_labels(labels) -> np.ndarray:
    """Vectorized :func:`encode_class` over a label array."""
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


def decode_output(output) -> int:
    """:func:`decode_outputs` for a single output vector."""
    out = np.asarray(output, dtype=np.float64)
    if out.shape != (2,):
        raise ValidationError(f"expected 2 output values, got shape {out.shape}")
    return int(decode_outputs(out[None, :])[0])


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
