"""Classification-efficiency metrics and the single-vs-multi-layer
experiment grid over train/test split sizes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as hdata
from .data import Dataset, ValidationError, _write_csv, encode_labels, fit_scaler
from .network import Network, forward, new_network
from .trainer import TrainConfig, train_many

ARCH_SINGLE = "single"  # inputs wired straight to the output neurons
ARCH_MULTI = "multi"  # one or more hidden layers in between

DEFAULT_HIDDEN_SIZES = (8,)

# The split grid of the protocol this harness replicates.  The originally
# reported efficiencies (a 414-instance run) are kept for context in the
# printed report; they are never asserted against, since that instance
# count, the hidden sizes, and all hyperparameters are unavailable.
DEFAULT_GRID: tuple[tuple[int, int], ...] = (
    (100, 300),
    (150, 200),
    (250, 150),
    (350, 100),
)
REFERENCE_EFFICIENCY_PCT: dict[tuple[int, int], dict[str, float]] = {
    (100, 300): {ARCH_SINGLE: 76.0, ARCH_MULTI: 82.0},
    (150, 200): {ARCH_SINGLE: 79.4, ARCH_MULTI: 83.0},
    (250, 150): {ARCH_SINGLE: 86.2, ARCH_MULTI: 89.3},
    (350, 100): {ARCH_SINGLE: 90.6, ARCH_MULTI: 94.0},
}


def layer_stack(hidden_sizes=()) -> tuple[int, ...]:
    """The layer sizes of a network for the table: its 13 input features,
    the ``hidden_sizes``, and the 2 output neurons that code a class.
    ``layer_stack()`` is the single-layer network's."""
    return (hdata.N_ATTRIBUTES, *hidden_sizes, 2)


@dataclass(frozen=True)
class Metrics:
    """Exact-match efficiency plus the 4x4 confusion matrix
    (rows = true class, columns = predicted class)."""

    n_test: int
    n_correct: int
    efficiency_pct: float
    confusion: np.ndarray

    def __post_init__(self):
        confusion = np.array(self.confusion, dtype=np.int64)
        confusion.setflags(write=False)
        object.__setattr__(self, "confusion", confusion)

    @property
    def binary_efficiency_pct(self) -> float:
        """Efficiency after collapsing classes to normal (0) vs abnormal."""
        correct = self.confusion[0, 0] + self.confusion[1:, 1:].sum()
        return 100.0 * float(correct) / float(self.n_test)


def evaluate(network: Network, features, labels) -> Metrics:
    """Predict every test sample in one whole-matrix forward pass and
    tally efficiency and confusion.  ``features`` is a matrix of finite
    values with one row per sample, as wide as the network's input layer
    (:func:`heartnet.data._sample_rows`), and each label must be a whole
    number in 0..3 (:func:`heartnet.data._class_labels`)."""
    x = hdata._sample_rows(features, network.layer_sizes[0], "features")
    y = hdata._class_labels(labels)
    if x.shape[0] == 0:
        raise ValidationError("test set is empty")
    if y.shape != x.shape[:1]:
        raise ValueError("features and labels disagree on sample count")

    with np.errstate(over="ignore"):
        outputs = forward(network, x)[-1]
    predicted = hdata.decode_outputs(outputs)
    # one count per (true, predicted) pair, cell true * 4 + predicted
    confusion = np.bincount(
        hdata.N_CLASSES * y + predicted, minlength=hdata.N_CLASSES**2
    ).reshape(hdata.N_CLASSES, hdata.N_CLASSES)
    n_test = int(y.shape[0])
    n_correct = int(np.trace(confusion))
    return Metrics(
        n_test=n_test,
        n_correct=n_correct,
        efficiency_pct=100.0 * n_correct / n_test,
        confusion=confusion,
    )


@dataclass(frozen=True)
class ExperimentCell:
    """Result of one (split, architecture) grid entry."""

    requested_train: int
    requested_test: int
    n_train: int
    n_test: int
    architecture: str
    efficiency_pct: float
    binary_efficiency_pct: float
    final_sse: float
    epochs_run: int


@dataclass(frozen=True)
class ExperimentReport:
    cells: tuple[ExperimentCell, ...]
    n_instances: int
    imputation_policy: str
    seed: int


def fit_split_sizes(n_instances: int, n_train: int, n_test: int) -> tuple[int, int]:
    """Keep requested sizes when they fit; otherwise shrink both
    proportionally (floor-rounded, train:test ratio preserved)."""
    total = n_train + n_test
    if total <= n_instances:
        return n_train, n_test
    return n_instances * n_train // total, n_instances * n_test // total


def check_splits(n_instances: int, splits) -> None:
    """Raise :class:`~heartnet.data.ValidationError` for an empty grid, or
    for the first split that, fitted to ``n_instances`` rows, leaves 0
    training or 0 test rows."""
    if len(splits) == 0:
        raise ValidationError("the split grid is empty")
    for requested in splits:
        for count, kind in zip(fit_split_sizes(n_instances, *requested), ("training", "test")):
            if not count:
                raise ValidationError(
                    f"split {requested[0]}/{requested[1]} leaves 0 {kind} rows of {n_instances}"
                )


@dataclass(frozen=True)
class _PreparedCell:
    """One (split, architecture) grid entry, ready to train: its report
    fields up to the architecture, its fresh network, its scaled training
    inputs with their target rows, and its scaled held-out rows with their
    labels."""

    entry: tuple[int, int, int, int, str]
    network: Network
    training_set: tuple[np.ndarray, np.ndarray]
    test_set: tuple[np.ndarray, np.ndarray]


def _prepare_cells(dataset: Dataset, splits, config: TrainConfig,
                   hidden_sizes) -> list[_PreparedCell]:
    """The first step of :func:`run_experiment`: every check, and every
    split drawn and scaled, with no network trained.  One
    :class:`_PreparedCell` per grid entry, in grid order: each split's
    single-layer cell, then its multi-layer one."""
    if not hidden_sizes:
        raise ValueError("hidden_sizes is empty: the multi-layer network needs a hidden layer")
    if dataset.has_missing_values:
        raise ValidationError("dataset has missing cells; impute before running")
    check_splits(len(dataset), splits)
    # the table's own bounds first: a column whose span float64 cannot
    # hold is refused with the bounds a scaler of the whole table names
    fit_scaler(dataset)
    architectures = ((ARCH_SINGLE, layer_stack()), (ARCH_MULTI, layer_stack(hidden_sizes)))
    cells = []
    for requested in splits:
        n_train, n_test = fit_split_sizes(len(dataset), *requested)
        train_set, test_set = hdata.split(dataset, n_train, n_test, config.seed)
        scaler = fit_scaler(train_set)
        training_set = (scaler.transform(train_set.features), encode_labels(train_set.labels))
        test = (scaler.transform(test_set.features), test_set.labels)
        cells += [_PreparedCell((*requested, n_train, n_test, architecture),
                                new_network(sizes, config.seed), training_set, test)
                  for architecture, sizes in architectures]
    return cells


def _run_cells(cells: list[_PreparedCell], config: TrainConfig, n_instances: int,
               imputation_policy: str) -> ExperimentReport:
    """The second step of :func:`run_experiment`: train every prepared
    cell in one :func:`~heartnet.trainer.train_many` call, score each on
    its held-out rows and report them in grid order."""
    histories = train_many([c.network for c in cells], [c.training_set for c in cells], config)
    results = []
    for cell, history in zip(cells, histories):
        metrics = evaluate(cell.network, *cell.test_set)
        results.append(ExperimentCell(
            *cell.entry, efficiency_pct=metrics.efficiency_pct,
            binary_efficiency_pct=metrics.binary_efficiency_pct,
            final_sse=history.final_sse, epochs_run=history.epochs_run,
        ))
    return ExperimentReport(tuple(results), n_instances, imputation_policy, config.seed)


def run_experiment(
    dataset: Dataset,
    splits=DEFAULT_GRID,
    config: TrainConfig = TrainConfig(),
    hidden_sizes=DEFAULT_HIDDEN_SIZES,
    imputation_policy: str = hdata.IMPUTE_MEDIAN_MODE,
) -> ExperimentReport:
    """Train and test a single-layer and a multi-layer network on every
    split.

    Per split: partition with the run seed, fit the scaler on the training
    portion only, train each network from a fresh seeded start, and
    evaluate on the held-out rows, scaled by that same scaler.  Oversized
    split requests are rescaled to the available instance count and
    marked in the report.

    The run has two steps.  The first makes every check and prepares
    every cell before any network trains: empty ``hidden_sizes`` (the
    multi-layer network would be the single-layer one) is a ValueError,
    and missing cells, an empty grid, a split that leaves 0 training or 0
    test rows, a column whose span over the table float64 cannot hold, and
    a held-out value that its split's training scaler scales past float64
    are each a :class:`~heartnet.data.ValidationError`.  The second trains
    all cells in one :func:`~heartnet.trainer.train_many` call, in one
    epoch loop with one stack of both architectures' cells and one kernel
    call per epoch, with the same results as one
    :func:`~heartnet.trainer.train` per cell.  If cells diverge, the
    :class:`~heartnet.trainer.DivergenceError` raised is that of the
    first of them in grid order, as if the cells had trained one by one.
    The ``heartnet experiment`` command runs the first step, creates its
    ``--out`` directory, then runs the second.
    """
    cells = _prepare_cells(dataset, splits, config, hidden_sizes)
    return _run_cells(cells, config, len(dataset), imputation_policy)


def export_report(report: ExperimentReport, path) -> None:
    """Write one CSV row per grid cell; float fields use repr so a reload
    reproduces the values exactly."""
    header = ["n_train", "n_test", "architecture", "efficiency_pct", "final_sse", "epochs"]
    rows = (
        [
            cell.n_train,
            cell.n_test,
            cell.architecture,
            repr(cell.efficiency_pct),
            repr(cell.final_sse),
            cell.epochs_run,
        ]
        for cell in report.cells
    )
    _write_csv(path, header, rows)


def format_report(report: ExperimentReport, binary: bool = False) -> str:
    """Human-readable experiment table; shows requested vs actual sizes
    and the reference efficiencies where the grid matches the published
    protocol rows."""
    lines = [
        f"instances: {report.n_instances}  imputation: {report.imputation_policy}  "
        f"seed: {report.seed}",
    ]
    header = (
        f"{'requested':>12}  {'actual':>12}  {'arch':>6}  {'efficiency':>10}"
    )
    if binary:
        header += f"  {'binary':>8}"
    header += f"  {'final_sse':>12}  {'epochs':>6}  {'reference':>9}"
    lines.append(header)
    for cell in report.cells:
        requested = f"{cell.requested_train}/{cell.requested_test}"
        actual = f"{cell.n_train}/{cell.n_test}"
        reference = REFERENCE_EFFICIENCY_PCT.get(
            (cell.requested_train, cell.requested_test), {}
        ).get(cell.architecture)
        row = (
            f"{requested:>12}  {actual:>12}  {cell.architecture:>6}  "
            f"{cell.efficiency_pct:>9.2f}%"
        )
        if binary:
            row += f"  {cell.binary_efficiency_pct:>7.2f}%"
        row += f"  {cell.final_sse:>12.4f}  {cell.epochs_run:>6}"
        row += f"  {reference:>8.1f}%" if reference is not None else f"  {'-':>9}"
        lines.append(row)
    return "\n".join(lines)
