"""Classification-efficiency metrics and the single-vs-multi-layer
experiment grid over train/test split sizes."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as hdata
from .data import Dataset, ValidationError, encode_labels, fit_scaler
from .network import Network, forward, new_network
from .trainer import TrainConfig, train

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
    tally efficiency and confusion."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValidationError("test set is empty")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels disagree on sample count")

    with np.errstate(over="ignore"):
        outputs = forward(network, x)[-1]
    predicted = hdata.decode_outputs(outputs)
    confusion = np.zeros((hdata.N_CLASSES, hdata.N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (y, predicted), 1)
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
    evaluate on the held-out rows.  Oversized split requests are rescaled
    to the available instance count and marked in the report.
    """
    if dataset.has_missing_values:
        raise ValidationError("dataset has missing cells; impute before running")
    cells = []
    for requested_train, requested_test in splits:
        n_train, n_test = fit_split_sizes(len(dataset), requested_train, requested_test)
        train_set, test_set = hdata.split(dataset, n_train, n_test, config.seed)
        scaler = fit_scaler(train_set)
        train_x = scaler.transform(train_set.features)
        train_t = encode_labels(train_set.labels)
        test_x = scaler.transform(test_set.features)

        for architecture, hidden in ((ARCH_SINGLE, ()), (ARCH_MULTI, hidden_sizes)):
            net = new_network((hdata.N_ATTRIBUTES, *hidden, 2), config.seed)
            history = train(net, train_x, train_t, config)
            metrics = evaluate(net, test_x, test_set.labels)
            cells.append(
                ExperimentCell(
                    requested_train=requested_train,
                    requested_test=requested_test,
                    n_train=n_train,
                    n_test=n_test,
                    architecture=architecture,
                    efficiency_pct=metrics.efficiency_pct,
                    binary_efficiency_pct=metrics.binary_efficiency_pct,
                    final_sse=history.final_sse,
                    epochs_run=history.epochs_run,
                )
            )
    return ExperimentReport(
        cells=tuple(cells),
        n_instances=len(dataset),
        imputation_policy=imputation_policy,
        seed=config.seed,
    )


def export_report(report: ExperimentReport, path) -> None:
    """Write one CSV row per grid cell; float fields use repr so a reload
    reproduces the values exactly."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["n_train", "n_test", "architecture", "efficiency_pct", "final_sse", "epochs"]
        )
        for cell in report.cells:
            writer.writerow(
                [
                    cell.n_train,
                    cell.n_test,
                    cell.architecture,
                    repr(cell.efficiency_pct),
                    repr(cell.final_sse),
                    cell.epochs_run,
                ]
            )


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
