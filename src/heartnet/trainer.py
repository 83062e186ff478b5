"""Backpropagation training loop with momentum and a variable learning
rate.

Each weight step is ``-lr * gradient + momentum * previous_step``.  After
every epoch the learning rate adapts against the last accepted epoch's
SSE: improvement raises it, a rise beyond the tolerance band lowers it
and rolls the epoch back bit-exactly, and a small rise inside the band
keeps both the weights and the rate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import ValidationError
from .network import Gradients, Network, backward, forward, pack_layers, sse


class DivergenceError(RuntimeError):
    """Training produced a non-finite SSE."""

    def __init__(self, epoch: int, message: str | None = None):
        super().__init__(message or f"non-finite SSE at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and run controls for :func:`train`."""

    initial_lr: float = 0.1
    momentum: float = 0.9
    lr_increase: float = 1.05
    lr_decrease: float = 0.7
    max_sse_rise: float = 0.04
    max_epochs: int = 5000
    target_sse: float = 0.01
    seed: int = 0

    def __post_init__(self):
        # each bound is written so that NaN fails it
        if not self.initial_lr > 0:
            raise ValueError("initial_lr must be > 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if not self.lr_increase > 1:
            raise ValueError("lr_increase must be > 1")
        if not 0 < self.lr_decrease < 1:
            raise ValueError("lr_decrease must lie in (0, 1)")
        if not self.max_sse_rise >= 0:
            raise ValueError("max_sse_rise must be >= 0")
        if not self.max_epochs >= 1:
            raise ValueError("max_epochs must be >= 1")
        if not self.target_sse >= 0:
            raise ValueError("target_sse must be >= 0")


@dataclass
class Velocity:
    """Previous update step per weight and bias (momentum state).

    ``flat`` holds every step laid out like :attr:`Network.params`;
    ``weights`` and ``biases`` are views of it.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, self.weights, self.biases = pack_layers(self.weights, self.biases)

    @classmethod
    def zeros(cls, network: Network) -> "Velocity":
        return cls(
            weights=[np.zeros_like(w) for w in network.weights],
            biases=[np.zeros_like(b) for b in network.biases],
        )

    def copy(self) -> "Velocity":
        return Velocity(weights=self.weights, biases=self.biases)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    sse: float
    learning_rate: float  # rate in effect during the epoch's updates
    accepted: bool


@dataclass(frozen=True)
class TrainingHistory:
    """One record per attempted epoch, in order."""

    records: tuple[EpochRecord, ...]

    @property
    def epochs_run(self) -> int:
        return len(self.records)

    @property
    def final_sse(self) -> float:
        """SSE of the last accepted epoch (the state the network was left in)."""
        for record in reversed(self.records):
            if record.accepted:
                return record.sse
        return math.inf


def _check_shapes(network: Network, grads_or_velocity) -> None:
    if len(grads_or_velocity.weights) != network.n_layers:
        raise ValueError("layer count mismatch")
    for w, gw, b, gb in zip(
        network.weights, grads_or_velocity.weights, network.biases, grads_or_velocity.biases
    ):
        if w.shape != gw.shape or b.shape != gb.shape:
            raise ValueError(
                f"shape mismatch: network {w.shape}/{b.shape} vs {gw.shape}/{gb.shape}"
            )


def apply_update(
    network: Network,
    gradients: Gradients,
    velocity: Velocity,
    lr: float,
    momentum: float,
) -> None:
    """Apply one momentum step in place: step = momentum*previous step -
    lr*g, for every weight and bias; velocity keeps the new step."""
    _check_shapes(network, gradients)
    _check_shapes(network, velocity)
    step = velocity.flat
    step *= momentum
    step -= lr * gradients.flat
    network.params += step


def adapt_learning_rate(
    prev_sse: float, new_sse: float, lr: float, config: TrainConfig
) -> tuple[float, bool]:
    """Decide the next learning rate and whether the epoch stands.

    SSE no worse than before raises the rate; a rise beyond the tolerance
    band lowers it and rejects the epoch; a rise inside the band keeps
    both.
    """
    if new_sse <= prev_sse:
        return lr * config.lr_increase, True
    if new_sse > prev_sse * (1.0 + config.max_sse_rise):
        return lr * config.lr_decrease, False
    return lr, True


def train_epoch(
    network: Network,
    inputs: np.ndarray,
    targets: np.ndarray,
    velocity: Velocity,
    lr: float,
    config: TrainConfig,
    order: np.ndarray,
) -> float:
    """One presentation of the training set; returns the epoch SSE.

    The samples are presented in ``order`` and the weights move after
    every one; each sample's SSE uses the weights in effect when it was
    presented.
    """
    n = inputs.shape[0]
    if n == 0:
        raise ValidationError("training set is empty")
    if targets.shape[0] != n:
        raise ValueError("inputs and targets disagree on sample count")

    total = 0.0
    for idx in order:
        activations = forward(network, inputs[idx])
        total += sse(activations[-1], targets[idx])
        grads = backward(network, activations, targets[idx])
        apply_update(network, grads, velocity, lr, config.momentum)
    return total


def train(
    network: Network,
    inputs,
    targets,
    config: TrainConfig,
) -> TrainingHistory:
    """Run epochs until the SSE target or the epoch cap is hit.

    The network is updated in place.  Rejected epochs restore weights,
    biases, and velocity bit-exactly and still appear in the history with
    ``accepted=False``.  The first epoch has no baseline and is always
    accepted.  Fully reproducible from (config, seed): the same inputs
    give bit-identical weights and history.  Runs under
    ``np.errstate(over="ignore", invalid="ignore")``: a saturated sigmoid
    gives exactly 0.0 without a RuntimeWarning, and a NaN from a
    non-finite weight surfaces as :class:`DivergenceError` alone.
    """
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    t = np.ascontiguousarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != network.layer_sizes[0]:
        raise ValueError(
            f"inputs must be (n, {network.layer_sizes[0]}), got {x.shape}"
        )
    if t.ndim != 2 or t.shape[1] != network.layer_sizes[-1]:
        raise ValueError(
            f"targets must be (n, {network.layer_sizes[-1]}), got {t.shape}"
        )
    if x.shape[0] == 0:
        raise ValidationError("training set is empty")

    rng = np.random.default_rng(config.seed)
    velocity = Velocity.zeros(network)
    lr = config.initial_lr
    prev_sse = math.inf
    records: list[EpochRecord] = []

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(x.shape[0])
            saved_params = network.params.copy()
            saved_velocity = velocity.flat.copy()

            epoch_sse = train_epoch(network, x, t, velocity, lr, config, order)
            if not math.isfinite(epoch_sse):
                raise DivergenceError(epoch)

            next_lr, accepted = adapt_learning_rate(prev_sse, epoch_sse, lr, config)
            records.append(EpochRecord(epoch, epoch_sse, lr, accepted))
            if accepted:
                prev_sse = epoch_sse
            else:
                network.params[:] = saved_params
                velocity.flat[:] = saved_velocity
            lr = next_lr
            if accepted and epoch_sse <= config.target_sse:
                break

    return TrainingHistory(tuple(records))


def write_history_csv(history: TrainingHistory, path) -> None:
    """Export the per-epoch curve (the plotting input for SSE-vs-epoch
    figures) as ``epoch,sse,learning_rate,accepted``."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "sse", "learning_rate", "accepted"])
        for record in history.records:
            writer.writerow(
                [
                    record.epoch,
                    repr(record.sse),
                    repr(record.learning_rate),
                    "true" if record.accepted else "false",
                ]
            )
