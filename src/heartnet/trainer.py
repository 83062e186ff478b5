"""Backpropagation training loop with momentum and a variable learning
rate.

Each weight step is ``-lr * gradient + momentum * previous_step``.  After
every epoch the learning rate adapts against the last accepted epoch's
SSE: improvement raises it, a rise beyond the tolerance band lowers it
and rolls the epoch back bit-exactly, and a small rise inside the band
keeps both the weights and the rate.

The gradient and the momentum state (the velocity: the previous step of
every weight and bias) are plain float64 arrays laid out like
:attr:`~heartnet.network.Network.params`, so a momentum step, an epoch
snapshot and a rollback are each one array operation.

:func:`train_epoch` is the checked per-sample kernel, and the only path
a training step takes.  It checks the training set and the velocity once
per epoch, allocates one gradient buffer, and then runs every sample
through the unchecked forward and backward sweeps of
:mod:`heartnet.network` and the momentum step, with no check per sample.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .data import ValidationError, _write_csv
from .network import Network, _backprop, _is_integer, _sweep, _views


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
        # An int field takes an integer, a float field an int or a float;
        # bool is neither, numpy scalars are.  f.type is the annotation's
        # text here (postponed annotations); exact types are tested before
        # the slower ABC check.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_integer(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not (
                type(value) in (int, float)
                or (isinstance(value, numbers.Real) and not isinstance(value, bool))
            ):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
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
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")


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


def _check_training_set(network: Network, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
    """``inputs`` and ``targets`` as contiguous float64 matrices, checked
    against the network's input and output widths and each other."""
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
    if t.shape[0] != x.shape[0]:
        raise ValueError("inputs and targets disagree on sample count")
    return x, t


def train_epoch(
    network: Network,
    inputs: np.ndarray,
    targets: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    config: TrainConfig,
    order: np.ndarray,
) -> float:
    """One presentation of the training set; returns the epoch SSE.

    The samples are presented in ``order`` and the weights move after
    every one; each sample's SSE uses the weights in effect when it was
    presented.  ``velocity``, laid out like ``network.params``, holds
    every weight's previous step and is updated in place.  Shapes are
    checked once, before any weight moves.
    """
    x, t = _check_training_set(network, inputs, targets)
    if velocity.shape != network.params.shape:
        raise ValueError(
            f"velocity shape {velocity.shape} does not match the network's "
            f"parameters {network.params.shape}"
        )

    weights, params = network.weights, network.params
    momentum = config.momentum
    grads = np.empty_like(params)
    weight_grads, bias_grads = _views(grads, weights, network.biases)
    total = 0.0
    for idx in order:
        activations = _sweep(network, x[idx])
        target = t[idx]
        err = target - activations[-1]
        total += float(np.dot(err, err))
        _backprop(weights, activations, target, weight_grads, bias_grads)
        velocity *= momentum
        velocity -= lr * grads
        params += velocity
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
    x, t = _check_training_set(network, inputs, targets)
    rng = np.random.default_rng(config.seed)
    velocity = np.zeros_like(network.params)
    lr = config.initial_lr
    prev_sse = math.inf
    records: list[EpochRecord] = []

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(x.shape[0])
            saved_params = network.params.copy()
            saved_velocity = velocity.copy()

            epoch_sse = train_epoch(network, x, t, velocity, lr, config, order)
            if not math.isfinite(epoch_sse):
                raise DivergenceError(epoch)

            next_lr, accepted = adapt_learning_rate(prev_sse, epoch_sse, lr, config)
            records.append(EpochRecord(epoch, epoch_sse, lr, accepted))
            if accepted:
                prev_sse = epoch_sse
            else:
                network.params[:] = saved_params
                velocity[:] = saved_velocity
            lr = next_lr
            if accepted and epoch_sse <= config.target_sse:
                break

    return TrainingHistory(tuple(records))


def write_history_csv(history: TrainingHistory, path) -> None:
    """Export the per-epoch curve (the plotting input for SSE-vs-epoch
    figures) as ``epoch,sse,learning_rate,accepted``."""
    rows = (
        [
            record.epoch,
            repr(record.sse),
            repr(record.learning_rate),
            "true" if record.accepted else "false",
        ]
        for record in history.records
    )
    _write_csv(path, ["epoch", "sse", "learning_rate", "accepted"], rows)
