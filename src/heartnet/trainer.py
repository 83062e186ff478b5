"""Backpropagation training loop with momentum and a variable learning
rate.

Each weight step is ``-lr * gradient + momentum * previous_step``.  After
every epoch the learning rate adapts against the last accepted epoch's
SSE: improvement raises it, a rise beyond the tolerance band lowers it
and rejects the epoch, and a small rise inside the band keeps both the
weights and the rate.

The gradient and the momentum state (the velocity: the previous step of
every weight and bias) are plain float64 arrays laid out like
:attr:`~heartnet.network.Network.params`, so a momentum step is one
array operation.

One epoch loop, :func:`train_many`, trains one network or several of
any shapes; :func:`train` is that loop for one.  Every epoch of every
network goes through one per-sample kernel, ``_epoch``.  Each epoch
stacks copies of the parameter vectors and velocities of one shape's
K >= 1 networks still training as the rows of ``(K, P)`` arrays, one
stack and one ``_epoch`` call per shape, and each forward, backward and
momentum step is one stacked numpy call over the rows still presenting
samples.  Per-sample cost is bound by numpy's per-call overhead, so one
call for K networks is cheaper than K calls, and the fewer calls and
temporaries a sample takes, the faster it runs.  For the same reason the
kernel's scalar operands, ``1.0`` and the momentum, are float64 0-d
arrays made once per epoch: a Python float operand is converted to an
array on every call, while a 0-d float64 array selects the same float64
loop with the same double (numpy 1.24 and 2 alike), so the bits do not
change.  Each sample's output error is kept, and every row's epoch SSE
is summed once, in presentation order, after the last sample.

A view into the row-major stack puts P values between rows, so numpy
would run the bias add and the outer product in its slower strided
loops.  So every block of samples with the same m rows still
presenting, a one-row block included, steps a layer-major copy of those
rows (``network._layer_major``), in which each layer's weights and
biases are one contiguous ``(m, ...)`` array, and writes them back when
the block ends.  Each layer's delta is computed in that layer's bias
gradient, which is also viewed once per block as an ``(m, out, 1)``
column, and the weight gradient is the outer product of that column
with the layer's input, so no sample copies a delta or builds a
transposed view.  Only the stride between rows changes, so the bits do
not.

Each network's state between epochs (its checked training set,
generator, rate, velocity, last accepted SSE and records) is one
``_Run`` record, and ``_Run.settle`` is the one place an epoch's SSE is
judged: it records the epoch, adapts the rate, writes an accepted row
back and says whether the run trains on.  Only an accepted epoch's row
is written back into its network, so a network's ``params`` always hold
its last accepted epoch, and a rejected epoch is dropped with its copy.
:func:`heartnet.evaluation.run_experiment` trains all its cells in one
call, so each architecture's split cells are one stack.

The kernel steps each block's layer-major copy with its parameters
negated: it negates the copy when the block starts and negates it back
as it writes the rows back, so the caller's stack is never negated.
Negating an operand negates a product or a sum exactly under
round-to-nearest, fused multiply-add or not, so ``x @ -W.T + -b`` is bit
for bit ``-(x @ W.T + b)``: the very argument
the logistic ``1 / (1 + e^-a)`` exponentiates, with no negation call.
The hidden delta ``(delta @ -W) * y * (y - 1)`` and the step
``-p - v == -(p + v)`` are likewise the plain arithmetic's bits, so every
weight, SSE and artifact is the same as with the weights as stored; only
a result that lands exactly on zero can differ, in the sign of that zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import ValidationError, _is_integer, _is_real, _sample_rows, _write_csv
from .network import Network, _layer_major, _views, _write_rows


class DivergenceError(RuntimeError):
    """Training produced a non-finite SSE."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite SSE at epoch {epoch}")
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
        # An int field takes an integer, a float field a real number a
        # float64 can hold (data._is_real: 10**400 is refused, NaN and
        # +-inf meet the bounds below); bool is neither, numpy scalars
        # are.  f.type is the annotation's text here (postponed annotations).
        # A float field is stored as a float, so 1 and np.float32(0.1) run
        # and write the same as 1.0 and float(np.float32(0.1)).
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_integer(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float":
                if not _is_real(value):
                    raise ValueError(f"{f.name} must be a number, got {value!r}")
                object.__setattr__(self, f.name, float(value))
        # each bound is written so that NaN fails it
        if not 0 < self.initial_lr < math.inf:
            raise ValueError("initial_lr must be > 0 and finite")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if not 1 < self.lr_increase < math.inf:
            raise ValueError("lr_increase must be > 1 and finite")
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
    """``inputs`` and ``targets`` as contiguous float64 matrices of finite
    values (:func:`heartnet.data._sample_rows`), as wide as the network's
    input and output layers, with one target row per input row."""
    x = _sample_rows(inputs, network.layer_sizes[0], "inputs")
    t = _sample_rows(targets, network.layer_sizes[-1], "targets")
    if x.shape[0] == 0:
        raise ValidationError("training set is empty")
    if t.shape[0] != x.shape[0]:
        raise ValueError("inputs and targets disagree on sample count")
    return x, t


def train(
    network: Network,
    inputs,
    targets,
    config: TrainConfig,
) -> TrainingHistory:
    """Run epochs until the SSE target or the epoch cap is hit.

    The network is updated in place, by accepted epochs only: a rejected
    epoch leaves its weights, biases and velocity as they were and still
    appears in the history with ``accepted=False``.  The first epoch has
    no baseline and is always accepted.  Fully reproducible from (config,
    seed): the same inputs give bit-identical weights and history.
    :func:`train_many` of one network, so a :class:`DivergenceError`
    leaves the network at its last accepted epoch.
    """
    return train_many([network], [(inputs, targets)], config)[0]


def _epoch(
    params: np.ndarray,
    velocity: np.ndarray,
    layer_sizes: tuple[int, ...],
    inputs: list[np.ndarray],
    targets: list[np.ndarray],
    lr: np.ndarray,
    momentum: float,
) -> np.ndarray:
    """One epoch of every network in the stack; returns each one's epoch SSE.

    Row ``r`` of ``params`` (and of ``velocity``) is one network's
    parameter vector, laid out for ``layer_sizes`` by ``network._views``.
    ``inputs[r]`` and ``targets[r]`` are row r's samples in presentation
    order, at least one per row; nothing is checked here.  The rows are
    sorted by sample count, largest first, so the rows still presenting
    samples at any sample index are a prefix ``[:m]`` of the stack.

    The samples are stepped in blocks of equal m.  Every block steps a
    layer-major copy of its m rows' params, velocity and rates, made when
    it starts (``network._layer_major``), through
    ``network._views(..., rows=m)``, and writes the params and velocity
    back into their rows when it ends (``network._write_rows``); the
    gradient and step are layer-major scratch.  Each product sees the
    same operands, and each ``(out, in)`` matrix keeps its layout, so the
    copy changes no bit.

    Each sample takes one forward sweep, one backward sweep and one
    momentum step, each layer one stacked product or elementwise
    operation over the active rows, mostly in place.  Each block's copy
    of the params is negated when ``_layer_major`` makes it and negated
    back in its ``_write_rows`` call, and ``params`` itself never is,
    so each layer computes ``z = x @ -W.T + -b``, which is ``-a``
    exactly, and then the logistic
    ``1 / (1 + e^z)`` in place; the step is ``p -= v`` on the negated
    ``p``.  The velocity is not negated.  See the module docstring for
    why these are the bits of the plain ``sigmoid(x @ W.T + b)``
    arithmetic, which ``tests/gradient_oracle.py:reference_epoch``
    keeps and the tests compare against.  The output delta is
    ``(o - t) * o * (1 - o)``, and each hidden delta is the next layer's
    weighted delta sum scaled by the local sigmoid derivative,
    ``(delta @ -W) * y * (y - 1)`` on the negated weights: the gradient of
    SSE/2.  Each delta is computed in its layer's bias gradient, and each
    weight gradient is taken from that bias gradient's ``(m, out, 1)``
    view.  ``1.0`` and ``momentum`` enter as 0-d float64 arrays; the
    arrays are made once per epoch and the views once per block, not once
    per call (see the module docstring).  Each sample's ``o - t`` is
    kept, and a row's SSE is the running sum of its samples' squared
    errors, each taken with the weights in effect when it was presented;
    a row's padding past its last sample adds exactly 0.0.
    """
    n_rows, n_max = params.shape[0], len(inputs[0])
    x = np.empty((n_max, n_rows, 1, inputs[0].shape[1]))
    t = np.empty((n_max, n_rows, 1, targets[0].shape[1]))
    for row, (row_x, row_t) in enumerate(zip(inputs, targets)):
        x[: len(row_x), row, 0] = row_x
        t[: len(row_t), row, 0] = row_t
    misses = np.zeros_like(t)
    # scratch for any block's gradient and step, layer-major like its params
    grads = np.empty(params.size)
    step = np.empty(params.size)
    rates = np.repeat(lr[:, None], params.shape[1], axis=1)
    # 0-d float64 operands: a Python float operand is converted to an
    # array on every call, these once per epoch, with the same bits
    one = np.array(1.0)
    momentum = np.array(momentum, dtype=np.float64)

    start = 0
    for m in range(n_rows, 0, -1):  # samples [start, stop) have m active rows
        stop = len(inputs[m - 1])
        if stop == start:
            continue
        # the block steps a layer-major copy of its m rows, so each layer's
        # weights and biases are one contiguous (m, ...) array
        p, v, rate = (_layer_major(a[:m], layer_sizes) for a in (params, velocity, rates))
        np.negative(p, out=p)
        g, s = grads[: p.size], step[: p.size]
        weights, biases = _views(p, layer_sizes, rows=m)
        weight_grads, bias_grads = _views(g, layer_sizes, rows=m)
        layers = [(w.transpose(0, 2, 1), b) for w, b in zip(weights, biases)]
        # each layer's delta is computed in its bias gradient, so the layer
        # above writes a hidden delta into the bias gradient below it; each
        # bias gradient is also viewed as (m, out, 1), the outer product's
        # left operand, so no sample builds delta.transpose(0, 2, 1)
        backward = [
            (
                layer,
                weights[layer],
                weight_grads[layer],
                bias_grads[layer].transpose(0, 2, 1),
                bias_grads[layer - 1] if layer else None,
            )
            for layer in reversed(range(len(weights)))
        ]
        samples = zip(x[start:stop, :m], t[start:stop, :m], misses[start:stop, :m])
        for sample, target, miss in samples:
            out = sample
            activations = [out]
            for w_t, b in layers:
                # -(x @ W.T + b), so its exp is the e^-a of 1 / (1 + e^-a)
                z = out @ w_t
                z += b
                np.exp(z, out=z)
                z += one
                out = np.divide(one, z, out=z)
                activations.append(out)
            # o - t squares to the same bits as t - o
            np.subtract(out, target, out=miss)
            delta = np.multiply(miss, out, out=bias_grads[-1])
            delta *= one - out
            for layer, w, gw, gb_col, gb_below in backward:
                below = activations[layer]
                np.multiply(gb_col, below, out=gw)
                if layer:
                    # (delta @ -W) * y * (y - 1) == (delta @ W) * y * (1 - y)
                    delta = np.matmul(delta, w, out=gb_below)
                    delta *= below
                    delta *= below - one
            v *= momentum
            np.multiply(rate, g, out=s)
            v -= s
            p -= v  # -(p + v) for the negated p
        _write_rows(np.negative(p, out=p), params[:m], layer_sizes)
        _write_rows(v, velocity[:m], layer_sizes)
        start = stop
    # cumsum adds in presentation order, as a running total would; sum
    # adds pairwise, which gives other bits.
    return np.cumsum(misses @ misses.swapaxes(-1, -2), axis=0)[-1, :, 0, 0]


@dataclass
class _Run:
    """One network's training state in :func:`train_many`: its checked
    training set, shuffle generator, rate, velocity, last accepted SSE and
    records, and the epoch it diverged at, if it did."""

    network: Network
    inputs: np.ndarray
    targets: np.ndarray
    rng: np.random.Generator
    lr: float
    velocity: np.ndarray
    prev_sse: float = math.inf
    records: list[EpochRecord] = field(default_factory=list)
    diverged_at: int | None = None

    def settle(self, epoch, sse, params_row, velocity_row, config) -> bool:
        """Settle one epoch of this run, stepped as ``params_row`` and
        ``velocity_row``: record it, adapt the rate, write an accepted row
        back into the network, and return whether the run trains on.  A
        non-finite SSE is recorded only as the divergence epoch."""
        if not math.isfinite(sse):
            self.diverged_at = epoch
            return False
        next_lr, accepted = adapt_learning_rate(self.prev_sse, sse, self.lr, config)
        self.records.append(EpochRecord(epoch, sse, self.lr, accepted))
        self.lr = next_lr
        if accepted:
            self.prev_sse = sse
            self.network.params[:] = params_row
            self.velocity = velocity_row
        return not (accepted and sse <= config.target_sse)


def train_many(
    networks: list[Network],
    training_sets: list[tuple],
    config: TrainConfig,
) -> list[TrainingHistory]:
    """Train networks of any layer sizes in lockstep: the one epoch loop
    of this module, which :func:`train` runs for one.

    ``networks[i]`` trains on ``training_sets[i]``, an ``(inputs,
    targets)`` pair of matrices of finite values as wide as its input and
    output layers (:func:`heartnet.data._sample_rows`), with one target
    row per input row, and the result holds each network's history.  Each
    network is one ``_Run`` record, with its own shuffle generator,
    learning rate, velocity and records, and ``_Run.settle`` makes its
    accept/reject decision; one that reaches the target or diverges
    trains no further epoch, so its weights and records do not depend on
    its stack-mates.  A network may appear once, and each training set is
    checked once, before any weight moves.  Every epoch steps the runs
    still training with one ``_epoch`` call per shape, on a fresh stack
    of copies of that shape's networks, largest training set first (ties
    keep their given order).

    When every network has stopped, the :class:`DivergenceError` of the
    first diverged network in the given order is raised, after the other
    networks have trained to their own end.

    A network's ``params`` are written only when one of its epochs is
    accepted, so they always hold its last accepted epoch, or its initial
    params if none was.  That holds after a divergence, whose epoch is
    not accepted, and after an exception escapes mid-training too.

    Runs under ``np.errstate(over="ignore", invalid="ignore")``: a
    saturated sigmoid gives exactly 0.0 without a RuntimeWarning, and a
    NaN from a non-finite weight surfaces as :class:`DivergenceError`.
    """
    if len(networks) != len(training_sets):
        raise ValueError(
            f"{len(networks)} networks but {len(training_sets)} training sets"
        )
    if len({id(net) for net in networks}) < len(networks):
        raise ValueError("a network appears more than once; each trains on one set")
    runs = [
        _Run(net, *_check_training_set(net, x, t), np.random.default_rng(config.seed),
             config.initial_lr, np.zeros_like(net.params))
        for net, (x, t) in zip(networks, training_sets)
    ]

    # By shape, then largest training set first; ties keep their given order.
    active = sorted(runs, key=lambda run: (run.network.layer_sizes, -len(run.inputs)))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            training = []
            for sizes, group in itertools.groupby(active, key=lambda run: run.network.layer_sizes):
                stack = list(group)
                orders = [run.rng.permutation(len(run.inputs)) for run in stack]
                inputs = [run.inputs[order] for run, order in zip(stack, orders)]
                targets = [run.targets[order] for run, order in zip(stack, orders)]
                params = np.stack([run.network.params for run in stack])
                velocity = np.stack([run.velocity for run in stack])
                lrs = np.array([run.lr for run in stack], dtype=np.float64)
                epoch_sse = _epoch(params, velocity, sizes, inputs, targets, lrs, config.momentum)
                for row, run in enumerate(stack):
                    if run.settle(epoch, float(epoch_sse[row]), params[row], velocity[row], config):
                        training.append(run)
            active = training  # a subsequence, so still sorted
            if not active:
                break

    diverged = [run.diverged_at for run in runs if run.diverged_at is not None]
    if diverged:
        raise DivergenceError(diverged[0])
    return [TrainingHistory(tuple(run.records)) for run in runs]


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
