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
network goes through one per-sample kernel, ``_epoch``, in one call per
epoch: each epoch stacks copies of the parameter vectors and velocities
of the K >= 1 networks still training, whatever their shapes, one after
another, and each step of a sample is a few stacked numpy calls over
the rows still presenting samples.  Per-sample cost is bound by numpy's
per-call overhead, so one call for K networks is cheaper than K calls,
and the fewer calls and temporaries a sample takes, the faster it runs.
For the same reason the kernel's scalar operands, ``1.0`` and the
momentum, are float64 0-d arrays made once per epoch: a Python float
operand is converted to an array on every call, while a 0-d float64
array selects the same float64 loop with the same double (numpy 1.24
and 2 alike), so the bits do not change.  Each sample's output error is
kept, and every row's epoch SSE is summed once, in presentation order,
after the last sample.

A matrix product needs operands of one shape, so the products of a
sample stay one call per shape: each layer's product with its input,
the product that starts the delta of the layer below, and the outer
product that is a weight gradient.  Everything else is elementwise and
does not care which network a value belongs to.  So the kernel steps
the stack in the block layout of ``network._block_views``: each shape's
weights of one layer are one contiguous ``(m, out, in)`` array, and the
biases are laid out level by level, a level being the layers that far
below the output layer, so each level's biases of every shape are one
1-D run.  The activations and deltas of a level are laid out as its
biases, so the bias add, the logistic, the output error and its
scaling, and each hidden delta's scaling are one call per level over
all shapes, and the momentum step is one set of calls over the whole
block.  A stack of one shape takes the same calls, one product of
each kind per layer.

The rows still presenting samples change only between blocks of
samples, one block per distinct sample count, and each block steps a
copy of its m rows in that layout, gathered when it starts and
scattered back when it ends; the epoch copies the stack into the layout
once, and back once.  Each layer's delta is computed in that layer's
bias gradient, which is also viewed once per block as an ``(m, out,
1)`` column, and the weight gradient is the outer product of that
column with the layer's input, so no sample copies a delta or builds a
transposed view.  Only where a value is stored changes, so the bits do
not.

Each network's state between epochs (its checked training set,
generator, rate, velocity, last accepted SSE and records) is one
``_Run`` record, and ``_Run.settle`` is the one place an epoch's SSE is
judged: it records the epoch, adapts the rate, writes an accepted row
back and says whether the run trains on.  Only an accepted epoch's row
is written back into its network, so a network's ``params`` always hold
its last accepted epoch, and a rejected epoch is dropped with its copy.
:func:`heartnet.evaluation.run_experiment` trains all its cells in one
call, so the cells of both architectures are one stack.

The kernel steps its copy of the stack with the parameters negated: it
negates the copy when it makes it and negates it back as it writes the
rows back, so the caller's stack is never negated.
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

import bisect
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import ValidationError, _is_integer, _is_real, _sample_rows, _write_csv
from .network import Network, _block_layout, _block_views


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
    shapes: list[tuple[int, ...]],
    inputs: list[np.ndarray],
    targets: list[np.ndarray],
    lr: np.ndarray,
    momentum: float,
) -> np.ndarray:
    """One epoch of every network in the stack; returns each one's epoch SSE.

    ``params`` (and ``velocity``, laid out alike) holds the rows'
    parameter vectors one after another, row ``r`` laid out for the layer
    sizes ``shapes[r]`` as ``network._views`` reads it; rows of any shapes
    may mix.  ``inputs[r]`` and ``targets[r]`` are row r's samples in
    presentation order, at least one per row; nothing is checked here.
    The rows are sorted by sample count, largest first, so the rows still
    presenting samples at any sample index are a prefix ``[:m]`` of the
    stack.

    The epoch copies the stack into the layout of ``network._block_views``
    (``network._block_layout``), its params negated, and writes it back
    when it ends.  The samples are stepped in blocks of equal m, each on
    a copy of the m rows, gathered when the block starts and scattered
    back when it ends; the gradient, step and layer outputs are scratch
    in the same layout.  Each product sees the same operands, and each
    ``(out, in)`` matrix keeps its layout, so the copies change no bit.

    Each sample takes one forward sweep, one backward sweep and one
    momentum step, in place.  The matrix products are one call per shape
    and layer: ``z = x @ -W.T``, the ``delta @ -W`` that starts the
    delta of the layer below, and the weight gradient, the outer product
    of the delta's ``(m, out, 1)`` view with the layer's input.  Every
    elementwise call is one per level, over the 1-D run of that level of
    every shape: the bias add, after which ``z`` is exactly ``-a``, and
    the logistic ``1 / (1 + e^z)`` in place; the output error ``o - t``
    and the output delta ``(o - t) * o * (1 - o)``; and each hidden
    delta's scaling by the local sigmoid derivative, ``(delta @ -W) * y
    * (y - 1)`` on the negated weights: the gradient of SSE/2.  Each
    delta is computed in its layer's bias gradient.  The momentum step
    is four calls over the block, with ``p -= v`` on the negated ``p``;
    the velocity is not negated.  See the module docstring for why these
    are the bits of the plain ``sigmoid(x @ W.T + b)`` arithmetic, which
    ``tests/gradient_oracle.py:reference_epoch`` keeps and the tests
    compare against.  ``1.0`` and ``momentum`` enter as 0-d float64
    arrays; the arrays are made once per epoch and the views once per
    block, not once per call (see the module docstring).  Each sample's
    ``o - t`` is kept, and a row's SSE is the running sum of its samples'
    squared errors, each taken with the weights in effect when it was
    presented; a row's padding past its last sample adds exactly 0.0.
    """
    n_rows, n_max = len(shapes), len(inputs[0])
    # the stack in block layout: entry i is params[source[i]], of row owner[i]
    kinds, members, source, owner = _block_layout(tuple(shapes))
    stack_p = np.negative(params[source])
    stack_v = velocity[source]
    stack_rates = lr[owner]
    # scratch for any block's gradient, step and layer outputs, laid out
    # like its params
    grads, step, activations = np.empty((3, params.size))
    # each shape's inputs; the targets and output errors of all rows in
    # the layout of the output level
    xs = [np.empty((n_max, len(rows), 1, kind[0])) for kind, rows in zip(kinds, members)]
    ts = [np.empty((n_max, len(rows), 1, kind[-1])) for kind, rows in zip(kinds, members)]
    for x, t, rows in zip(xs, ts, members):
        for j, row in enumerate(rows):
            x[: len(inputs[row]), j, 0] = inputs[row]
            t[: len(targets[row]), j, 0] = targets[row]
    t = np.concatenate([t.reshape(n_max, -1) for t in ts], axis=1)
    misses = np.zeros_like(t)
    # 0-d float64 operands: a Python float operand is converted to an
    # array on every call, these once per epoch, with the same bits
    one = np.array(1.0)
    momentum = np.array(momentum, dtype=np.float64)

    start = 0
    for m in range(n_rows, 0, -1):  # samples [start, stop) have m active rows
        stop = len(inputs[m - 1])
        if stop == start:
            continue
        # the first m rows: a prefix of each shape's rows, and the shapes
        # with any rows among them a prefix of kinds
        counts = [bisect.bisect_left(rows, m) for rows in members]
        block_counts = [count for count in counts if count]
        n_inputs = len(block_counts)
        block_shapes = kinds[:n_inputs]
        keep = owner < m
        p, v, rate = stack_p[keep], stack_v[keep], stack_rates[keep]
        g, s = grads[: p.size], step[: p.size]
        weights, _, levels = _block_views(p, block_shapes, block_counts)
        weight_grads, bias_grads, deltas = _block_views(g, block_shapes, block_counts)
        _, outs, out_levels = _block_views(activations[: p.size], block_shapes, block_counts)
        # operands[i] is the sample's input row of block shape i; the
        # other operands are layer outputs, which stay put
        operands = [None] * n_inputs
        forward = [[] for _ in levels]
        hidden = [[] for _ in levels]
        outer = []
        for i, kind in enumerate(block_shapes):
            below = i
            for layer, (w, out, gb) in enumerate(zip(weights[i], outs[i], bias_grads[i])):
                level = len(kind) - 2 - layer
                forward[level].append((below, w.transpose(0, 2, 1), out))
                if layer:
                    # the layer writes the delta of the layer below into
                    # that layer's bias gradient
                    hidden[level].append((gb, w, bias_grads[i][layer - 1]))
                # each bias gradient is also viewed as (m, out, 1), the outer
                # product's left operand, so no sample transposes a delta
                outer.append((gb.transpose(0, 2, 1), below, weight_grads[i][layer]))
                operands.append(out)
                below = len(operands) - 1
        forward = list(zip(forward, out_levels, levels))[::-1]  # deepest level first
        # from the output level down, each level but the deepest starts the
        # deltas of the level below
        backward = list(zip(hidden, deltas[1:], out_levels[1:]))
        output, output_delta = out_levels[0], deltas[0]
        keep_out = keep[-t.shape[1] :]  # the output level ends the layout
        block_t = t[start:stop, keep_out]
        block_misses = np.empty_like(block_t)
        samples = zip(*(x[start:stop, :count] for x, count in zip(xs, block_counts)))
        for operands[:n_inputs], target, miss in zip(samples, block_t, block_misses):
            for products, z, b in forward:
                for below, w_t, out in products:
                    # out positionally: matmul's out= keyword costs more
                    np.matmul(operands[below], w_t, out)
                # -(x @ W.T + b), so its exp is the e^-a of 1 / (1 + e^-a)
                z += b
                np.exp(z, out=z)
                z += one
                np.divide(one, z, out=z)
            # o - t squares to the same bits as t - o
            np.subtract(output, target, out=miss)
            np.multiply(miss, output, out=output_delta)
            output_delta *= one - output
            for steps, delta, y in backward:
                for gb, w, gb_below in steps:
                    np.matmul(gb, w, gb_below)
                # (delta @ -W) * y * (y - 1) == (delta @ W) * y * (1 - y)
                delta *= y
                delta *= y - one
            # the weight gradients read the deltas, and no delta reads them
            for gb_col, below, gw in outer:
                np.multiply(gb_col, operands[below], out=gw)
            v *= momentum
            np.multiply(rate, g, out=s)
            v -= s
            p -= v  # -(p + v) for the negated p
        stack_p[keep], stack_v[keep] = p, v
        misses[start:stop, keep_out] = block_misses
        start = stop
    params[source] = np.negative(stack_p, out=stack_p)
    velocity[source] = stack_v
    # cumsum adds in presentation order, as a running total would; sum
    # adds pairwise, which gives other bits.
    sse = np.empty(n_rows)
    column = 0
    for kind, rows in zip(kinds, members):
        width = len(rows) * kind[-1]
        miss = misses[:, column : column + width].reshape(n_max, len(rows), 1, kind[-1])
        sse[list(rows)] = np.cumsum(miss @ miss.swapaxes(-1, -2), axis=0)[-1, :, 0, 0]
        column += width
    return sse


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
    checked once, before any weight moves.  Every epoch steps all the
    runs still training, whatever their shapes, with one ``_epoch`` call
    on a fresh stack of copies of their networks, largest training set
    first (ties keep their given order).

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

    # Largest training set first; ties keep their given order.
    active = sorted(runs, key=lambda run: -len(run.inputs))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            if not active:
                break
            orders = [run.rng.permutation(len(run.inputs)) for run in active]
            inputs = [run.inputs[order] for run, order in zip(active, orders)]
            targets = [run.targets[order] for run, order in zip(active, orders)]
            params = np.concatenate([run.network.params for run in active])
            velocity = np.concatenate([run.velocity for run in active])
            lrs = np.array([run.lr for run in active], dtype=np.float64)
            shapes = [run.network.layer_sizes for run in active]
            epoch_sse = _epoch(params, velocity, shapes, inputs, targets, lrs, config.momentum)
            training, start = [], 0
            for run, sse in zip(active, epoch_sse.tolist()):
                stop = start + run.network.params.size
                if run.settle(epoch, sse, params[start:stop], velocity[start:stop], config):
                    training.append(run)
                start = stop
            active = training  # a subsequence, so still sorted

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
