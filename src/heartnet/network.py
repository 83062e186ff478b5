"""Dense feedforward network: representation, forward sweep, and JSON
persistence.

A network is its layer sizes and one flat float64 vector of every
weight and bias, :attr:`Network.params`, laid out ``W0, b0, W1, b1, ...``
with each ``W`` row-major.  ``weights[l]`` and ``biases[l]`` are views
of it that ``_views``, the one statement of that layout, derives from
the layer sizes.  The trainer's gradient and momentum state are plain
float64 arrays in that same layout, so a training step is one array
operation.  Each layer of a forward sweep is one matrix product.

:func:`forward` runs one row or a matrix of rows through the layers,
for input from outside the program such as a model loaded from a file
scored against a table.  Training does not call it: the trainer's one
per-sample kernel steps a stack of parameter vectors of any layer sizes
through the same layer arithmetic, one block of rows at a time, each
block copied into the layout :func:`_block_views` states.  That layout
puts each shape's weights for each layer in one contiguous array, and
each level's biases (layers counted from the output layer) of every
shape in one contiguous run, so one call can step a level of all shapes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .data import FormatError, _is_integer, _is_real, _numbers, _read_json, _write_json

LOGISTIC_SIGMOID = "logistic-sigmoid"
MODEL_FORMAT_VERSION = 1

# One input layer, up to three hidden, one output.
MAX_LAYERS = 5
# Neurons in any one layer.  The paper's networks are 13-x-2 with a small
# x, far below the cap; it turns a width numpy cannot allocate into a
# named error before any weight is drawn.
MAX_WIDTH = 1024

INIT_WEIGHT_RANGE = 0.5  # initial weights drawn uniformly from +/- this


def sigmoid(x):
    """Logistic transfer function 1 / (1 + e^-x), elementwise on a scalar
    or an array.

    Below x of about -709, e^-x overflows to inf and the result is exactly
    0.0.  numpy reports that overflow as a RuntimeWarning unless it runs
    under ``np.errstate(over="ignore")``, which :func:`heartnet.evaluation.evaluate`
    enters once per call.  Training does not call this function: the
    trainer's per-sample kernel computes the same logistic inline, in
    place, on negated weights, to the same bits.
    """
    return 1.0 / (1.0 + np.exp(-x))


def _views(flat: np.ndarray, layer_sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The per-layer weight and bias views of ``flat``: the one statement
    of the layout ``W0, b0, W1, b1, ...`` along its last axis, each ``W``
    of shape (out, in) and row-major.  A ``(K, P)`` stack of K parameter
    vectors gives ``(K, out, in)`` and ``(K, out)`` views, each row of
    which lies P values from the last."""
    weights, biases = [], []
    start = 0
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        mid = start + n_out * n_in
        stop = mid + n_out
        weights.append(flat[..., start:mid].reshape(flat.shape[:-1] + (n_out, n_in)))
        biases.append(flat[..., mid:stop])
        start = stop
    return weights, biases


def _block_views(flat: np.ndarray, shapes, counts):
    """The views of a block: ``counts[s]`` parameter vectors of layer sizes
    ``shapes[s]`` for each s, stored in the 1-D ``flat`` as the trainer's
    kernel steps them.  Returns ``(weights, biases, levels)``.

    ``flat`` holds first each shape's weights layer by layer, ``W_l`` of
    all its rows one contiguous ``(count, out, in)`` array
    (``weights[s][l]``), and then the biases level by level, from the
    deepest level to the output layer's, level 0.  A level holds layer
    ``L - 1 - level`` of each shape of L layers that has it, in shape
    order, each a contiguous ``(count, 1, out)`` row vector per row
    (``biases[s][l]``), ready to add to a ``(count, 1, out)`` layer
    product; ``levels[level]`` is all of it, one 1-D run.  A buffer laid
    out like one level's biases holds anything else kept per neuron of
    that level, such as its activations or deltas."""
    weights, start = [], 0
    for sizes, count in zip(shapes, counts):
        weights.append([])
        for n_in, n_out in zip(sizes, sizes[1:]):
            stop = start + count * n_out * n_in
            weights[-1].append(flat[start:stop].reshape(count, n_out, n_in))
            start = stop
    biases = [[None] * (len(sizes) - 1) for sizes in shapes]
    levels = []
    for level in reversed(range(max(len(sizes) for sizes in shapes) - 1)):
        level_start = start
        for sizes, count, layers in zip(shapes, counts, biases):
            layer = len(sizes) - 2 - level
            if layer >= 0:
                stop = start + count * sizes[layer + 1]
                # reshape, not b[:, None], whose length-1 axis has stride 0
                # and steps slower
                layers[layer] = flat[start:stop].reshape(count, 1, sizes[layer + 1])
                start = stop
        levels.insert(0, flat[level_start:start])
    return weights, biases, levels


@functools.lru_cache(maxsize=16)
def _block_layout(shapes: tuple[tuple[int, ...], ...]):
    """Where each entry of a stack of rows goes in the block layout.

    Row r of the stack is a parameter vector of layer sizes ``shapes[r]``,
    and the rows are stored one after another.  Returns ``(kinds, members,
    source, owner)``: the distinct shapes in stack order, the rows of
    each in stack order, and, for each entry of the stack laid out by
    :func:`_block_views` for ``kinds`` with all rows, its index into that
    storage and its row.  The first m rows of the stack are a prefix of
    each shape's rows, and the shapes they hold a prefix of ``kinds``, so
    a block of them is laid out as the stack is, with the other rows'
    entries left out.

    A training run steps the same stack epoch after epoch, so the layout
    is kept for the next call, read-only."""
    kinds = tuple(dict.fromkeys(shapes))
    members = tuple(
        tuple(row for row, sizes in enumerate(shapes) if sizes == kind) for kind in kinds
    )
    starts = np.array([0, *map(_n_params, shapes)]).cumsum()
    source = np.empty(starts[-1], dtype=np.intp)
    weights, biases, _ = _block_views(source, kinds, [len(rows) for rows in members])
    for kind, rows, block_weights, block_biases in zip(kinds, members, weights, biases):
        row_weights, row_biases = _views(starts[rows, None] + np.arange(_n_params(kind)), kind)
        for part, row_part in zip(block_weights + block_biases, row_weights + row_biases):
            part[...] = row_part.reshape(part.shape)
    owner = np.searchsorted(starts, source, side="right") - 1
    source.flags.writeable = owner.flags.writeable = False
    return kinds, members, source, owner


def _n_params(layer_sizes) -> int:
    return sum((n_in + 1) * n_out for n_in, n_out in zip(layer_sizes, layer_sizes[1:]))


@dataclass(eq=False)
class Network:
    """Ordered dense layers, held as one flat parameter vector.

    Construction checks ``layer_sizes`` and copies ``params``, which
    holds exactly the layers' weights and biases; ``weights[l]`` (out,
    in) and ``biases[l]`` (out,) are views of the copy, so writing into
    either writes ``params``.  ``==`` is identity.
    """

    layer_sizes: tuple[int, ...]
    params: np.ndarray = field(repr=False)
    seed: int | None = None
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_sizes = _validate_layer_sizes(self.layer_sizes)
        self.params = np.array(self.params, dtype=np.float64)
        n_params = _n_params(self.layer_sizes)
        if self.params.shape != (n_params,):
            raise ValueError(f"params must have shape ({n_params},), got {self.params.shape}")
        self.weights, self.biases = _views(self.params, self.layer_sizes)


def _validate_layer_sizes(layer_sizes) -> tuple[int, ...]:
    sizes = tuple(layer_sizes)
    if not all(_is_integer(s) for s in sizes):
        raise ValueError(f"layer sizes must be integers, got {list(sizes)}")
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    if len(sizes) > MAX_LAYERS:
        raise ValueError(f"{len(sizes)} layers exceeds the cap of {MAX_LAYERS}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"every layer needs at least one neuron: {sizes}")
    if max(sizes) > MAX_WIDTH:
        raise ValueError(f"a layer of {max(sizes)} neurons exceeds the cap of {MAX_WIDTH}")
    return sizes


def _json_floats(nested) -> np.ndarray:
    """A JSON list (of lists) of numbers as a float64 array; a bool, string
    or null in it is a ValueError, not a number."""
    values = np.array(nested, dtype=np.float64)
    leaves = [nested]
    for _ in range(values.ndim):
        leaves = list(chain.from_iterable(leaves))
    # most leaves are floats, which pass without the call
    bad = [v for v in leaves if type(v) is not float and not _is_real(v)]
    if bad:
        raise ValueError(f"expected JSON numbers, got {bad[0]!r}")
    return values


def new_network(layer_sizes, seed: int) -> Network:
    """Build a network with weights and biases drawn uniformly from
    [-0.5, 0.5] by a seeded generator; the same seed reproduces the same
    network bit for bit."""
    sizes = _validate_layer_sizes(layer_sizes)
    rng = np.random.default_rng(seed)
    params = rng.uniform(-INIT_WEIGHT_RANGE, INIT_WEIGHT_RANGE, _n_params(sizes))
    return Network(layer_sizes=sizes, params=params, seed=seed)


def forward(network: Network, features) -> list[np.ndarray]:
    """Run one input row of shape (inputs,), or every row of an
    (n, inputs) matrix, through every layer; returns each layer's
    activations, index 0 being the input itself.  ``features`` must be
    integers or floats (:func:`heartnet.data._numbers`); anything else is
    a ValidationError naming it."""
    # None is refused for its shape, (), as a scalar is, not for its dtype
    x = None if features is None else _numbers(features, "features")
    shape = np.shape(x)  # read first: ascontiguousarray makes a scalar (1,)
    n_inputs = network.layer_sizes[0]
    if len(shape) not in (1, 2) or shape[-1:] != (n_inputs,):
        raise ValueError(f"input must have shape ({n_inputs},) or (n, {n_inputs}), got {shape}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    activations = [x]
    for layer_weights, layer_biases in zip(network.weights, network.biases):
        x = sigmoid(x @ layer_weights.T + layer_biases)
        activations.append(x)
    return activations


def network_to_dict(network: Network) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(network.layer_sizes),
        "activation": LOGISTIC_SIGMOID,
        "seed": network.seed,
        "weights": [w.tolist() for w in network.weights],
        "biases": [b.tolist() for b in network.biases],
    }


def network_from_dict(payload: dict, source: str = "model") -> Network:
    if not isinstance(payload, dict):
        raise FormatError(f"{source}: expected a JSON object")
    version = payload.get("format_version")
    if not (_is_integer(version) and version == MODEL_FORMAT_VERSION):  # not true, not 1.0
        raise FormatError(
            f"{source}: format_version {version!r} is not supported "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    try:
        sizes = _validate_layer_sizes(payload["layer_sizes"])
        weights = [_json_floats(w) for w in payload["weights"]]
        biases = [_json_floats(b) for b in payload["biases"]]
        activation = str(payload["activation"])
        seed = payload.get("seed")
        if not (seed is None or (_is_integer(seed) and seed >= 0)):
            raise ValueError(f"seed must be null or a non-negative integer, got {seed!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{source}: malformed model payload ({exc})") from None
    if activation != LOGISTIC_SIGMOID:
        raise FormatError(
            f"{source}: activation {activation!r} is not supported "
            f"(expected {LOGISTIC_SIGMOID!r})"
        )
    if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
        raise FormatError(f"{source}: layer count does not match layer_sizes")
    for idx, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        if weights[idx].shape != (n_out, n_in) or biases[idx].shape != (n_out,):
            raise FormatError(f"{source}: weight shapes do not match layer_sizes")
        for kind, values in (("weights", weights[idx]), ("biases", biases[idx])):
            if not np.isfinite(values).all():
                raise FormatError(f"{source}: non-finite {kind} in layer {idx + 1}")
    params = np.concatenate([v.ravel() for layer in zip(weights, biases) for v in layer])
    return Network(layer_sizes=sizes, params=params, seed=seed)


def save_network(network: Network, path) -> None:
    """Serialize to JSON; float values round-trip bit-exactly."""
    _write_json(path, network_to_dict(network))


def load_network(path) -> Network:
    return network_from_dict(_read_json(path, FormatError), source=str(path))
