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
per-sample kernel steps a ``(K, P)`` stack of K >= 1 parameter vectors
through the same layer arithmetic, and ``_views`` lays out that stack's
per-layer views as it does those of one network.  It also lays out the
layer-major copy the kernel steps each block of m rows of the stack on,
in which each layer's weights and biases of all m rows are one
contiguous array; ``_layer_major`` makes that copy and ``_write_rows``
writes it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .data import FormatError, _is_integer, _is_real, _read_json, _write_json

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


def _views(
    flat: np.ndarray, layer_sizes, rows: int | None = None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The per-layer weight and bias views of ``flat``: the one statement
    of the layout ``W0, b0, W1, b1, ...`` along its last axis, each ``W``
    of shape (out, in) and row-major.  A ``(K, P)`` stack of K parameter
    vectors gives ``(K, out, in)`` and ``(K, out)`` views, each row of
    which lies P values from the last.

    With ``rows=K``, ``flat`` is instead a 1-D stack of K vectors stored
    layer-major: the same order ``W0, b0, W1, b1, ...``, but each part
    holds that part of all K rows, so ``W_l`` is one contiguous
    ``(K, out, in)`` array and ``b_l`` one contiguous ``(K, 1, out)`` row
    vector per row, ready to add to a ``(K, 1, out)`` layer product.
    That is the row-major stack's views, each flattened, one after the
    other (:func:`_layer_major`).  One vector stored layer-major is
    stored plainly."""
    weights, biases = [], []
    start = 0
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        mid = start + n_out * n_in
        stop = mid + n_out
        if rows is None:
            weights.append(flat[..., start:mid].reshape(flat.shape[:-1] + (n_out, n_in)))
            biases.append(flat[..., mid:stop])
        else:
            weights.append(flat[rows * start : rows * mid].reshape(rows, n_out, n_in))
            # reshape, not b[:, None], whose length-1 axis has stride 0 and
            # steps slower
            biases.append(flat[rows * mid : rows * stop].reshape(rows, 1, n_out))
        start = stop
    return weights, biases


def _layer_major(stack: np.ndarray, layer_sizes) -> np.ndarray:
    """A layer-major copy of the ``(K, P)`` stack, laid out as
    :func:`_views` with ``rows=K`` reads it."""
    return np.concatenate(list(chain.from_iterable(zip(*_views(stack, layer_sizes)))), axis=None)


def _write_rows(flat: np.ndarray, stack: np.ndarray, layer_sizes) -> None:
    """Write the layer-major ``flat`` back into the ``(K, P)`` stack, whose
    rows it was copied from by :func:`_layer_major`."""
    k = len(stack)
    parts = chain.from_iterable(zip(*_views(flat, layer_sizes, rows=k)))
    np.concatenate([part.reshape(k, -1) for part in parts], axis=1, out=stack)


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
    activations, index 0 being the input itself."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    n_inputs = network.layer_sizes[0]
    if x.ndim not in (1, 2) or x.shape[-1] != n_inputs:
        raise ValueError(
            f"input must have shape ({n_inputs},) or (n, {n_inputs}), got {x.shape}"
        )
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
