"""Dense feedforward network: representation, forward sweep, hand-derived
backpropagation, and JSON persistence.

Every weight and bias lives in one flat float64 buffer,
:attr:`Network.params`, laid out ``W0, b0, W1, b1, ...`` with each
``W`` row-major; ``weights[l]`` and ``biases[l]`` are views of it.  The
trainer's gradient and momentum state are plain float64 arrays in that
same layout, so a training step or an epoch snapshot is one array
operation.  Each layer of a forward or backward sweep is one matrix
product.

Gradients are taken of half the sum of squared errors, which gives the
output delta its clean ``(o - t) * o * (1 - o)`` form; training history
still reports raw SSE.

:func:`forward` is the checked entry for input from outside the
program, such as a model loaded from a file scored against a table: it
checks the input width and calls the unchecked layer loop ``_sweep``.
:func:`heartnet.trainer.train_epoch` is the checked per-sample kernel:
it checks its inputs once per epoch and then calls ``_sweep`` and
``_backprop`` directly for every sample.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .data import FormatError, _is_json_number, _read_json

LOGISTIC_SIGMOID = "logistic-sigmoid"
MODEL_FORMAT_VERSION = 1

# One input layer, up to three hidden, one output.
MAX_LAYERS = 5

INIT_WEIGHT_RANGE = 0.5  # initial weights drawn uniformly from +/- this


def sigmoid(x):
    """Logistic transfer function 1 / (1 + e^-x), elementwise on a scalar
    or an array.

    Below x of about -709, e^-x overflows to inf and the result is exactly
    0.0.  numpy reports that overflow as a RuntimeWarning unless it runs
    under ``np.errstate(over="ignore")``; :func:`heartnet.evaluation.evaluate`
    and :func:`heartnet.trainer.train` enter that state once per call.
    """
    return 1.0 / (1.0 + np.exp(-x))


def _views(flat: np.ndarray, weights, biases) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of ``flat`` shaped like ``weights`` and ``biases``, laid out
    ``W0, b0, W1, b1, ...``."""
    weight_views = []
    bias_views = []
    start = 0
    for w, b in zip(weights, biases):
        stop = start + w.size
        weight_views.append(flat[start:stop].reshape(w.shape))
        start, stop = stop, stop + b.size
        bias_views.append(flat[start:stop])
        start = stop
    return weight_views, bias_views


@dataclass
class Network:
    """Ordered dense layers; ``weights[l]`` has shape (out, in).

    Construction copies the given arrays into :attr:`params`; afterwards
    ``weights`` and ``biases`` are views of it, so writing into either
    writes the other.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int | None = None
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        self.params = np.empty(sum(w.size + b.size for w, b in zip(weights, biases)))
        self.weights, self.biases = _views(self.params, weights, biases)
        for view, values in zip(self.weights + self.biases, weights + biases):
            view[...] = values


def _is_integer(value) -> bool:
    """An int or a numpy integer, but not ``True``/``False``."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


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
    return sizes


def _json_floats(nested) -> np.ndarray:
    """A JSON list (of lists) of numbers as a float64 array; a bool, string
    or null in it is a ValueError, not a number."""
    values = np.array(nested, dtype=np.float64)
    leaves = [nested]
    for _ in range(values.ndim):
        leaves = list(chain.from_iterable(leaves))
    bad = [v for v in leaves if not _is_json_number(v)]
    if bad:
        raise ValueError(f"expected JSON numbers, got {bad[0]!r}")
    return values


def new_network(layer_sizes, seed: int) -> Network:
    """Build a network with weights and biases drawn uniformly from
    [-0.5, 0.5] by a seeded generator; the same seed reproduces the same
    network bit for bit."""
    sizes = _validate_layer_sizes(layer_sizes)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.uniform(-INIT_WEIGHT_RANGE, INIT_WEIGHT_RANGE, (n_out, n_in)))
        biases.append(rng.uniform(-INIT_WEIGHT_RANGE, INIT_WEIGHT_RANGE, n_out))
    return Network(layer_sizes=sizes, weights=weights, biases=biases, seed=seed)


def _sweep(network: Network, x: np.ndarray) -> list[np.ndarray]:
    """Unchecked core of :func:`forward`: ``x`` is already a contiguous
    float64 row or matrix of the network's input width."""
    activations = [x]
    for layer_weights, layer_biases in zip(network.weights, network.biases):
        x = sigmoid(x @ layer_weights.T + layer_biases)
        activations.append(x)
    return activations


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
    return _sweep(network, x)


def _backprop(
    weights: list[np.ndarray],
    activations: list[np.ndarray],
    target: np.ndarray,
    weight_grads: list[np.ndarray],
    bias_grads: list[np.ndarray],
) -> None:
    """Backpropagate one sample's output error through the layers.

    The output delta is ``(o - t) * o * (1 - o)``; each hidden delta is
    the next layer's weighted delta sum scaled by the local sigmoid
    derivative.  Writes the gradient of SSE/2 with respect to every
    weight and bias into ``weight_grads``/``bias_grads``, views shaped
    like ``weights`` and the biases.  Unchecked: ``activations`` come
    from ``_sweep`` on the same weights."""
    out = activations[-1]
    delta = (out - target) * out * (1.0 - out)
    for layer in range(len(weights) - 1, -1, -1):
        below = activations[layer]
        np.multiply(delta[:, None], below, out=weight_grads[layer])
        bias_grads[layer][:] = delta
        if layer:
            delta = (weights[layer].T @ delta) * below * (1.0 - below)


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
    if version != MODEL_FORMAT_VERSION:
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
    return Network(
        layer_sizes=sizes,
        weights=weights,
        biases=biases,
        seed=seed,
    )


def save_network(network: Network, path) -> None:
    """Serialize to JSON; float values round-trip bit-exactly."""
    Path(path).write_text(
        json.dumps(network_to_dict(network), indent=2) + "\n", encoding="utf-8"
    )


def load_network(path) -> Network:
    return network_from_dict(_read_json(path, FormatError), source=str(path))
