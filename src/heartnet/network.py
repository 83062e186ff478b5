"""Dense feedforward network: representation, forward sweep, hand-derived
backpropagation, and JSON persistence.

Every weight and bias lives in one flat float64 buffer,
:attr:`Network.params`, laid out ``W0, b0, W1, b1, ...`` with each
``W`` row-major; ``weights[l]`` and ``biases[l]`` are views of it.
Gradients and the trainer's momentum state use the same layout, so a
training step or an epoch snapshot is one array operation.  Each layer
of a forward or backward sweep is one matrix product.  Gradients
are taken of half the sum of squared errors, which gives the output
delta its clean ``(o - t) * o * (1 - o)`` form; training history still
reports raw SSE.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import FormatError, decode_output

LOGISTIC_SIGMOID = "logistic-sigmoid"
MODEL_FORMAT_VERSION = 1

# One input layer, up to three hidden, one output; raise via the
# max_layers argument where a deeper stack is genuinely wanted.
DEFAULT_MAX_LAYERS = 5

INIT_WEIGHT_RANGE = 0.5  # initial weights drawn uniformly from +/- this


def sigmoid(x):
    """Logistic transfer function 1 / (1 + e^-x), elementwise on a scalar
    or an array.

    Below x of about -709, e^-x overflows to inf and the result is exactly
    0.0.  numpy reports that overflow as a RuntimeWarning unless it runs
    under ``np.errstate(over="ignore")``; :func:`predict`,
    :func:`heartnet.evaluation.evaluate` and :func:`heartnet.trainer.train`
    enter that state once per call.
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


def pack_layers(weights, biases) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Copy per-layer weight and bias arrays into one new flat float64
    buffer; returns the buffer and the per-layer views of it."""
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    biases = [np.asarray(b, dtype=np.float64) for b in biases]
    flat = np.empty(sum(w.size + b.size for w, b in zip(weights, biases)), dtype=np.float64)
    weight_views, bias_views = _views(flat, weights, biases)
    for view, values in zip(weight_views + bias_views, weights + biases):
        view[...] = values
    return flat, weight_views, bias_views


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
    activation: str = LOGISTIC_SIGMOID
    seed: int | None = None
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.params, self.weights, self.biases = pack_layers(self.weights, self.biases)

    @property
    def n_layers(self) -> int:
        """Count of weighted (non-input) layers."""
        return len(self.weights)

    @property
    def n_parameters(self) -> int:
        return self.params.size

    def copy(self) -> "Network":
        return Network(
            layer_sizes=self.layer_sizes,
            weights=self.weights,
            biases=self.biases,
            activation=self.activation,
            seed=self.seed,
        )


@dataclass
class Gradients:
    """Loss gradients shaped exactly like the network, plus the per-layer
    delta vectors they were built from.

    ``flat`` holds every gradient laid out like :attr:`Network.params`,
    with ``weights`` and ``biases`` as views of it.  Given no ``flat``,
    construction copies the arrays into a new one; :func:`backward` passes
    the buffer its views already point into.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    deltas: list[np.ndarray]
    flat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.flat is None:
            self.flat, self.weights, self.biases = pack_layers(self.weights, self.biases)


def _validate_layer_sizes(layer_sizes, max_layers: int) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    if len(sizes) > max_layers:
        raise ValueError(
            f"{len(sizes)} layers exceeds the cap of {max_layers}; "
            "pass max_layers to override"
        )
    if any(s < 1 for s in sizes):
        raise ValueError(f"every layer needs at least one neuron: {sizes}")
    return sizes


def new_network(layer_sizes, seed: int, max_layers: int = DEFAULT_MAX_LAYERS) -> Network:
    """Build a network with weights and biases drawn uniformly from
    [-0.5, 0.5] by a seeded generator; the same seed reproduces the same
    network bit for bit."""
    sizes = _validate_layer_sizes(layer_sizes, max_layers)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.uniform(-INIT_WEIGHT_RANGE, INIT_WEIGHT_RANGE, (n_out, n_in)))
        biases.append(rng.uniform(-INIT_WEIGHT_RANGE, INIT_WEIGHT_RANGE, n_out))
    return Network(layer_sizes=sizes, weights=weights, biases=biases, seed=seed)


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


def sse(output, target) -> float:
    """Sum of squared errors between an output vector and its target."""
    out = np.asarray(output, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if out.shape != tgt.shape:
        raise ValueError(f"shape mismatch: output {out.shape} vs target {tgt.shape}")
    err = tgt - out
    return float(np.dot(err, err))


def backward(network: Network, activations: list[np.ndarray], target) -> Gradients:
    """Backpropagate the output error through the layers.

    The output delta is ``(o - t) * o * (1 - o)``; each hidden delta is
    the next layer's weighted delta sum scaled by the local sigmoid
    derivative.  Returned gradients are of SSE/2 with respect to every
    weight and bias.
    """
    if len(activations) != network.n_layers + 1:
        raise ValueError(
            f"expected {network.n_layers + 1} activation vectors, got {len(activations)}"
        )
    for size, act in zip(network.layer_sizes, activations):
        if act.shape != (size,):
            raise ValueError(f"activation shape {act.shape} does not match layer size {size}")
    tgt = np.asarray(target, dtype=np.float64)
    if tgt.shape != activations[-1].shape:
        raise ValueError(f"target shape {tgt.shape} does not match output layer")

    flat = np.empty_like(network.params)
    weight_grads, bias_grads = _views(flat, network.weights, network.biases)
    deltas: list[np.ndarray] = [np.empty(0)] * network.n_layers
    out = activations[-1]
    delta = (out - tgt) * out * (1.0 - out)
    for layer in range(network.n_layers - 1, -1, -1):
        deltas[layer] = delta
        below = activations[layer]
        np.multiply(delta[:, None], below, out=weight_grads[layer])
        bias_grads[layer][:] = delta
        if layer:
            delta = (network.weights[layer].T @ delta) * below * (1.0 - below)
    return Gradients(weights=weight_grads, biases=bias_grads, deltas=deltas, flat=flat)


def predict(network: Network, features) -> int:
    """Forward sweep followed by class-code decoding of the output layer."""
    with np.errstate(over="ignore"):
        output = forward(network, features)[-1]
    return decode_output(output)


def network_to_dict(network: Network) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(network.layer_sizes),
        "activation": network.activation,
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
        sizes = tuple(int(s) for s in payload["layer_sizes"])
        weights = [np.array(w, dtype=np.float64) for w in payload["weights"]]
        biases = [np.array(b, dtype=np.float64) for b in payload["biases"]]
        activation = str(payload["activation"])
        seed = payload.get("seed")
    except (KeyError, TypeError, ValueError) as exc:
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
        activation=activation,
        seed=seed if seed is None else int(seed),
    )


def save_network(network: Network, path) -> None:
    """Serialize to JSON; float values round-trip bit-exactly."""
    Path(path).write_text(
        json.dumps(network_to_dict(network), indent=2) + "\n", encoding="utf-8"
    )


def load_network(path) -> Network:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    return network_from_dict(payload, source=str(path))
