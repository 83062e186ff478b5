"""The one-sample gradient oracle shared by the network and acceptance tests.

A sample's SSE and gradient are read from the per-sample kernel that
every training epoch runs, ``heartnet.trainer._epoch``, on a one-row
stack, and the gradient is checked against central finite differences
of half the sum of squared errors, the quantity the deltas are derived
from.  :func:`reference_epoch` is the kernel's arithmetic written
plainly, with the weights as they are and the library sigmoid, for tests
that compare the kernel's bits against it.
"""

import numpy as np

from heartnet.network import Network, _views, forward, sigmoid
from heartnet.trainer import _epoch


def half_sse_loss(network, x, target):
    err = forward(network, x)[-1] - target
    return 0.5 * float(np.dot(err, err))


def kernel_epoch(network, inputs, targets, velocity, lr, momentum):
    """One epoch of the per-sample kernel on ``network`` alone, as a
    one-row stack; returns the epoch SSE.

    The rows of ``inputs`` and ``targets`` (float64 matrices) are
    presented in order, and ``network.params`` and ``velocity``, laid out
    alike, are updated in place.  Nothing is checked first.
    """
    (sse,) = _epoch(
        network.params,
        velocity,
        [network.layer_sizes],
        [inputs],
        [targets],
        np.array([lr], dtype=np.float64),
        momentum,
    )
    return float(sse)


def reference_epoch(params, velocity, layer_sizes, inputs, targets, lr, momentum):
    """``heartnet.trainer._epoch`` of a stack of one shape as plain
    arithmetic: the same arguments, but ``params`` and ``velocity`` are
    ``(K, P)`` stacks of rows of the one ``layer_sizes``; the same
    in-place updates of them and the same returned SSEs, each layer
    written as ``sigmoid(x @ W.T + b)`` on the weights as stored, and each
    hidden delta as ``(delta @ W) * y * (1 - y)``.  The kernel must match
    it bit for bit, on each shape's rows of a stack of several shapes too,
    but for the sign of a step that is exactly zero (see the trainer's
    module docstring): at momentum 0 that step is the velocity.
    """
    n_rows, n_max = params.shape[0], len(inputs[0])
    x = np.empty((n_max, n_rows, 1, inputs[0].shape[1]))
    t = np.empty((n_max, n_rows, 1, targets[0].shape[1]))
    for row, (row_x, row_t) in enumerate(zip(inputs, targets)):
        x[: len(row_x), row, 0] = row_x
        t[: len(row_t), row, 0] = row_t
    misses = np.zeros_like(t)
    grads = np.empty_like(params)
    weights, biases = _views(params, layer_sizes)
    weight_grads, bias_grads = _views(grads, layer_sizes)
    biases = [b.reshape(n_rows, 1, -1) for b in biases]
    bias_grads = [b.reshape(n_rows, 1, -1) for b in bias_grads]
    lr_column = lr[:, None]

    start = 0
    for m in range(n_rows, 0, -1):  # samples [start, stop) have m active rows
        stop = len(inputs[m - 1])
        if stop == start:
            continue
        layers = [
            (w[:m], w[:m].transpose(0, 2, 1), b[:m], gw[:m], gb[:m])
            for w, b, gw, gb in zip(weights, biases, weight_grads, bias_grads)
        ]
        backward = layers[::-1]
        p, v, g, rate = params[:m], velocity[:m], grads[:m], lr_column[:m]
        samples = zip(x[start:stop, :m], t[start:stop, :m], misses[start:stop, :m])
        for sample, target, miss in samples:
            out = sample
            activations = [out]
            for _, w_t, b, _, _ in layers:
                out = sigmoid(out @ w_t + b)
                activations.append(out)
            np.subtract(out, target, out=miss)
            delta = miss * out * (1.0 - out)
            for layer, (w, _, _, gw, gb) in zip(range(len(layers) - 1, -1, -1), backward):
                below = activations[layer]
                np.multiply(delta.transpose(0, 2, 1), below, out=gw)
                gb[...] = delta
                if layer:
                    delta = (delta @ w) * below * (1.0 - below)
            v *= momentum
            v -= rate * g
            p += v
        start = stop
    return np.cumsum(misses @ misses.swapaxes(-1, -2), axis=0)[-1, :, 0, 0]


def one_sample_epoch(network, x, target):
    """One sample through the kernel training runs: a one-sample epoch at
    lr 1 and momentum 0 from a zero velocity, on a copy of ``network``.

    Returns the sample's SSE and the gradient of SSE/2 that training
    applies; the velocity ends at exactly minus that gradient.
    """
    velocity = np.zeros_like(network.params)
    sample_sse = kernel_epoch(
        Network(network.layer_sizes, network.params, network.seed),
        np.atleast_2d(np.asarray(x, dtype=np.float64)),
        np.atleast_2d(np.asarray(target, dtype=np.float64)),
        velocity, 1.0, 0.0,
    )
    return sample_sse, -velocity


def fd_gradients(network, x, target, step=1e-6):
    """Central finite differences over every entry of ``network.params``."""
    params = network.params
    grads = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + step
        up = half_sse_loss(network, x, target)
        params[i] = orig - step
        down = half_sse_loss(network, x, target)
        params[i] = orig
        grads[i] = (up - down) / (2 * step)
    return grads
