"""The one-sample gradient oracle shared by the network and acceptance tests.

A sample's SSE and gradient are read from the per-sample kernel that
every training epoch runs, ``heartnet.trainer._epoch``, on a one-row
stack, and the gradient is checked against central finite differences
of half the sum of squared errors, the quantity the deltas are derived
from.
"""

import numpy as np

from heartnet.network import Network, forward
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
        network.params[None],
        velocity[None],
        network.layer_sizes,
        [inputs],
        [targets],
        np.array([lr], dtype=np.float64),
        momentum,
    )
    return float(sse)


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
