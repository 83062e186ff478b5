"""Machine-speed yardstick for the reported times.

On a 2-vCPU x86-64 virtual machine (Python 3.11, numpy 2.4, OpenBLAS)
the vCPUs switch, independently and for seconds at a time, between a
normal state and one in which the same code runs about 2x slower (CPU
time slows as much as wall time, so it is not descheduling).  A run's
raw median latency then depends mostly on how long it spent in each
state: over five seeds the raw ``score`` p50 spread 40% between
quartiles.  Each op is therefore timed together with a fixed kernel run
just before and just after it, and its time is rescaled to the speed at
which the kernel takes ``NOMINAL_S``.  Over the same five seeds the
rescaled p50 spread 2-3%.

The kernel is shaped like the program's hot code at the commit that
introduced it (per-neuron dot products and sigmoids, CSV-cell parsing)
and must never change: it defines the unit of every reported time.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_WEIGHTS = np.linspace(-1.0, 1.0, 8 * 13).reshape(8, 13)
_INPUT = np.linspace(0.0, 1.0, 13)
_TOKENS = "63,1,1,145,233,1,2,150,0,2.3,3,0,6".split(",")
_ROUNDS = 30
NOMINAL_S = 0.00025  # the kernel's time on that machine in its normal state


def kernel_seconds() -> float:
    """Fastest of three runs of the yardstick kernel (~0.25 ms each)."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        total = 0.0
        for _ in range(_ROUNDS):
            for row in _WEIGHTS:
                total += 1.0 / (1.0 + math.exp(-float(np.dot(row, _INPUT))))
            total += sum(float(token) for token in _TOKENS)
        best = min(best, perf_counter() - start)
    return best


class Yardstick:
    """Rescales consecutive timed spans by the kernel time measured at
    their two ends; the kernel run after one span is reused before the
    next."""

    def __init__(self):
        self._last = kernel_seconds()

    def factor(self) -> float:
        """Call right after a timed span; returns the factor for it."""
        before, self._last = self._last, kernel_seconds()
        return NOMINAL_S / (0.5 * (before + self._last))
