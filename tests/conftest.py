"""Shared fixtures."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_COUNTS = (1, 2)


def run_under_blas_threads(snippet: str) -> dict[int, list[str]]:
    """Run a Python snippet once for each count in ``BLAS_THREAD_COUNTS``,
    each time in a fresh interpreter whose BLAS library is held to that
    many threads, and return the lines printed by each run.  The snippet
    can import the helper modules in ``tests/``, such as ``gradient_oracle``.

    The batched numpy path is where training runs in parallel now, and
    BLAS reads its thread count once, when it loads, so each count needs
    its own process.
    """

    def run_once(threads: int) -> list[str]:
        env = dict(os.environ)
        env.update({var: str(threads) for var in BLAS_THREAD_VARS})
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), str(TESTS), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(snippet)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines, "the snippet printed nothing to compare"
        return lines

    return {threads: run_once(threads) for threads in BLAS_THREAD_COUNTS}


@pytest.fixture
def under_blas_threads():
    """``run_under_blas_threads``, for a test that runs its own snippet."""
    return run_under_blas_threads


# The unit BLAS-thread checks of forward, backward and train: one snippet,
# run once per session, prints every digest they compare under a "# part"
# line, so the three checks share one interpreter per thread count.
UNIT_BLAS_SNIPPET = """
    import hashlib
    import numpy as np
    from gradient_oracle import kernel_epoch
    from heartnet.network import forward, new_network
    from heartnet.trainer import TrainConfig, train

    def digest(array):
        print(hashlib.sha256(array.tobytes()).hexdigest())

    # each layer of one row, and the output of 303 rows, through a layer
    # wide enough that a threaded BLAS can split its products
    print("# forward")
    net = new_network((13, 1024, 2), 7)
    rows = np.random.default_rng(0).uniform(0, 1, (303, 13))
    for out in (*forward(net, rows[0]), forward(net, rows)[-1]):
        digest(out)

    print("# backward")
    net = new_network((13, 1024, 2), 9)
    x = np.random.default_rng(2).uniform(0, 1, (1, 13))
    velocity = np.zeros_like(net.params)  # ends at minus the gradient
    kernel_epoch(net, x, np.array([[1.0, 0.0]]), velocity, 1.0, 0.0)
    digest(velocity)

    # a 5-epoch run: its weights and its history
    print("# train")
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, (12, 13))
    labels = rng.integers(0, 4, 12)
    t = np.column_stack([labels // 2, labels % 2]).astype(float)
    net = new_network((13, 1024, 2), 6)
    hist = train(net, x, t, TrainConfig(max_epochs=5, target_sse=0.0))
    digest(net.params)
    print(repr(hist))
"""


@pytest.fixture(scope="session")
def blas_thread_digests():
    """For each part of ``UNIT_BLAS_SNIPPET`` (``forward``, ``backward``,
    ``train``), the lines it printed under each BLAS thread count."""
    parts: dict[str, dict[int, list[str]]] = {}
    for threads, lines in run_under_blas_threads(UNIT_BLAS_SNIPPET).items():
        part = None
        for line in lines:
            if line.startswith("# "):
                part = line[2:]
                parts.setdefault(part, {})[threads] = []
            else:
                parts[part][threads].append(line)
    assert all(len(runs) == len(BLAS_THREAD_COUNTS) for runs in parts.values())
    return parts
