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


@pytest.fixture
def under_blas_threads():
    """Run a Python snippet once for each count in ``BLAS_THREAD_COUNTS``,
    each time in a fresh interpreter whose BLAS library is held to that
    many threads, and return the lines printed by each run.  The snippet
    can import the helper modules in ``tests/``, such as ``gradient_oracle``.

    The batched numpy path is where training runs in parallel now, and
    BLAS reads its thread count once, when it loads, so each count needs
    its own process.
    """

    def run_once(snippet: str, threads: int) -> list[str]:
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

    def run(snippet: str) -> dict[int, list[str]]:
        return {threads: run_once(snippet, threads) for threads in BLAS_THREAD_COUNTS}

    return run
