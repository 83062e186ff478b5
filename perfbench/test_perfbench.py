"""Tests of the benchmark itself, run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py

The traced-run test starts the benchmark twice per workload (about a
minute in all); the checks tests run in-process.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import checks  # noqa: E402

RUN = Path(__file__).with_name("run.py")
CONFIG = {"initial_lr": 0.1, "lr_increase": 1.05, "lr_decrease": 0.7, "max_sse_rise": 0.04}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["train", "score", "grid"])
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 5), traced_run(workload, 5)
    assert first["correct"] and second["correct"]
    counted = [name for name, m in first["metrics"].items() if m["unit"] in ("count/op", "ratio")]
    assert {"network.forward.calls", "network.backward.calls", "trainer.epochs_accepted",
            "parallel.NeuronPool.run.fanned_out_calls"} <= set(counted)
    for name in counted:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_history_rule_accepts_each_branch_and_rejects_a_wrong_rate():
    good = [
        (1, 10.0, 0.1, True),  # first epoch: always accepted, rate x1.05
        (2, 9.0, 0.1 * 1.05, True),  # improved: x1.05
        (3, 9.2, 0.1 * 1.05**2, True),  # rose within 4%: hold
        (4, 12.0, 0.1 * 1.05**2, False),  # rose beyond 4%: rejected, x0.7
        (5, 8.0, 0.1 * 1.05**2 * 0.7, True),  # compared with epoch 3's SSE
    ]
    assert checks.history_problems(good, 5, CONFIG) == []
    wrong_rate = good[:4] + [(5, 8.0, 0.1 * 1.05**3, True)]
    assert checks.history_problems(wrong_rate, 5, CONFIG)
    wrong_flag = good[:3] + [(4, 12.0, 0.1 * 1.05**2, True)] + good[4:]
    assert checks.history_problems(wrong_flag, 5, CONFIG)
    assert checks.history_problems(good[:4], 5, CONFIG)  # an epoch short


def test_history_rule_tolerates_one_ulp_at_a_threshold():
    at_edge = [(1, 10.0, 0.1, True), (2, math.nextafter(10.0, 11.0), 0.1 * 1.05, True),
               (3, 9.0, 0.1 * 1.05**2, True)]
    assert checks.history_problems(at_edge, 3, CONFIG) == []


def test_confusion_check_allows_only_borderline_rows_to_move():
    labels = np.array([0, 3, 1])
    outputs = np.array([[0.1, 0.2], [0.9, 0.9], [0.2, 0.5 + 1e-12]])
    candidates = checks.decode(outputs)
    assert candidates == [(0,), (3,), (0, 1)]
    as_one = np.zeros((4, 4), dtype=int)
    as_one[0, 0] = as_one[3, 3] = as_one[1, 1] = 1
    as_zero = as_one.copy()
    as_zero[1, 1], as_zero[1, 0] = 0, 1
    assert checks.confusion_matches(as_one, labels, candidates)
    assert checks.confusion_matches(as_zero, labels, candidates)
    moved = as_one.copy()
    moved[3, 3], moved[3, 2] = 0, 1
    assert not checks.confusion_matches(moved, labels, candidates)


def test_reference_impute_takes_median_and_smallest_mode():
    features = np.zeros((5, 13))
    features[:, 0] = [1.0, 2.0, 4.0, 10.0, math.nan]  # continuous: median of 4 values
    features[:, 12] = [3.0, 7.0, 7.0, 3.0, math.nan]  # categorical tie: smallest
    filled = checks.impute_median_mode(features)
    assert filled[4, 0] == 3.0 and filled[4, 12] == 3.0
