"""Reference computations and output checks, written independently of
heartnet so a wrong answer from the program cannot also pass here.

Every comparison survives a change of one ulp in the program's numerics:
class decisions within ``BORDER`` of the 0.5 threshold may go either way,
and learning-rate steps are compared with a relative tolerance.  Each
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

N_CLASSES = 4
CATEGORICAL_COLUMNS = (1, 2, 5, 6, 8, 10, 12)  # Sex Cp Fbs Restecg Exang Slope Thal
BORDER = 1e-9  # outputs this close to 0.5 may decode either way
REL_TOL = 1e-12

# The default split grid on a 303-row table: requests larger than the
# table shrink proportionally, floor-rounded.
EXPECTED_GRID_ROWS = tuple(
    (n_train, n_test, arch)
    for n_train, n_test in ((75, 227), (129, 173), (189, 113), (235, 67))
    for arch in ("single", "multi")
)


def table_arrays(rows) -> tuple[np.ndarray, np.ndarray]:
    """Features (NaN for ``?``) and labels clamped into 0..3 from the
    generator's string rows."""
    features = np.array(
        [[math.nan if cell == "?" else float(cell) for cell in row[:13]] for row in rows]
    )
    labels = np.minimum(np.array([int(row[13]) for row in rows]), N_CLASSES - 1)
    return features, labels


def impute_median_mode(features: np.ndarray) -> np.ndarray:
    """Fill NaN cells with the column median, or for categorical columns
    the most frequent value (the smallest one on a tie)."""
    filled = features.copy()
    for j in range(filled.shape[1]):
        missing = np.isnan(filled[:, j])
        if not missing.any():
            continue
        present = filled[~missing, j]
        if j in CATEGORICAL_COLUMNS:
            values, counts = np.unique(present, return_counts=True)
            fill = values[np.argmax(counts)]  # unique sorts, argmax takes the first
        else:
            fill = np.median(present)
        filled[missing, j] = fill
    return filled


def scale(features: np.ndarray, scaler: dict) -> np.ndarray:
    mins = np.array([col["min"] for col in scaler.values()])
    maxs = np.array([col["max"] for col in scaler.values()])
    deltas = maxs - mins
    scaled = (features - mins) / np.where(deltas == 0.0, 1.0, deltas)
    scaled[:, deltas == 0.0] = 0.0
    return scaled


def forward(model: dict, inputs: np.ndarray) -> np.ndarray:
    """Whole-table logistic-sigmoid forward pass; returns output rows."""
    act = inputs
    for weights, biases in zip(model["weights"], model["biases"]):
        act = 1.0 / (1.0 + np.exp(-(act @ np.array(weights).T + np.array(biases))))
    return act


def decode(outputs: np.ndarray) -> list[tuple[int, ...]]:
    """Candidate classes per row: one, or more when an output sits on the
    threshold."""
    candidates = []
    for high, low in outputs:
        highs = (0, 1) if abs(high - 0.5) <= BORDER else (int(high >= 0.5),)
        lows = (0, 1) if abs(low - 0.5) <= BORDER else (int(low >= 0.5),)
        candidates.append(tuple(2 * h + l for h in highs for l in lows))
    return candidates


def confusion_matches(confusion, labels, candidates, max_borderline: int = 8) -> bool:
    """True if some choice among each row's candidate classes gives
    exactly ``confusion``."""
    fixed = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    open_rows = []
    for label, options in zip(labels, candidates):
        if len(options) == 1:
            fixed[label, options[0]] += 1
        else:
            open_rows.append((label, options))
    target = np.asarray(confusion, dtype=np.int64)
    if not open_rows:
        return np.array_equal(fixed, target)
    if len(open_rows) > max_borderline:
        return False
    for choice in itertools.product(*(options for _, options in open_rows)):
        trial = fixed.copy()
        for (label, _), predicted in zip(open_rows, choice):
            trial[label, predicted] += 1
        if np.array_equal(trial, target):
            return True
    return False


def efficiency_pct(labels, candidates) -> float:
    """Exact-match efficiency, counting a borderline row as correct when
    one of its candidates is."""
    correct = sum(int(label in options) for label, options in zip(labels, candidates))
    return 100.0 * correct / len(labels)


def _truths(a: float, b: float) -> tuple[bool, ...]:
    """Possible values of ``a <= b`` under a one-ulp change of either."""
    if math.isinf(b) or abs(a - b) > REL_TOL * abs(b):
        return (a <= b,)
    return (True, False)


def read_history(path: Path) -> list[tuple[int, float, float, bool]]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["epoch", "sse", "learning_rate", "accepted"]:
        raise ValueError(f"{path.name}: unexpected header {rows[:1]}")
    if any(row[3] not in ("true", "false") for row in rows[1:]):
        raise ValueError(f"{path.name}: accepted column is not true/false")
    return [(int(e), float(s), float(lr), acc == "true") for e, s, lr, acc in rows[1:]]


def history_problems(records, epochs: int, train_config: dict) -> list[str]:
    """The history has ``epochs`` records numbered 1.., finite SSE, and
    learning rates that follow the rule: x1.05 after an SSE no worse than
    the last accepted one, x0.7 with the epoch rejected after a rise of
    more than 4%, the same rate after a smaller rise."""
    problems = []
    if [r[0] for r in records] != list(range(1, epochs + 1)):
        problems.append(f"history has epochs {records[0][0] if records else '-'}.."
                        f"{records[-1][0] if records else '-'}, expected 1..{epochs}")
    up, down = train_config["lr_increase"], train_config["lr_decrease"]
    band = train_config["max_sse_rise"]
    allowed = [train_config["initial_lr"]]
    prev_sse = math.inf
    for epoch, sse, lr, accepted in records:
        if not math.isfinite(sse) or sse < 0:
            problems.append(f"epoch {epoch}: sse {sse!r}")
            break
        if not any(math.isclose(lr, a, rel_tol=REL_TOL) for a in allowed):
            problems.append(f"epoch {epoch}: learning rate {lr!r}, expected one of {allowed}")
            break
        outcomes = []  # (accepted, next rate)
        for improved in _truths(sse, prev_sse):
            if improved:
                outcomes.append((True, lr * up))
                continue
            for within_band in _truths(sse, prev_sse * (1.0 + band)):
                outcomes.append((True, lr) if within_band else (False, lr * down))
        allowed = [rate for ok, rate in outcomes if ok == accepted]
        if not allowed:
            problems.append(f"epoch {epoch}: accepted={accepted} contradicts sse {sse!r}"
                            f" after {prev_sse!r}")
            break
        if accepted:
            prev_sse = sse
    return problems


def model_problems(model: dict, layer_sizes) -> list[str]:
    if model.get("layer_sizes") != list(layer_sizes):
        return [f"model layer_sizes {model.get('layer_sizes')}, expected {list(layer_sizes)}"]
    values = [v for w in model["weights"] for row in w for v in row]
    values += [v for b in model["biases"] for v in b]
    if not all(math.isfinite(v) for v in values):
        return ["model has non-finite weights"]
    return []


def scaler_problems(scaler: dict, features: np.ndarray) -> list[str]:
    """The scaler holds each column's exact min and max."""
    mins = [col["min"] for col in scaler.values()]
    maxs = [col["max"] for col in scaler.values()]
    if mins != features.min(axis=0).tolist() or maxs != features.max(axis=0).tolist():
        return ["scaler min/max differ from the table's"]
    return []


def parse_evaluate_output(text: str) -> tuple[int, int, list[list[int]]]:
    """(n_test, n_correct, confusion) from ``heartnet evaluate``'s stdout."""
    n_test = n_correct = None
    confusion = []
    for line in text.splitlines():
        if line.startswith("samples:"):
            n_test = int(line.split()[1])
        elif line.startswith("efficiency:"):
            n_correct = int(line.split("(")[1].split("/")[0])
        elif line.startswith("true "):
            confusion.append([int(v) for v in line.split()[2:]])
    if n_test is None or n_correct is None or len(confusion) != N_CLASSES:
        raise ValueError("evaluate output lacks samples, efficiency or confusion lines")
    return n_test, n_correct, confusion


def read_report(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def report_problems(rows: list[dict], epochs: int) -> list[str]:
    """Eight cells in grid order with the proportional shrink, the fixed
    epoch count, an efficiency that is a whole number of correct rows, and
    a finite positive SSE."""
    got = [(int(r["n_train"]), int(r["n_test"]), r["architecture"]) for r in rows]
    if tuple(got) != EXPECTED_GRID_ROWS:
        return [f"report cells {got}, expected {list(EXPECTED_GRID_ROWS)}"]
    problems = []
    for row in rows:
        n_test, eff, sse = int(row["n_test"]), float(row["efficiency_pct"]), float(row["final_sse"])
        correct = round(eff * n_test / 100.0)
        if not 0 <= correct <= n_test or not math.isclose(100.0 * correct / n_test, eff, rel_tol=1e-12):
            problems.append(f"efficiency {eff!r} is not k/{n_test}")
        if not (math.isfinite(sse) and sse > 0):
            problems.append(f"final_sse {sse!r}")
        if int(row["epochs"]) != epochs:
            problems.append(f"epochs {row['epochs']}, expected {epochs}")
    return problems


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))
