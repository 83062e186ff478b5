"""The three workloads: what each op runs, how its output is checked, and
what it contributes to throughput and quality.

One op is one call of ``heartnet.cli.main``.  Every table is made by
``tools/generate_fixture.generate`` from a seed derived from the
workload seed, written as CSV, and handed to the program by path.  The
hyperparameters are pinned in a config file so that a change of the
program's defaults cannot change the workload; ``--workers`` is never
passed.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

TRAIN_EPOCHS = 6  # per train op: ~90 ms of per-sample training on 303 rows
SCORE_MODEL_EPOCHS = 10  # per scored model, trained during set-up
GRID_EPOCHS = 3  # per grid cell; 8 cells make one experiment op of ~150 ms
LAYERS = (13, 8, 2)

TRAIN_CONFIG = {
    "initial_lr": 0.1,
    "momentum": 0.9,
    "lr_increase": 1.05,
    "lr_decrease": 0.7,
    "max_sse_rise": 0.04,
    "target_sse": 0.0,  # never reached, so every run does all its epochs
    "hidden_sizes": [8],
}


@dataclass
class Op:
    key: int  # which input set
    argv: list[str]
    repeat_of: Path | None = None  # output dir of the same-seed run to match


@dataclass
class Outcome:
    samples: int = 0  # network sample passes: training presentations + scored rows
    problems: list[str] = field(default_factory=list)


def _derive_seeds(seed: int, name: str, n: int) -> list[int]:
    state = np.random.SeedSequence([seed, *name.encode()]).generate_state(n)
    return [int(s) for s in state]


def _write_table(rows, path: Path) -> None:
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")


def _write_config(path: Path, epochs: int) -> None:
    payload = dict(TRAIN_CONFIG, max_epochs=epochs)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _final_sse(records) -> float:
    accepted = [sse for _, sse, _, ok in records if ok]
    return accepted[-1] if accepted else math.inf


class Workload:
    name = ""
    # Distinct input sets, cycled through in order.  Tables differ in how
    # hard they are to learn, so the quality metrics are means over this
    # many of them (the final SSE of one table varies by ~11% from table
    # to table).
    n_inputs = 8

    def __init__(self, seed: int, work: Path, generate):
        self.work = work
        self.seeds = _derive_seeds(seed, self.name, 3 * self.n_inputs)
        self.rows = []
        for k in range(self.n_inputs):
            rows = generate(self.seeds[k])
            _write_table(rows, work / f"table{k}.csv")
            self.rows.append(rows)
        self.quality: dict[int, tuple[float, float]] = {}  # key -> (efficiency, sse)

    def setup(self, run) -> None:
        """Program-side set-up beyond import; ``run(argv)`` makes one CLI
        call and returns its exit code."""

    def schedule(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, stdout: str) -> Outcome:
        raise NotImplementedError

    # With no readable output at all (every op failed), both guards read
    # as bad as a JSON number can.
    def efficiency_pct(self) -> float:
        values = [eff for eff, _ in self.quality.values()]
        return float(np.mean(values)) if values else 0.0

    def final_sse(self) -> float:
        values = [sse for _, sse in self.quality.values() if math.isfinite(sse)]
        return float(np.mean(values)) if values else sys.float_info.max


class TrainWorkload(Workload):
    """``heartnet train`` of a 13-8-2 net for a fixed number of epochs.
    Each input set is trained twice in a row with the same seed; the
    second run must write byte-identical artifacts."""

    name = "train"
    n_inputs = 16

    def __init__(self, seed, work, generate):
        super().__init__(seed, work, generate)
        _write_config(work / "train.json", TRAIN_EPOCHS)

    def _argv(self, k: int, out: Path) -> list[str]:
        return [
            "train", "--config", str(self.work / "train.json"),
            "--data", str(self.work / f"table{k}.csv"), "--out", str(out),
            "--seed", str(self.seeds[self.n_inputs + k]), "--layers", ",".join(map(str, LAYERS)),
        ]

    def schedule(self):
        ops = []
        for k in range(self.n_inputs):
            first, second = self.work / f"train{k}a", self.work / f"train{k}b"
            ops.append(Op(k, self._argv(k, first)))
            ops.append(Op(k, self._argv(k, second), repeat_of=first))
        return ops

    def check(self, op, stdout):
        out = Path(op.argv[op.argv.index("--out") + 1])
        outcome = Outcome()
        records = checks.read_history(out / "history.csv")
        outcome.samples = len(records) * len(self.rows[op.key])
        outcome.problems += checks.history_problems(records, TRAIN_EPOCHS, TRAIN_CONFIG)
        model = checks.load_json(out / "model.json")
        outcome.problems += checks.model_problems(model, LAYERS)
        if op.repeat_of is not None:
            for name in ("model.json", "history.csv"):
                if (out / name).read_bytes() != (op.repeat_of / name).read_bytes():
                    outcome.problems.append(f"same-seed rerun changed {name}")
        if op.key not in self.quality:
            features, labels = checks.table_arrays(self.rows[op.key])
            features = checks.impute_median_mode(features)
            scaler = checks.load_json(out / "scaler.json")
            outcome.problems += checks.scaler_problems(scaler, features)
            outputs = checks.forward(model, checks.scale(features, scaler))
            efficiency = checks.efficiency_pct(labels, checks.decode(outputs))
            self.quality[op.key] = (efficiency, _final_sse(records))
        return outcome


class ScoreWorkload(Workload):
    """``heartnet evaluate`` of holdout tables, each against its own model
    trained during set-up; every confusion matrix is recomputed in numpy."""

    name = "score"

    def __init__(self, seed, work, generate):
        super().__init__(seed, work, generate)
        for k in range(self.n_inputs):
            _write_table(generate(self.seeds[2 * self.n_inputs + k]), work / f"train{k}.csv")
        _write_config(work / "scored_model.json", SCORE_MODEL_EPOCHS)
        self.reference: dict[int, tuple] = {}

    def setup(self, run):
        for k in range(self.n_inputs):
            code = run([
                "train", "--config", str(self.work / "scored_model.json"),
                "--data", str(self.work / f"train{k}.csv"), "--out", str(self.work / f"model{k}"),
                "--seed", str(self.seeds[self.n_inputs + k]),
            ])
            if code != 0:
                raise RuntimeError(f"training scored model {k} exited {code}")

    def schedule(self):
        return [
            Op(k, [
                "evaluate", "--data", str(self.work / f"table{k}.csv"),
                "--model", str(self.work / f"model{k}" / "model.json"),
                "--scaler", str(self.work / f"model{k}" / "scaler.json"),
            ])
            for k in range(self.n_inputs)
        ]

    def _reference(self, k: int):
        if k not in self.reference:
            model_dir = self.work / f"model{k}"
            model = checks.load_json(model_dir / "model.json")
            scaler = checks.load_json(model_dir / "scaler.json")
            features, labels = checks.table_arrays(self.rows[k])
            features = checks.impute_median_mode(features)
            candidates = checks.decode(checks.forward(model, checks.scale(features, scaler)))
            self.reference[k] = (labels, candidates)
            records = checks.read_history(model_dir / "history.csv")
            self.quality[k] = (checks.efficiency_pct(labels, candidates), _final_sse(records))
        return self.reference[k]

    def check(self, op, stdout):
        labels, candidates = self._reference(op.key)
        n_test, n_correct, confusion = checks.parse_evaluate_output(stdout)
        outcome = Outcome(samples=n_test)
        if n_test != len(labels):
            outcome.problems.append(f"scored {n_test} rows of {len(labels)}")
        if n_correct != int(np.trace(confusion)):
            outcome.problems.append("efficiency line disagrees with the confusion matrix")
        if not checks.confusion_matches(confusion, labels, candidates):
            outcome.problems.append("confusion matrix differs from the numpy reference")
        return outcome


class GridWorkload(Workload):
    """``heartnet experiment`` over the default 4-split grid x {single,
    multi}; a repeated input set must give a byte-identical report."""

    name = "grid"
    n_inputs = 16

    def __init__(self, seed, work, generate):
        super().__init__(seed, work, generate)
        _write_config(work / "grid.json", GRID_EPOCHS)
        self.first_report: dict[int, bytes] = {}

    def schedule(self):
        return [
            Op(k, [
                "experiment", "--config", str(self.work / "grid.json"),
                "--data", str(self.work / f"table{k}.csv"), "--out", str(self.work / f"grid{k}"),
                "--seed", str(self.seeds[self.n_inputs + k]),
            ])
            for k in range(self.n_inputs)
        ]

    def check(self, op, stdout):
        path = self.work / f"grid{op.key}" / "report.csv"
        rows = checks.read_report(path)
        outcome = Outcome(problems=checks.report_problems(rows, GRID_EPOCHS))
        if outcome.problems:
            return outcome
        outcome.samples = sum(
            int(r["epochs"]) * int(r["n_train"]) + int(r["n_test"]) for r in rows
        )
        report = path.read_bytes()
        if self.first_report.setdefault(op.key, report) != report:
            outcome.problems.append("same-seed rerun changed report.csv")
        if op.key not in self.quality:
            self.quality[op.key] = (
                float(np.mean([float(r["efficiency_pct"]) for r in rows])),
                float(np.mean([float(r["final_sse"]) for r in rows])),
            )
        return outcome


WORKLOADS = {w.name: w for w in (TrainWorkload, ScoreWorkload, GridWorkload)}
