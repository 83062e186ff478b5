"""Command-line surface: scale, train, evaluate, experiment.

Configuration comes from an optional JSON file (flat keys mirroring
RunConfig) with command-line flags taking precedence.  The effective,
fully merged config is echoed into the output directory so any run can
be reproduced from that file alone.

Exit codes: 0 success, 2 usage or config error, 3 data error,
4 training divergence, 5 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import data as hdata
from .data import DataError, Dataset, _read_json, load_dataset, load_scaler, save_scaler
from .evaluation import (
    DEFAULT_GRID,
    DEFAULT_HIDDEN_SIZES,
    evaluate,
    export_report,
    format_report,
    run_experiment,
)
from .network import _is_integer, _validate_layer_sizes, load_network, new_network, save_network
from .trainer import DivergenceError, TrainConfig, train, write_history_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_IO = 5

EFFECTIVE_CONFIG_NAME = "effective_config.json"


class ConfigError(ValueError):
    """Bad config file or bad flag/config combination."""


# Accepted spellings for the policy-valued keys; flags use the short forms.
_IMPUTE_ALIASES = {
    "drop": hdata.IMPUTE_DROP_ROWS,
    "median": hdata.IMPUTE_MEDIAN_MODE,
    hdata.IMPUTE_DROP_ROWS: hdata.IMPUTE_DROP_ROWS,
    hdata.IMPUTE_MEDIAN_MODE: hdata.IMPUTE_MEDIAN_MODE,
}
_LABEL_POLICIES = (hdata.LABELS_STRICT, hdata.LABELS_CLAMP)


def _is_size_list(value) -> bool:
    """A list of integers >= 1: ``8.7`` and ``8.0`` are refused, not
    truncated, and ``true`` is not 1."""
    return isinstance(value, (list, tuple)) and all(_is_integer(v) and v >= 1 for v in value)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, merged from defaults, file, and flags.

    Construction checks every setting, so an instance (including one made
    by :func:`dataclasses.replace`) is always valid; a bad one raises
    :class:`ConfigError`.  Policy aliases are normalised and integer lists
    become tuples.
    """

    data: str | None = None
    out: str | None = None
    imputation: str = hdata.IMPUTE_MEDIAN_MODE
    label_policy: str = hdata.LABELS_CLAMP
    layer_sizes: tuple[int, ...] | None = None
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN_SIZES
    splits: tuple[tuple[int, int], ...] = DEFAULT_GRID
    initial_lr: float = TrainConfig.initial_lr
    momentum: float = TrainConfig.momentum
    lr_increase: float = TrainConfig.lr_increase
    lr_decrease: float = TrainConfig.lr_decrease
    max_sse_rise: float = TrainConfig.max_sse_rise
    max_epochs: int = TrainConfig.max_epochs
    target_sse: float = TrainConfig.target_sse
    seed: int = TrainConfig.seed

    def __post_init__(self):
        for name in ("data", "out"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a path string or null, got {value!r}")
        try:
            imputation = _IMPUTE_ALIASES[self.imputation]
        except (KeyError, TypeError):
            raise ConfigError(
                f"imputation must be one of {sorted(set(_IMPUTE_ALIASES))}, "
                f"got {self.imputation!r}"
            ) from None
        if self.label_policy not in _LABEL_POLICIES:
            raise ConfigError(
                f"label_policy must be one of {_LABEL_POLICIES}, got {self.label_policy!r}"
            )
        for name in ("layer_sizes", "hidden_sizes"):
            value = getattr(self, name)
            if value is None and name == "layer_sizes":
                continue  # null: the stack is 13, hidden_sizes, 2
            if not _is_size_list(value):
                raise ConfigError(f"{name} must be a list of integers >= 1, got {value!r}")
            object.__setattr__(self, name, tuple(int(v) for v in value))
        if not isinstance(self.splits, (list, tuple)) or not all(
            _is_size_list(pair) and len(pair) == 2 for pair in self.splits
        ):
            raise ConfigError(
                f"splits must be a list of [n_train, n_test] pairs of integers >= 1, "
                f"got {self.splits!r}"
            )
        object.__setattr__(self, "splits", tuple(tuple(int(v) for v in p) for p in self.splits))
        object.__setattr__(self, "imputation", imputation)
        self.train_config()
        self._check_layer_stack()

    def _check_layer_stack(self) -> None:
        sizes = self.layer_stack()
        try:
            _validate_layer_sizes(sizes)
        except ValueError as exc:
            raise ConfigError(f"layer sizes {list(sizes)}: {exc}") from None
        if sizes[0] != hdata.N_ATTRIBUTES:
            raise ConfigError(
                f"first layer size {sizes[0]} != {hdata.N_ATTRIBUTES} input features"
            )
        if sizes[-1] != 2:
            raise ConfigError(f"last layer size {sizes[-1]} != 2 output neurons")

    def layer_stack(self) -> tuple[int, ...]:
        """The layer sizes a ``train`` run or an ``experiment``'s
        multi-layer cells use: ``layer_sizes`` if set, else the 13 inputs,
        the ``hidden_sizes`` and the 2 outputs."""
        if self.layer_sizes is not None:
            return self.layer_sizes
        return (hdata.N_ATTRIBUTES, *self.hidden_sizes, 2)

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def load_run_config(path) -> RunConfig:
    """Read a flat JSON config; unknown keys are rejected outright and the
    rest are checked by :class:`RunConfig`."""
    payload = _read_json(path, ConfigError)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = sorted(set(payload) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    try:
        return RunConfig(**payload)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def merge_config(args: argparse.Namespace) -> RunConfig:
    """File config (if any), checked whole, under flag overrides."""
    base = load_run_config(args.config) if getattr(args, "config", None) else None
    overrides = {}
    for flag, key in (
        ("data", "data"), ("out", "out"), ("seed", "seed"),
        ("impute", "imputation"), ("labels", "label_policy"),
    ):
        if getattr(args, flag, None) is not None:
            overrides[key] = getattr(args, flag)
    if getattr(args, "layers", None) is not None:
        try:
            overrides["layer_sizes"] = tuple(int(v) for v in args.layers.split(","))
        except ValueError:
            raise ConfigError(
                f"--layers must be a comma-separated list of integers, got {args.layers!r}"
            ) from None
    return RunConfig(**overrides) if base is None else replace(base, **overrides)


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"missing required setting {name!r} (flag or config file)")


def _prepare_out_dir(config: RunConfig) -> Path:
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = out_dir / EFFECTIVE_CONFIG_NAME
    echo.write_text(json.dumps(asdict(config), indent=2) + "\n", encoding="utf-8")
    return out_dir


def _load_and_impute(config: RunConfig) -> Dataset:
    dataset = load_dataset(config.data, label_policy=config.label_policy)
    for warning in dataset.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return hdata.impute(dataset, config.imputation)


def _format_confusion(confusion) -> str:
    matrix = np.asarray(confusion)
    lines = ["confusion matrix (rows = true class, columns = predicted):"]
    lines.append("        " + "".join(f"{'pred ' + str(j):>8}" for j in range(matrix.shape[1])))
    for i, row in enumerate(matrix):
        lines.append(f"true {i:>2} " + "".join(f"{int(v):>8}" for v in row))
    return "\n".join(lines)


def cmd_scale(config: RunConfig) -> int:
    """Fit the min-max scaler on the whole file and write the scaler plus
    the scaled table for inspection."""
    _require(config, "data", "out")
    dataset = _load_and_impute(config)
    out_dir = _prepare_out_dir(config)
    scaler = hdata.fit_scaler(dataset)
    save_scaler(scaler, out_dir / "scaler.json")

    scaled = scaler.transform(dataset.features)
    with (out_dir / "scaled.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([*scaler.names, "label"])
        for row, label in zip(scaled, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])

    print(f"scaled {len(dataset)} rows, {scaler.n_columns} columns")
    if scaler.degenerate_columns:
        print(f"constant columns mapped to 0: {', '.join(scaler.degenerate_columns)}")
    print(f"wrote {out_dir / 'scaler.json'} and {out_dir / 'scaled.csv'}")
    return EXIT_OK


def cmd_train(config: RunConfig) -> int:
    """Full pipeline: load, impute, scale, train, persist artifacts."""
    _require(config, "data", "out")
    sizes = config.layer_stack()
    dataset = _load_and_impute(config)
    network = new_network(sizes, config.seed)
    out_dir = _prepare_out_dir(config)

    scaler = hdata.fit_scaler(dataset)
    inputs = scaler.transform(dataset.features)
    targets = hdata.encode_labels(dataset.labels)
    history = train(network, inputs, targets, config.train_config())

    save_network(network, out_dir / "model.json")
    save_scaler(scaler, out_dir / "scaler.json")
    write_history_csv(history, out_dir / "history.csv")

    print(f"trained {list(sizes)} on {len(dataset)} samples")
    reached = history.final_sse <= config.target_sse
    print(
        f"final sse: {history.final_sse:.6f} after {history.epochs_run} epochs"
        f" ({'target reached' if reached else 'epoch limit'})"
    )
    print(f"wrote model.json, scaler.json, history.csv to {out_dir}")
    return EXIT_OK


def cmd_evaluate(config: RunConfig, args: argparse.Namespace) -> int:
    """Score a saved model against a (held-out) data file."""
    _require(config, "data")
    network = load_network(args.model)
    scaler = load_scaler(args.scaler)
    dataset = _load_and_impute(config)

    scaler.check_columns()
    x = dataset.features
    out_of_range = int(((x < scaler.mins) | (x > scaler.maxs)).any(axis=1).sum())
    metrics = evaluate(network, scaler.transform(x), dataset.labels)

    print(f"samples: {metrics.n_test}")
    if out_of_range:
        print(f"note: {out_of_range} samples fell outside the scaler's fitted range")
    print(
        f"efficiency: {metrics.efficiency_pct:.2f}% "
        f"({metrics.n_correct}/{metrics.n_test})"
    )
    if args.binary:
        print(
            "binary efficiency (normal vs abnormal): "
            f"{metrics.binary_efficiency_pct:.2f}%"
        )
    print(_format_confusion(metrics.confusion))

    if args.json_out:
        payload = {
            "n_test": metrics.n_test,
            "n_correct": metrics.n_correct,
            "efficiency_pct": metrics.efficiency_pct,
            "binary_efficiency_pct": metrics.binary_efficiency_pct,
            "confusion": [[int(v) for v in row] for row in metrics.confusion],
        }
        Path(args.json_out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.json_out}")
    return EXIT_OK


def cmd_experiment(config: RunConfig, args: argparse.Namespace) -> int:
    """Run the split-grid comparison of single vs multi layer networks."""
    _require(config, "data", "out")
    dataset = _load_and_impute(config)
    out_dir = _prepare_out_dir(config)

    report = run_experiment(
        dataset,
        splits=config.splits,
        config=config.train_config(),
        hidden_sizes=config.layer_stack()[1:-1],
        imputation_policy=config.imputation,
    )
    export_report(report, out_dir / "report.csv")
    print(format_report(report, binary=args.binary))
    print(f"wrote {out_dir / 'report.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heartnet",
        description="Feedforward neural-network classifier for the heart-disease table",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out=True):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--data", help="input CSV path")
        if out:
            p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument(
            "--impute",
            choices=["drop", "median"],
            help="missing-value policy: drop rows or fill median/mode",
        )
        p.add_argument(
            "--labels",
            choices=list(_LABEL_POLICIES),
            help="out-of-range class labels: reject or clamp into 0..3",
        )

    p_scale = sub.add_parser("scale", help="fit and export the min-max scaler")
    add_common(p_scale)

    p_train = sub.add_parser("train", help="train a network and save the artifacts")
    add_common(p_train)
    p_train.add_argument(
        "--layers",
        help="comma-separated layer sizes, e.g. 13,8,2 (default: 13,8,2)",
    )

    p_eval = sub.add_parser("evaluate", help="score a saved model on a data file")
    add_common(p_eval, out=False)
    p_eval.add_argument("--model", required=True, help="model.json path")
    p_eval.add_argument("--scaler", required=True, help="scaler.json path")
    p_eval.add_argument("--binary", action="store_true", help="also print normal-vs-abnormal efficiency")
    p_eval.add_argument("--json-out", help="optional metrics JSON path")

    p_exp = sub.add_parser(
        "experiment", help="single vs multi layer comparison over the split grid"
    )
    add_common(p_exp)
    p_exp.add_argument(
        "--layers",
        help="multi-layer shape override; interior entries set the hidden sizes",
    )
    p_exp.add_argument("--binary", action="store_true", help="add the binary-efficiency column")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    config = merge_config(args)
    if args.command == "scale":
        return cmd_scale(config)
    if args.command == "train":
        return cmd_train(config)
    if args.command == "evaluate":
        return cmd_evaluate(config, args)
    if args.command == "experiment":
        return cmd_experiment(config, args)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
