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
from .data import DataError, Dataset, load_dataset, load_scaler, save_scaler
from .evaluation import (
    DEFAULT_GRID,
    DEFAULT_HIDDEN_SIZES,
    evaluate,
    export_report,
    format_report,
    run_experiment,
)
from .network import MAX_LAYERS, load_network, new_network, save_network
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


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, merged from defaults, file, and flags."""

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

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_json_dict(self) -> dict:
        return asdict(self)


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _json_ints(value) -> tuple[int, ...]:
    """The entries of a JSON list, each of which must be an integer, by
    the rule :func:`_check_types` applies to ``max_epochs``: ``8.7`` and
    ``8.0`` are refused, not truncated, and ``true`` is not 1."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise TypeError(value)
    return tuple(value)


def _parse_layer_list(value, what: str) -> tuple[int, ...]:
    try:
        if isinstance(value, str):
            sizes = tuple(int(v) for v in value.split(","))
        else:
            sizes = _json_ints(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{what} must be a comma-separated list of integers, got {value!r}"
        ) from None
    if any(s < 1 for s in sizes):
        raise ConfigError(f"{what} entries must be >= 1")
    return sizes


def _parse_splits(value) -> tuple[tuple[int, int], ...]:
    try:
        splits = tuple(_json_ints(pair) for pair in value)
        if any(len(pair) != 2 for pair in splits):
            raise ValueError(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"splits must be a list of [n_train, n_test] integer pairs, got {value!r}"
        ) from None
    if any(a < 1 or b < 1 for a, b in splits):
        raise ConfigError("split sizes must be >= 1")
    return splits


_INTEGER_KEYS = ("max_epochs", "seed")
_NUMBER_KEYS = (
    "initial_lr", "momentum", "lr_increase", "lr_decrease", "max_sse_rise", "target_sse",
)
_PATH_KEYS = ("data", "out")


def _check_types(payload: dict, path) -> None:
    """Reject a scalar config value of the wrong JSON type.  ``true`` and
    ``false`` are not numbers here, although Python counts bool as int."""
    for key, value in payload.items():
        if key in _INTEGER_KEYS:
            ok, wanted = type(value) is int, "an integer"
        elif key in _NUMBER_KEYS:
            ok, wanted = type(value) in (int, float), "a number"
        elif key in _PATH_KEYS:
            ok, wanted = value is None or isinstance(value, str), "a path string or null"
        else:
            continue
        if not ok:
            raise ConfigError(f"{path}: {key} must be {wanted}, got {value!r}")


def load_run_config(path) -> RunConfig:
    """Read a flat JSON config; unknown keys are rejected outright."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = sorted(set(payload) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")

    _check_types(payload, path)
    kwargs = dict(payload)
    if "imputation" in kwargs:
        kwargs["imputation"] = _normalize_impute(kwargs["imputation"])
    if "label_policy" in kwargs:
        kwargs["label_policy"] = _normalize_labels(kwargs["label_policy"])
    if kwargs.get("layer_sizes") is not None:
        kwargs["layer_sizes"] = _parse_layer_list(kwargs["layer_sizes"], "layer_sizes")
    # only layer_sizes may be null (its default stack); these two may not
    if "hidden_sizes" in kwargs:
        kwargs["hidden_sizes"] = _parse_layer_list(kwargs["hidden_sizes"], "hidden_sizes")
    if "splits" in kwargs:
        kwargs["splits"] = _parse_splits(kwargs["splits"])
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _normalize_impute(value: str) -> str:
    try:
        return _IMPUTE_ALIASES[value]
    except (KeyError, TypeError):
        raise ConfigError(
            f"imputation must be one of {sorted(set(_IMPUTE_ALIASES))}, got {value!r}"
        ) from None


def _normalize_labels(value: str) -> str:
    if value not in _LABEL_POLICIES:
        raise ConfigError(f"label_policy must be one of {_LABEL_POLICIES}, got {value!r}")
    return value


def merge_config(args: argparse.Namespace) -> RunConfig:
    """File config (if any) under flag overrides."""
    config = load_run_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {}
    if getattr(args, "data", None) is not None:
        overrides["data"] = args.data
    if getattr(args, "out", None) is not None:
        overrides["out"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "layers", None) is not None:
        overrides["layer_sizes"] = _parse_layer_list(args.layers, "--layers")
    if getattr(args, "impute", None) is not None:
        overrides["imputation"] = _normalize_impute(args.impute)
    if getattr(args, "labels", None) is not None:
        overrides["label_policy"] = _normalize_labels(args.labels)
    return replace(config, **overrides)


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"missing required setting {name!r} (flag or config file)")


def _layer_stack(config: RunConfig) -> tuple[int, ...]:
    """The layer sizes a ``train`` run or an ``experiment``'s multi-layer
    cells use: ``layer_sizes`` if set, else the 13 inputs, the
    ``hidden_sizes`` and the 2 outputs.  Checked before any data is read
    or ``--out`` is made."""
    sizes = config.layer_sizes
    if sizes is None:
        sizes = (hdata.N_ATTRIBUTES, *config.hidden_sizes, 2)
    if len(sizes) < 2:
        raise ConfigError(f"layer sizes {list(sizes)} need at least input and output sizes")
    if len(sizes) > MAX_LAYERS:
        raise ConfigError(
            f"layer sizes {list(sizes)}: {len(sizes)} layers exceeds the cap of {MAX_LAYERS}"
        )
    if sizes[0] != hdata.N_ATTRIBUTES:
        raise ConfigError(
            f"first layer size {sizes[0]} != {hdata.N_ATTRIBUTES} input features"
        )
    if sizes[-1] != 2:
        raise ConfigError(f"last layer size {sizes[-1]} != 2 output neurons")
    return sizes


def _prepare_out_dir(config: RunConfig) -> Path:
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = out_dir / EFFECTIVE_CONFIG_NAME
    echo.write_text(json.dumps(config.to_json_dict(), indent=2) + "\n", encoding="utf-8")
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

    scaled = scaler.transform(dataset.features).values
    with (out_dir / "scaled.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([col.name for col in dataset.schema] + ["label"])
        for row, label in zip(scaled, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])

    print(f"scaled {len(dataset)} rows, {len(dataset.schema)} columns")
    if scaler.degenerate_columns:
        print(f"constant columns mapped to 0: {', '.join(scaler.degenerate_columns)}")
    print(f"wrote {out_dir / 'scaler.json'} and {out_dir / 'scaled.csv'}")
    return EXIT_OK


def cmd_train(config: RunConfig) -> int:
    """Full pipeline: load, impute, scale, train, persist artifacts."""
    _require(config, "data", "out")
    train_config = config.train_config()
    sizes = _layer_stack(config)
    dataset = _load_and_impute(config)
    network = new_network(sizes, config.seed)
    out_dir = _prepare_out_dir(config)

    scaler = hdata.fit_scaler(dataset)
    inputs = scaler.transform(dataset.features).values
    targets = hdata.encode_labels(dataset.labels)
    history = train(network, inputs, targets, train_config)

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

    scaler.check_columns(dataset.schema)
    scaled = scaler.transform(dataset.features)
    out_of_range = int(scaled.out_of_range.any(axis=1).sum())
    metrics = evaluate(network, scaled.values, dataset.labels)

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
    train_config = config.train_config()
    sizes = _layer_stack(config)
    dataset = _load_and_impute(config)
    out_dir = _prepare_out_dir(config)

    report = run_experiment(
        dataset,
        splits=config.splits,
        config=train_config,
        hidden_sizes=sizes[1:-1],
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
