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
import functools
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import data as hdata
from .data import DataError, Dataset, _read_json, load_dataset, load_scaler, save_scaler
from .evaluation import (
    DEFAULT_GRID,
    DEFAULT_HIDDEN_SIZES,
    check_splits,
    evaluate,
    export_report,
    format_report,
    layer_stack,
    run_experiment,
)
from .network import _validate_layer_sizes, load_network, new_network, save_network
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


def _ascii_int(text: str) -> int:
    """The integer ``text`` spells in ASCII decimal digits, with an optional
    sign and surrounding whitespace; ``int`` alone also reads ``1_0`` and
    ``１０``.  Anything else is an :class:`argparse.ArgumentTypeError`."""
    if hdata._is_number(text):
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


# The flags, by their argparse dest, that name a file or directory.
_PATH_FLAGS = ("config", "data", "out", "model", "scaler", "json_out")


def _check_path(value, name: str) -> None:
    """Refuse ``""`` as the path ``name`` gives: it names no file, and as a
    directory it is the working directory."""
    if value == "":
        raise ConfigError(f"{name} must be a non-empty path")


def _is_size_list(value) -> bool:
    """A list of integers >= 1: ``8.7`` and ``8.0`` are refused, not
    truncated, and ``true`` is not 1."""
    return isinstance(value, (list, tuple)) and all(hdata._is_integer(v) and v >= 1 for v in value)


def _hidden_sizes_of(stack, name: str) -> tuple[int, ...]:
    """The hidden sizes of the full layer ``stack`` that ``name`` gives,
    after checking that it is a stack for the table: the one check of a
    layer stack, for a flag, a config key or a model file."""
    if not _is_size_list(stack):
        raise ConfigError(f"{name} must be a list of integers >= 1, got {stack!r}")
    try:
        _validate_layer_sizes(stack)
    except ValueError as exc:
        raise ConfigError(f"{name}: layer sizes {list(stack)}: {exc}") from None
    n_inputs, n_outputs = layer_stack()
    if stack[0] != n_inputs:
        raise ConfigError(f"{name}: first layer size {stack[0]} != {n_inputs} input features")
    if stack[-1] != n_outputs:
        raise ConfigError(f"{name}: last layer size {stack[-1]} != {n_outputs} output neurons")
    return tuple(int(v) for v in stack[1:-1])


@dataclass(frozen=True)
class RunConfig(TrainConfig):
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
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN_SIZES
    splits: tuple[tuple[int, int], ...] = DEFAULT_GRID

    def __post_init__(self):
        for name in ("data", "out"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a path string or null, got {value!r}")
            _check_path(value, name)
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
        if not _is_size_list(self.hidden_sizes):
            raise ConfigError(
                f"hidden_sizes must be a list of integers >= 1, got {self.hidden_sizes!r}"
            )
        if not isinstance(self.splits, (list, tuple)) or not self.splits or not all(
            _is_size_list(pair) and len(pair) == 2 for pair in self.splits
        ):
            raise ConfigError(
                f"splits must be a non-empty list of [n_train, n_test] pairs of integers >= 1, "
                f"got {self.splits!r}"
            )
        object.__setattr__(self, "splits", tuple(tuple(int(v) for v in p) for p in self.splits))
        object.__setattr__(self, "imputation", imputation)
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        hidden_sizes = _hidden_sizes_of(layer_stack(self.hidden_sizes), "hidden_sizes")
        object.__setattr__(self, "hidden_sizes", hidden_sizes)


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _read_older_shape_key(payload: dict) -> dict:
    """``payload`` with an older config's ``layer_sizes`` key, a full layer
    stack, read as the ``hidden_sizes`` it sets; a ``null`` one is dropped.
    Such a key once won over ``hidden_sizes``, so it still does, but a file
    whose ``hidden_sizes`` is neither the default nor the stack's interior
    sets two shapes and is refused."""
    rest = {key: value for key, value in payload.items() if key != "layer_sizes"}
    stack = payload.get("layer_sizes")
    if stack is None:
        return rest
    hidden = _hidden_sizes_of(stack, "layer_sizes")
    given = rest.get("hidden_sizes", DEFAULT_HIDDEN_SIZES)
    if not _is_size_list(given):
        return rest  # RunConfig refuses the malformed hidden_sizes
    if tuple(given) not in (DEFAULT_HIDDEN_SIZES, hidden):
        raise ConfigError(
            f"layer_sizes {list(stack)} and hidden_sizes {list(given)} set different "
            f"hidden layers; keep only hidden_sizes"
        )
    return {**rest, "hidden_sizes": hidden}


def load_run_config(path) -> RunConfig:
    """Read a flat JSON config; unknown keys are rejected outright and the
    rest are checked by :class:`RunConfig`."""
    payload = _read_json(path, ConfigError)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    try:
        payload = _read_older_shape_key(payload)
        unknown = sorted(set(payload) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return RunConfig(**payload)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def merge_config(args: argparse.Namespace) -> RunConfig:
    """File config (if any), checked whole, under flag overrides; the path
    flags are checked first, before any file is read."""
    for dest in _PATH_FLAGS:
        _check_path(getattr(args, dest, None), f"--{dest.replace('_', '-')}")
    base = load_run_config(args.config) if getattr(args, "config", None) else None
    # every flag but --layers stores under its config key
    overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
    if getattr(args, "layers", None) is not None:
        try:
            stack = [_ascii_int(v) for v in args.layers.split(",")]
        except argparse.ArgumentTypeError:
            raise ConfigError(
                f"--layers must be a comma-separated list of integers, got {args.layers!r}"
            ) from None
        overrides["hidden_sizes"] = _hidden_sizes_of(stack, "--layers")
    return RunConfig(**overrides) if base is None else replace(base, **overrides)


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ConfigError(f"missing required setting {name!r} (flag or config file)")


def _prepare_out_dir(config: RunConfig) -> Path:
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    hdata._write_json(out_dir / EFFECTIVE_CONFIG_NAME, asdict(config))
    return out_dir


def _load_and_impute(config: RunConfig) -> Dataset:
    dataset = load_dataset(config.data, label_policy=config.label_policy)
    for warning in dataset.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    try:
        dataset = hdata.impute(dataset, config.imputation)
        if not len(dataset):
            raise hdata.ImputationError("every row has a missing cell, so no row is left")
    except hdata.ImputationError as exc:
        raise hdata.ImputationError(f"{config.data}: {exc}") from None
    return dataset


def _fit_scaler(config: RunConfig, dataset: Dataset) -> hdata.Scaler:
    """The scaler of the whole table; a column whose span float64 cannot
    hold is a data error naming the table."""
    try:
        return hdata.fit_scaler(dataset)
    except hdata.ValidationError as exc:
        raise hdata.ValidationError(f"{config.data}: {exc}") from None


def _format_confusion(confusion) -> str:
    matrix = np.asarray(confusion)
    lines = ["confusion matrix (rows = true class, columns = predicted):"]
    lines.append("        " + "".join(f"{'pred ' + str(j):>8}" for j in range(matrix.shape[1])))
    for i, row in enumerate(matrix):
        lines.append(f"true {i:>2} " + "".join(f"{int(v):>8}" for v in row))
    return "\n".join(lines)


def cmd_scale(config: RunConfig, args: argparse.Namespace) -> int:
    """Fit the min-max scaler on the whole file and write the scaler plus
    the scaled table for inspection."""
    _require(config, "data", "out")
    dataset = _load_and_impute(config)
    scaler = _fit_scaler(config, dataset)
    out_dir = _prepare_out_dir(config)
    save_scaler(scaler, out_dir / "scaler.json")

    scaled = scaler.transform(dataset.features)
    rows = (
        [*map(repr, row.tolist()), int(label)]
        for row, label in zip(scaled, dataset.labels)
    )
    header = [*(col.name for col in hdata.HEART_SCHEMA), "label"]
    hdata._write_csv(out_dir / "scaled.csv", header, rows)

    print(f"scaled {len(dataset)} rows, {hdata.N_ATTRIBUTES} columns")
    if scaler.degenerate_columns:
        print(f"constant columns mapped to 0: {', '.join(scaler.degenerate_columns)}")
    print(f"wrote {out_dir / 'scaler.json'} and {out_dir / 'scaled.csv'}")
    return EXIT_OK


def cmd_train(config: RunConfig, args: argparse.Namespace) -> int:
    """Full pipeline: load, impute, scale, train, persist artifacts."""
    _require(config, "data", "out")
    sizes = layer_stack(config.hidden_sizes)
    dataset = _load_and_impute(config)
    scaler = _fit_scaler(config, dataset)
    network = new_network(sizes, config.seed)
    out_dir = _prepare_out_dir(config)

    inputs = scaler.transform(dataset.features)
    targets = hdata.encode_labels(dataset.labels)
    history = train(network, inputs, targets, config)

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
    try:
        _hidden_sizes_of(network.layer_sizes, args.model)
    except ConfigError as exc:
        raise hdata.FormatError(str(exc)) from None
    scaler = load_scaler(args.scaler)
    dataset = _load_and_impute(config)

    x = dataset.features
    out_of_range = int(((x < scaler.mins) | (x > scaler.maxs)).any(axis=1).sum())
    try:
        scaled = scaler.transform(x)
    except hdata.ValidationError as exc:  # a span too small for this table's values
        raise hdata.FormatError(f"{args.scaler}: {exc}") from None
    metrics = evaluate(network, scaled, dataset.labels)

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
        hdata._write_json(args.json_out, payload)
        print(f"wrote {args.json_out}")
    return EXIT_OK


def cmd_experiment(config: RunConfig, args: argparse.Namespace) -> int:
    """Run the split-grid comparison of single vs multi layer networks."""
    _require(config, "data", "out")
    if not config.hidden_sizes:
        raise ConfigError(
            "hidden_sizes is empty, so the multi-layer network would be the single-layer "
            "one; experiment needs at least one hidden layer"
        )
    dataset = _load_and_impute(config)
    try:
        check_splits(len(dataset), config.splits)
        hdata.fit_scaler(dataset)  # no split's span is wider than the table's
    except hdata.ValidationError as exc:
        raise hdata.ValidationError(f"{config.data}: {exc}") from None
    out_dir = _prepare_out_dir(config)

    report = run_experiment(
        dataset,
        splits=config.splits,
        config=config,
        hidden_sizes=config.hidden_sizes,
        imputation_policy=config.imputation,
    )
    export_report(report, out_dir / "report.csv")
    print(format_report(report, binary=args.binary))
    print(f"wrote {out_dir / 'report.csv'}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``heartnet`` argument parser, built on the first call and
    returned by every later one.  Parsing leaves it unchanged, and
    argparse reads ``sys.stdout``, ``sys.stderr`` and the terminal width
    only when it prints, so one parser serves every :func:`main` call in
    a process.  This saves time only for a caller that calls ``main``
    more than once; the ``heartnet`` script calls it once per process."""
    parser = argparse.ArgumentParser(
        prog="heartnet",
        description="Feedforward neural-network classifier for the heart-disease table",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out=True, layers=False):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--data", help="input CSV path")
        if out:
            p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=_ascii_int, help="RNG seed (default 0)")
        p.add_argument(
            "--impute",
            dest="imputation",
            choices=["drop", "median"],
            help="missing-value policy: drop rows or fill median/mode",
        )
        p.add_argument(
            "--labels",
            dest="label_policy",
            choices=list(_LABEL_POLICIES),
            help="out-of-range class labels: reject or clamp into 0..3",
        )
        if layers:
            p.add_argument(
                "--layers",
                help="comma-separated layer sizes, e.g. 13,8,2 (default: 13,8,2)",
            )

    p_scale = sub.add_parser("scale", help="fit and export the min-max scaler")
    add_common(p_scale)

    p_train = sub.add_parser("train", help="train a network and save the artifacts")
    add_common(p_train, layers=True)

    p_eval = sub.add_parser("evaluate", help="score a saved model on a data file")
    add_common(p_eval, out=False)
    p_eval.add_argument("--model", required=True, help="model.json path")
    p_eval.add_argument("--scaler", required=True, help="scaler.json path")
    p_eval.add_argument("--binary", action="store_true", help="also print normal-vs-abnormal efficiency")
    p_eval.add_argument("--json-out", help="optional metrics JSON path")

    p_exp = sub.add_parser(
        "experiment", help="single vs multi layer comparison over the split grid"
    )
    add_common(p_exp, layers=True)
    p_exp.add_argument("--binary", action="store_true", help="add the binary-efficiency column")

    return parser


# Each handler takes the merged config and the parsed flags; argparse's
# required subparsers exit 2 on any other command.
_COMMANDS = {
    "scale": cmd_scale,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](merge_config(args), args)
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
