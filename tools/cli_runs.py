"""Run a fixed list of heartnet command lines and keep what each one did.

Every run calls ``heartnet.cli.main`` in this process, with the working
directory set to OUTDIR and only relative paths, on a copy of the bundled
fixture (``heart.csv``) and a few tables and files derived from it.  For
each run ``<name>`` the tool saves ``<name>.out``, ``<name>.err`` and
``<name>.code`` (stdout, stderr and exit code); a run that writes
artifacts writes them into ``<name>/``.  Nothing in OUTDIR depends on
where the checkout lives or how wide the terminal is (help text is
wrapped at ``COLUMNS=80``), so two checkouts compare with ``diff -r``::

    PYTHONPATH=<parent>/src python tools/cli_runs.py <dir-a>
    PYTHONPATH=<change>/src python tools/cli_runs.py <dir-b>
    diff -r <dir-a> <dir-b>

``heartnet`` must come from a ``PYTHONPATH`` entry: a checkout's
``src``, or the ``site-packages`` of an installed copy named on purpose,
never an installed copy found by default.  Exit status: 0 when every run exits with the code
listed for it, no run that fails on its config or data (exit 2 or 3)
leaves its ``--out`` behind, a diverged run (exit 4) leaves only its
``effective_config.json``, and each rerun of an earlier run's config,
like the runs on that run's table with ``\\x1f``-padded cells and with
CRLF line ends, writes that run's ``model.json`` and ``history.csv``
byte for byte; 1 otherwise (each such run is named on stderr); 2 when
``heartnet`` cannot be imported from ``PYTHONPATH`` or OUTDIR is
missing from the command line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

FEW_EPOCHS = {"max_epochs": 6}

# An echo as heartnet wrote it while a config held the full layer stack in
# ``layer_sizes``, which won over ``hidden_sizes``; it must still rerun the same.
PARENT_ECHO = {
    "initial_lr": 0.1, "momentum": 0.9, "lr_increase": 1.05, "lr_decrease": 0.7,
    "max_sse_rise": 0.04, "max_epochs": 6, "target_sse": 0.01, "seed": 0,
    "data": "heart.csv", "out": "train-13-16-8-2-s0", "imputation": "median_mode",
    "label_policy": "clamp", "layer_sizes": [13, 16, 8, 2], "hidden_sizes": [8],
    "splits": [[100, 300], [150, 200], [250, 150], [350, 100]],
}
CONFIGS = {
    "few.json": FEW_EPOCHS,
    "one_split.json": {**FEW_EPOCHS, "splits": [[100, 200]]},
    "parent_echo.json": PARENT_ECHO,
    "shape_conflict.json": {**FEW_EPOCHS, "layer_sizes": [13, 4, 2], "hidden_sizes": [6]},
    "no_splits.json": {**FEW_EPOCHS, "splits": []},
    "too_wide.json": {**FEW_EPOCHS, "hidden_sizes": [1025]},  # one over network.MAX_WIDTH
    # every epoch is accepted and multiplies the rate by 1e300, until the SSE is not finite
    "diverge.json": {"max_epochs": 20, "lr_increase": 1e300, "max_sse_rise": 1e300},
    "lr_too_large.json": {**FEW_EPOCHS, "initial_lr": 10**400},  # more than a float64 holds
    # a rate that cannot train: refused, not left to diverge
    "lr_infinite.json": {**FEW_EPOCHS, "initial_lr": float("inf")},
    "lr_increase_infinite.json": {**FEW_EPOCHS, "lr_increase": float("inf")},
}

TRAIN_RUNS = [
    (f"train-{layers.replace(',', '-')}-s{seed}",
     ["train", "--config", "few.json", "--data", "heart.csv", "--layers", layers,
      "--seed", str(seed)], 0)
    for layers in ("13,2", "13,8,2", "13,16,8,2")
    for seed in range(4)
]
TRAINED = "train-13-8-2-s0"
MODEL_AND_SCALER = ["--model", f"{TRAINED}/model.json", "--scaler", f"{TRAINED}/scaler.json"]

# (name, argv without --out, expected exit code); a run of a subcommand
# that writes files gets ``--out <name>``.  Later runs read earlier runs'
# artifacts, so the order matters.
RUNS = TRAIN_RUNS + [
    ("experiment-binary",
     ["experiment", "--config", "few.json", "--data", "heart.csv", "--binary"], 0),
    ("train-drop", ["train", "--config", "few.json", "--data", "heart.csv", "--impute", "drop"], 0),
    ("experiment-one-split",  # one network per architecture: a one-row stack
     ["experiment", "--config", "one_split.json", "--data", "heart.csv"], 0),
    ("experiment-drop",
     ["experiment", "--config", "few.json", "--data", "heart.csv", "--impute", "drop"], 0),
    # a 1-layer and a 3-layer network in one stack: levels of unequal depth
    ("experiment-13-16-8-2",
     ["experiment", "--config", "few.json", "--data", "heart.csv", "--layers", "13,16,8,2"], 0),
    ("evaluate-drop", ["evaluate", "--data", "heart.csv", "--impute", "drop", *MODEL_AND_SCALER], 0),
    ("scale", ["scale", "--data", "heart.csv"], 0),
    ("scale-constant-column", ["scale", "--data", "constant_fbs.csv"], 0),
    # Chol's two middle values sum past float64's range; the median fill is
    # their midpoint, which is finite
    ("scale-overflowing-median", ["scale", "--data", "overflowing_chol.csv"], 0),
    ("evaluate-overflowing-median",
     ["evaluate", "--data", "overflowing_chol.csv", *MODEL_AND_SCALER], 0),
    ("evaluate-json-out",
     ["evaluate", "--data", "heart.csv", "--binary", *MODEL_AND_SCALER,
      "--json-out", "evaluate-json-out.json"], 0),
    ("rerun-from-echo", ["train", "--config", f"{TRAINED}/effective_config.json"], 0),
    ("rerun-parent-echo", ["train", "--config", "parent_echo.json"], 0),
    # cells padded with "\x1f", which np.loadtxt strips as str.strip() does:
    # the bulk parse reads them as the plain table
    ("train-padded-cells",
     ["train", "--config", "few.json", "--data", "padded.csv", "--layers", "13,8,2",
      "--seed", "0"], 0),
    # a line ends at "\n" only; the "\r" of a CRLF line end is stripped
    ("train-crlf-line-ends",
     ["train", "--config", "few.json", "--data", "crlf.csv", "--layers", "13,8,2",
      "--seed", "0"], 0),
    # error runs
    ("seed-negative", ["train", "--data", "heart.csv", "--seed", "-1"], 2),
    ("scaler-swapped-columns",
     ["evaluate", "--data", "heart.csv", "--model", f"{TRAINED}/model.json",
      "--scaler", "swapped_scaler.json"], 3),
    # max - min of Chol is more than a float64 holds
    ("scaler-span-too-wide",
     ["evaluate", "--data", "heart.csv", "--model", f"{TRAINED}/model.json",
      "--scaler", "wide_span_scaler.json"], 3),
    # dividing a Chol value by max - min overflows
    ("scaler-span-too-small",
     ["evaluate", "--data", "heart.csv", "--model", f"{TRAINED}/model.json",
      "--scaler", "small_span_scaler.json"], 3),
    # the table's own Chol span is more than a float64 holds: no scaler fits it
    ("table-span-too-wide",
     ["train", "--config", "few.json", "--data", "wide_chol_span.csv"], 3),
    # the table's Chol span holds, but a split that holds out the one 200
    # scales it by the span 0..5e-324 of its training rows, to inf
    ("held-out-span-too-small",
     ["experiment", "--config", "few.json", "--data", "tiny_chol_span.csv"], 3),
    ("model-12-inputs",
     ["evaluate", "--data", "heart.csv", "--model", "model_12_inputs.json",
      "--scaler", f"{TRAINED}/scaler.json"], 3),
    *[(f"all-dropped-{command}",
       [command, "--config", "few.json", "--data", "no_ca.csv", "--impute", "drop"], 3)
      for command in ("scale", "train", "experiment")],
    ("all-dropped-evaluate",
     ["evaluate", "--data", "no_ca.csv", "--impute", "drop", *MODEL_AND_SCALER], 3),
    ("too-small-table", ["experiment", "--config", "few.json", "--data", "tiny.csv"], 3),
    ("shape-conflict", ["train", "--config", "shape_conflict.json", "--data", "heart.csv"], 2),
    ("splits-empty", ["experiment", "--config", "no_splits.json", "--data", "heart.csv"], 2),
    ("experiment-no-hidden",
     ["experiment", "--config", "few.json", "--data", "heart.csv", "--layers", "13,2"], 2),
    ("bad-table-row", ["train", "--config", "few.json", "--data", "bad_row.csv"], 3),
    # numbers to float() and int() alone, but not ASCII decimal digits
    ("underscore-cell", ["train", "--config", "few.json", "--data", "underscore_cell.csv"], 3),
    ("fullwidth-cell", ["train", "--config", "few.json", "--data", "fullwidth_cell.csv"], 3),
    ("seed-underscore", ["train", "--data", "heart.csv", "--seed", "1_0"], 2),
    # line 1 ends in a form feed, which str.splitlines also breaks at: the
    # bad cell is still named on line 5
    ("form-feed-line-end", ["train", "--config", "few.json", "--data", "form_feed.csv"], 3),
    ("record-separator-cell",
     ["train", "--config", "few.json", "--data", "record_separator_cell.csv"], 3),
    # only a cell that is "?" alone is missing; np.loadtxt reads "-nan" as NaN
    ("signed-missing-cell",
     ["train", "--config", "few.json", "--data", "signed_missing_cell.csv"], 3),
    ("cr-only-line-ends", ["scale", "--data", "cr_only.csv"], 3),
    # wider than network.MAX_WIDTH: refused before the table is read
    ("layers-too-wide",
     ["train", "--data", "heart.csv", "--layers", "13,1000000000000000000000000000000,2"], 2),
    ("hidden-sizes-too-wide", ["experiment", "--config", "too_wide.json", "--data", "heart.csv"], 2),
    ("initial-lr-too-large", ["train", "--config", "lr_too_large.json", "--data", "heart.csv"], 2),
    ("initial-lr-infinite", ["train", "--config", "lr_infinite.json", "--data", "heart.csv"], 2),
    ("lr-increase-infinite",
     ["train", "--config", "lr_increase_infinite.json", "--data", "heart.csv"], 2),
    # heart.csv is a regular file, so nothing can be written under it
    ("json-out-under-a-file",
     ["evaluate", "--data", "heart.csv", *MODEL_AND_SCALER, "--json-out", "heart.csv/m.json"], 5),
    # "" names no file; it is refused before the model is read
    ("json-out-empty", ["evaluate", "--data", "heart.csv", *MODEL_AND_SCALER, "--json-out", ""], 2),
    ("diverges", ["train", "--config", "diverge.json", "--data", "heart.csv"], 4),
    ("experiment-diverges", ["experiment", "--config", "diverge.json", "--data", "heart.csv"], 4),
    # help and usage text, printed by a parser that earlier runs have used
    ("train-help", ["train", "--help"], 0),
    ("no-subcommand", [], 2),
    ("impute-unknown", ["train", "--data", "heart.csv", "--impute", "zeros"], 2),
]

# What a failing run leaves at its --out, by exit code: a run refused for
# its config or data stops before --out is made, but a diverged train or
# experiment has already written its echo.  The one i/o error run is an
# evaluate, which has no --out.
LEFT_BEHIND = {2: None, 3: None, 4: ["effective_config.json"], 5: None}

# rerun -> the earlier run whose model.json and history.csv it must write byte for byte
RERUNS = {
    "rerun-from-echo": TRAINED,
    "rerun-parent-echo": "train-13-16-8-2-s0",
    "train-padded-cells": TRAINED,
    "train-crlf-line-ends": TRAINED,
}


def _import_heartnet():
    """``heartnet`` with its ``cli`` and ``network``, imported from a
    ``PYTHONPATH`` entry; None, with the reason on stderr, if it is not."""
    try:
        import heartnet
        import heartnet.cli
        import heartnet.network
    except ImportError as exc:
        print(f"cli_runs: {exc}; put a checkout's src on PYTHONPATH", file=sys.stderr)
        return None
    roots = {Path(p).resolve() for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
    source = Path(heartnet.__file__).resolve().parent.parent
    if source not in roots:
        print(f"cli_runs: heartnet was imported from {source}, not from PYTHONPATH",
              file=sys.stderr)
        return None
    return heartnet


def _write_inputs(heartnet) -> None:
    """The fixture and the files derived from it, in the working directory."""
    fixture = heartnet.bundled_fixture_path()
    shutil.copyfile(fixture, "heart.csv")
    for name, payload in CONFIGS.items():
        Path(name).write_text(json.dumps(payload), encoding="utf-8")
    rows = [line.split(",") for line in fixture.read_text(encoding="utf-8").splitlines()]

    def write_table(name, table):
        Path(name).write_text("".join(",".join(cells) + "\n" for cells in table), encoding="utf-8")

    for name, column, value, n_rows in (("constant_fbs", 5, "1", None), ("no_ca", 11, "?", 20)):
        write_table(f"{name}.csv",
                    [[*cells[:column], value, *cells[column + 1:]] for cells in rows[:n_rows]])
    write_table("tiny.csv", rows[:3])  # too few rows for the default split grid
    chol = rows[4][4]
    full_width = chol.translate(str.maketrans("0123456789", "０１２３４５６７８９"))
    for name, cell in (("bad_row", "high"), ("underscore_cell", f"{chol[0]}_{chol[1:]}"),
                       ("fullwidth_cell", full_width),
                       ("record_separator_cell", f"{chol[0]}\x1e{chol[1:]}"),
                       ("signed_missing_cell", "-?")):
        write_table(f"{name}.csv", [*rows[:4], [*rows[4][:4], cell, *rows[4][5:]], *rows[5:]])
    write_table("wide_chol_span.csv", [[*rows[0][:4], "-1.5e308", *rows[0][5:]],
                                       [*rows[1][:4], "1.5e308", *rows[1][5:]], *rows[2:]])
    write_table("tiny_chol_span.csv",
                [[*cells[:4], "200" if i == 7 else ("5e-324", "0", "0")[i % 3], *cells[5:]]
                 for i, cells in enumerate(rows)])
    write_table("overflowing_chol.csv",
                [[*cells[:4], "?" if i == 0 else ("1.6e308", "1.7e308")[i % 2 == 0], *cells[5:]]
                 for i, cells in enumerate(rows)])
    write_table("form_feed.csv",
                [[*rows[0][:-1], rows[0][-1] + "\f"], *rows[1:4],
                 [*rows[4][:4], "high", *rows[4][5:]], *rows[5:]])
    text = Path("heart.csv").read_text(encoding="utf-8")
    Path("crlf.csv").write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    Path("cr_only.csv").write_bytes(text.replace("\n", "\r").encode("utf-8"))
    write_table("padded.csv", [[f"\x1f{cell}\x1f" for cell in cells] for cells in rows])
    names = [col.name for col in heartnet.HEART_SCHEMA]
    names[0], names[3] = names[3], names[0]  # Age <-> Trestbps
    swapped = {name: {"min": 0, "max": 1} for name in names}
    Path("swapped_scaler.json").write_text(json.dumps(swapped), encoding="utf-8")
    for name, chol in (("wide_span", (-1.5e308, 1.5e308)), ("small_span", (0, 1e-307))):
        bounds = {col.name: {"min": 0, "max": 1} for col in heartnet.HEART_SCHEMA}
        bounds["Chol"] = dict(zip(("min", "max"), chol))
        Path(f"{name}_scaler.json").write_text(json.dumps(bounds), encoding="utf-8")
    heartnet.network.save_network(heartnet.network.new_network((12, 8, 2), 0),
                                  "model_12_inputs.json")


def _run(main, name: str, argv: list[str]) -> str:
    """Run ``main(argv)``, save its stdout, stderr and exit code under
    ``name`` and return the code as text; an escaped exception is saved
    as its traceback, with code ``exception``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except Exception:
            traceback.print_exc()
            code = "exception"
    for suffix, text in ((".out", out.getvalue()), (".err", err.getvalue()), (".code", code + "\n")):
        Path(name + suffix).write_text(text, encoding="utf-8")
    return code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: PYTHONPATH=<checkout>/src python tools/cli_runs.py OUTDIR", file=sys.stderr)
        return 2
    heartnet = _import_heartnet()
    if heartnet is None:
        return 2
    outdir = Path(args[0])
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    _write_inputs(heartnet)
    os.environ["COLUMNS"] = "80"  # help text wraps the same from any terminal
    failed = set()
    for name, run_argv, expected in RUNS:
        writes_out = bool(run_argv) and run_argv[0] != "evaluate"
        code = _run(heartnet.cli.main, name, run_argv + (["--out", name] if writes_out else []))
        if code != str(expected):
            print(f"cli_runs: {name} exited {code}, expected {expected}", file=sys.stderr)
            failed.add(name)
        elif expected and _left_behind(name) != LEFT_BEHIND[expected]:
            print(f"cli_runs: {name} failed but left {_left_behind(name)} at its --out",
                  file=sys.stderr)
            failed.add(name)
    for rerun, original in RERUNS.items():
        differ = [artifact for artifact in ("model.json", "history.csv")
                  if not _same_bytes(Path(rerun, artifact), Path(original, artifact))]
        if differ:
            print(f"cli_runs: {rerun}'s {' and '.join(differ)} differ from {original}'s",
                  file=sys.stderr)
            failed.add(rerun)
    print(f"cli_runs: {len(RUNS) - len(failed)} of {len(RUNS)} runs did as expected")
    return 1 if failed else 0


def _left_behind(name: str) -> list[str] | None:
    """The files in run ``name``'s --out, or None if it has none."""
    out = Path(name)
    return sorted(path.name for path in out.iterdir()) if out.is_dir() else None


def _same_bytes(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


if __name__ == "__main__":
    sys.exit(main())
