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

``heartnet`` must come from a ``PYTHONPATH`` entry, never from an
installed copy.  Exit status: 0 when every run exits with the code
listed for it and no failing run leaves its ``--out`` behind, 1
otherwise (each such run is named on stderr), 2 when ``heartnet``
cannot be imported from ``PYTHONPATH`` or OUTDIR is missing from the
command line.
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
    ("experiment-one-split",  # one network per stack: the single-network kernel
     ["experiment", "--config", "one_split.json", "--data", "heart.csv"], 0),
    ("experiment-drop",
     ["experiment", "--config", "few.json", "--data", "heart.csv", "--impute", "drop"], 0),
    ("evaluate-drop", ["evaluate", "--data", "heart.csv", "--impute", "drop", *MODEL_AND_SCALER], 0),
    ("scale", ["scale", "--data", "heart.csv"], 0),
    ("scale-constant-column", ["scale", "--data", "constant_fbs.csv"], 0),
    ("evaluate-json-out",
     ["evaluate", "--data", "heart.csv", "--binary", *MODEL_AND_SCALER,
      "--json-out", "evaluate-json-out.json"], 0),
    ("rerun-from-echo", ["train", "--config", f"{TRAINED}/effective_config.json"], 0),
    # error runs
    ("seed-negative", ["train", "--data", "heart.csv", "--seed", "-1"], 2),
    ("scaler-swapped-columns",
     ["evaluate", "--data", "heart.csv", "--model", f"{TRAINED}/model.json",
      "--scaler", "swapped_scaler.json"], 3),
    ("model-12-inputs",
     ["evaluate", "--data", "heart.csv", "--model", "model_12_inputs.json",
      "--scaler", f"{TRAINED}/scaler.json"], 3),
    *[(f"all-dropped-{command}",
       [command, "--config", "few.json", "--data", "no_ca.csv", "--impute", "drop"], 3)
      for command in ("scale", "train", "experiment")],
    ("all-dropped-evaluate",
     ["evaluate", "--data", "no_ca.csv", "--impute", "drop", *MODEL_AND_SCALER], 3),
    ("too-small-table", ["experiment", "--config", "few.json", "--data", "tiny.csv"], 3),
    # help and usage text, printed by a parser that earlier runs have used
    ("train-help", ["train", "--help"], 0),
    ("no-subcommand", [], 2),
    ("impute-unknown", ["train", "--data", "heart.csv", "--impute", "zeros"], 2),
]


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
    Path("few.json").write_text(json.dumps(FEW_EPOCHS), encoding="utf-8")
    Path("one_split.json").write_text(
        json.dumps({**FEW_EPOCHS, "splits": [[100, 200]]}), encoding="utf-8"
    )
    rows = [line.split(",") for line in fixture.read_text(encoding="utf-8").splitlines()]
    for name, column, value, n_rows in (("constant_fbs", 5, "1", None), ("no_ca", 11, "?", 20)):
        table = [[*cells[:column], value, *cells[column + 1:]] for cells in rows[:n_rows]]
        Path(f"{name}.csv").write_text(
            "".join(",".join(cells) + "\n" for cells in table), encoding="utf-8"
        )
    Path("tiny.csv").write_text(  # too few rows for the default split grid
        "".join(",".join(cells) + "\n" for cells in rows[:3]), encoding="utf-8"
    )
    names = [col.name for col in heartnet.HEART_SCHEMA]
    names[0], names[3] = names[3], names[0]  # Age <-> Trestbps
    swapped = {name: {"min": 0, "max": 1} for name in names}
    Path("swapped_scaler.json").write_text(json.dumps(swapped), encoding="utf-8")
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
    failed = 0
    for name, run_argv, expected in RUNS:
        writes_out = bool(run_argv) and run_argv[0] != "evaluate"
        code = _run(heartnet.cli.main, name, run_argv + (["--out", name] if writes_out else []))
        if code != str(expected):
            print(f"cli_runs: {name} exited {code}, expected {expected}", file=sys.stderr)
            failed += 1
        elif expected and Path(name).exists():
            print(f"cli_runs: {name} failed but left its --out behind", file=sys.stderr)
            failed += 1
    print(f"cli_runs: {len(RUNS) - failed} of {len(RUNS)} runs exited as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
