"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import argparse
import csv
import json
import math
import re
import tempfile
from dataclasses import asdict, fields
from itertools import chain, count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartnet import cli
from heartnet.cli import (
    EXIT_DATA,
    EXIT_DIVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    RunConfig,
    load_run_config,
    main,
    merge_config,
)
from heartnet.data import bundled_fixture_path, fit_scaler, impute, load_dataset, save_scaler
from heartnet.network import MAX_WIDTH, new_network, save_network
from heartnet.trainer import TrainConfig, train

FIXTURE = str(bundled_fixture_path())


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def quick_config(tmp_path, **extra):
    payload = {"max_epochs": 4, "target_sse": 0.0}
    payload.update(extra)
    return write_config(tmp_path, payload)


def overflowing_chol_table(tmp_path):
    """The fixture with Chol missing on line 1 and 1.6e308 / 1.7e308,
    alternating, on the other lines: the two middle values' sum overflows,
    their midpoint 1.65e308 does not."""
    rows = [line.split(",") for line in bundled_fixture_path().read_text("utf-8").splitlines()]
    for line_no, cells in enumerate(rows, start=1):
        cells[4] = "?" if line_no == 1 else ("1.6e308" if line_no % 2 == 0 else "1.7e308")
    path = tmp_path / "overflowing_chol.csv"
    path.write_text("".join(",".join(cells) + "\n" for cells in rows), encoding="utf-8")
    return str(path)


class TestConfigPlumbing:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"learning_rate": 0.1})
        with pytest.raises(ConfigError, match="unknown config keys: learning_rate"):
            load_run_config(path)

    def test_bad_json_rejected(self, tmp_path, capsys):
        # not JSON, not UTF-8, and nested deeper than the parser recurses
        path = tmp_path / "c.json"
        out = tmp_path / "o"
        for content in (b"{", b'{"seed": "\xff"}', b"[" * 100_000):
            path.write_bytes(content)
            with pytest.raises(ConfigError, match=re.escape(f"{path}: not valid JSON")):
                load_run_config(str(path))
            code = main(["train", "--config", str(path), "--data", FIXTURE, "--out", str(out)])
            assert code == EXIT_USAGE
            assert f"config error: {path}: not valid JSON" in capsys.readouterr().err
            assert not out.exists()

    def test_policy_aliases(self, tmp_path):
        path = write_config(tmp_path, {"imputation": "drop"})
        assert load_run_config(path).imputation == "drop_rows"
        path = write_config(tmp_path, {"imputation": "median_mode"}, "c2.json")
        assert load_run_config(path).imputation == "median_mode"

    def test_flags_override_file(self, tmp_path):
        config = write_config(tmp_path, {"seed": 3, "max_epochs": 9, "hidden_sizes": [4]})
        args = cli.build_parser().parse_args([
            "train", "--config", config, "--seed", "8", "--layers", "13,6,2",
            "--impute", "drop", "--labels", "strict",
        ])

        merged = merge_config(args)
        assert merged.seed == 8  # flag wins
        assert merged.max_epochs == 9  # file value survives
        assert merged.hidden_sizes == (6,)  # --layers sets the stack's interior
        assert merged.imputation == "drop_rows"
        assert merged.label_policy == "strict"

    def test_bad_layers_flag(self):
        args = cli.build_parser().parse_args(["train", "--layers", "13,two,2"])
        with pytest.raises(ConfigError, match="--layers"):
            merge_config(args)

    def test_round_trip_through_json(self):
        cfg = RunConfig(data="d.csv", out="runs", seed=5)
        payload = asdict(cfg)
        assert set(payload) <= {f for f in RunConfig.__dataclass_fields__}
        json.dumps(payload)

    def test_echo_reloads_as_the_same_config(self, tmp_path):
        cfg = RunConfig(
            data="d.csv", out="runs", hidden_sizes=(6, 5),
            splits=((20, 40),), initial_lr=0.3, max_epochs=7, seed=5,
        )
        assert load_run_config(write_config(tmp_path, asdict(cfg))) == cfg
        assert isinstance(RunConfig(), TrainConfig)

    def test_echo_in_the_older_key_order_reloads(self, tmp_path):
        # echoes once listed the run-level keys first and the training keys
        # last, and held the full layer stack as well as the hidden sizes
        values = {
            "data": "d.csv", "out": "runs", "imputation": "drop_rows", "label_policy": "strict",
            "layer_sizes": [13, 6, 2], "hidden_sizes": [6], "splits": [[20, 40]],
            "initial_lr": 0.3, "momentum": 0.5, "lr_increase": 1.1, "lr_decrease": 0.6,
            "max_sse_rise": 0.02, "max_epochs": 7, "target_sse": 0.5, "seed": 5,
        }
        settings = {key: value for key, value in values.items() if key != "layer_sizes"}
        assert set(settings) == {f.name for f in fields(RunConfig)}
        loaded = load_run_config(write_config(tmp_path, values))
        assert loaded == RunConfig(**settings)
        assert list(asdict(loaded))[:8] == [f.name for f in fields(TrainConfig)]
        assert json.loads(json.dumps(asdict(loaded))) == settings

    @pytest.mark.parametrize(
        "shape, hidden",
        [({"layer_sizes": [13, 4, 2], "hidden_sizes": [8]}, (4,)),  # the older key won
         ({"layer_sizes": [13, 4, 3, 2], "hidden_sizes": [4, 3]}, (4, 3)),
         ({"layer_sizes": [13, 2]}, ()),
         ({"layer_sizes": None, "hidden_sizes": [5]}, (5,))],
    )
    def test_older_layer_sizes_key_sets_hidden_sizes(self, tmp_path, shape, hidden):
        path = write_config(tmp_path, {"max_epochs": 6, "seed": 0, **shape})
        assert load_run_config(path) == RunConfig(max_epochs=6, hidden_sizes=hidden)

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_two_shapes_in_one_file_are_refused(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        path = write_config(
            tmp_path, {"max_epochs": 2, "layer_sizes": [13, 4, 2], "hidden_sizes": [6]}
        )
        code = main([command, "--config", path, "--data", FIXTURE, "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"config error: {path}: layer_sizes [13, 4, 2] and hidden_sizes [6] set "
            "different hidden layers; keep only hidden_sizes\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra", [("train", {}), ("experiment", {"splits": [[20, 40]]})]
    )
    def test_layers_flag_sets_hidden_sizes(self, tmp_path, command, extra):
        out = tmp_path / "o"
        path = write_config(tmp_path, {"max_epochs": 2, **extra})
        code = main([command, "--config", path, "--data", FIXTURE, "--out", str(out),
                     "--layers", "13,4,3,2"])
        assert code == EXIT_OK
        echo = json.loads((out / "effective_config.json").read_text(encoding="utf-8"))
        assert echo["hidden_sizes"] == [4, 3] and "layer_sizes" not in echo
        assert set(echo) == {f.name for f in fields(RunConfig)}

    def test_train_takes_a_run_config_as_its_train_config(self):
        settings = {"initial_lr": 0.2, "momentum": 0.8, "max_epochs": 12, "seed": 4}
        rng = np.random.default_rng(0)
        inputs, targets = rng.random((30, 13)), rng.integers(0, 2, (30, 2)).astype(float)
        results = []
        for config in (RunConfig(data="d.csv", **settings), TrainConfig(**settings)):
            network = new_network((13, 8, 2), 4)
            results.append((train(network, inputs, targets, config), network.params.tobytes()))
        (run_history, run_params), (train_history, train_params) = results
        assert run_history == train_history and run_params == train_params
        assert run_history.epochs_run == 12


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "scale" in capsys.readouterr().out

    # int() alone reads digit-group underscores and non-ASCII digits
    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "1_0"), ("--seed", "１０"), ("--layers", "13,8_0,2"), ("--layers", "13,８,2"),
         # ASCII digits, a sign and a dot or exponent: a number, but no int
         ("--seed", "1.5"), ("--seed", "1e3"), ("--layers", "13,8.0,2")],
    )
    def test_integer_flags_take_ascii_digits_only(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        assert main(["train", "--data", FIXTURE, "--out", str(out), flag, value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert flag in err and repr(value) in err
        assert not out.exists()

    def test_missing_required_setting(self, tmp_path, capsys):
        assert main(["train", "--data", FIXTURE]) == EXIT_USAGE
        assert "out" in capsys.readouterr().err
        # no fallback to the bundled fixture: --data is required too
        assert main(["train", "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "missing required setting 'data'" in capsys.readouterr().err

    def test_unknown_config_key_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"nope": 1})
        code = main(["train", "--config", path, "--data", FIXTURE, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    def test_nan_setting_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"initial_lr": float("nan")})  # written as NaN
        code = main(["train", "--config", path, "--data", FIXTURE, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "initial_lr must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"initial_lr": "0.1"}, "initial_lr"),
            ({"max_epochs": "3"}, "max_epochs"),
            ({"max_epochs": 2.5}, "max_epochs"),
            ({"max_epochs": True}, "max_epochs"),
            ({"seed": "x"}, "seed"),
            ({"target_sse": None}, "target_sse"),
            ({"momentum": False}, "momentum"),
            ({"data": 5}, "data"),
            ({"imputation": None}, "imputation"),
            # a file takes JSON lists; the comma string is --layers' format
            ({"layer_sizes": "13,8,2"}, "layer_sizes"),
            ({"hidden_sizes": "8"}, "hidden_sizes"),
            ({"layer_sizes": [13, 8, 2], "hidden_sizes": "8"}, "hidden_sizes"),
            ({"label_policy": "lenient"}, "label_policy"),  # a string, but no policy's name
            ({"data": ""}, "data"),  # "" names no file
            ({"out": ""}, "out"),
        ],
    )
    def test_wrong_type_is_config_error(self, tmp_path, capsys, payload, key):
        path = write_config(tmp_path, payload)
        code = main(["train", "--config", path, "--data", FIXTURE, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"layer_sizes": [13, 8.7, 2]}, "layer_sizes"),
            ({"layer_sizes": [13, 8.0, 2]}, "layer_sizes"),
            ({"hidden_sizes": [8.7]}, "hidden_sizes"),
            ({"hidden_sizes": [8.0]}, "hidden_sizes"),
            ({"splits": [[20.5, 40]]}, "splits"),
            ({"splits": [[20, 40.0]]}, "splits"),
        ],
    )
    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_fractional_list_entry_is_config_error(self, tmp_path, capsys, payload, key, command):
        # a fractional entry is refused, not truncated to a width-8 layer
        out = tmp_path / "o"
        path = write_config(tmp_path, {"max_epochs": 2, **payload})
        code = main([command, "--config", path, "--data", FIXTURE, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, payload, expected",
        [
            (["train"], {"initial_lr": float("nan")}, EXIT_USAGE),  # written as NaN
            (["experiment"], {"initial_lr": float("nan")}, EXIT_USAGE),
            (["train", "--layers", "10,4,2"], {}, EXIT_USAGE),
            (["train", "--layers", "13,8,3"], {}, EXIT_USAGE),
            (["train", "--layers", "13,4,4,4,4,2"], {}, EXIT_USAGE),  # over the layer cap
            (["experiment", "--layers", "13,4,4,4,4,2"], {}, EXIT_USAGE),
            (["experiment", "--layers", "99,8,7"], {}, EXIT_USAGE),
            (["experiment", "--layers", "13,8,3"], {}, EXIT_USAGE),
            (["train", "--layers", "13"], {}, EXIT_USAGE),
            (["train"], {"layer_sizes": []}, EXIT_USAGE),
            (["experiment"], {"layer_sizes": []}, EXIT_USAGE),
            (["train"], {"hidden_sizes": [4, 4, 4, 4]}, EXIT_USAGE),
            (["experiment"], {"hidden_sizes": [4, 4, 4, 4]}, EXIT_USAGE),
            (["experiment"], {"hidden_sizes": None}, EXIT_USAGE),
            (["experiment"], {"splits": None}, EXIT_USAGE),
            (["experiment"], {"splits": []}, EXIT_USAGE),
            (["train"], {"seed": -1}, EXIT_USAGE),
            (["experiment"], {"seed": -1}, EXIT_USAGE),
            (["train", "--seed", "-1"], {}, EXIT_USAGE),
            (["experiment", "--seed", "-1"], {}, EXIT_USAGE),
            (["scale", "--seed", "-1"], {}, EXIT_USAGE),
            (["scale"], {"layer_sizes": [13, 8, 3]}, EXIT_USAGE),
            (["scale"], {"initial_lr": -1}, EXIT_USAGE),
            (["train", "--seed", "3"], {"seed": -1}, EXIT_USAGE),  # file checked before flags
            # integers a float64 cannot hold
            *[([command], {key: 10**400}, EXIT_USAGE)
              for key in ("initial_lr", "lr_increase", "max_sse_rise")
              for command in ("train", "experiment")],
            (["train"], {"data": ""}, EXIT_USAGE),
            (["train"], {"out": ""}, EXIT_USAGE),
            # a rate that cannot train
            *[([command], {key: math.inf}, EXIT_USAGE)
              for key in ("initial_lr", "lr_increase")
              for command in ("train", "experiment")],
        ],
    )
    def test_rejected_config_leaves_no_out_dir(self, tmp_path, capsys, argv, payload, expected):
        out = tmp_path / "o"
        path = write_config(tmp_path, {"max_epochs": 2, **payload})
        code = main([*argv, "--config", path, "--data", FIXTURE, "--out", str(out)])
        assert code == expected
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("train", "--config"),
            ("train", "--data"),
            ("train", "--out"),
            ("experiment", "--out"),
            ("scale", "--out"),
            ("evaluate", "--data"),
            ("evaluate", "--model"),
            ("evaluate", "--scaler"),
            ("evaluate", "--json-out"),
        ],
    )
    def test_empty_path_flag_is_refused_before_any_file_is_touched(
        self, tmp_path, monkeypatch, capsys, command, flag
    ):
        # "" would name the working directory; every other path is absent,
        # so a run that got past the check would exit 5, not 2
        monkeypatch.chdir(tmp_path)
        given = {"--data": "absent.csv", "--out": "o"}
        if command == "evaluate":
            given = {"--data": "absent.csv", "--model": "m.json", "--scaler": "s.json"}
        given[flag] = ""
        assert main([command, *chain.from_iterable(given.items())]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"config error: {flag} must be a non-empty path"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("width", [MAX_WIDTH + 1, 10**30], ids=["cap+1", "1e30"])
    @pytest.mark.parametrize("command", ["train", "experiment"])
    @pytest.mark.parametrize("key", ["--layers", "hidden_sizes", "layer_sizes"])
    def test_too_wide_layer_is_a_config_error_naming_its_key(
        self, tmp_path, capsys, key, command, width
    ):
        # refused before the (absent) table is read or --out is made
        out, absent = tmp_path / "o", str(tmp_path / "absent.csv")
        argv = [command, "--data", absent, "--out", str(out)]
        if key == "--layers":
            argv += ["--layers", f"13,{width},2"]
        else:
            stack = [width] if key == "hidden_sizes" else [13, width, 2]
            argv += ["--config", write_config(tmp_path, {key: stack})]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{key}: layer sizes [13, {width}, 2]: a layer of {width} neurons" in err
        assert not out.exists()

    def test_evaluate_checks_config_before_reading_the_model(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        code = main(["evaluate", "--seed", "-1", "--data", FIXTURE,
                     "--model", absent, "--scaler", absent])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error:")


# One value of each kind a JSON config can hold, and edge values of each
# kind: integers a float64 cannot hold, one past int64, a subnormal float.
CONFIG_VALUES = {
    "1e400": 10**400,
    "-1e400": -(10**400),
    "2**63": 2**63,
    "-1": -1,
    "0": 0,
    "1e-320": 1e-320,
    "NaN": math.nan,
    "Infinity": math.inf,
    "-Infinity": -math.inf,
    "true": True,
    "false": False,
    "null": None,
    "empty": "",
    "string": "abc",
    "[]": [],
    "[1]": [1],
    "[[1,1]]": [[1, 1]],
    "{}": {},
}


class TestEveryConfigValue:
    """Each key a config file takes, set to each value of
    :data:`CONFIG_VALUES`, runs through ``main`` in-process: every run
    ends in a documented exit code, a refused config names its key and
    writes nothing, and a finished run writes nothing outside ``--out``."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """A directory holding the 30-row table and one directory per run."""
        runs = tmp_path_factory.mktemp("runs")
        with open(FIXTURE, encoding="utf-8") as fixture:
            table = "".join(next(fixture) for _ in range(30))
        (runs / "table.csv").write_text(table, encoding="utf-8")
        return runs

    @pytest.mark.parametrize("value", CONFIG_VALUES.values(), ids=CONFIG_VALUES.keys())
    @pytest.mark.parametrize("key", [*(f.name for f in fields(RunConfig)), "layer_sizes"])
    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_one_key_set_to_one_value(self, runs, monkeypatch, capsys, command, key, value):
        # not tmp_path, whose numbered directories take longer than the run
        cwd = Path(tempfile.mkdtemp(dir=runs))
        monkeypatch.chdir(cwd)
        payload = {"max_epochs": 2, key: value}
        if key == "max_epochs" and isinstance(value, int) and value > 3:
            # a valid cap this high would train until a locked run reached
            # it; the first accepted epoch meets an infinite target
            payload["target_sse"] = math.inf
        write_config(cwd, payload)
        argv = [command, "--config", "config.json"]
        # a flag overrides the file, so the key under test is left unflagged
        if key != "data":
            argv += ["--data", str(runs / "table.csv")]
        if key != "out":
            argv += ["--out", "out"]
        code = main(argv)
        assert code in {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_DIVERGENCE, EXIT_IO}
        err = capsys.readouterr().err
        left = sorted(path.name for path in cwd.iterdir())
        if code == EXIT_USAGE:
            last = err.splitlines()[-1]
            assert last.startswith("config error:") and key in last
            assert left == ["config.json"]
        if code == EXIT_OK:
            assert left == sorted(["config.json", value if key == "out" else "out"])


# the values a flag is drawn from, by its argparse dest: each good one,
# then odd ones; "{n}" becomes a number no earlier run used
GOOD_FLAG_VALUES = {
    "config": ["two_epochs.json"],
    "data": ["table.csv"],
    "out": ["out{n}"],
    "model": ["trained/model.json"],
    "scaler": ["trained/scaler.json"],
    "json_out": ["metrics{n}.json"],
    "seed": ["0", "3"],
    "layers": ["13,8,2", "13,2", "13,16,8,2"],
}
ODD_PATHS = ["", ".", " ", "-", "--", "absent.csv", "absent/deeper/file", "table.csv/below"]
ODD_FLAG_VALUES = {
    # none of these is a config that trains, so no run trains past 2 epochs
    "config": ["table.csv", "trained/model.json", "list.json"],
    "data": ["trained/model.json", "bad_cell.csv"],
    "out": ["table.csv", "new/deeper/out{n}"],
    "model": ["table.csv", "trained/scaler.json"],
    "scaler": ["trained/model.json", "wide_span_scaler.json"],
    "json_out": ["trained", "absent/metrics.json"],
    "seed": ["-1", "-0", "+4", " 2 ", "1_0", "１", "1.5", "0x10", "nan", "", "9" * 30],
    "layers": ["", "13,,2", "13,1025,2", "x", "13, 8, 2", "-1", "13,8", "１３,2", "13,0,2",
               "2,8,13", "13,8,2,", "13,4,4,4,4,2"],
    "imputation": ["zeros", "", "DROP"],
    "label_policy": ["none", ""],
}
# the last stderr line of a run that exits non-zero starts with one of these
ERROR_PREFIXES = ("config error:", "data error:", "training diverged:", "i/o error:")
ARGPARSE_ERROR = re.compile(r"heartnet( \w+)?: error: ")


def subcommand_flags(command):
    """The flags of ``heartnet <command>`` as its parser defines them:
    (option, dest, choices, takes a value), --help left out."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (action.option_strings[0], action.dest, action.choices, action.nargs != 0)
        for action in subparsers.choices[command]._actions
        if action.option_strings and action.dest != "help"
    ]


class TestEveryFlag:
    """ROADMAP item 13's flags slice.  Command lines for each subcommand,
    built from the parser's own flags, repeated ones included, with good
    and odd values for the path flags, ``--seed``, ``--layers`` and the
    choice flags, run through ``main``: each ends in a documented exit
    code with no exception, a failing one's last stderr line starts with
    a documented prefix, and a config error names its flag."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        """The files the flag values name: a 2-epoch config, a 30-row
        table, a table with a bad cell, and a model and scaler trained on
        the table."""
        folder = tmp_path_factory.mktemp("flags")
        with open(FIXTURE, encoding="utf-8") as fixture:
            lines = [next(fixture) for _ in range(30)]
        (folder / "table.csv").write_text("".join(lines), encoding="utf-8")
        (folder / "bad_cell.csv").write_text("".join(lines[:3]) + "1,x\n", encoding="utf-8")
        (folder / "two_epochs.json").write_text('{"max_epochs": 2}', encoding="utf-8")
        (folder / "list.json").write_text("[]", encoding="utf-8")
        bounds = {col.name: {"min": 0, "max": 1} for col in cli.hdata.HEART_SCHEMA}
        bounds["Chol"] = {"min": -1.5e308, "max": 1.5e308}
        (folder / "wide_span_scaler.json").write_text(json.dumps(bounds), encoding="utf-8")
        assert main(["train", "--config", str(folder / "two_epochs.json"),
                     "--data", str(folder / "table.csv"), "--out", str(folder / "trained")]) == 0
        return folder

    @pytest.mark.parametrize("command", ["train", "experiment", "evaluate", "scale"])
    def test_documented_exit_and_message(self, folder, monkeypatch, capsys, command):
        monkeypatch.chdir(folder)
        flags = subcommand_flags(command)
        runs = count()

        @st.composite
        def command_line(draw):
            """The 2-epoch config, then each good file flag the command
            needs (most of the time), then up to 4 flags drawn with
            repeats, each with a good or an odd value; a later --config
            wins only with a value that cannot train."""
            argv = [command, "--config", "two_epochs.json"]
            for option, dest, _, _ in flags:
                if dest in ("data", "out", "model", "scaler") and draw(st.integers(0, 5)):
                    argv += [option, GOOD_FLAG_VALUES[dest][0]]
            for option, dest, choices, takes_value in draw(
                st.lists(st.sampled_from(flags), max_size=4)
            ):
                argv.append(option)
                if takes_value:
                    odd = ODD_FLAG_VALUES.get(dest, []) + (ODD_PATHS if dest in cli._PATH_FLAGS else [])
                    good = list(choices or GOOD_FLAG_VALUES[dest])
                    argv.append(draw(st.sampled_from(good) | st.sampled_from(odd)))
            n = str(next(runs))
            return [arg.replace("{n}", n) for arg in argv]

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(argv=command_line())
        def check(argv):
            code = main(argv)
            assert code in {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_DIVERGENCE, EXIT_IO}
            err = capsys.readouterr().err
            if code == EXIT_OK:
                return
            last = err.splitlines()[-1]
            assert last.startswith(ERROR_PREFIXES) or ARGPARSE_ERROR.match(last), last
            if last.startswith("config error:"):
                # by its flag, its config key, the config file it is in,
                # or as a required setting no flag gave
                names = {name for option, dest, _, _ in flags if option in argv
                         for name in (option, dest)}
                names |= {"hidden_sizes"} if "--layers" in argv else set()
                names |= {argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg == "--config"}
                assert "missing required setting" in last or any(
                    name and name in last for name in names
                ), last

        check()


class TestRepeatedCalls:
    """``main`` may be called many times in one process; it builds its
    parser on the first call and every call answers as the first did."""

    @pytest.fixture()
    def parsers_built(self, monkeypatch):
        """A list that grows by one for each ArgumentParser made, counted
        from an empty parser cache."""
        built = []
        make = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            make(parser, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        yield built
        cli.build_parser.cache_clear()  # later tests get a plain parser

    def test_each_call_answers_as_the_first(self, tmp_path, capsys, parsers_built):
        trained = tmp_path / "run"
        assert main(["train", "--config", quick_config(tmp_path), "--data", FIXTURE,
                     "--out", str(trained)]) == EXIT_OK
        capsys.readouterr()
        n_built = len(parsers_built)
        assert n_built == 5  # heartnet and its four subcommands
        cases = [
            (["--help"], EXIT_OK),
            ([], EXIT_USAGE),
            (["train", "--data", FIXTURE, "--impute", "zeros"], EXIT_USAGE),
            (["train", "--data", FIXTURE, "--seed", "-1", "--out", str(tmp_path / "o")],
             EXIT_USAGE),
            (["evaluate", "--data", FIXTURE, "--model", str(trained / "model.json"),
              "--scaler", str(trained / "scaler.json")], EXIT_OK),
        ]
        for argv, expected in cases:
            first_code = main(argv)
            first = capsys.readouterr()
            assert first_code == expected, (argv, first.err)
            assert first.out or first.err
            assert (main(argv), capsys.readouterr()) == (first_code, first), argv
        assert len(parsers_built) == n_built


class TestScale:
    def test_writes_scaler_and_scaled_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["scale", "--data", FIXTURE, "--out", str(out)]) == EXIT_OK
        assert (out / "scaler.json").exists()
        assert (out / "effective_config.json").exists()
        with (out / "scaled.csv").open(encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][-1] == "label"
        values = [float(v) for row in rows[1:] for v in row[:-1]]
        assert min(values) >= 0.0 and max(values) <= 1.0
        assert len(rows) == 1 + 303
        assert "constant columns" not in capsys.readouterr().out

    def test_constant_column_is_reported(self, tmp_path, capsys):
        lines = bundled_fixture_path().read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines]
        for cells in rows:
            cells[5] = "1"  # Fbs
        data = tmp_path / "constant_fbs.csv"
        data.write_text("\n".join(",".join(cells) for cells in rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["scale", "--data", str(data), "--out", str(out)]) == EXIT_OK
        assert "constant columns mapped to 0: Fbs\n" in capsys.readouterr().out
        with (out / "scaled.csv").open(encoding="utf-8") as handle:
            table = list(csv.reader(handle))
        assert table[0][5] == "Fbs"
        assert {row[5] for row in table[1:]} == {"0.0"}

    def test_median_fill_whose_sum_overflows(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["scale", "--data", overflowing_chol_table(tmp_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err.count("\n") == 13  # the 13 clamped labels only
        chol = json.loads((out / "scaler.json").read_text(encoding="utf-8"))["Chol"]
        assert chol == {"min": 1.6e308, "max": 1.7e308}
        with (out / "scaled.csv").open(encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert float(rows[1][4]) == pytest.approx(0.5)  # filled with the midpoint

    def test_effective_config_reruns_under_train(self, tmp_path):
        out = tmp_path / "out"
        path = quick_config(tmp_path)
        assert main(["scale", "--config", path, "--data", FIXTURE, "--out", str(out)]) == EXIT_OK
        assert main(["train", "--config", str(out / "effective_config.json")]) == EXIT_OK
        assert (out / "model.json").exists()


class TestTrain:
    def test_artifacts_and_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["train", "--config", quick_config(tmp_path), "--data", FIXTURE,
             "--out", str(out), "--seed", "1"]
        )
        assert code == EXIT_OK
        for name in ("model.json", "scaler.json", "history.csv", "effective_config.json"):
            assert (out / name).exists()
        printed = capsys.readouterr().out
        assert "final sse" in printed and "epochs" in printed

    @pytest.mark.parametrize("command", ["scale", "train", "experiment"])
    def test_column_span_float64_cannot_hold_is_data_error(self, tmp_path, capsys, command):
        # max - min of the Chol column overflowed: a RuntimeWarning, and
        # NaN inputs refused without naming the table
        rows = [line.split(",") for line in bundled_fixture_path().read_text().splitlines()]
        rows[0][4], rows[1][4] = "-1.5e308", "1.5e308"
        table = tmp_path / "wide.csv"
        table.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        out = tmp_path / "o"
        code = main([command, "--config", quick_config(tmp_path), "--data", str(table),
                     "--out", str(out)])
        assert code == EXIT_DATA
        message = "column Chol: span 1.5e+308 - -1.5e+308 is more than float64 holds"
        assert capsys.readouterr().err.splitlines()[-1] == f"data error: {table}: {message}"
        assert not out.exists()

    def test_missing_data_file_is_io_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
        assert code == EXIT_IO
        assert "absent.csv" in capsys.readouterr().err

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        cfg = quick_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--data", FIXTURE, "--out", str(out_a), "--seed", "2"])
        main(["train", "--config", cfg, "--data", FIXTURE, "--out", str(out_b), "--seed", "2"])
        assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()

    def test_integer_float_settings_write_the_same_bytes(self, tmp_path):
        runs = {}
        for name, lr, momentum in (("ints", 1, 0), ("floats", 1.0, 0.0)):
            cfg = quick_config(tmp_path, initial_lr=lr, momentum=momentum)
            assert main(["train", "--config", cfg, "--data", FIXTURE,
                         "--out", str(tmp_path / name)]) == EXIT_OK
            runs[name] = [(tmp_path / name / f).read_bytes() for f in ("model.json", "history.csv")]
        assert runs["ints"] == runs["floats"]
        assert b",1.0," in runs["ints"][1]  # the first epoch's learning_rate

    def test_effective_config_reproduces_run(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", quick_config(tmp_path), "--data", FIXTURE,
              "--out", str(out), "--seed", "3"])
        model_first = (out / "model.json").read_bytes()
        # rerun purely from the echoed config
        assert main(["train", "--config", str(out / "effective_config.json")]) == EXIT_OK
        assert (out / "model.json").read_bytes() == model_first

    def test_layers_flag_mismatch_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--config", quick_config(tmp_path), "--data", FIXTURE,
                     "--out", str(tmp_path / "o"), "--layers", "10,4,2"])
        assert code == EXIT_USAGE
        assert "13" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, token):
        lines = bundled_fixture_path().read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[4] = token  # Chol
        lines[2] = ",".join(cells)
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        code = main(["train", "--config", quick_config(tmp_path), "--data", str(data),
                     "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"line 3: non-finite value '{token}' in column Chol" in err
        assert f"data error: {data}: line 3: " in err
        assert "impute" not in err
        assert not out.exists()

    def test_non_utf8_table_is_data_error_naming_file_and_line(self, tmp_path, capsys):
        lines = bundled_fixture_path().read_text(encoding="utf-8").splitlines()
        data = tmp_path / "bad.csv"
        data.write_bytes("\n".join(lines[:4]).encode("utf-8") + b"\n63,1,\xff1,0,6,0\n")
        out = tmp_path / "o"
        code = main(["train", "--config", quick_config(tmp_path), "--data", str(data),
                     "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {data}: line 5: not UTF-8 text (byte 0xff)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_strict_labels_reject_fixture(self, tmp_path, capsys):
        # the bundled table keeps the raw 0..4 labels, so strict must fail
        code = main(["train", "--config", quick_config(tmp_path), "--data", FIXTURE,
                     "--out", str(tmp_path / "o"), "--labels", "strict"])
        assert code == EXIT_DATA
        assert "outside" in capsys.readouterr().err


class TestEvaluate:
    @pytest.fixture()
    def trained(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", quick_config(tmp_path), "--data", FIXTURE,
              "--out", str(out), "--seed", "1"])
        return out

    def test_prints_efficiency_and_confusion(self, trained, capsys):
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(trained / "scaler.json"),
                     "--data", FIXTURE])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "efficiency:" in printed
        assert "confusion matrix" in printed
        assert "binary" not in printed
        assert "note:" not in printed  # scored on the table the scaler was fitted on

    def test_median_fill_whose_sum_overflows(self, trained, tmp_path, capsys):
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(trained / "scaler.json"),
                     "--data", overflowing_chol_table(tmp_path)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert printed[:2] == [
            "samples: 303", "note: 303 samples fell outside the scaler's fitted range",
        ]

    def test_rows_outside_the_fitted_range_are_counted(self, tmp_path, capsys):
        lines = bundled_fixture_path().read_text(encoding="utf-8").splitlines()
        first, rest = tmp_path / "first40.csv", tmp_path / "holdout.csv"
        first.write_text("\n".join(lines[:40]) + "\n", encoding="utf-8")
        # rows with a "?" are left out, so no imputed value enters the count
        holdout = [line for line in lines[40:] if "?" not in line]
        rest.write_text("\n".join(holdout) + "\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--config", quick_config(tmp_path), "--data", str(first),
                     "--out", str(out)]) == EXIT_OK
        bounds = json.loads((out / "scaler.json").read_text(encoding="utf-8")).values()
        mins = np.array([b["min"] for b in bounds])
        maxs = np.array([b["max"] for b in bounds])
        x = np.array([[float(v) for v in line.split(",")[:13]] for line in holdout])
        expected = int(((x < mins) | (x > maxs)).any(axis=1).sum())
        assert 0 < expected < len(holdout)
        capsys.readouterr()
        code = main(["evaluate", "--model", str(out / "model.json"),
                     "--scaler", str(out / "scaler.json"), "--data", str(rest)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert printed[:2] == [
            f"samples: {len(holdout)}",
            f"note: {expected} samples fell outside the scaler's fitted range",
        ]

    @pytest.mark.parametrize(
        "bound",
        ["29", True, None, float("nan"), float("inf"), float("-inf"), 10**400],
        ids=["string", "true", "null", "nan", "inf", "-inf", "huge-int"],
    )
    def test_scaler_bound_that_is_not_a_finite_number_is_data_error(
        self, trained, tmp_path, capsys, bound
    ):
        scaler = json.loads((trained / "scaler.json").read_text(encoding="utf-8"))
        scaler["Age"]["min"] = bound
        bad = tmp_path / "bad_scaler.json"
        bad.write_text(json.dumps(scaler), encoding="utf-8")  # nan written as NaN
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(bad), "--data", FIXTURE])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {bad}: column 'Age' needs finite numeric min/max\n"

    def test_scaler_min_above_max_is_data_error(self, trained, tmp_path, capsys):
        scaler = json.loads((trained / "scaler.json").read_text(encoding="utf-8"))
        scaler["Age"] = {"min": 5, "max": 1}
        bad = tmp_path / "bad_scaler.json"
        bad.write_text(json.dumps(scaler), encoding="utf-8")
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(bad), "--data", FIXTURE])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {bad}: column 'Age' has min 5 > max 1\n"

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((-1.5e308, 1.5e308),
             "column Chol: span 1.5e+308 - -1.5e+308 is more than float64 holds"),
            ((0, 1e-307), "column Chol: value 219.0 scales to inf by the span 0.0..1e-307"),
        ],
        ids=["span-too-wide", "span-too-small"],
    )
    def test_scaler_span_float64_cannot_scale_by_is_data_error(
        self, trained, tmp_path, capsys, bounds, message
    ):
        # max - min overflowed, or dividing by it did: every Chol scaled to 0
        # or to inf, with a RuntimeWarning, and the run exited 0
        scaler = json.loads((trained / "scaler.json").read_text(encoding="utf-8"))
        scaler["Chol"] = dict(zip(("min", "max"), bounds))
        bad = tmp_path / "bad_scaler.json"
        bad.write_text(json.dumps(scaler), encoding="utf-8")
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(bad), "--data", FIXTURE])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == f"data error: {bad}: {message}"

    def test_binary_flag_adds_line(self, trained, capsys):
        main(["evaluate", "--model", str(trained / "model.json"),
              "--scaler", str(trained / "scaler.json"),
              "--data", FIXTURE, "--binary"])
        assert "binary efficiency" in capsys.readouterr().out

    def test_json_out(self, trained, tmp_path):
        dest = tmp_path / "metrics.json"
        main(["evaluate", "--model", str(trained / "model.json"),
              "--scaler", str(trained / "scaler.json"),
              "--data", FIXTURE, "--json-out", str(dest)])
        payload = json.loads(dest.read_text(encoding="utf-8"))
        assert set(payload) == {
            "n_test", "n_correct", "efficiency_pct", "binary_efficiency_pct", "confusion",
        }
        assert payload["n_test"] == 303

    def test_json_out_to_a_directory_is_io_error(self, trained, tmp_path, capsys):
        dest = tmp_path / "metrics"
        dest.mkdir()
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(trained / "scaler.json"),
                     "--data", FIXTURE, "--json-out", str(dest)])
        assert code == EXIT_IO
        assert f"i/o error: [Errno 21] Is a directory: '{dest}'" in capsys.readouterr().err
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    def test_json_out_into_a_missing_directory_names_the_target(self, trained, tmp_path, capsys):
        dest = tmp_path / "nodir" / "m.json"
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(trained / "scaler.json"),
                     "--data", FIXTURE, "--json-out", str(dest)])
        assert code == EXIT_IO
        assert capsys.readouterr().err.endswith(
            f"i/o error: [Errno 2] No such file or directory: '{dest}'\n"
        )

    def test_json_out_under_a_regular_file_names_the_target(self, trained, tmp_path, capsys):
        dest = tmp_path / "table.csv" / "m.json"
        dest.parent.write_text("1\n", encoding="utf-8")
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(trained / "scaler.json"),
                     "--data", FIXTURE, "--json-out", str(dest)])
        assert code == EXIT_IO
        assert capsys.readouterr().err.endswith(
            f"i/o error: [Errno 20] Not a directory: '{dest}'\n"
        )

    def test_scaler_column_count_mismatch_is_data_error(self, trained, tmp_path, capsys):
        scaler = json.loads((trained / "scaler.json").read_text(encoding="utf-8"))
        scaler.pop("Thal")
        short = tmp_path / "scaler12.json"
        short.write_text(json.dumps(scaler), encoding="utf-8")
        # checked before the table is read: a missing table would be exit 5
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(short), "--data", str(tmp_path / "absent.csv")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {short}: 12 columns but the table has 13\n"
        )

    @pytest.mark.parametrize(
        "flag, code, error",
        [("--config", EXIT_USAGE, "config error: {}: expected a JSON object\n"),
         ("--model", EXIT_DATA, "data error: {}: expected a JSON object\n"),
         ("--scaler", EXIT_DATA, "data error: {}: expected a JSON object of columns\n")],
        ids=["config", "model", "scaler"],
    )
    def test_json_that_is_not_an_object_is_refused(
        self, trained, tmp_path, capsys, flag, code, error
    ):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        paths = {"--model": trained / "model.json", "--scaler": trained / "scaler.json", flag: bad}
        argv = [arg for pair in paths.items() for arg in map(str, pair)]
        assert main(["evaluate", *argv, "--data", FIXTURE]) == code
        assert capsys.readouterr().err == error.format(bad)

    def test_nan_model_output_is_data_error(self, trained, tmp_path, capsys):
        model = json.loads((trained / "model.json").read_text(encoding="utf-8"))
        model["biases"][-1] = [float("nan"), float("nan")]
        bad = tmp_path / "nan_model.json"
        bad.write_text(json.dumps(model), encoding="utf-8")  # written as NaN
        code = main(["evaluate", "--model", str(bad),
                     "--scaler", str(trained / "scaler.json"), "--data", FIXTURE])
        assert code == EXIT_DATA
        assert "non-finite biases in layer 2" in capsys.readouterr().err

    def test_unknown_activation_is_data_error(self, trained, tmp_path, capsys):
        model = json.loads((trained / "model.json").read_text(encoding="utf-8"))
        model["activation"] = "relu"
        bad = tmp_path / "relu_model.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        code = main(["evaluate", "--model", str(bad),
                     "--scaler", str(trained / "scaler.json"), "--data", FIXTURE])
        assert code == EXIT_DATA
        assert "activation 'relu' is not supported" in capsys.readouterr().err

    def test_scaler_column_order_mismatch_is_data_error(self, trained, tmp_path, capsys):
        scaler = json.loads((trained / "scaler.json").read_text(encoding="utf-8"))
        names = list(scaler)
        names[0], names[3] = names[3], names[0]  # Age <-> Trestbps
        swapped = tmp_path / "swapped.json"
        swapped.write_text(json.dumps({name: scaler[name] for name in names}), encoding="utf-8")
        # checked before the table is read: a missing table would be exit 5
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(swapped), "--data", str(tmp_path / "absent.csv")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {swapped}: column 1 is 'Trestbps' but the table has 'Age' there\n"
        )

    @pytest.mark.parametrize(
        "sizes, problem",
        [((5, 2), "first layer size 5 != 13 input features"),
         ((13, 3), "last layer size 3 != 2 output neurons"),
         ((12, 8, 2), "first layer size 12 != 13 input features"),
         ((13, 8, 3), "last layer size 3 != 2 output neurons")],
        ids=["5-2", "13-3", "12-8-2", "13-8-3"],
    )
    def test_model_of_wrong_width_is_data_error(self, tmp_path, capsys, sizes, problem):
        # the widths come from the file; they are checked against the table
        # before the scaler or the table is read, so neither need exist
        model = tmp_path / "model.json"
        save_network(new_network(sizes, 0), model)
        absent = str(tmp_path / "absent")
        code = main(["evaluate", "--model", str(model), "--scaler", absent, "--data", absent])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {model}: {problem}\n"

    @pytest.mark.parametrize(
        "key, value",
        [("layer_sizes", [13, 8.9, 2]), ("layer_sizes", ["13", "8", "2"]),
         ("seed", 1.5), ("seed", [1]), ("seed", float("inf")),
         ("weights", [[[0.1] * 13] * 7 + [["0.1"] * 13], [[0.1] * 8] * 2]),
         ("weights", [[[0.1] * 13] * 8, [[0.1] * 7 + [10**400]] * 2]),
         ("biases", [[0.0] * 8, [True, False]])],
        ids=["size-fraction", "size-str", "seed-fraction", "seed-list", "seed-inf",
             "weights-str", "weights-huge-int", "biases-bool"],
    )
    def test_malformed_model_field_is_data_error(self, trained, tmp_path, capsys, key, value):
        model = json.loads((trained / "model.json").read_text(encoding="utf-8"))
        model[key] = value
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(model), encoding="utf-8")  # inf written as Infinity
        code = main(["evaluate", "--model", str(bad),
                     "--scaler", str(trained / "scaler.json"), "--data", FIXTURE])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {bad}: malformed model payload" in err
        assert "Traceback" not in err

    def test_too_wide_model_is_data_error(self, trained, tmp_path, capsys):
        model = json.loads((trained / "model.json").read_text(encoding="utf-8"))
        model["layer_sizes"] = [13, MAX_WIDTH + 1, 2]
        bad = tmp_path / "wide_model.json"
        bad.write_text(json.dumps(model), encoding="utf-8")
        code = main(["evaluate", "--model", str(bad),
                     "--scaler", str(trained / "scaler.json"), "--data", FIXTURE])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {bad}: malformed model payload "
            f"(a layer of {MAX_WIDTH + 1} neurons exceeds the cap of {MAX_WIDTH})\n"
        )

    def test_corrupt_model_is_data_error(self, trained, tmp_path, capsys):
        # not JSON, not UTF-8, and nested deeper than the parser recurses
        bad = tmp_path / "bad.json"
        for content in (b"{oops", b'{"seed": "\xff"}', b"[" * 100_000):
            bad.write_bytes(content)
            code = main(["evaluate", "--model", str(bad),
                         "--scaler", str(trained / "scaler.json"), "--data", FIXTURE])
            assert code == EXIT_DATA
            assert f"data error: {bad}: not valid JSON" in capsys.readouterr().err


class TestImputationLeavesNothing:
    """A table whose imputation fails or leaves no row is a data error that
    names the table, raised before any ``--out`` is made."""

    @staticmethod
    def table_without_ca(tmp_path):
        lines = bundled_fixture_path().read_text(encoding="utf-8").splitlines()[:20]
        rows = [line.split(",") for line in lines]
        for cells in rows:
            cells[11] = "?"  # Ca
        data = tmp_path / "no_ca.csv"
        data.write_text("\n".join(",".join(cells) for cells in rows) + "\n", encoding="utf-8")
        return data

    @pytest.mark.parametrize("command", ["scale", "train", "experiment", "evaluate"])
    def test_every_row_dropped(self, tmp_path, capsys, command):
        data, out = self.table_without_ca(tmp_path), tmp_path / "o"
        argv = [command, "--config", quick_config(tmp_path), "--data", str(data), "--impute", "drop"]
        if command == "evaluate":
            model, scaler = tmp_path / "model.json", tmp_path / "scaler.json"
            save_network(new_network((13, 8, 2), 0), model)
            save_scaler(fit_scaler(impute(load_dataset(FIXTURE))), scaler)
            argv += ["--model", str(model), "--scaler", str(scaler)]
        else:
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {data}: every row has a missing cell, so no row is left\n"
        )
        assert not out.exists()

    def test_column_with_no_observed_value(self, tmp_path, capsys):
        data, out = self.table_without_ca(tmp_path), tmp_path / "o"
        code = main(["train", "--config", quick_config(tmp_path), "--data", str(data),
                     "--out", str(out), "--impute", "median"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {data}: column Ca has no observed values\n"
        assert not out.exists()


class TestDivergence:
    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_diverged_run_exits_4_and_leaves_only_its_echo(self, tmp_path, capsys, command):
        # every epoch is accepted and multiplies the rate by 1e300, until the SSE is not finite
        config = write_config(
            tmp_path, {"max_epochs": 20, "lr_increase": 1e300, "max_sse_rise": 1e300}
        )
        out = tmp_path / "o"
        code = main([command, "--config", config, "--data", FIXTURE, "--out", str(out)])
        assert code == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "training diverged: non-finite SSE at epoch 4"
        assert [path.name for path in out.iterdir()] == ["effective_config.json"]


class TestExperiment:
    def config(self, tmp_path):
        return write_config(
            tmp_path,
            {"max_epochs": 2, "target_sse": 0.0,
             "splits": [[20, 40], [30, 30]]},
        )

    def test_report_rows_match_grid(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code = main(["experiment", "--config", self.config(tmp_path),
                     "--data", FIXTURE, "--out", str(out)])
        assert code == EXIT_OK
        with (out / "report.csv").open(encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 2 * 2  # 2 splits x 2 architectures
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "splits, problem",
        [(None, "split 100/300 leaves 0 training rows of 3"),
         ([[300, 1]], "split 300/1 leaves 0 test rows of 3")],
    )
    def test_table_too_small_for_a_split(self, tmp_path, capsys, splits, problem):
        lines = bundled_fixture_path().read_text(encoding="utf-8").splitlines()[:3]
        data, out = tmp_path / "tiny.csv", tmp_path / "o"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = quick_config(tmp_path, **({"splits": splits} if splits else {}))
        code = main(["experiment", "--config", config, "--data", str(data), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {data}: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, payload", [(["--layers", "13,2"], {}), ([], {"hidden_sizes": []})]
    )
    def test_no_hidden_layer_is_config_error(self, tmp_path, capsys, flags, payload):
        out = tmp_path / "o"
        config = quick_config(tmp_path, **payload)
        argv = ["--config", config, "--data", FIXTURE, "--out", str(out), *flags]
        code = main(["experiment", *argv])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "hidden_sizes" in err
        assert not out.exists()
        # the same shape trains alone
        assert main(["train", *argv]) == EXIT_OK
        assert json.loads((out / "model.json").read_text(encoding="utf-8"))["layer_sizes"] == [13, 2]

    def test_deterministic_report(self, tmp_path):
        cfg = self.config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["experiment", "--config", cfg, "--data", FIXTURE, "--out", str(out_a)])
        main(["experiment", "--config", cfg, "--data", FIXTURE, "--out", str(out_b)])
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


class TestBenchmark:
    """The ``benchmark`` subcommand timed the per-neuron thread pool and went
    with it; ``perfbench/`` measures the program now. Its old invocations
    must end in a usage error, not a crash."""

    def test_bad_width(self, capsys):
        assert main(["benchmark", "--width", "0"]) == EXIT_USAGE
        assert "invalid choice: 'benchmark'" in capsys.readouterr().err
