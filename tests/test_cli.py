"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import csv
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from heartnet.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    RunConfig,
    load_run_config,
    main,
    merge_config,
)
from heartnet.data import bundled_fixture_path
from heartnet.network import new_network, save_network
from heartnet.trainer import TrainConfig

FIXTURE = str(bundled_fixture_path())


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def quick_config(tmp_path, **extra):
    payload = {"max_epochs": 4, "target_sse": 0.0}
    payload.update(extra)
    return write_config(tmp_path, payload)


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
        class Args:
            config = write_config(tmp_path, {"seed": 3, "max_epochs": 9})
            data = None
            out = None
            seed = 8
            layers = "13,6,2"
            impute = "drop"
            labels = "strict"

        merged = merge_config(Args())
        assert merged.seed == 8  # flag wins
        assert merged.max_epochs == 9  # file value survives
        assert merged.layer_sizes == (13, 6, 2)
        assert merged.imputation == "drop_rows"
        assert merged.label_policy == "strict"

    def test_bad_layers_flag(self, tmp_path):
        class Args:
            config = None
            data = None
            out = None
            seed = None
            layers = "13,two,2"
            impute = None
            labels = None

        with pytest.raises(ConfigError, match="--layers"):
            merge_config(Args())

    def test_round_trip_through_json(self):
        cfg = RunConfig(data="d.csv", out="runs", seed=5)
        payload = asdict(cfg)
        assert set(payload) <= {f for f in RunConfig.__dataclass_fields__}
        json.dumps(payload)

    def test_echo_reloads_as_the_same_config(self, tmp_path):
        cfg = RunConfig(
            data="d.csv", out="runs", layer_sizes=(13, 6, 2), hidden_sizes=(5,),
            splits=((20, 40),), initial_lr=0.3, max_epochs=7, seed=5,
        )
        assert load_run_config(write_config(tmp_path, asdict(cfg))) == cfg
        assert RunConfig().train_config() == TrainConfig()


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "scale" in capsys.readouterr().out

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
            (["train"], {"seed": -1}, EXIT_USAGE),
            (["experiment"], {"seed": -1}, EXIT_USAGE),
            (["train", "--seed", "-1"], {}, EXIT_USAGE),
            (["experiment", "--seed", "-1"], {}, EXIT_USAGE),
            (["scale", "--seed", "-1"], {}, EXIT_USAGE),
            (["scale"], {"layer_sizes": [13, 8, 3]}, EXIT_USAGE),
            (["scale"], {"initial_lr": -1}, EXIT_USAGE),
            (["train", "--seed", "3"], {"seed": -1}, EXIT_USAGE),  # file checked before flags
        ],
    )
    def test_rejected_config_leaves_no_out_dir(self, tmp_path, capsys, argv, payload, expected):
        out = tmp_path / "o"
        path = write_config(tmp_path, {"max_epochs": 2, **payload})
        code = main([*argv, "--config", path, "--data", FIXTURE, "--out", str(out)])
        assert code == expected
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_evaluate_checks_config_before_reading_the_model(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        code = main(["evaluate", "--seed", "-1", "--data", FIXTURE,
                     "--model", absent, "--scaler", absent])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error:")


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

    def test_scaler_column_count_mismatch_is_data_error(self, trained, tmp_path, capsys):
        scaler = json.loads((trained / "scaler.json").read_text(encoding="utf-8"))
        scaler.pop("Thal")
        short = tmp_path / "scaler12.json"
        short.write_text(json.dumps(scaler), encoding="utf-8")
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(short), "--data", FIXTURE])
        assert code == EXIT_DATA
        assert "scaler has 12 columns but the input has 13" in capsys.readouterr().err

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
        code = main(["evaluate", "--model", str(trained / "model.json"),
                     "--scaler", str(swapped), "--data", FIXTURE])
        assert code == EXIT_DATA
        assert "scaler column 1 is 'Trestbps' but the data has 'Age' there" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("sizes", [(5, 2), (13, 3)], ids=["5-2", "13-3"])
    def test_model_of_wrong_width_is_data_error(self, trained, tmp_path, capsys, sizes):
        # the widths come from the file, so forward and the output decoding
        # check them against the table
        model = tmp_path / "model.json"
        save_network(new_network(sizes, 0), model)
        code = main(["evaluate", "--model", str(model),
                     "--scaler", str(trained / "scaler.json"), "--data", FIXTURE])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1].startswith("data error:")

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

    def test_corrupt_model_is_data_error(self, trained, tmp_path, capsys):
        # not JSON, not UTF-8, and nested deeper than the parser recurses
        bad = tmp_path / "bad.json"
        for content in (b"{oops", b'{"seed": "\xff"}', b"[" * 100_000):
            bad.write_bytes(content)
            code = main(["evaluate", "--model", str(bad),
                         "--scaler", str(trained / "scaler.json"), "--data", FIXTURE])
            assert code == EXIT_DATA
            assert f"data error: {bad}: not valid JSON" in capsys.readouterr().err


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
