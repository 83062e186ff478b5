"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import csv
import json

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

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(str(path))

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
        payload = cfg.to_json_dict()
        assert set(payload) <= {f for f in RunConfig.__dataclass_fields__}
        json.dumps(payload)


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
        ],
    )
    def test_wrong_type_is_config_error(self, tmp_path, capsys, payload, key):
        path = write_config(tmp_path, payload)
        code = main(["train", "--config", path, "--data", FIXTURE, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err


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

    def test_corrupt_model_is_data_error(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        code = main(["evaluate", "--model", str(bad),
                     "--scaler", str(trained / "scaler.json"), "--data", FIXTURE])
        assert code == EXIT_DATA


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
