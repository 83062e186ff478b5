"""Metrics, the proportional split fallback, and the experiment grid."""

import csv
import re
import warnings

import numpy as np
import pytest

from heartnet.data import (
    IMPUTE_MEDIAN_MODE,
    ValidationError,
    bundled_fixture_path,
    encode_labels,
    fit_scaler,
    impute,
    load_dataset,
    split,
)
from heartnet.evaluation import (
    ARCH_MULTI,
    ARCH_SINGLE,
    DEFAULT_GRID,
    Metrics,
    check_splits,
    evaluate,
    export_report,
    fit_split_sizes,
    format_report,
    run_experiment,
)
from heartnet.network import forward, new_network
from heartnet.trainer import DivergenceError, TrainConfig, train


def decode_row(output) -> int:
    """Class of one output row, decoded by hand: each neuron is one bit of
    the label, high bit first, set at 0.5 and above."""
    return 2 * int(output[0] >= 0.5) + int(output[1] >= 0.5)


def small_dataset(n=60):
    ds = impute(load_dataset(bundled_fixture_path()))
    return ds.subset(np.arange(n))


class TestMetrics:
    def test_binary_collapse(self):
        confusion = np.array(
            [
                [10, 2, 0, 0],
                [1, 5, 1, 0],
                [0, 1, 4, 1],
                [0, 0, 2, 3],
            ]
        )
        m = Metrics(n_test=30, n_correct=22, efficiency_pct=22 / 30 * 100, confusion=confusion)
        # normal-vs-abnormal: 10 true normals + 17 abnormals predicted
        # abnormal (any disease class) = 27 of 30
        assert m.binary_efficiency_pct == pytest.approx(90.0)

    def test_confusion_is_read_only(self):
        m = Metrics(1, 1, 100.0, np.eye(4, dtype=int))
        with pytest.raises(ValueError):
            m.confusion[0, 0] = 5


class TestEvaluate:
    def test_matches_independent_tally(self):
        ds = small_dataset()
        net = new_network((13, 8, 2), 2)
        scaler = fit_scaler(ds)
        x = scaler.transform(ds.features)
        metrics = evaluate(net, x, ds.labels)

        confusion = np.zeros((4, 4), dtype=int)
        for row, true in zip(x, ds.labels):
            confusion[true, decode_row(forward(net, row)[-1])] += 1
        np.testing.assert_array_equal(metrics.confusion, confusion)
        assert metrics.n_correct == int(np.trace(confusion))
        assert metrics.efficiency_pct == pytest.approx(
            100.0 * metrics.n_correct / len(ds)
        )
        assert metrics.confusion.sum() == metrics.n_test == len(ds)

        # generated rows and labels, tallied by np.add.at: the network never
        # predicts class 1 on these rows, and the second labels never hold class 2
        rng = np.random.default_rng(4)
        x = rng.normal(scale=4.0, size=(200, 13))
        predicted = [decode_row(forward(net, row)[-1]) for row in x]
        assert sorted(set(predicted)) == [0, 2, 3]
        for labels in (rng.integers(0, 4, len(x)), rng.choice([0, 1, 3], len(x))):
            tally = np.zeros((4, 4), dtype=np.int64)
            np.add.at(tally, (labels, predicted), 1)
            np.testing.assert_array_equal(evaluate(net, x, labels).confusion, tally)

    def test_matches_per_row_predict_on_fixture(self):
        ds = impute(load_dataset(bundled_fixture_path()))
        x = fit_scaler(ds).transform(ds.features)
        net = new_network((13, 8, 2), 7)
        train(net, x, encode_labels(ds.labels), TrainConfig(max_epochs=5, target_sse=0.0))
        metrics = evaluate(net, x, ds.labels)

        confusion = np.zeros((4, 4), dtype=int)
        for row, true in zip(x, ds.labels):
            confusion[true, decode_row(forward(net, row)[-1])] += 1
        np.testing.assert_array_equal(metrics.confusion, confusion)
        assert metrics.n_test == len(ds) == 303

    def test_saturated_outputs(self):
        net = new_network((13, 2), 0)
        net.weights[0][:] = 0.0
        net.biases[0][:] = -50.0  # both outputs pinned near 0 -> class 0
        assert evaluate(net, np.ones((2, 13)), np.zeros(2, dtype=int)).n_correct == 2
        net.biases[0][:] = 50.0  # both near 1 -> class 3
        metrics = evaluate(net, np.ones((2, 13)), np.zeros(2, dtype=int))
        assert metrics.confusion[0, 3] == 2

    def test_non_finite_output_rejected(self):
        net = new_network((13, 2), 0)
        net.biases[0][:] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            evaluate(net, np.zeros((3, 13)), np.zeros(3, dtype=int))

    def test_empty_test_set(self):
        net = new_network((13, 2), 0)
        with pytest.raises(ValidationError, match="empty"):
            evaluate(net, np.zeros((0, 13)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize(
        "labels",
        [[0, 1, 2, 3, -1], [0, 1, 2, 3, 4], [0, 1, 2, 3, 1.5], [0, 1, 2, 3, np.nan]],
        ids=["minus-one", "four", "fraction", "nan"],
    )
    def test_bad_label_refused(self, labels):
        # -1 once wrapped into class 3, 4 raised IndexError, 1.5 scored as 1
        net = new_network((13, 2), 0)
        with pytest.raises(ValidationError, match="labels must be whole numbers"):
            evaluate(net, np.zeros((5, 13)), labels)

    @pytest.mark.parametrize(
        "n_rows, labels",
        [(3, [0, 0]), (1, 3), (3, [[0], [1], [3]])],
        ids=["fewer-labels", "scalar-label", "label-column"],
    )
    def test_length_mismatch(self, n_rows, labels):
        # one label per row: a scalar label raised IndexError, and a label
        # column was broadcast against the predictions into 9 counts
        net = new_network((13, 2), 0)
        with pytest.raises(ValueError, match="sample count"):
            evaluate(net, np.zeros((n_rows, 13)), labels)

    @pytest.mark.parametrize(
        "features, labels",
        [(3, [0]), (np.zeros(13), [0] * 13), (np.zeros((2, 12)), [0, 1])],
        ids=["scalar", "one-row-vector", "too-narrow"],
    )
    def test_features_must_be_a_matrix(self, features, labels):
        # a scalar raised IndexError, and a 1-D row with 13 labels passed the
        # sample-count check and failed on the output shape
        net = new_network((13, 2), 0)
        message = f"features must be (n, 13), got shape {np.shape(features)}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            evaluate(net, features, labels)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_is_named(self, value):
        # a NaN feature was reported as a non-finite network output, and an
        # infinite one escaped the forward pass as a RuntimeWarning
        features = np.full((2, 13), 0.5)
        features[1, 4] = value
        for cells in (np.full((2, 13), value), features):
            row, column = np.argwhere(~np.isfinite(cells))[0]
            message = f"non-finite features in row {row}, column {column}: {value}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=re.escape(message)):
                    evaluate(new_network((13, 2), 0), cells, [0, 1])


class TestSplitSizes:
    def test_fits_unchanged(self):
        assert fit_split_sizes(414, 100, 300) == (100, 300)
        assert fit_split_sizes(400, 250, 150) == (250, 150)

    def test_proportional_fallback_414(self):
        # 350+100 = 450 > 414: floor(414*350/450), floor(414*100/450)
        assert fit_split_sizes(414, 350, 100) == (322, 92)

    def test_proportional_fallback_303(self):
        assert fit_split_sizes(303, 100, 300) == (75, 227)
        assert fit_split_sizes(303, 150, 200) == (129, 173)
        assert fit_split_sizes(303, 250, 150) == (189, 113)
        assert fit_split_sizes(303, 350, 100) == (235, 67)

    def test_never_exceeds_population(self):
        for n in (50, 303, 414):
            for a, b in DEFAULT_GRID:
                na, nb = fit_split_sizes(n, a, b)
                assert na + nb <= n
                assert na >= 1 and nb >= 1


class TestArchitectures:
    """Each grid cell equals a hand-run train + evaluate, on the cell's
    split, of a network of the sizes its architecture names."""

    CFG = TrainConfig(max_epochs=3, target_sse=0.0)

    def hand_run(self, ds, cell, sizes):
        train_set, test_set = split(ds, cell.n_train, cell.n_test, self.CFG.seed)
        scaler = fit_scaler(train_set)
        net = new_network(sizes, self.CFG.seed)
        history = train(
            net, scaler.transform(train_set.features), encode_labels(train_set.labels), self.CFG
        )
        metrics = evaluate(net, scaler.transform(test_set.features), test_set.labels)
        return (
            metrics.efficiency_pct,
            metrics.binary_efficiency_pct,
            history.final_sse,
            history.epochs_run,
        )

    def cells(self, ds, architecture):
        report = run_experiment(
            ds, splits=((20, 30), (30, 20)), config=self.CFG, hidden_sizes=(6, 4)
        )
        picked = [cell for cell in report.cells if cell.architecture == architecture]
        assert len(picked) == 2
        return picked

    @staticmethod
    def outcome(cell):
        return cell.efficiency_pct, cell.binary_efficiency_pct, cell.final_sse, cell.epochs_run

    def test_single_has_no_hidden_layer(self):
        ds = small_dataset()
        for cell in self.cells(ds, ARCH_SINGLE):
            assert self.outcome(cell) == self.hand_run(ds, cell, (13, 2))

    def test_multi_inserts_hidden_sizes(self):
        ds = small_dataset()
        for cell in self.cells(ds, ARCH_MULTI):
            assert self.outcome(cell) == self.hand_run(ds, cell, (13, 6, 4, 2))
            # the comparison tells the stacks apart: the default one differs
            assert self.outcome(cell) != self.hand_run(ds, cell, (13, 8, 2))


class TestRunExperiment:
    CFG = TrainConfig(max_epochs=3, target_sse=0.0)

    def test_grid_cardinality_and_cells(self):
        ds = small_dataset()
        report = run_experiment(ds, splits=((20, 30), (30, 20)), config=self.CFG)
        assert len(report.cells) == 4  # 2 splits x 2 architectures
        archs = [c.architecture for c in report.cells]
        assert archs == [ARCH_SINGLE, ARCH_MULTI, ARCH_SINGLE, ARCH_MULTI]
        for cell in report.cells:
            assert cell.n_train + cell.n_test <= len(ds)
            assert (cell.n_train, cell.n_test) == (cell.requested_train, cell.requested_test)
            assert cell.epochs_run == 3

    def test_oversized_split_is_rescaled_and_marked(self):
        ds = small_dataset()
        report = run_experiment(ds, splits=((100, 50),), config=self.CFG)
        cell = report.cells[0]
        assert (cell.requested_train, cell.requested_test) == (100, 50)
        assert (cell.n_train, cell.n_test) == (40, 20)

    @pytest.mark.parametrize(
        "splits, problem",
        [(DEFAULT_GRID, "split 100/300 leaves 0 training rows of 3"),
         (((2, 1), (300, 1)), "split 300/1 leaves 0 test rows of 3")],
    )
    def test_split_leaving_no_rows_is_refused(self, splits, problem):
        with pytest.raises(ValidationError) as err:
            run_experiment(small_dataset(3), splits=splits, config=self.CFG)
        assert str(err.value) == problem

    @pytest.mark.parametrize("hidden_sizes", [(), []])
    def test_no_hidden_layer_is_refused(self, hidden_sizes):
        # the multi-layer cells would train the single-layer network again
        with pytest.raises(ValueError, match="hidden_sizes is empty"):
            run_experiment(
                small_dataset(), splits=((20, 30),), config=self.CFG, hidden_sizes=hidden_sizes
            )

    def test_empty_grid_is_refused(self):
        with pytest.raises(ValidationError, match="split grid is empty"):
            check_splits(60, ())
        with pytest.raises(ValidationError, match="split grid is empty"):
            run_experiment(small_dataset(), splits=(), config=self.CFG)

    def test_rejects_unimputed_data(self):
        ds = load_dataset(bundled_fixture_path())
        with pytest.raises(ValidationError, match="impute"):
            run_experiment(ds, splits=((20, 20),), config=self.CFG)

    def test_seed_determinism(self):
        ds = small_dataset()
        a = run_experiment(ds, splits=((20, 30),), config=self.CFG)
        b = run_experiment(ds, splits=((20, 30),), config=self.CFG)
        assert a == b

    def test_earliest_diverging_cell_in_grid_order_is_raised(self):
        # The rate overflows to inf after a few accepted epochs, and each
        # cell's own accept/reject sequence sets at which epoch.
        cfg = TrainConfig(
            initial_lr=1.0, lr_increase=1e20, lr_decrease=1e-10, max_epochs=40, target_sse=0.0
        )
        ds, splits = small_dataset(), ((20, 30), (30, 20))
        diverged = []  # epochs of the diverging cells, in grid order
        for n_train, n_test in splits:
            train_set, _ = split(ds, n_train, n_test, cfg.seed)
            scaler = fit_scaler(train_set)
            x, t = scaler.transform(train_set.features), encode_labels(train_set.labels)
            for sizes in ((13, 2), (13, 6, 4, 2)):
                try:
                    train(new_network(sizes, cfg.seed), x, t, cfg)
                except DivergenceError as exc:
                    diverged.append(exc.epoch)
        # the first to diverge in grid order is not the first in time
        assert len(diverged) >= 2 and diverged[0] > min(diverged)
        with pytest.raises(DivergenceError) as err:
            run_experiment(ds, splits=splits, config=cfg, hidden_sizes=(6, 4))
        assert err.value.epoch == diverged[0]
        assert str(err.value) == f"non-finite SSE at epoch {diverged[0]}"

    def test_report_metadata(self):
        ds = small_dataset()
        report = run_experiment(
            ds, splits=((20, 30),), config=self.CFG, imputation_policy=IMPUTE_MEDIAN_MODE
        )
        assert report.n_instances == len(ds)
        assert report.imputation_policy == IMPUTE_MEDIAN_MODE
        assert report.seed == self.CFG.seed


class TestReportExport:
    def make_report(self):
        return run_experiment(
            small_dataset(), splits=((20, 30), (100, 50)), config=TestRunExperiment.CFG
        )

    def test_csv_layout_and_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        export_report(report, path)
        with path.open(encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n_train", "n_test", "architecture", "efficiency_pct", "final_sse", "epochs"]
        assert len(rows) == 1 + len(report.cells)
        for row, cell in zip(rows[1:], report.cells):
            assert int(row[0]) == cell.n_train
            assert int(row[1]) == cell.n_test
            assert row[2] == cell.architecture
            assert float(row[3]) == cell.efficiency_pct  # repr round-trip
            assert float(row[4]) == cell.final_sse
            assert int(row[5]) == cell.epochs_run

    def test_format_report_shows_requested_and_actual(self):
        report = self.make_report()
        text = format_report(report)
        assert "100/50" in text  # requested
        assert "40/20" in text  # actual after rescale
        assert ARCH_SINGLE in text and ARCH_MULTI in text

    def test_format_report_reference_column_only_for_protocol_rows(self):
        ds = small_dataset()
        cfg = TestRunExperiment.CFG
        protocol = run_experiment(ds, splits=((100, 300),), config=cfg)
        text = format_report(protocol)
        assert "76.0%" in text and "82.0%" in text  # recorded reference values
        off_protocol = run_experiment(ds, splits=((20, 30),), config=cfg)
        assert "76.0%" not in format_report(off_protocol)

    def test_binary_column_optional(self):
        report = self.make_report()
        assert "binary" in format_report(report, binary=True)
        assert "binary" not in format_report(report, binary=False)
