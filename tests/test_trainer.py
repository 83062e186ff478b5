"""Momentum updates, the variable-learning-rate policy, and the epoch
loop, checked against hand values, a plain-float reference epoch and a
scripted replay of the loop."""

import math

import numpy as np
import pytest

from heartnet.data import ValidationError
from heartnet.network import Network, load_network, new_network, save_network
from heartnet.trainer import (
    DivergenceError,
    EpochRecord,
    TrainConfig,
    TrainingHistory,
    adapt_learning_rate,
    train,
    train_epoch,
    write_history_csv,
)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.initial_lr == 0.1
        assert cfg.momentum == 0.9
        assert cfg.lr_increase == 1.05
        assert cfg.lr_decrease == 0.7
        assert cfg.max_sse_rise == 0.04
        assert cfg.max_epochs == 5000
        assert cfg.target_sse == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_lr": 0.0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"lr_increase": 1.0},
            {"lr_decrease": 1.0},
            {"lr_decrease": 0.0},
            {"max_sse_rise": -0.01},
            {"max_epochs": 0},
            {"target_sse": -1.0},
            {"initial_lr": -0.1},
            {"initial_lr": math.nan},
            {"momentum": math.nan},
            {"lr_increase": math.nan},
            {"lr_decrease": math.nan},
            {"max_sse_rise": math.nan},
            {"target_sse": math.nan},
            {"seed": -1},
            {"max_epochs": 2.5},
            {"max_epochs": True},
            {"seed": 1.5},
            {"initial_lr": "0.1"},
            {"momentum": True},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_numpy_scalars_accepted(self):
        cfg = TrainConfig(initial_lr=np.float64(0.1), max_epochs=np.int64(3), seed=np.int64(2))
        assert cfg.initial_lr == 0.1 and cfg.max_epochs == 3 and cfg.seed == 2


class TestAdaptLearningRate:
    CFG = TrainConfig()

    def test_improvement_raises_rate(self):
        lr, accepted = adapt_learning_rate(10.0, 9.0, 0.1, self.CFG)
        assert accepted
        assert lr == pytest.approx(0.105, rel=1e-15)

    def test_equal_sse_still_raises(self):
        lr, accepted = adapt_learning_rate(10.0, 10.0, 0.1, self.CFG)
        assert accepted and lr == pytest.approx(0.105, rel=1e-15)

    def test_rise_beyond_band_lowers_and_rejects(self):
        # 10.5 > 10.0 * 1.04
        lr, accepted = adapt_learning_rate(10.0, 10.5, 0.1, self.CFG)
        assert not accepted
        assert lr == pytest.approx(0.07, rel=1e-15)

    def test_rise_inside_band_holds(self):
        # 10.2 <= 10.0 * 1.04: keep the rate, keep the epoch
        lr, accepted = adapt_learning_rate(10.0, 10.2, 0.1, self.CFG)
        assert accepted and lr == 0.1

    def test_band_boundary_holds(self):
        boundary = 10.0 * (1.0 + self.CFG.max_sse_rise)
        lr, accepted = adapt_learning_rate(10.0, boundary, 0.1, self.CFG)
        assert accepted and lr == 0.1

    def test_first_epoch_baseline(self):
        lr, accepted = adapt_learning_rate(math.inf, 1e9, 0.1, self.CFG)
        assert accepted
        assert lr == pytest.approx(0.105, rel=1e-15)


def heart_like(n=24, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 13))
    labels = rng.integers(0, 4, n)
    t = np.column_stack([labels // 2, labels % 2]).astype(float)
    return x, t


def pure_layers(flat, sizes):
    """Split a vector laid out like ``Network.params`` (W0, b0, W1, b1,
    ... with each W row-major) into per-layer weight rows and biases of
    plain floats."""
    flat = [float(v) for v in flat]
    weights, biases, pos = [], [], 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append([flat[pos + i * n_in : pos + (i + 1) * n_in] for i in range(n_out)])
        pos += n_out * n_in
        biases.append(flat[pos : pos + n_out])
        pos += n_out
    return weights, biases


def pure_flat(weights, biases):
    return np.array([v for w, b in zip(weights, biases) for v in [*sum(w, []), *b]])


def pure_sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def pure_python_epoch(net, x, t, order, lr, momentum, velocity):
    """Reference per-sample epoch on plain floats: forward, SSE, the
    backpropagated deltas and the momentum step, one weight at a time.
    ``velocity`` holds the step carried in from before the epoch.  Returns
    the params and velocity it ends with, laid out like ``net.params``,
    and the epoch SSE."""
    w, b = pure_layers(net.params, net.layer_sizes)
    vw, vb = pure_layers(velocity, net.layer_sizes)
    total = 0.0
    for idx in order:
        acts = [[float(v) for v in x[idx]]]
        for wl, bl in zip(w, b):
            below = acts[-1]
            acts.append([pure_sigmoid(bi + sum(wij * a for wij, a in zip(row, below)))
                         for row, bi in zip(wl, bl)])
        target = [float(v) for v in t[idx]]
        total += sum((o - tt) ** 2 for o, tt in zip(acts[-1], target))
        deltas = [(o - tt) * o * (1.0 - o) for o, tt in zip(acts[-1], target)]
        for layer in range(len(w) - 1, -1, -1):
            below = acts[layer]
            # the next deltas use this layer's weights before they move
            below_deltas = [
                sum(w[layer][i][j] * d for i, d in enumerate(deltas)) * a * (1.0 - a)
                for j, a in enumerate(below)
            ]
            for i, d in enumerate(deltas):
                for j, a in enumerate(below):
                    step = momentum * vw[layer][i][j] - lr * d * a
                    w[layer][i][j] += step
                    vw[layer][i][j] = step
                step = momentum * vb[layer][i] - lr * d
                b[layer][i] += step
                vb[layer][i] = step
            deltas = below_deltas
    return pure_flat(w, b), pure_flat(vw, vb), total


class TestTrainEpoch:
    @pytest.mark.parametrize("sizes", [(2, 2), (3, 4, 2)], ids=["2-2", "3-4-2"])
    @pytest.mark.parametrize(
        "lr, momentum, carry, order",
        [
            pytest.param(0.5, 0.9, 0.0, [2, 0, 3, 1], id="fresh"),
            pytest.param(1.0, 0.0, 0.0, [2, 0, 3, 1], id="plain-descent"),
            pytest.param(1.0, 0.9, 0.2, [2, 0, 3, 1], id="momentum-carry"),
            pytest.param(1.0, 0.5, 0.0, [1, 1, 1], id="repeated-gradient"),
        ],
    )
    def test_per_sample_matches_pure_python_replay(self, sizes, lr, momentum, carry, order):
        # carry: the velocity left by earlier steps, up to +/- carry per weight
        net = new_network(sizes, 3)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (4, sizes[0]))
        t = rng.integers(0, 2, (4, sizes[-1])).astype(float)
        velocity = rng.uniform(-carry, carry, net.params.size)
        order = np.array(order)
        expected_params, expected_velocity, expected_sse = pure_python_epoch(
            net, x, t, order, lr, momentum, velocity
        )
        cfg = TrainConfig(initial_lr=lr, momentum=momentum)
        got_sse = train_epoch(net, x, t, velocity, lr, cfg, order=order)
        np.testing.assert_allclose(net.params, expected_params, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(velocity, expected_velocity, rtol=1e-12, atol=1e-15)
        assert got_sse == pytest.approx(expected_sse, rel=1e-12)

    @pytest.mark.parametrize(
        "inputs, targets, velocity_sizes",
        [
            ((6, 12), (6, 2), (13, 8, 2)),
            ((6,), (6, 2), (13, 8, 2)),
            ((6, 13), (6, 3), (13, 8, 2)),
            ((6, 13), (5, 2), (13, 8, 2)),
            ((6, 13), (6, 2), (13, 4, 2)),
            ((6, 13), (6, 2), (13, 8, 8, 2)),
        ],
    )
    def test_bad_shapes_rejected_before_any_weight_moves(self, inputs, targets, velocity_sizes):
        net = new_network((13, 8, 2), 0)
        velocity = np.full_like(new_network(velocity_sizes, 0).params, 0.5)
        params, steps = net.params.copy(), velocity.copy()
        with pytest.raises(ValueError):
            train_epoch(
                net, np.full(inputs, 0.5), np.ones(targets), velocity, 0.1,
                TrainConfig(), order=np.arange(6),
            )
        np.testing.assert_array_equal(net.params, params)
        np.testing.assert_array_equal(velocity, steps)

    def test_empty_set_rejected(self):
        net = new_network((2, 1), 0)
        with pytest.raises(ValidationError, match="empty"):
            train_epoch(
                net, np.zeros((0, 2)), np.zeros((0, 1)), np.zeros_like(net.params), 0.1,
                TrainConfig(), order=np.arange(0),
            )


def replay_train(network, x, t, config):
    """Scripted rebuild of the train() loop from public primitives,
    snapshotting and restoring state explicitly."""
    rng = np.random.default_rng(config.seed)
    velocity = np.zeros_like(network.params)
    lr = config.initial_lr
    prev = math.inf
    records = []
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(x.shape[0])
        saved_w = [w.copy() for w in network.weights]
        saved_b = [b.copy() for b in network.biases]
        saved_v = velocity.copy()
        epoch_sse = train_epoch(network, x, t, velocity, lr, config, order=order)
        next_lr, accepted = adapt_learning_rate(prev, epoch_sse, lr, config)
        records.append(EpochRecord(epoch, epoch_sse, lr, accepted))
        if accepted:
            prev = epoch_sse
        else:
            for w, s in zip(network.weights, saved_w):
                w[:] = s
            for b, s in zip(network.biases, saved_b):
                b[:] = s
            velocity = saved_v
        lr = next_lr
        if accepted and epoch_sse <= config.target_sse:
            break
    return TrainingHistory(tuple(records))


class TestTrain:
    def test_matches_scripted_replay_with_rejections(self):
        # a hot learning rate plus a zero tolerance band forces rejected
        # epochs, exercising the rollback path
        x, t = heart_like()
        cfg = TrainConfig(initial_lr=1.2, max_sse_rise=0.0, max_epochs=40, target_sse=0.0)
        net = new_network((13, 8, 2), 1)
        reference = Network(net.layer_sizes, net.weights, net.biases, net.seed)

        history = train(net, x, t, cfg)
        expected = replay_train(reference, x, t, cfg)

        flags = [r.accepted for r in history.records]
        assert flags == [r.accepted for r in expected.records]
        assert False in flags
        assert True in flags[flags.index(False):]  # acceptance after a rollback
        for got, want in zip(history.records, expected.records):
            assert got == want
        for a, b in zip(net.weights, reference.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(net.biases, reference.biases):
            np.testing.assert_array_equal(a, b)

    def test_first_epoch_always_accepted(self):
        x, t = heart_like()
        net = new_network((13, 8, 2), 0)
        history = train(net, x, t, TrainConfig(max_epochs=1))
        assert history.records[0].accepted

    def test_learning_rate_recorded_is_rate_in_effect(self):
        x, t = heart_like()
        net = new_network((13, 8, 2), 0)
        cfg = TrainConfig(max_epochs=3, target_sse=0.0)
        history = train(net, x, t, cfg)
        assert history.records[0].learning_rate == cfg.initial_lr
        # an accepted epoch raises the rate for the NEXT epoch
        if history.records[0].accepted:
            assert history.records[1].learning_rate == pytest.approx(
                cfg.initial_lr * cfg.lr_increase, rel=1e-15
            )

    def test_target_sse_stops_early(self):
        x = np.array([[0.0, 1.0]])
        t = np.array([[0.0, 1.0]])
        net = new_network((2, 2), 2)
        cfg = TrainConfig(initial_lr=1.0, target_sse=0.05, max_epochs=5000)
        history = train(net, x, t, cfg)
        assert history.epochs_run < 5000
        assert history.records[-1].accepted
        assert history.final_sse <= 0.05

    def test_divergence_raises_with_epoch(self):
        net = new_network((2, 2), 0)
        net.weights[0][0, 0] = np.inf  # inf * 0.0 input -> nan activation
        x = np.array([[0.0, 1.0]])
        t = np.array([[0.0, 1.0]])
        with pytest.raises(DivergenceError) as err:
            train(net, x, t, TrainConfig(max_epochs=10))
        assert err.value.epoch == 1

    def test_seed_determinism(self):
        x, t = heart_like()
        cfg = TrainConfig(max_epochs=5, target_sse=0.0)
        net_a = new_network((13, 8, 2), 4)
        net_b = new_network((13, 8, 2), 4)
        hist_a = train(net_a, x, t, cfg)
        hist_b = train(net_b, x, t, cfg)
        assert hist_a == hist_b
        for a, b in zip(net_a.weights, net_b.weights):
            np.testing.assert_array_equal(a, b)

    def test_wide_layer_seed_determinism(self):
        x, t = heart_like(n=12, seed=3)
        cfg = TrainConfig(max_epochs=5, target_sse=0.0)
        runs = []
        for _ in range(2):
            net = new_network((13, 96, 2), 6)
            runs.append((net, train(net, x, t, cfg)))
        (net_a, hist_a), (net_b, hist_b) = runs
        assert hist_a == hist_b
        np.testing.assert_array_equal(net_a.params, net_b.params)

    def test_worker_count_invariance(self, under_blas_threads):
        runs = under_blas_threads("""
            import hashlib
            import numpy as np
            from heartnet.network import new_network
            from heartnet.trainer import TrainConfig, train
            rng = np.random.default_rng(3)
            x = rng.uniform(0, 1, (12, 13))
            labels = rng.integers(0, 4, 12)
            t = np.column_stack([labels // 2, labels % 2]).astype(float)
            net = new_network((13, 1024, 2), 6)
            hist = train(net, x, t, TrainConfig(max_epochs=5, target_sse=0.0))
            print(hashlib.sha256(net.params.tobytes()).hexdigest())
            print(repr(hist))
        """)
        first, *rest = runs.values()
        assert len(first) == 2
        assert all(lines == first for lines in rest)

    def test_weights_stay_views_of_params(self, tmp_path):
        def assert_views(net):
            for arr in net.weights + net.biases:
                assert np.shares_memory(arr, net.params)
            net.params[0] += 1.0  # a write through params shows in weights[0]
            assert net.weights[0].flat[0] == net.params[0]
            net.params[0] -= 1.0

        x, t = heart_like()
        net = new_network((13, 8, 2), 1)
        assert_views(net)
        copied = Network(net.layer_sizes, net.weights, net.biases, net.seed)
        assert_views(copied)
        assert not np.shares_memory(copied.params, net.params)
        save_network(net, tmp_path / "model.json")
        assert_views(load_network(tmp_path / "model.json"))

        cfg = TrainConfig(initial_lr=1.2, max_sse_rise=0.0, max_epochs=12, target_sse=0.0)
        history = train(net, x, t, cfg)
        assert not all(r.accepted for r in history.records)  # a rollback ran
        assert_views(net)

    def test_input_validation(self):
        net = new_network((13, 8, 2), 0)
        with pytest.raises(ValueError, match="inputs"):
            train(net, np.zeros((4, 12)), np.zeros((4, 2)), TrainConfig())
        with pytest.raises(ValueError, match="targets"):
            train(net, np.zeros((4, 13)), np.zeros((4, 3)), TrainConfig())
        with pytest.raises(ValidationError, match="empty"):
            train(net, np.zeros((0, 13)), np.zeros((0, 2)), TrainConfig())


class TestHistory:
    def test_final_sse_is_last_accepted(self):
        records = (
            EpochRecord(1, 5.0, 0.1, True),
            EpochRecord(2, 4.0, 0.105, True),
            EpochRecord(3, 9.0, 0.11025, False),
        )
        history = TrainingHistory(records)
        assert history.final_sse == 4.0
        assert history.epochs_run == 3

    def test_final_sse_inf_when_nothing_accepted(self):
        assert TrainingHistory(()).final_sse == math.inf

    def test_csv_round_trip(self, tmp_path):
        x = np.random.default_rng(0).uniform(0, 1, (6, 13))
        t = np.zeros((6, 2))
        net = new_network((13, 4, 2), 0)
        history = train(net, x, t, TrainConfig(max_epochs=8, target_sse=0.0))

        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "epoch,sse,learning_rate,accepted"
        assert len(lines) == 1 + history.epochs_run

        epochs = []
        for line, record in zip(lines[1:], history.records):
            epoch_s, sse_s, lr_s, accepted_s = line.split(",")
            epochs.append(int(epoch_s))
            assert float(sse_s) == record.sse  # repr round-trips exactly
            assert float(lr_s) == record.learning_rate
            assert accepted_s == ("true" if record.accepted else "false")
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)
