"""Momentum updates, the variable-learning-rate policy, and the epoch
loop, checked against hand values and a scripted replay of the loop."""

import math

import numpy as np
import pytest

from heartnet.data import ValidationError
from heartnet.network import load_network, new_network, save_network
from heartnet.trainer import (
    DivergenceError,
    EpochRecord,
    TrainConfig,
    TrainingHistory,
    Velocity,
    adapt_learning_rate,
    apply_update,
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
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestApplyUpdate:
    def setup_net(self):
        net = new_network((2, 2), 0)
        for w in net.weights:
            w[:] = 0.25
        for b in net.biases:
            b[:] = 0.25
        return net

    def grads_from(self, weights, biases):
        from heartnet.network import Gradients

        return Gradients(weights=weights, biases=biases, deltas=[])

    def grads_of(self, net, value):
        return self.grads_from(
            [np.full_like(w, value) for w in net.weights],
            [np.full_like(b, value) for b in net.biases],
        )

    def test_plain_descent(self):
        # momentum 0, lr 1: weights decrease by exactly the gradient
        net = self.setup_net()
        velocity = Velocity.zeros(net)
        apply_update(net, self.grads_of(net, 0.1), velocity, lr=1.0, momentum=0.0)
        np.testing.assert_allclose(net.weights[0], 0.15, rtol=1e-15)
        np.testing.assert_allclose(net.biases[0], 0.15, rtol=1e-15)

    def test_pure_momentum_carry(self):
        net = self.setup_net()
        velocity = Velocity.zeros(net)
        for v in velocity.weights + velocity.biases:
            v[:] = 0.2
        apply_update(net, self.grads_of(net, 0.0), velocity, lr=1.0, momentum=0.9)
        np.testing.assert_allclose(net.weights[0], 0.25 + 0.9 * 0.2, rtol=1e-15)
        np.testing.assert_allclose(velocity.weights[0], 0.18, rtol=1e-15)

    def test_two_identical_gradients(self):
        # second step = -g - 0.5*g with momentum 0.5, lr 1
        net = self.setup_net()
        velocity = Velocity.zeros(net)
        g = self.grads_of(net, 0.1)
        apply_update(net, g, velocity, lr=1.0, momentum=0.5)
        before = net.weights[0].copy()
        apply_update(net, g, velocity, lr=1.0, momentum=0.5)
        step = net.weights[0] - before
        np.testing.assert_allclose(step, -0.1 - 0.05, rtol=1e-15)

    def test_flat_step_matches_per_array_reference(self):
        # the flat in-place update rounds exactly like the per-array
        # formula step = momentum*v - lr*g, so every step is bit-identical
        rng = np.random.default_rng(12)
        net = new_network((5, 4, 3), 12)
        ref_w = [w.copy() for w in net.weights]
        ref_b = [b.copy() for b in net.biases]
        ref_vw = [np.zeros_like(w) for w in ref_w]
        ref_vb = [np.zeros_like(b) for b in ref_b]
        velocity = Velocity.zeros(net)
        for _ in range(6):
            lr = rng.uniform(0.01, 2.0)
            momentum = rng.uniform(0.0, 0.99)
            gw = [rng.normal(size=w.shape) for w in ref_w]
            gb = [rng.normal(size=b.shape) for b in ref_b]
            apply_update(net, self.grads_from(gw, gb), velocity, lr, momentum)
            for params, grads, steps in ((ref_w, gw, ref_vw), (ref_b, gb, ref_vb)):
                for p, g, v in zip(params, grads, steps):
                    step = momentum * v - lr * g
                    p += step
                    v[:] = step
            for got, want in zip(net.weights + net.biases, ref_w + ref_b):
                np.testing.assert_array_equal(got, want)
            for got, want in zip(velocity.weights + velocity.biases, ref_vw + ref_vb):
                np.testing.assert_array_equal(got, want)

    def test_shape_mismatch(self):
        net = self.setup_net()
        other = new_network((3, 2), 0)
        with pytest.raises(ValueError, match="shape|layer count"):
            apply_update(net, self.grads_of(other, 0.1), Velocity.zeros(net), 1.0, 0.9)


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


def pure_python_epoch(net, x, t, order, lr, momentum):
    """Reference per-sample epoch on plain floats, single-layer net."""
    w = [[float(v) for v in row] for row in net.weights[0]]
    b = [float(v) for v in net.biases[0]]
    vw = [[0.0] * len(w[0]) for _ in w]
    vb = [0.0] * len(b)
    total = 0.0
    for idx in order:
        xi = [float(v) for v in x[idx]]
        ti = [float(v) for v in t[idx]]
        out = []
        for i in range(len(w)):
            z = b[i] + sum(w[i][j] * xi[j] for j in range(len(xi)))
            out.append(1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z)))
        total += sum((o - tt) ** 2 for o, tt in zip(out, ti))
        deltas = [(o - tt) * o * (1.0 - o) for o, tt in zip(out, ti)]
        for i in range(len(w)):
            for j in range(len(xi)):
                step = momentum * vw[i][j] - lr * deltas[i] * xi[j]
                w[i][j] += step
                vw[i][j] = step
            step = momentum * vb[i] - lr * deltas[i]
            b[i] += step
            vb[i] = step
    return np.array(w), np.array(b), total


class TestTrainEpoch:
    def test_per_sample_matches_pure_python_replay(self):
        net = new_network((2, 2), 3)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (4, 2))
        t = rng.integers(0, 2, (4, 2)).astype(float)
        order = np.array([2, 0, 3, 1])
        expected_w, expected_b, expected_sse = pure_python_epoch(
            net.copy(), x, t, order, lr=0.5, momentum=0.9
        )
        velocity = Velocity.zeros(net)
        cfg = TrainConfig(initial_lr=0.5)
        got_sse = train_epoch(net, x, t, velocity, 0.5, cfg, order=order)
        np.testing.assert_allclose(net.weights[0], expected_w, rtol=1e-12)
        np.testing.assert_allclose(net.biases[0], expected_b, rtol=1e-12)
        assert got_sse == pytest.approx(expected_sse, rel=1e-12)

    def test_empty_set_rejected(self):
        net = new_network((2, 1), 0)
        with pytest.raises(ValidationError, match="empty"):
            train_epoch(
                net, np.zeros((0, 2)), np.zeros((0, 1)), Velocity.zeros(net), 0.1,
                TrainConfig(), order=np.arange(0),
            )


def replay_train(network, x, t, config):
    """Scripted rebuild of the train() loop from public primitives,
    snapshotting and restoring state explicitly."""
    rng = np.random.default_rng(config.seed)
    velocity = Velocity.zeros(network)
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
    def heart_like(self, n=24, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, (n, 13))
        labels = rng.integers(0, 4, n)
        t = np.column_stack([labels // 2, labels % 2]).astype(float)
        return x, t

    def test_matches_scripted_replay_with_rejections(self):
        # a hot learning rate plus a zero tolerance band forces rejected
        # epochs, exercising the rollback path
        x, t = self.heart_like()
        cfg = TrainConfig(initial_lr=1.2, max_sse_rise=0.0, max_epochs=40, target_sse=0.0)
        net = new_network((13, 8, 2), 1)
        reference = net.copy()

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
        x, t = self.heart_like()
        net = new_network((13, 8, 2), 0)
        history = train(net, x, t, TrainConfig(max_epochs=1))
        assert history.records[0].accepted

    def test_learning_rate_recorded_is_rate_in_effect(self):
        x, t = self.heart_like()
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
        x, t = self.heart_like()
        cfg = TrainConfig(max_epochs=5, target_sse=0.0)
        net_a = new_network((13, 8, 2), 4)
        net_b = new_network((13, 8, 2), 4)
        hist_a = train(net_a, x, t, cfg)
        hist_b = train(net_b, x, t, cfg)
        assert hist_a == hist_b
        for a, b in zip(net_a.weights, net_b.weights):
            np.testing.assert_array_equal(a, b)

    def test_wide_layer_seed_determinism(self):
        x, t = self.heart_like(n=12, seed=3)
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

        x, t = self.heart_like()
        net = new_network((13, 8, 2), 1)
        assert_views(net)
        copied = net.copy()
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
