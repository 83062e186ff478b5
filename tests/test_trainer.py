"""Momentum updates, the variable-learning-rate policy, and the epoch
loop, checked against hand values, a plain-float reference epoch and a
scripted replay of the loop."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import heartnet.trainer
from gradient_oracle import kernel_epoch, reference_epoch
from heartnet.data import (
    ValidationError,
    bundled_fixture_path,
    encode_labels,
    fit_scaler,
    impute,
    load_dataset,
)
from heartnet.network import Network, load_network, new_network, save_network
from heartnet.trainer import (
    DivergenceError,
    _epoch,
    EpochRecord,
    TrainConfig,
    TrainingHistory,
    adapt_learning_rate,
    train,
    train_many,
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
            # integers a float64 cannot hold
            {"initial_lr": 10**400},
            {"lr_increase": 10**400},
            {"max_sse_rise": 10**400},
            # a rate that cannot train
            {"initial_lr": math.inf},
            {"lr_increase": math.inf},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_numpy_scalars_accepted(self):
        cfg = TrainConfig(initial_lr=np.float64(0.1), max_epochs=np.int64(3), seed=np.int64(2))
        assert cfg.initial_lr == 0.1 and cfg.max_epochs == 3 and cfg.seed == 2

    def test_float_settings_are_floats(self):
        cfg = TrainConfig(initial_lr=np.float32(0.1), momentum=0, lr_increase=2, max_sse_rise=0)
        for f in fields(TrainConfig):
            if f.type == "float":
                assert type(getattr(cfg, f.name)) is float
        assert cfg.initial_lr == float(np.float32(0.1))
        x, t = heart_like()
        history = train(new_network((13, 4, 2), seed=0), x, t, replace(cfg, max_epochs=3))
        assert all(type(r.learning_rate) is float for r in history.records)


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
    """One epoch of the per-sample kernel on one network."""

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
        got_sse = kernel_epoch(net, x[order], t[order], velocity, lr, momentum)
        np.testing.assert_allclose(net.params, expected_params, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(velocity, expected_velocity, rtol=1e-12, atol=1e-15)
        assert got_sse == pytest.approx(expected_sse, rel=1e-12)


def scaled_fixture():
    dataset = impute(load_dataset(bundled_fixture_path()))
    return fit_scaler(dataset).transform(dataset.features), encode_labels(dataset.labels)


class TestKernelMatchesReference:
    """The kernel steps each block's copy with its weights and deltas
    negated, through a sample loop generated for the block's structure;
    every bit of params, velocity and SSE must still equal the plain
    arithmetic of ``gradient_oracle.reference_epoch``, epoch after epoch.
    13-2 is a single-layer stack, whose backward takes no hidden delta."""

    # 13-6-5-4-2 is network.MAX_LAYERS deep: a step of four levels
    SIZES = pytest.mark.parametrize(
        "sizes",
        [(13, 8, 2), (13, 16, 8, 2), (13, 2), (13, 6, 5, 4, 2)],
        ids=["13-8-2", "13-16-8-2", "13-2", "13-6-5-4-2"],
    )
    # K8-tied steps a block of 8 rows, then one that 3 rows leave at once
    LENGTHS = pytest.mark.parametrize(
        "lengths",
        [(40,), (40, 33, 33, 9), (40, 40, 33, 33, 33, 9, 9, 9)],
        ids=["K1", "K4-unequal", "K8-tied"],
    )
    # One stack of three depths, whose lengths are unequal and tied across
    # shapes, and a 7-5-3 row whose input and output widths are its own:
    # every level but the deepest holds rows of several shapes and widths.
    MIXED = [
        ((13, 16, 8, 2), 40), ((13, 2), 40), ((13, 8, 2), 33), ((7, 5, 3), 33),
        ((13, 2), 33), ((13, 16, 8, 2), 9), ((13, 8, 2), 9), ((13, 2), 5),
    ]

    @SIZES
    @LENGTHS
    @pytest.mark.parametrize("data", ["binary", "fixture", "x800-weights"])
    def test_same_bits_as_reference_epoch(self, sizes, lengths, data):
        self.check([(sizes, n) for n in lengths], data, 0.9)

    @SIZES
    @LENGTHS
    def test_same_bits_without_momentum(self, sizes, lengths):
        self.check([(sizes, n) for n in lengths], "fixture", 0.0)

    @pytest.mark.parametrize("momentum", [0.9, 0.0])
    @pytest.mark.parametrize("data", ["binary", "fixture", "x800-weights"])
    def test_mixed_shapes_in_one_call_same_bits_as_each_shape(self, data, momentum):
        self.check(self.MIXED, data, momentum)

    @staticmethod
    def check(rows, data, momentum):
        """Step ``rows``, (layer sizes, sample count) pairs sorted largest
        first, through one ``_epoch`` call per epoch, and each shape's rows
        through ``reference_epoch`` on their own."""
        rng = np.random.default_rng(7)
        lengths = [n for _, n in rows]
        if data == "binary":  # exact 0.0 and 1.0 inputs
            x = rng.integers(0, 2, (sum(lengths), 13)).astype(float)
            t = rng.integers(0, 2, (sum(lengths), 2)).astype(float)
        else:
            x, t = scaled_fixture()
        # a row of other widths reads the first inputs, and targets of its own
        wide_t = np.random.default_rng(8).integers(0, 2, (len(x), 3)).astype(float)
        shapes = [sizes for sizes, _ in rows]
        kinds = list(dict.fromkeys(shapes))
        members = [[r for r, sizes in enumerate(shapes) if sizes == kind] for kind in kinds]
        params = [new_network(sizes, seed).params for seed, sizes in enumerate(shapes)]
        if data == "x800-weights":  # saturated sigmoids: e^-a overflows, y is 0.0 or 1.0
            params = [row * 800.0 for row in params]
        lr = np.array([0.1, 0.35, 0.02, 0.9, 0.5, 0.05, 1.5, 0.2][: len(rows)])
        flat_params, flat_velocity = np.concatenate(params), np.zeros(sum(map(len, params)))
        ref_params = [np.stack([params[r] for r in kind_rows]) for kind_rows in members]
        ref_velocity = [np.zeros_like(stack) for stack in ref_params]
        bounds = np.cumsum([0, *map(len, params)])
        spans = [slice(a, b) for a, b in zip(bounds, bounds[1:])]  # each row's params
        offsets = np.cumsum((0, *lengths))
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(5):
                picks = [offsets[r] + rng.permutation(n) for r, n in enumerate(lengths)]
                inputs = [x[i, : sizes[0]] for i, sizes in zip(picks, shapes)]
                targets = [(t if sizes[-1] == 2 else wide_t)[i] for i, sizes in zip(picks, shapes)]
                sse = _epoch(flat_params, flat_velocity, shapes, inputs, targets, lr, momentum)
                for kind, kind_rows, ref_p, ref_v in zip(kinds, members, ref_params, ref_velocity):
                    ref_sse = reference_epoch(
                        ref_p, ref_v, kind, [inputs[r] for r in kind_rows],
                        [targets[r] for r in kind_rows], lr[kind_rows], momentum,
                    )
                    got_p = np.stack([flat_params[spans[r]] for r in kind_rows])
                    got_v = np.stack([flat_velocity[spans[r]] for r in kind_rows])
                    assert got_p.tobytes() == ref_p.tobytes()
                    assert sse[kind_rows].tobytes() == ref_sse.tobytes()
                    if data == "x800-weights" and momentum == 0.0:
                        # a saturated step can be exactly zero, and the
                        # negated weights can flip the sign of that zero,
                        # at one shape as in a mixed stack (see the
                        # trainer's module docstring); with no momentum
                        # the velocity is that step
                        np.testing.assert_array_equal(got_v, ref_v)
                    else:
                        assert got_v.tobytes() == ref_v.tobytes()


def non_finite_sets():
    """(inputs, targets, the message that refuses them) for a 13-x-2 network."""
    x, t = heart_like(n=3)
    nan_input, inf_input, nan_target = x.copy(), x.copy(), t.copy()
    nan_input[1, 4] = np.nan
    inf_input[0, 0] = -np.inf
    nan_target[2, 1] = np.nan
    return [
        (nan_input, t, "non-finite inputs in row 1, column 4: nan"),
        (inf_input, t, "non-finite inputs in row 0, column 0: -inf"),
        (x, nan_target, "non-finite targets in row 2, column 1: nan"),
    ]


def count_epoch_calls(monkeypatch):
    """Wrap the per-sample kernel ``heartnet.trainer._epoch``; the list
    gains, for each call, the sample count and layer sizes of each row it
    steps, in stack order."""
    calls = []
    kernel = heartnet.trainer._epoch

    def counted(params, velocity, shapes, inputs, *rest):
        calls.append([(len(x), sizes) for x, sizes in zip(inputs, shapes)])
        return kernel(params, velocity, shapes, inputs, *rest)

    monkeypatch.setattr(heartnet.trainer, "_epoch", counted)
    return calls


def replay_train(network, x, t, config):
    """Scripted rebuild of the train() loop from the per-sample kernel and
    public primitives, snapshotting and restoring state explicitly."""
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
        epoch_sse = kernel_epoch(network, x[order], t[order], velocity, lr, config.momentum)
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
        reference = Network(net.layer_sizes, net.params, net.seed)

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

    def test_diverged_network_keeps_its_initial_params(self):
        # the diverged epoch 1 is not accepted, and no epoch before it was
        net = new_network((2, 2), 0)
        net.weights[0][0, 0] = np.inf  # inf * 0.0 input -> nan activation
        before = net.params.tobytes()
        with pytest.raises(DivergenceError):
            train(net, np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]), TrainConfig(max_epochs=10))
        assert net.params.tobytes() == before

    def test_interrupted_run_keeps_its_last_accepted_epoch(self, monkeypatch):
        x, t = heart_like()
        settings = dict(initial_lr=1.2, max_sse_rise=0.0, target_sse=0.0)
        three_epochs = new_network((13, 8, 2), 1)
        train(three_epochs, x, t, TrainConfig(**settings, max_epochs=3))

        # epoch 4's kernel steps its stack, then an exception escapes it
        kernel = heartnet.trainer._epoch
        calls = []

        def interrupted(*args):
            calls.append(kernel(*args))
            if len(calls) == 4:
                raise KeyboardInterrupt
            return calls[-1]

        monkeypatch.setattr(heartnet.trainer, "_epoch", interrupted)
        net = new_network((13, 8, 2), 1)
        with pytest.raises(KeyboardInterrupt):
            train(net, x, t, TrainConfig(**settings, max_epochs=10))
        assert net.params.tobytes() == three_epochs.params.tobytes()

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

    def test_worker_count_invariance(self, blas_thread_digests):
        runs = blas_thread_digests["train"]
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
        copied = Network(net.layer_sizes, net.params, net.seed)
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
        message = "inputs must be (n, 13), got shape (4, 12)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            train(net, np.zeros((4, 12)), np.zeros((4, 2)), TrainConfig())
        message = "targets must be (n, 2), got shape (4, 3)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            train(net, np.zeros((4, 13)), np.zeros((4, 3)), TrainConfig())
        with pytest.raises(ValidationError, match="empty"):
            train(net, np.zeros((0, 13)), np.zeros((0, 2)), TrainConfig())
        before = net.params.copy()
        for inputs, targets, message in non_finite_sets():
            with pytest.raises(ValidationError, match=re.escape(message)):
                train(net, inputs, targets, TrainConfig(max_epochs=2))
        assert net.params.tobytes() == before.tobytes()

    def test_one_train_epoch_call_per_epoch(self, monkeypatch):
        # train steps one network through the per-sample kernel once per
        # epoch, on a one-row stack holding every sample
        calls = count_epoch_calls(monkeypatch)
        x, t = heart_like()
        cfg = TrainConfig(max_epochs=4, target_sse=0.0)
        train(new_network((13, 2), 0), x, t, cfg)
        assert calls == [[(len(x), (13, 2))]] * 4


class TestTrainMany:
    """The stacked trainer equals one ``train`` per network, bit for bit:
    weights, records, and the first divergence in the given order."""

    @staticmethod
    def one_by_one(networks, training_sets, config):
        results = []
        for net, (x, t) in zip(networks, training_sets):
            try:
                results.append(train(net, x, t, config))
            except DivergenceError as exc:
                results.append(exc)
        return results

    def assert_same_as_train(self, sizes, training_sets, config, prepare=lambda nets: None):
        """Train fresh networks of ``sizes`` (one layer-size tuple for all,
        or a list of one per network) in one ``train_many`` call and alone;
        returns what each one's own ``train`` gave, its history or its
        :class:`DivergenceError`."""
        shapes = sizes if isinstance(sizes, list) else [sizes] * len(training_sets)
        alone = [new_network(shape, config.seed) for shape in shapes]
        stacked = [new_network(shape, config.seed) for shape in shapes]
        prepare(alone)
        prepare(stacked)
        expected = self.one_by_one(alone, training_sets, config)
        diverged = [want for want in expected if isinstance(want, DivergenceError)]
        if diverged:
            with pytest.raises(DivergenceError) as err:
                train_many(stacked, training_sets, config)
            assert (err.value.epoch, str(err.value)) == (diverged[0].epoch, str(diverged[0]))
        else:
            got = train_many(stacked, training_sets, config)
            assert [repr(have) for have in got] == [repr(want) for want in expected]
        for net_a, net_b in zip(alone, stacked):
            assert net_b.params.tobytes() == net_a.params.tobytes()
        return expected

    @pytest.mark.parametrize("sizes", [(13, 2), (13, 8, 2), (13, 6, 4, 2)])
    def test_unequal_training_sets(self, sizes):
        # sizes out of order and tied, so the stack sorts and shrinks
        training_sets = [heart_like(n, seed) for seed, n in enumerate((17, 30, 5, 30))]
        cfg = TrainConfig(initial_lr=1.2, max_sse_rise=0.0, max_epochs=8, target_sse=0.0)
        histories = self.assert_same_as_train(sizes, training_sets, cfg)
        assert any(not r.accepted for h in histories for r in h.records)  # rollbacks ran

    def test_network_in_the_middle_of_the_stack_reaches_the_target_first(self):
        rng = np.random.default_rng(5)
        hard = (rng.uniform(size=(12, 2)), rng.integers(0, 2, size=(12, 2)).astype(float))
        easy = (np.array([[0.0, 1.0], [0.2, 0.9], [1.0, 0.0], [0.9, 0.1]]),
                np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]))
        # one input, two opposite targets: SSE cannot fall below 1
        contradictory = (np.full((2, 2), 0.5), np.array([[0.0, 1.0], [1.0, 0.0]]))
        cfg = TrainConfig(initial_lr=1.0, target_sse=0.05, max_epochs=300, seed=1)
        histories = self.assert_same_as_train((2, 3, 2), [hard, easy, contradictory], cfg)
        assert [h.epochs_run < cfg.max_epochs for h in histories] == [False, True, False]
        assert histories[1].final_sse <= cfg.target_sse

    def test_diverging_network_leaves_the_others_alone(self):
        # the divergence is raised once the others have trained to their end
        def plant_infinity(networks):
            networks[1].weights[0][0, 0] = np.inf  # inf * 0.0 input -> nan

        training_sets = [heart_like(n, seed) for seed, n in enumerate((20, 24, 9))]
        for x, _ in training_sets:
            x[:, 0] = 0.0
        cfg = TrainConfig(max_epochs=5, target_sse=0.0)
        results = self.assert_same_as_train((13, 8, 2), training_sets, cfg, plant_infinity)
        assert isinstance(results[1], DivergenceError) and results[1].epoch == 1
        assert [r.epochs_run for r in (results[0], results[2])] == [5, 5]

    def test_first_diverged_network_in_the_given_order_is_raised(self):
        # The rate overflows to inf after a few accepted epochs, and each
        # network's own accept/reject sequence sets at which epoch.
        shapes = [(13, 8, 2), (13, 2), (13, 2), (13, 8, 2)]
        training_sets = [heart_like(n, seed) for seed, n in enumerate((5, 9, 17, 24))]
        cfg = TrainConfig(
            initial_lr=1.0, lr_increase=1e20, lr_decrease=1e-10, max_epochs=40, target_sse=0.0
        )
        results = self.assert_same_as_train(shapes, training_sets, cfg)
        epochs = [r.epoch for r in results if isinstance(r, DivergenceError)]
        # the first network diverges, but it is not the first to in time
        assert isinstance(results[0], DivergenceError)
        assert len(epochs) >= 2 and epochs[0] > min(epochs)

    def test_interleaved_shapes_train_as_if_alone(self, monkeypatch):
        shapes = [(13, 2), (13, 8, 2), (13, 8, 2), (13, 2), (13, 2), (13, 8, 2)]
        training_sets = [heart_like(n, seed) for seed, n in enumerate((17, 30, 5, 30, 9, 12))]
        cfg = TrainConfig(initial_lr=1.2, max_sse_rise=0.0, max_epochs=8, target_sse=0.0)
        histories = self.assert_same_as_train(shapes, training_sets, cfg)
        assert any(not r.accepted for h in histories for r in h.records)  # rejections ran
        # one kernel call per epoch for both shapes, its stack largest
        # first, ties in their given order, and each network in it once
        calls = count_epoch_calls(monkeypatch)
        train_many([new_network(shape, cfg.seed) for shape in shapes], training_sets, cfg)
        stack = [(30, (13, 8, 2)), (30, (13, 2)), (17, (13, 2)),
                 (12, (13, 8, 2)), (9, (13, 2)), (5, (13, 8, 2))]
        assert calls == [stack] * cfg.max_epochs

    def test_input_validation(self):
        net = new_network((13, 8, 2), 0)
        cfg = TrainConfig(max_epochs=1)
        assert train_many([], [], cfg) == []
        with pytest.raises(ValueError, match="2 training sets"):
            train_many([net], [heart_like(), heart_like()], cfg)
        message = "inputs must be (n, 13), got shape (4, 12)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            train_many([net], [(np.zeros((4, 12)), np.zeros((4, 2)))], cfg)
        with pytest.raises(ValidationError, match="empty"):
            train_many([net], [(np.zeros((0, 13)), np.zeros((0, 2)))], cfg)
        before = net.params.copy()
        bad_sets = [
            (np.full(6, 0.5), np.ones((6, 2)), "inputs must be (n, 13), got shape (6,)"),
            (np.full((6, 13), 0.5), np.ones((5, 2)), "sample count"),
            *non_finite_sets(),
        ]
        for inputs, targets, message in bad_sets:
            with pytest.raises(ValueError, match=re.escape(message)):
                train_many([net, new_network((13, 8, 2), 1)], [heart_like(), (inputs, targets)], cfg)
        assert net.params.tobytes() == before.tobytes()

    def test_a_network_passed_twice_is_refused(self):
        # two runs would step and write back one params vector in turn
        net = new_network((13, 8, 2), 0)
        before = net.params.tobytes()
        sets = [heart_like(n=9), heart_like(n=7, seed=1)]
        with pytest.raises(ValueError, match="more than once"):
            train_many([net, net], sets, TrainConfig(max_epochs=3, target_sse=0.0))
        with pytest.raises(ValueError, match="more than once"):
            train_many([net, new_network((13, 2), 0), net], [*sets, sets[0]], TrainConfig())
        assert net.params.tobytes() == before

    def test_kernel_follows_the_network_count(self, monkeypatch):
        # one network and a stack of two step through the same kernel,
        # once per epoch, with one row per network in that one call
        calls = count_epoch_calls(monkeypatch)
        cfg = TrainConfig(max_epochs=3, target_sse=0.0)
        train_many([new_network((13, 2), 0)], [heart_like(n=9)], cfg)
        assert calls == [[(9, (13, 2))]] * 3
        calls.clear()
        train_many(
            [new_network((13, 2), 0) for _ in range(2)], [heart_like(n=7), heart_like(n=9)], cfg
        )
        assert calls == [[(9, (13, 2)), (7, (13, 2))]] * 3


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

