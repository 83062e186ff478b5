"""Network construction, forward/backward math, and serialization tests.

The SSE and backward tests read a sample's SSE and gradient from the one
path training takes, a one-sample :func:`~heartnet.trainer.train_epoch`.
The gradient is checked against central finite differences of half the
sum of squared errors, the quantity the deltas are derived from.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

from heartnet.data import FormatError
from heartnet.evaluation import evaluate
from heartnet.network import (
    Network,
    forward,
    load_network,
    network_from_dict,
    network_to_dict,
    new_network,
    save_network,
    sigmoid,
)
from heartnet.trainer import TrainConfig, train_epoch

SIGMOID_1 = 0.7310585786300049  # 1/(1+e^-1) to double precision


def half_sse_loss(network, x, target):
    err = forward(network, x)[-1] - target
    return 0.5 * float(np.dot(err, err))


def one_sample_epoch(network, x, target):
    """One sample through the path training takes: a one-sample epoch at
    lr 1 and momentum 0 from a zero velocity, on a copy of ``network``.

    Returns the sample's SSE and the gradient of SSE/2 that training
    applies; the velocity ends at exactly minus that gradient.
    """
    velocity = np.zeros_like(network.params)
    sample_sse = train_epoch(
        Network(network.layer_sizes, network.weights, network.biases, network.seed),
        np.atleast_2d(x), np.atleast_2d(target), velocity, 1.0,
        TrainConfig(momentum=0.0), order=np.arange(1),
    )
    return sample_sse, -velocity


def fd_gradients(network, x, target, step=1e-6):
    """Central finite differences over every entry of ``network.params``."""
    params = network.params
    grads = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + step
        up = half_sse_loss(network, x, target)
        params[i] = orig - step
        down = half_sse_loss(network, x, target)
        params[i] = orig
        grads[i] = (up - down) / (2 * step)
    return grads


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5
        np.testing.assert_array_equal(sigmoid(np.zeros(3)), np.full(3, 0.5))

    def test_one(self):
        assert sigmoid(1.0) == pytest.approx(SIGMOID_1, abs=1e-15)
        assert sigmoid(np.array([1.0, -1.0]))[0] == pytest.approx(SIGMOID_1, abs=1e-15)

    def test_saturation_negative(self):
        # e^1000 overflows to inf, so the result is exactly 0.0; train,
        # evaluate and train silence that overflow the same way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                scalar = sigmoid(-1000.0)
                vector = sigmoid(np.array([-1000.0, -800.0]))
        assert scalar == 0.0
        np.testing.assert_array_equal(vector, [0.0, 0.0])

    def test_saturation_positive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = sigmoid(1000.0)
            vector = sigmoid(np.array([1000.0, 800.0]))
        assert scalar == 1.0
        np.testing.assert_array_equal(vector, [1.0, 1.0])

    def test_symmetry(self):
        x = np.array([-7.3, -0.5, 0.2, 4.4])
        np.testing.assert_allclose(sigmoid(-x), 1.0 - sigmoid(x), rtol=0, atol=1e-15)
        for v in x:
            assert sigmoid(-v) == pytest.approx(1.0 - sigmoid(v), abs=1e-15)

    def test_vector_matches_scalar(self):
        x = np.random.default_rng(0).uniform(-20, 20, 50)
        np.testing.assert_array_equal(sigmoid(x), [sigmoid(v) for v in x])

    def test_saturated_network_warns_nowhere(self):
        # |z| ~ 1000 in every layer: outputs pin to exactly 0.0 or 1.0 and
        # no RuntimeWarning leaves evaluate
        net = new_network((3, 2), 0)
        net.weights[0][:] = 0.0
        net.biases[0][:] = [-1000.0, 1000.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                outputs = forward(net, np.zeros((4, 3)))[-1]
            metrics = evaluate(net, np.zeros((4, 3)), np.zeros(4, dtype=int))
        np.testing.assert_array_equal(outputs, np.tile([0.0, 1.0], (4, 1)))
        assert metrics.confusion[0, 1] == 4


class TestNewNetwork:
    def test_seeded_determinism(self):
        a = new_network((13, 2), 7)
        b = new_network((13, 2), 7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        c = new_network((13, 2), 8)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_shapes(self):
        net = new_network((13, 8, 2), 0)
        assert net.weights[0].shape == (8, 13)
        assert net.weights[1].shape == (2, 8)
        assert net.biases[0].shape == (8,)
        assert net.biases[1].shape == (2,)
        assert net.params.size == 8 * 13 + 8 + 2 * 8 + 2

    def test_init_range(self):
        net = new_network((13, 8, 2), 3)
        for w in net.weights + net.biases:
            assert (np.abs(w) <= 0.5).all()

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ValueError, match="at least one neuron"):
            new_network((13, 0, 2), 0)

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError, match="input and an output"):
            new_network((13,), 0)

    def test_layer_cap(self):
        with pytest.raises(ValueError, match="6 layers exceeds the cap of 5"):
            new_network((13, 8, 8, 8, 8, 2), 0)
        assert len(new_network((13, 8, 8, 8, 2), 0).weights) == 4

    @pytest.mark.parametrize("sizes", [(13, 8.7, 2), (13, 8.0, 2), (13, True, 2)])
    def test_non_integer_size_rejected(self, sizes):
        # refused, not truncated to a 13-8-2 or 13-1-2 network
        with pytest.raises(ValueError, match="must be integers"):
            new_network(sizes, 0)

    def test_numpy_sizes_accepted(self):
        net = new_network(np.array([13, 8, 2]), 0)
        assert net.layer_sizes == (13, 8, 2)
        assert all(type(s) is int for s in net.layer_sizes)


class TestForward:
    def test_zero_net_outputs_half(self):
        net = new_network((13, 8, 2), 0)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        acts = forward(net, np.linspace(0, 1, 13))
        np.testing.assert_array_equal(acts[1], np.full(8, 0.5))
        np.testing.assert_array_equal(acts[2], np.full(2, 0.5))

    def test_single_neuron_oracle(self):
        net = new_network((1, 1), 0)
        net.weights[0][:] = 1.0
        net.biases[0][:] = 0.0
        acts = forward(net, [1.0])
        assert acts[-1][0] == pytest.approx(SIGMOID_1, abs=1e-15)

    def test_layer_count_and_ranges(self):
        net = new_network((13, 8, 2), 1)
        acts = forward(net, np.linspace(0, 1, 13))
        assert len(acts) == 3
        for layer in acts[1:]:
            assert ((layer > 0) & (layer < 1)).all()

    def test_wrong_input_shape(self):
        net = new_network((13, 2), 0)
        with pytest.raises(ValueError, match="shape"):
            forward(net, np.zeros(12))

    def test_rows_match_per_sample_forward(self):
        net = new_network((13, 8, 2), 4)
        rows = np.random.default_rng(4).uniform(0, 1, (30, 13))
        expected = np.array([forward(net, row)[-1] for row in rows])
        np.testing.assert_allclose(forward(net, rows)[-1], expected, rtol=1e-14, atol=0)
        with pytest.raises(ValueError, match="shape"):
            forward(net, rows[:, :12])

    def test_worker_count_invariance(self, under_blas_threads):
        # a layer wide enough that a threaded BLAS can split its products
        runs = under_blas_threads("""
            import hashlib
            import numpy as np
            from heartnet.network import forward, new_network
            net = new_network((13, 1024, 2), 7)
            rows = np.random.default_rng(0).uniform(0, 1, (303, 13))
            for out in (*forward(net, rows[0]), forward(net, rows)[-1]):
                print(hashlib.sha256(out.tobytes()).hexdigest())
        """)
        first, *rest = runs.values()
        assert len(first) == 4
        assert all(lines == first for lines in rest)


class TestSse:
    """The SSE of a sample, as the epoch that presents it reports it."""

    def test_zero_error(self):
        net = new_network((3, 2), 0)
        x = np.array([0.3, 0.7, 0.1])
        assert one_sample_epoch(net, x, forward(net, x)[-1])[0] == 0.0

    def test_unit_errors(self):
        # saturated outputs of exactly 1.0 and 0.0 against target (0, 1)
        net = new_network((3, 2), 0)
        net.weights[0][:] = 0.0
        net.biases[0][:] = [1000.0, -1000.0]
        with np.errstate(over="ignore"):
            assert one_sample_epoch(net, np.zeros(3), np.array([0.0, 1.0]))[0] == 2.0

    def test_matches_elementwise_recompute(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            net = new_network((3, 2), seed)
            x = rng.uniform(0, 1, 3)
            tgt = rng.uniform(0, 1, 2)
            expected = sum((o - t) ** 2 for o, t in zip(forward(net, x)[-1], tgt))
            assert one_sample_epoch(net, x, tgt)[0] == pytest.approx(expected, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="targets"):
            one_sample_epoch(new_network((3, 2), 0), np.zeros(3), np.zeros(3))


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        net = new_network((3, 4, 2), 5)
        x = np.array([0.1, 0.5, 0.9])
        assert (one_sample_epoch(net, x, forward(net, x)[-1])[1] == 0.0).all()

    def test_single_neuron_hand_value(self):
        # w=0, b=0, input 1, target 0: output 0.5,
        # delta = (0.5-0)*0.5*0.5 = 0.125, dW = delta*input
        net = new_network((1, 1), 0)
        net.weights[0][:] = 0.0
        net.biases[0][:] = 0.0
        grads = one_sample_epoch(net, [1.0], [0.0])[1]
        np.testing.assert_array_equal(grads, [0.125, 0.125])  # laid out W0, b0

    def test_matches_finite_differences(self):
        net = new_network((3, 4, 2), 11)
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 3)
        target = rng.uniform(0, 1, 2)
        grads = one_sample_epoch(net, x, target)[1]
        np.testing.assert_allclose(grads, fd_gradients(net, x, target), rtol=1e-6, atol=1e-9)

    def test_shapes_mirror_network(self):
        # laid out like params: the output layer's W (2x3) then b (2) last
        net = new_network((5, 4, 3, 2), 2)
        x = np.random.default_rng(1).uniform(0, 1, 5)
        target = np.array([0.0, 1.0])
        grads = one_sample_epoch(net, x, target)[1]
        assert grads.shape == net.params.shape
        assert grads.dtype == np.float64
        acts = forward(net, x)
        out = acts[-1]
        delta = (out - target) * out * (1.0 - out)
        np.testing.assert_array_equal(grads[-2:], delta)
        np.testing.assert_array_equal(grads[-8:-2].reshape(2, 3), np.outer(delta, acts[-2]))

    def test_worker_count_invariance(self, under_blas_threads):
        runs = under_blas_threads("""
            import hashlib
            import numpy as np
            from heartnet.network import new_network
            from heartnet.trainer import TrainConfig, train_epoch
            net = new_network((13, 1024, 2), 9)
            x = np.random.default_rng(2).uniform(0, 1, (1, 13))
            velocity = np.zeros_like(net.params)  # ends at minus the gradient
            train_epoch(net, x, np.array([[1.0, 0.0]]), velocity, 1.0,
                        TrainConfig(momentum=0.0), order=np.arange(1))
            print(hashlib.sha256(velocity.tobytes()).hexdigest())
        """)
        first, *rest = runs.values()
        assert len(first) == 1
        assert all(lines == first for lines in rest)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = new_network((13, 8, 2), 42)
        path = tmp_path / "model.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.layer_sizes == net.layer_sizes
        assert json.loads(path.read_text(encoding="utf-8"))["activation"] == "logistic-sigmoid"
        assert loaded.seed == net.seed
        for a, b in zip(loaded.weights, net.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, net.biases):
            np.testing.assert_array_equal(a, b)

    def test_save_twice_identical_bytes(self, tmp_path):
        net = new_network((13, 8, 2), 42)
        save_network(net, tmp_path / "a.json")
        save_network(net, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_format_version_checked(self, tmp_path):
        net = new_network((3, 2), 0)
        payload = network_to_dict(net)
        payload["format_version"] = 99
        with pytest.raises(FormatError, match="format_version"):
            network_from_dict(payload)

    def test_corrupt_json(self, tmp_path):
        # not JSON, not UTF-8, and nested deeper than the parser recurses
        path = tmp_path / "model.json"
        for content in (b"{broken", b'{"seed": "\xff"}', b"[" * 100_000):
            path.write_bytes(content)
            with pytest.raises(FormatError, match=re.escape(f"{path}: not valid JSON")):
                load_network(path)

    def test_unknown_activation_rejected(self):
        payload = network_to_dict(new_network((3, 2), 0))
        payload["activation"] = "relu"
        with pytest.raises(FormatError, match="activation 'relu' is not supported"):
            network_from_dict(payload)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["weights", "biases"])
    def test_non_finite_parameter_rejected(self, kind, bad):
        payload = network_to_dict(new_network((3, 4, 2), 0))
        layer = np.array(payload[kind][1])
        layer.flat[0] = bad
        payload[kind][1] = layer.tolist()
        with pytest.raises(FormatError, match=f"non-finite {kind} in layer 2"):
            network_from_dict(payload)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("layer_sizes", [13, 8.9, 2]),
            ("layer_sizes", [13, 8.0, 2]),
            ("layer_sizes", ["13", "8", "2"]),
            ("layer_sizes", [13]),
            ("seed", 1.5),
            ("seed", [1]),
            ("seed", math.inf),
            ("seed", -1),
            ("seed", True),
            ("weights", [[[0.1] * 13] * 7 + [["0.1"] * 13], [[0.1] * 8] * 2]),
            ("weights", [[[0.1] * 13] * 8, [[0.1] * 7 + [None]] * 2]),
            ("weights", [[[0.1] * 13] * 8, [[0.1] * 7 + [10**400]] * 2]),
            ("biases", [[0.0] * 8, [True, False]]),
            ("biases", [[0.0] * 8, "01"]),
        ],
        ids=["size-fraction", "size-float", "size-str", "one-layer",
             "seed-fraction", "seed-list", "seed-inf", "seed-negative", "seed-bool",
             "weights-str", "weights-null", "weights-huge-int",
             "biases-bool", "biases-str"],
    )
    def test_malformed_field_rejected(self, key, value):
        # refused, not truncated or coerced: [13, 8.9, 2] once loaded as
        # 13-8-2, and weights of "0.1" or true as 0.1 and 1.0
        payload = network_to_dict(new_network((13, 8, 2), 0))
        payload[key] = value
        message = {"seed": "seed must be", "layer_sizes": "layer sizes|need at least"}.get(
            key, "expected JSON numbers|int too large"
        )
        with pytest.raises(FormatError, match=rf"model: malformed model payload \(({message})"):
            network_from_dict(payload)

    def test_null_seed_accepted(self):
        payload = network_to_dict(new_network((3, 2), 0))
        payload["seed"] = None
        assert network_from_dict(payload).seed is None

    def test_shape_mismatch_rejected(self):
        net = new_network((3, 2), 0)
        payload = network_to_dict(net)
        payload["weights"][0] = payload["weights"][0][:-1]
        with pytest.raises(FormatError):
            network_from_dict(payload)

    def test_dict_has_documented_fields(self):
        payload = network_to_dict(new_network((3, 2), 5))
        assert set(payload) == {
            "layer_sizes",
            "activation",
            "weights",
            "biases",
            "seed",
            "format_version",
        }
        json.dumps(payload)  # JSON-serializable as-is
