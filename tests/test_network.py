"""Network construction, forward/backward math, and serialization tests.

The backward tests check the analytic gradients against central finite
differences of half the sum of squared errors, the quantity the deltas
are derived from.
"""

import json
import warnings

import numpy as np
import pytest

from heartnet.data import FormatError
from heartnet.evaluation import evaluate
from heartnet.network import (
    Gradients,
    Network,
    backward,
    forward,
    load_network,
    network_from_dict,
    network_to_dict,
    new_network,
    predict,
    save_network,
    sigmoid,
    sse,
)

SIGMOID_1 = 0.7310585786300049  # 1/(1+e^-1) to double precision


def half_sse_loss(network, x, target):
    return 0.5 * sse(forward(network, x)[-1], target)


def fd_gradients(network, x, target, step=1e-6):
    """Central finite differences over every weight and bias."""
    grads_w = [np.zeros_like(w) for w in network.weights]
    grads_b = [np.zeros_like(b) for b in network.biases]
    for layer, w in enumerate(network.weights):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = half_sse_loss(network, x, target)
            w[idx] = orig - step
            down = half_sse_loss(network, x, target)
            w[idx] = orig
            grads_w[layer][idx] = (up - down) / (2 * step)
    for layer, b in enumerate(network.biases):
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + step
            up = half_sse_loss(network, x, target)
            b[idx] = orig - step
            down = half_sse_loss(network, x, target)
            b[idx] = orig
            grads_b[layer][idx] = (up - down) / (2 * step)
    return grads_w, grads_b


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5
        np.testing.assert_array_equal(sigmoid(np.zeros(3)), np.full(3, 0.5))

    def test_one(self):
        assert sigmoid(1.0) == pytest.approx(SIGMOID_1, abs=1e-15)
        assert sigmoid(np.array([1.0, -1.0]))[0] == pytest.approx(SIGMOID_1, abs=1e-15)

    def test_saturation_negative(self):
        # e^1000 overflows to inf, so the result is exactly 0.0; train,
        # evaluate and predict silence that overflow the same way
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
        # no RuntimeWarning leaves predict or evaluate
        net = new_network((3, 2), 0)
        net.weights[0][:] = 0.0
        net.biases[0][:] = [-1000.0, 1000.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                outputs = forward(net, np.zeros((4, 3)))[-1]
            label = predict(net, np.zeros(3))
            metrics = evaluate(net, np.zeros((4, 3)), np.zeros(4, dtype=int))
        np.testing.assert_array_equal(outputs, np.tile([0.0, 1.0], (4, 1)))
        assert label == 1
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
        assert net.n_parameters == 8 * 13 + 8 + 2 * 8 + 2

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
        with pytest.raises(ValueError, match="exceeds the cap of 5"):
            new_network((13, 8, 8, 8, 8, 2), 0)
        net = new_network((13, 8, 8, 8, 8, 2), 0, max_layers=6)
        assert net.n_layers == 5


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
    def test_zero_error(self):
        assert sse(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0

    def test_unit_errors(self):
        assert sse(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_matches_elementwise_recompute(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            out = rng.uniform(0, 1, 2)
            tgt = rng.uniform(0, 1, 2)
            expected = sum((o - t) ** 2 for o, t in zip(out, tgt))
            assert sse(out, tgt) == pytest.approx(expected, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sse(np.zeros(2), np.zeros(3))


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        net = new_network((3, 4, 2), 5)
        x = np.array([0.1, 0.5, 0.9])
        acts = forward(net, x)
        grads = backward(net, acts, acts[-1].copy())
        for g in grads.weights + grads.biases:
            assert (g == 0.0).all()

    def test_single_neuron_hand_value(self):
        # w=0, b=0, input 1, target 0: output 0.5,
        # delta = (0.5-0)*0.5*0.5 = 0.125, dW = delta*input
        net = new_network((1, 1), 0)
        net.weights[0][:] = 0.0
        net.biases[0][:] = 0.0
        acts = forward(net, [1.0])
        grads = backward(net, acts, np.array([0.0]))
        assert grads.weights[0][0, 0] == 0.125
        assert grads.biases[0][0] == 0.125

    def test_matches_finite_differences(self):
        net = new_network((3, 4, 2), 11)
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 3)
        target = rng.uniform(0, 1, 2)
        grads = backward(net, forward(net, x), target)
        fd_w, fd_b = fd_gradients(net, x, target)
        for a, f in zip(grads.weights, fd_w):
            np.testing.assert_allclose(a, f, rtol=1e-6, atol=1e-9)
        for a, f in zip(grads.biases, fd_b):
            np.testing.assert_allclose(a, f, rtol=1e-6, atol=1e-9)

    def test_shapes_mirror_network(self):
        net = new_network((5, 4, 3, 2), 2)
        x = np.random.default_rng(1).uniform(0, 1, 5)
        grads = backward(net, forward(net, x), np.array([0.0, 1.0]))
        for g, w in zip(grads.weights, net.weights):
            assert g.shape == w.shape
        for g, b in zip(grads.biases, net.biases):
            assert g.shape == b.shape
        assert len(grads.deltas) == net.n_layers

    def test_target_shape_check(self):
        net = new_network((3, 2), 0)
        acts = forward(net, np.zeros(3))
        with pytest.raises(ValueError):
            backward(net, acts, np.zeros(3))

    def test_activation_count_check(self):
        net = new_network((3, 4, 2), 0)
        acts = forward(net, np.zeros(3))
        with pytest.raises(ValueError):
            backward(net, acts[:-1], np.zeros(2))

    def test_worker_count_invariance(self, under_blas_threads):
        runs = under_blas_threads("""
            import hashlib
            import numpy as np
            from heartnet.network import backward, forward, new_network
            net = new_network((13, 1024, 2), 9)
            x = np.random.default_rng(2).uniform(0, 1, 13)
            grads = backward(net, forward(net, x), np.array([1.0, 0.0]))
            for out in (grads.flat, *grads.deltas):
                print(hashlib.sha256(out.tobytes()).hexdigest())
        """)
        first, *rest = runs.values()
        assert len(first) == 3
        assert all(lines == first for lines in rest)


class TestPredict:
    def test_matches_composition(self):
        from heartnet.data import decode_output

        net = new_network((13, 8, 2), 3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(0, 1, 13)
            assert predict(net, x) == decode_output(forward(net, x)[-1])

    def test_saturated_outputs(self):
        net = new_network((13, 2), 0)
        net.weights[0][:] = 0.0
        net.biases[0][:] = -50.0  # both outputs pinned near 0 -> class 0
        assert predict(net, np.ones(13)) == 0
        net.biases[0][:] = 50.0  # both near 1 -> class 3
        assert predict(net, np.ones(13)) == 3


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = new_network((13, 8, 2), 42)
        path = tmp_path / "model.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.layer_sizes == net.layer_sizes
        assert loaded.activation == net.activation
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
        path = tmp_path / "model.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(FormatError):
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
