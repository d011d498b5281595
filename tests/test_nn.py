import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pastarl.errors import ContractViolationError, DivergenceError
from pastarl.nn import (
    ACTIVATIONS,
    AdamState,
    Network,
    adam_update,
    load_checkpoint,
    network_from_spec,
    network_spec,
    save_checkpoint,
)
from tests.conftest import finite_difference

ARCHS = [
    ([3, 5, 2], ["tanh", "sigmoid"]),
    ([4, 4], ["identity"]),
    ([2, 6, 3, 1], ["tanh", "tanh", "identity"]),
    ([5, 8, 8, 4], ["tanh", "tanh", "sigmoid"]),
]


def _act(name, z):
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return z


def manual_forward(net, x):
    """Independent re-evaluation of the stack on a (B, in) batch, layer by layer."""
    h = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        h = _act(layer.activation, h @ layer.weights.T + layer.biases)
    return h


class TestForward:
    def test_matches_manual_composition(self, rng):
        for dims, acts in ARCHS:
            net = Network.random(dims, acts, rng)
            x = rng.normal(size=(7, dims[0]))
            out, _ = net.forward(x)
            np.testing.assert_array_equal(out, manual_forward(net, x))

    def test_rejects_one_dimensional_input(self, rng):
        """One input row is a (1, in) batch; a bare vector is refused, stacked or not."""
        for stack in (None, 2):
            net = Network([3, 4, 2], ["tanh", "identity"], stack=stack)
            assert net.forward(np.zeros((1, 3)))[0].shape[-2:] == (1, 2)
            with pytest.raises(ContractViolationError, match="input shape"):
                net.forward(np.zeros(3))
            with pytest.raises(ContractViolationError, match="input shape"):
                net.forward(np.zeros((2, 1, 3)))

    def test_rejects_wrong_input_dim(self, rng):
        net = Network.random([3, 2], ["tanh"], rng)
        with pytest.raises(ContractViolationError):
            net.forward(np.zeros((1, 4)))

    def test_identity_single_layer_is_affine(self, rng):
        net = Network([3, 2], ["identity"], rng.normal(size=8))
        layer = net.layers[0]
        x = rng.normal(size=(5, 3))
        out, _ = net.forward(x)
        np.testing.assert_allclose(out, x @ layer.weights.T + layer.biases, rtol=0, atol=0)


class TestInit:
    def test_uniform_bound_and_zero_biases(self, rng):
        net = Network.random([100, 50], ["tanh"], rng)
        bound = 1.0 / np.sqrt(100)
        w = net.layers[0].weights
        assert np.all(np.abs(w) <= bound)
        assert np.std(w) > 0.25 * bound  # actually spread out, not collapsed
        np.testing.assert_array_equal(net.layers[0].biases, np.zeros(50))

    def test_same_seed_same_network(self):
        a = Network.random([3, 4, 2], ["tanh", "sigmoid"], np.random.default_rng(42))
        b = Network.random([3, 4, 2], ["tanh", "sigmoid"], np.random.default_rng(42))
        np.testing.assert_array_equal(a.params, b.params)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ContractViolationError):
            Network([2, 2], ["relu"])
        assert "relu" not in ACTIVATIONS


class TestFlatLayout:
    def test_layer_major_weights_then_biases(self):
        w0 = np.arange(6, dtype=np.float64).reshape(2, 3)
        b0 = np.array([10.0, 11.0])
        w1 = np.array([[20.0, 21.0]])
        b1 = np.array([30.0])
        net = Network([3, 2, 1], ["tanh", "identity"])
        for layer, (w, b) in zip(net.layers, [(w0, b0), (w1, b1)]):
            layer.weights[...] = w
            layer.biases[...] = b
        expected = np.concatenate([w0.ravel(), b0, w1.ravel(), b1])
        np.testing.assert_array_equal(net.params, expected)

    def test_layers_are_views_into_params(self, rng):
        net = Network.random([3, 4, 2], ["tanh", "identity"], rng)
        net.params[:] = np.arange(net.n_params)
        np.testing.assert_array_equal(net.layers[0].weights, np.arange(12.0).reshape(4, 3))
        np.testing.assert_array_equal(net.layers[1].biases, [24.0, 25.0])
        for layer in net.layers:
            assert np.shares_memory(layer.weights, net.params)
            assert np.shares_memory(layer.biases, net.params)

    def test_round_trip_preserves_outputs(self, rng):
        for dims, acts in ARCHS:
            net = Network.random(dims, acts, rng)
            clone = Network(dims, acts)
            clone.params[:] = net.params
            x = rng.normal(size=(4, dims[0]))
            np.testing.assert_array_equal(clone.forward(x)[0], net.forward(x)[0])

    def test_wrong_length_rejected(self, rng):
        net = Network.random([3, 2], ["tanh"], rng)
        with pytest.raises(ContractViolationError, match="network needs"):
            Network([3, 2], ["tanh"], np.zeros(net.n_params + 1))


class TestBackward:
    def test_matches_finite_differences_all_archs(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for dims, acts in ARCHS:
                net = Network.random(dims, acts, rng)
                x = rng.normal(size=(3, dims[0]))
                # one output gradient, and k = 3 of them along an objective axis
                for v in (rng.normal(size=(3, dims[-1])), rng.normal(size=(3, 3, dims[-1]))):
                    theta0 = net.params.copy()
                    _, record = net.forward(x)
                    analytic, _ = net.backward(record, v)
                    for row, v_row in zip(np.atleast_2d(analytic), v.reshape(-1, 3, dims[-1])):

                        def loss(theta):
                            net.params[:] = theta
                            out, _ = net.forward(x)
                            return float(np.sum(out * v_row))

                        numeric = finite_difference(loss, theta0)
                        net.params[:] = theta0
                        np.testing.assert_allclose(row, numeric, rtol=1e-5, atol=1e-7)

    def test_input_grad_matches_finite_differences(self, rng):
        net = Network.random([4, 5, 2], ["tanh", "sigmoid"], rng)
        x = rng.normal(size=4)
        v = rng.normal(size=(1, 2))

        def loss_of_x(xt):
            out, _ = net.forward(xt[None, :])
            return float(np.sum(out * v))

        _, record = net.forward(x[None, :])
        _, input_grad = net.backward(record, v)
        np.testing.assert_allclose(input_grad[0], finite_difference(loss_of_x, x), rtol=1e-6, atol=1e-9)

    def test_batch_grad_is_sum_of_singles(self, rng):
        net = Network.random([3, 4, 2], ["tanh", "identity"], rng)
        x = rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 2))
        _, record = net.forward(x)
        batch_flat, _ = net.backward(record, v)
        total = np.zeros(net.n_params)
        for b in range(5):
            _, record_b = net.forward(x[b : b + 1])
            flat_b, _ = net.backward(record_b, v[b : b + 1])
            total += flat_b
        np.testing.assert_allclose(batch_flat, total, rtol=1e-12, atol=1e-12)

    def test_objective_axis_rows_match_separate_calls(self, rng):
        for dims, acts in ARCHS:
            net = Network.random(dims, acts, rng)
            for x, v in (
                (rng.normal(size=(6, dims[0])), rng.normal(size=(4, 6, dims[-1]))),
                (rng.normal(size=(1, dims[0])), rng.normal(size=(4, 1, dims[-1]))),
            ):
                _, record = net.forward(x)
                flat, input_grad = net.backward(record, v)
                assert flat.shape == (4, net.n_params)
                assert input_grad.shape == (4,) + x.shape
                for i in range(4):
                    flat_i, input_grad_i = net.backward(record, v[i])
                    np.testing.assert_array_equal(flat[i], flat_i)
                    np.testing.assert_array_equal(input_grad[i], input_grad_i)

    def test_stacked_networks_match_separate_ones(self, rng):
        dims, acts = [4, 5, 1], ["tanh", "identity"]
        parts = [Network.random(dims, acts, rng) for _ in range(3)]
        stacked = Network(dims, acts, np.concatenate([p.params for p in parts]), stack=3)
        x = rng.normal(size=(6, 4))
        out, record = stacked.forward(x)
        v = rng.normal(size=(3, 6, 1))
        flat, input_grad = stacked.backward(record, v)
        for i, part in enumerate(parts):
            out_i, record_i = part.forward(x)
            flat_i, input_grad_i = part.backward(record_i, v[i])
            np.testing.assert_array_equal(out[i], out_i)
            np.testing.assert_array_equal(flat[i * part.n_params : (i + 1) * part.n_params], flat_i)
            np.testing.assert_array_equal(input_grad[i], input_grad_i)

    def test_skipping_the_input_grad_keeps_the_parameter_grad(self, rng):
        """input_grad=False drops only the first layer's input-gradient matmul."""
        for dims, acts in ARCHS:
            for stack in (None, 3):
                net = Network(dims, acts, stack=stack)
                net.params[:] = rng.normal(size=net.n_params)
                for x in (rng.normal(size=(6, dims[0])), rng.normal(size=(1, dims[0]))):
                    out, record = net.forward(x)
                    for v in (rng.normal(size=out.shape), rng.normal(size=(4,) + out.shape)):
                        flat, _ = net.backward(record, v)
                        trimmed, input_grad = net.backward(record, v, input_grad=False)
                        assert input_grad is None
                        assert trimmed.tobytes() == flat.tobytes()

    def test_tape_from_other_network_rejected(self, rng):
        """An activation record whose layer widths or count do not fit is refused."""
        a = Network.random([3, 2], ["tanh"], rng)
        b = Network.random([3, 3], ["tanh"], rng)
        deeper = Network.random([3, 2, 2], ["tanh", "tanh"], rng)
        _, record = a.forward(np.zeros((1, 3)))
        with pytest.raises(ContractViolationError, match="activation record"):
            b.backward(record, np.zeros((1, 3)))
        with pytest.raises(ContractViolationError, match="activation record"):
            deeper.backward(record, np.zeros((1, 2)))
        _, record = deeper.forward(np.zeros((1, 3)))
        with pytest.raises(ContractViolationError, match="activation record"):
            a.backward(record, np.zeros((1, 2)))

    def test_wrong_grad_shape_rejected(self, rng):
        net = Network.random([3, 2], ["tanh"], rng)
        _, record = net.forward(np.zeros((4, 3)))
        with pytest.raises(ContractViolationError):
            net.backward(record, np.zeros((5, 2)))


class TestAdam:
    def test_first_step_closed_form(self):
        theta = np.array([1.0, -2.0, 0.5])
        grad = np.array([0.3, -0.1, 0.0])
        state = AdamState(3, lr=0.01)
        new = theta.copy()
        adam_update(new, grad, state)
        # After one step m_hat = g and v_hat = g^2, so the step is
        # lr * g / (|g| + eps) elementwise.
        expected = theta - 0.01 * grad / (np.abs(grad) + 1e-8)
        np.testing.assert_allclose(new, expected, rtol=1e-12, atol=1e-15)
        assert state.step_count == 1

    def test_ascent_mirrors_descent(self):
        theta = np.array([1.0, 2.0])
        grad = np.array([0.5, -0.5])
        down, up = theta.copy(), theta.copy()
        adam_update(down, grad, AdamState(2, lr=0.1))
        adam_update(up, grad, AdamState(2, lr=0.1), ascent=True)
        np.testing.assert_allclose(up - theta, -(down - theta), rtol=1e-12)

    def test_two_steps_match_reference_recursion(self):
        lr, b1, b2, eps = 3e-4, 0.9, 0.999, 1e-8
        theta = np.array([0.2, -0.7])
        grads = [np.array([1.0, -2.0]), np.array([-0.5, 0.25])]
        state = AdamState(2, lr=lr)
        got = theta.copy()
        for g in grads:
            adam_update(got, g, state)
        m = np.zeros(2)
        v = np.zeros(2)
        want = theta.copy()
        for k, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            want -= lr * (m / (1 - b1**k)) / (np.sqrt(v / (1 - b2**k)) + eps)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    @pytest.mark.parametrize("ascent", [False, True])
    def test_in_place_step_matches_the_expressions_bit_for_bit(self, ascent):
        """60 steps on gradients whose scales span 1e-8 to 1e4 (zeros and sign
        flips included) against Adam written as plain expressions; m and v are
        updated in place, so they stay the same objects."""
        rng = np.random.default_rng(11)
        size = 257
        state = AdamState(size, lr=3e-3)
        m_obj, v_obj = state.m, state.v
        got = rng.normal(size=size)
        want, m, v = got.copy(), np.zeros(size), np.zeros(size)
        b1, b2 = state.beta1, state.beta2
        for t in range(1, 61):
            g = rng.normal(size=size) * 10.0 ** rng.uniform(-8, 4, size=size)
            g[rng.random(size) < 0.05] = 0.0
            adam_update(got, g, state, ascent=ascent)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            step = state.lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + state.eps)
            want = want + step if ascent else want - step
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            np.testing.assert_array_equal(state.m.view(np.int64), m.view(np.int64))
            np.testing.assert_array_equal(state.v.view(np.int64), v.view(np.int64))
        assert state.m is m_obj and state.v is v_obj and state.step_count == 60

    def test_non_finite_gradient_raises_named_divergence(self):
        state = AdamState(2)
        with pytest.raises(DivergenceError, match="actor"):
            adam_update(np.zeros(2), np.array([np.nan, 0.0]), state, name="actor")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            adam_update(np.zeros(3), np.zeros(2), AdamState(3))

    def test_adam_update_moves_network_in_place(self, rng):
        net = Network.random([2, 2], ["identity"], rng)
        before = net.layers[0].weights.copy()
        adam_update(net.params, np.ones(net.n_params), AdamState(net.n_params, lr=0.1))
        np.testing.assert_allclose(net.layers[0].weights, before - 0.1, rtol=1e-7)


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self, rng, tmp_path):
        nets = {
            "backbone": Network.random([3, 8, 4], ["tanh", "tanh"], rng),
            "head": Network.random([4, 2], ["sigmoid"], rng),
        }
        vectors = {"log_std": rng.normal(size=2)}
        meta = {"environment": "stub", "iteration": 7}
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, nets, vectors, meta)
        loaded_nets, loaded_vecs, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        np.testing.assert_array_equal(loaded_vecs["log_std"], vectors["log_std"])
        for name in nets:
            np.testing.assert_array_equal(loaded_nets[name].params, nets[name].params)
            assert network_spec(loaded_nets[name]) == network_spec(nets[name])

    def test_version_mismatch_rejected(self, rng, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, {"n": Network.random([2, 1], ["identity"], rng)})
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ContractViolationError, match="format_version"):
            load_checkpoint(path)

    def test_spec_round_trip(self, rng):
        net = Network.random([3, 5, 2], ["tanh", "sigmoid"], rng)
        rebuilt = network_from_spec(network_spec(net))
        assert rebuilt.n_params == net.n_params
        assert network_spec(rebuilt) == network_spec(net)


@given(st.lists(st.floats(-8, 8), min_size=13, max_size=13))
def test_flat_assignment_round_trips_exactly(flat_values):
    # [2, 3, 1] identity/tanh has 2*3+3 + 3*1+1 = 13 parameters.
    net = Network([2, 3, 1], ["tanh", "identity"])
    flat = np.array(flat_values)
    net.params[:] = flat
    np.testing.assert_array_equal(net.params, flat)
    np.testing.assert_array_equal(net.layers[1].weights.ravel(), flat[9:12])
