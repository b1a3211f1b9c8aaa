"""Layer and optimizer tests, including numerical gradient checks."""

import numpy as np
import pytest

from repro.ricc.layers import Activation, Dense, Sequential
from repro.ricc.optim import Adam


def numerical_grad(loss_fn, value, eps=1e-6):
    grad = np.zeros_like(value)
    flat_value = value.ravel()
    flat_grad = grad.ravel()
    for index in range(flat_value.size):
        original = flat_value[index]
        flat_value[index] = original + eps
        up = loss_fn()
        flat_value[index] = original - eps
        down = loss_fn()
        flat_value[index] = original
        flat_grad[index] = (up - down) / (2 * eps)
    return grad


class TestGradients:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid", "linear"])
    def test_network_gradcheck(self, activation):
        """Backprop matches numerical gradients through a two-layer net."""
        rng = np.random.default_rng(0)
        net = Sequential(
            [Dense(5, 7, rng), Activation(activation), Dense(7, 3, rng)]
        )
        x = rng.normal(size=(4, 5)) + 0.1  # offset avoids relu kinks at 0
        target = rng.normal(size=(4, 3))

        def loss_fn():
            out = net.forward(x)
            return float(((out - target) ** 2).mean())

        out = net.forward(x)
        grad_out = 2.0 * (out - target) / out.size
        net.zero_grad()
        grad_x = net.backward(grad_out)

        for name, value, grad in net.params():
            numeric = numerical_grad(loss_fn, value)
            np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-6, err_msg=name)

        def loss_of_x():
            return float(((net.forward(x) - target) ** 2).mean())

        numeric_x = numerical_grad(loss_of_x, x)
        np.testing.assert_allclose(grad_x, numeric_x, rtol=1e-4, atol=1e-6)

    def test_grad_accumulation(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(5, 3))
        layer.forward(x)
        layer.backward(np.ones((5, 2)))
        first = layer.grad_w.copy()
        layer.forward(x)
        layer.backward(np.ones((5, 2)))
        np.testing.assert_allclose(layer.grad_w, 2 * first)
        layer.zero_grad()
        assert (layer.grad_w == 0).all()

    def test_backward_before_forward(self):
        layer = Dense(2, 2, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            Activation("swish9000")

    def test_sigmoid_stable_at_extremes(self):
        act = Activation("sigmoid")
        out = act.forward(np.array([[-1000.0, 1000.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-12)


class TestOptimizers:
    def _quadratic_descent(self, optimizer, steps=300):
        value = np.array([5.0, -3.0])
        grad = np.zeros(2)
        for _ in range(steps):
            grad[:] = 2 * value  # d/dv ||v||^2
            optimizer.step([("v", value, grad)])
        return value

    def test_adam_converges(self):
        final = self._quadratic_descent(Adam(lr=0.1), steps=500)
        assert np.abs(final).max() < 1e-4

    def test_adam_state_is_per_parameter(self):
        opt = Adam(lr=0.1)
        a = np.array([1.0])
        b = np.array([100.0])
        for _ in range(10):
            opt.step([("a", a, 2 * a), ("b", b, 2 * b)])
        assert a[0] != b[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam(lr=0.0)
