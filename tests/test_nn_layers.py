"""Gradient-correctness tests for every layer (analytic vs finite differences)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.gradcheck import check_gradients
from repro.nn.layers import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import CrossEntropyLoss

RNG = np.random.default_rng(0)


def _gradcheck(model, x, y, tol=1e-5):
    error = check_gradients(model, CrossEntropyLoss(), x, y, max_params=60)
    assert error < tol, f"max gradient error {error} exceeds {tol}"


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(5, 3, rng=0)
        out = layer.forward(RNG.normal(size=(7, 5)))
        assert out.shape == (7, 3)

    def test_gradcheck(self):
        model = Sequential(Linear(6, 5, rng=0), Tanh(), Linear(5, 3, rng=1))
        x = RNG.normal(size=(8, 6))
        y = RNG.integers(0, 3, size=8)
        _gradcheck(model, x, y)

    def test_wrong_input_dim_rejected(self):
        layer = Linear(5, 3, rng=0)
        with pytest.raises(ShapeError):
            layer.forward(RNG.normal(size=(7, 4)))

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ShapeError):
            Linear(5, 3, rng=0).backward(RNG.normal(size=(7, 3)))

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            Linear(0, 3)

    def test_he_normal_weights_and_zero_bias(self):
        layer = Linear(400, 50, rng=0)
        assert np.all(layer.bias.value == 0)
        std = layer.weight.value.std()
        assert abs(std - np.sqrt(2.0 / 400)) < 0.05 * np.sqrt(2.0 / 400)

    def test_seed_fixes_the_weights(self):
        first, second = Linear(5, 3, rng=4), Linear(5, 3, rng=4)
        assert np.array_equal(first.weight.value, second.weight.value)
        assert not np.array_equal(first.weight.value, Linear(5, 3, rng=5).weight.value)


class TestConv2D:
    def test_forward_shape_same_padding(self):
        layer = Conv2D(2, 4, kernel_size=3, padding=1, rng=0)
        out = layer.forward(RNG.normal(size=(3, 2, 8, 8)))
        assert out.shape == (3, 4, 8, 8)

    def test_gradcheck(self):
        model = Sequential(
            Conv2D(1, 2, kernel_size=3, padding=1, rng=0),
            ReLU(),
            Flatten(),
            Linear(2 * 6 * 6, 3, rng=1),
        )
        x = RNG.normal(size=(4, 1, 6, 6))
        y = RNG.integers(0, 3, size=4)
        _gradcheck(model, x, y)

    def test_stride_reduces_size(self):
        layer = Conv2D(1, 2, kernel_size=3, stride=2, padding=1, rng=0)
        out = layer.forward(RNG.normal(size=(1, 1, 8, 8)))
        assert out.shape == (1, 2, 4, 4)

    def test_wrong_channels_rejected(self):
        layer = Conv2D(3, 4, kernel_size=3, rng=0)
        with pytest.raises(ShapeError):
            layer.forward(RNG.normal(size=(1, 1, 8, 8)))

    @pytest.mark.parametrize(
        "sizes", [(0, 2, 3, 1, 0), (1, 2, 3, 0, 0), (1, 2, 3, 1, -1)]
    )
    def test_invalid_config_rejected(self, sizes):
        with pytest.raises(ConfigurationError):
            Conv2D(*sizes)


class TestMaxPool2D:
    def test_forward_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        assert np.array_equal(out.ravel(), [5, 7, 13, 15])

    def test_backward_routes_to_argmax(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4
        assert grad[0, 0, 1, 1] == 1.0  # position of value 5

    def test_gradcheck_through_pool(self):
        model = Sequential(
            Conv2D(1, 2, kernel_size=3, padding=1, rng=0),
            MaxPool2D(2),
            Flatten(),
            Linear(2 * 3 * 3, 2, rng=1),
        )
        x = RNG.normal(size=(3, 1, 6, 6))
        y = RNG.integers(0, 2, size=3)
        _gradcheck(model, x, y)

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            MaxPool2D(0)

    def test_overlapping_windows_sum_their_gradients(self):
        pool = MaxPool2D(2, stride=1)
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 1] = 1.0  # the maximum of all four windows
        assert np.array_equal(pool.forward(x), np.ones((1, 1, 2, 2)))
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad[0, 0, 1, 1] == 4.0 and grad.sum() == 4.0


class TestActivationsAndShape:
    def test_relu_masks_negative(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])
        grad = relu.backward(np.array([[1.0, 1.0]]))
        assert np.array_equal(grad, [[0.0, 1.0]])

    def test_tanh_range(self):
        out = Tanh().forward(np.array([[-100.0, 0.0, 100.0]]))
        assert np.allclose(out, [[-1.0, 0.0, 1.0]])

    def test_flatten_roundtrip(self):
        flat = Flatten()
        x = RNG.normal(size=(2, 3, 4, 4))
        out = flat.forward(x)
        assert out.shape == (2, 48)
        assert flat.backward(out).shape == x.shape

    def test_tanh_backward_is_one_minus_the_square(self):
        tanh = Tanh()
        x = RNG.normal(size=(3, 4))
        out = tanh.forward(x)
        grad = RNG.normal(size=(3, 4))
        assert np.array_equal(tanh.backward(grad), grad * (1.0 - out**2))

    @pytest.mark.parametrize(
        "layer", [ReLU, Tanh, Flatten, lambda: MaxPool2D(2)],
        ids=["relu", "tanh", "flatten", "maxpool"],
    )
    def test_backward_before_forward_rejected(self, layer):
        with pytest.raises(ShapeError):
            layer().backward(np.ones((1, 1, 2, 2)))


class TestSequential:
    def test_len_and_indexing(self):
        model = Sequential(Linear(3, 2, rng=0), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)

    def test_append_returns_self(self):
        model = Sequential(Linear(3, 2, rng=0))
        assert model.append(ReLU()) is model
        assert len(model) == 2
