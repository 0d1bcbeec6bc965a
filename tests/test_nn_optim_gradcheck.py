"""Tests for the gradient-checking utilities."""

import numpy as np

from repro.nn.gradcheck import check_gradients, numerical_gradient
from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.losses import CrossEntropyLoss


def _toy_batch(n=16, d=6, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.integers(0, k, size=n)


class TestGradcheckUtilities:
    def test_numerical_gradient_of_quadratic(self):
        target = np.array([1.0, -2.0, 3.0])

        def func(v):
            return float(((v - target) ** 2).sum())

        grad = numerical_gradient(func, np.zeros(3))
        assert np.allclose(grad, -2 * target, atol=1e-5)

    def test_check_gradients_passes_for_correct_model(self):
        model = Sequential(Linear(5, 4, rng=0), ReLU(), Linear(4, 3, rng=1))
        x, y = _toy_batch(n=6, d=5)
        error = check_gradients(model, CrossEntropyLoss(), x, y, max_params=40)
        assert error < 1e-5

    def test_check_gradients_restores_parameters(self):
        model = Sequential(Linear(5, 3, rng=0))
        x, y = _toy_batch(n=6, d=5)
        before = model.get_flat_params().copy()
        check_gradients(model, CrossEntropyLoss(), x, y, max_params=10)
        assert np.array_equal(model.get_flat_params(), before)
