"""Numerical gradient checking.

Used by the test suite to validate every layer's analytic backward pass
against central finite differences, which is the correctness anchor for the
whole training substrate.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.losses import Loss
from repro.nn.module import Module


def numerical_gradient(
    func: Callable[[np.ndarray], float], x: np.ndarray, epsilon: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    perturbed = x.copy()
    for index in range(x.size):
        original = perturbed[index]
        perturbed[index] = original + epsilon
        plus = func(perturbed)
        perturbed[index] = original - epsilon
        minus = func(perturbed)
        perturbed[index] = original
        grad[index] = (plus - minus) / (2.0 * epsilon)
    return grad


def analytic_flat_gradient(
    model: Module, loss: Loss, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Backpropagated gradient of ``mean loss`` w.r.t. the flat parameters."""
    predictions = model.forward(x)
    _, grad_pred = loss.value_and_grad(predictions, y)
    model.backward(grad_pred)
    return model.get_flat_grad()


def check_gradients(
    model: Module,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float = 1e-6,
    max_params: int | None = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Return the max absolute error between analytic and numerical gradients.

    For large models only ``max_params`` randomly chosen coordinates are
    checked (checking all of them would be quadratic in model size).
    """
    flat0 = model.get_flat_params()
    analytic = analytic_flat_gradient(model, loss, x, y)

    def loss_at(flat: np.ndarray) -> float:
        model.set_flat_params(flat)
        value = loss.value(model.forward(x), y)
        return value

    if max_params is not None and flat0.size > max_params:
        rng = rng if rng is not None else np.random.default_rng(0)
        indices = rng.choice(flat0.size, size=max_params, replace=False)
    else:
        indices = np.arange(flat0.size)

    max_error = 0.0
    perturbed = flat0.copy()
    for index in indices:
        original = perturbed[index]
        perturbed[index] = original + epsilon
        plus = loss_at(perturbed)
        perturbed[index] = original - epsilon
        minus = loss_at(perturbed)
        perturbed[index] = original
        numeric = (plus - minus) / (2.0 * epsilon)
        max_error = max(max_error, abs(numeric - analytic[index]))

    model.set_flat_params(flat0)
    return float(max_error)
