"""Loss functions.

A loss exposes ``value_and_grad(logits, targets)`` returning the scalar mean
loss over the batch and the gradient with respect to the logits, which is
then fed to ``model.backward``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.functional import check_label_range, log_softmax


class Loss:
    """Interface for batch losses."""

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""
        loss, _ = self.value_and_grad(predictions, targets)
        return loss

    def value_and_grad(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Mean loss and its gradient with respect to ``predictions``."""
        raise NotImplementedError


class CrossEntropyLoss(Loss):
    """Softmax cross-entropy for integer class labels.

    ``predictions`` are raw logits of shape ``(n, num_classes)`` and
    ``targets`` are integer labels of shape ``(n,)``.
    """

    @staticmethod
    def _checked_targets(predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Validate shapes and the label range before anything indexes with them."""
        if predictions.ndim != 2:
            raise ShapeError(
                f"CrossEntropyLoss expects 2-D logits, got {predictions.shape}"
            )
        targets = np.asarray(targets, dtype=np.int64)
        if targets.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got shape {targets.shape}")
        n, num_classes = predictions.shape
        if targets.shape[0] != n:
            raise ShapeError(
                f"batch mismatch: logits {n}, targets {targets.shape[0]}"
            )
        check_label_range(targets, num_classes)
        return targets

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        targets = self._checked_targets(predictions, targets)
        log_probs = log_softmax(predictions)
        return -float(log_probs[np.arange(targets.size), targets].mean())

    def value_and_grad(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        # One shifted/exp/sum feeds both results; every element goes through
        # the same operations as ``log_softmax`` and ``softmax - one_hot``.
        targets = self._checked_targets(predictions, targets)
        n = targets.size
        rows = np.arange(n)
        shifted = predictions - np.maximum.reduce(predictions, axis=-1, keepdims=True)
        probs = np.exp(shifted)
        total = np.add.reduce(probs, axis=-1, keepdims=True)
        picked = shifted[rows, targets]
        picked -= np.log(total)[:, 0]
        loss = -float(np.add.reduce(picked) / n)
        probs /= total
        probs[rows, targets] -= 1.0
        probs /= n
        return loss, probs


class MSELoss(Loss):
    """Mean squared error, ``mean((predictions - targets) ** 2)``."""

    def value_and_grad(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ShapeError(
                f"MSELoss shape mismatch: {predictions.shape} vs {targets.shape}"
            )
        diff = predictions - targets
        loss = float(np.mean(diff**2))
        grad = 2.0 * diff / diff.size
        return loss, grad
