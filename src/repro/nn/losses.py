"""Loss functions.

A loss exposes ``value_and_grad(logits, targets)`` returning the scalar mean
loss over the batch and the gradient with respect to the logits, which is
then fed to ``model.backward``.

Like the layers, the losses are written on trailing axes: with
``client_axes`` leading axes on both arguments (a
:class:`repro.nn.batched.BatchedModel` passes the number its parameter
stack has) the same lines return one mean loss per client, and a gradient
that is each client's own.  Losses hold no state, so — unlike a layer — a
loss is told per call.
"""

from __future__ import annotations

import math

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
        self, predictions: np.ndarray, targets: np.ndarray, client_axes: int = 0
    ) -> tuple[float | np.ndarray, np.ndarray]:
        """Mean loss and its gradient with respect to ``predictions``.

        A ``float`` for one client's batch; with ``client_axes`` leading
        axes, an array of per-client means of that shape.
        """
        raise NotImplementedError


class CrossEntropyLoss(Loss):
    """Softmax cross-entropy for integer class labels.

    ``predictions`` are raw logits of shape ``(n, num_classes)`` and
    ``targets`` are integer labels of shape ``(n,)``.
    """

    @staticmethod
    def _checked_targets(
        predictions: np.ndarray, targets: np.ndarray, client_axes: int = 0
    ) -> np.ndarray:
        """Validate shapes and the label range before anything indexes with them."""
        if predictions.ndim != 2 + client_axes:
            raise ShapeError(
                f"CrossEntropyLoss expects {2 + client_axes}-D logits, "
                f"got {predictions.shape}"
            )
        targets = np.asarray(targets, dtype=np.int64)
        if targets.shape != predictions.shape[:-1]:
            # Caught here, labels of another shape would broadcast through
            # the gather below and train rows on the wrong label.
            raise ShapeError(
                f"batch mismatch: logits {predictions.shape[:-1]}, "
                f"targets {targets.shape}"
            )
        check_label_range(targets, predictions.shape[-1])
        return targets

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        targets = self._checked_targets(predictions, targets)
        log_probs = log_softmax(predictions)
        return -float(log_probs[np.arange(targets.size), targets].mean())

    def value_and_grad(
        self, predictions: np.ndarray, targets: np.ndarray, client_axes: int = 0
    ) -> tuple[float | np.ndarray, np.ndarray]:
        # One shifted/exp/sum feeds both results; every element goes through
        # the same operations as ``log_softmax`` and ``softmax - one_hot``.
        targets = self._checked_targets(predictions, targets, client_axes)
        n = targets.shape[-1]
        # (row, label) for every row — behind (client,) on a stack: one index
        # gathers the label's logit and scatters the ``- 1`` of the gradient.
        label = (np.arange(n), targets)
        if client_axes:
            label = tuple(
                np.arange(size).reshape((size,) + (1,) * (client_axes - axis))
                for axis, size in enumerate(targets.shape[:-1])
            ) + label
        shifted = predictions - np.maximum.reduce(predictions, axis=-1, keepdims=True)
        probs = np.exp(shifted)
        total = np.add.reduce(probs, axis=-1, keepdims=True)
        picked = shifted[label]
        picked -= np.log(total)[..., 0]
        loss = -(np.add.reduce(picked, axis=-1) / n)
        probs /= total
        probs[label] -= 1.0
        probs /= n
        return (loss if client_axes else float(loss)), probs


class MSELoss(Loss):
    """Mean squared error, ``mean((predictions - targets) ** 2)``.

    Predictions may have any shape, so rank alone cannot tell a client axis
    from a sample axis: every axis after the first ``client_axes`` is
    averaged over.
    """

    def value_and_grad(
        self, predictions: np.ndarray, targets: np.ndarray, client_axes: int = 0
    ) -> tuple[float | np.ndarray, np.ndarray]:
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ShapeError(
                f"MSELoss shape mismatch: {predictions.shape} vs {targets.shape}"
            )
        diff = predictions - targets
        clients = diff.shape[:client_axes]
        loss = (diff**2).reshape(clients + (-1,)).mean(axis=-1)
        grad = 2.0 * diff / math.prod(diff.shape[client_axes:])
        return (loss if client_axes else float(loss)), grad
