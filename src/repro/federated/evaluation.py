"""Global-model evaluation on a held-out test set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import Dataset, iterate_minibatches
from repro.nn.losses import Loss
from repro.nn.module import Module


@dataclass
class Evaluation:
    """Accuracy and mean loss of a model on a dataset."""

    accuracy: float
    loss: float
    num_samples: int


def evaluate_model(
    model: Module,
    loss: Loss,
    params: np.ndarray,
    dataset: Dataset,
    batch_size: int | None = 512,
) -> Evaluation:
    """Evaluate flat parameters ``params`` of ``model`` on ``dataset``."""
    model.set_flat_params(params)
    correct = 0
    total_loss = 0.0
    total = 0
    for features, labels in iterate_minibatches(
        dataset.features, dataset.labels, batch_size, shuffle=False
    ):
        predictions = model.forward(features)
        value = loss.value(predictions, labels)
        total_loss += value * labels.shape[0]
        correct += int((predictions.argmax(axis=1) == labels).sum())
        total += labels.shape[0]
    if total == 0:
        return Evaluation(accuracy=float("nan"), loss=float("nan"), num_samples=0)
    return Evaluation(
        accuracy=correct / total, loss=total_loss / total, num_samples=total
    )
