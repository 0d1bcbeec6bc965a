"""Client-local optimisation problem.

A :class:`LocalProblem` binds a model architecture, a loss, and one client's
local dataset.  Algorithms interact with it purely through flat parameter
vectors: they ask for stochastic gradients of the *local empirical loss*
``f_i`` and add their own algorithm-specific terms (proximal, dual, control
variates) on top.  This mirrors the paper's formulation where every method
differs only in the local objective and the server aggregation rule.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.datasets.base import Dataset, iterate_minibatches
from repro.exceptions import ConfigurationError
from repro.nn.losses import Loss
from repro.nn.module import Module
from repro.utils.rng import SeedLike, as_rng


class LocalProblem:
    """The local loss ``f_i`` of one client, evaluated at flat parameters.

    Parameters
    ----------
    model:
        A model *template*.  The problem loads candidate parameter vectors
        into it to evaluate losses/gradients, and local SGD iterates in its
        flat storage (:meth:`bind`); callers must not rely on the template's
        parameters or gradients between calls.
    loss:
        Loss object mapping (predictions, labels) to a scalar and gradient.
    dataset:
        The client's local data.
    """

    def __init__(self, model: Module, loss: Loss, dataset: Dataset):
        if len(dataset) == 0:
            raise ConfigurationError("LocalProblem requires a non-empty dataset")
        self.model = model
        self.loss = loss
        self.dataset = dataset

    @property
    def num_samples(self) -> int:
        """Number of local training samples ``n_i``."""
        return len(self.dataset)

    @property
    def dim(self) -> int:
        """Model dimensionality ``d``."""
        return self.model.num_params

    # ------------------------------------------------------------------ #
    # Loss / gradient evaluation
    # ------------------------------------------------------------------ #
    def bind(self, params: np.ndarray) -> np.ndarray:
        """Load ``params`` into the model and return its live value vector.

        Writes to the returned vector move the model's parameters, so an
        iterate that lives there is never copied in again: handing it back
        to :meth:`bind` or :meth:`loss_and_grad` skips the load.
        """
        live = self.model.flat_value
        if params is not live:
            self.model.set_flat_params(params)
        return live

    def loss_and_grad(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Mean loss and flat gradient of ``f_i`` on one batch at ``params``.

        The gradient is the model's live gradient vector — the caller's to
        scale and step with in place, valid until the next call (the
        contract of :meth:`repro.nn.batched.BatchedModel.loss_and_grad`);
        copy it to keep it.
        """
        model = self.model
        self.bind(params)
        predictions = model.forward(features)
        value, grad_predictions = self.loss.value_and_grad(predictions, labels)
        model.backward_params(grad_predictions)
        return value, model.flat_grad

    def batch_gradient(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """A copy of the flat gradient only (convenience wrapper)."""
        _, grad = self.loss_and_grad(params, features, labels)
        return grad.copy()

    def full_loss_and_grad(
        self, params: np.ndarray, batch_size: int | None = 256
    ) -> tuple[float, np.ndarray]:
        """Loss and gradient of ``f_i`` over the entire local dataset.

        Evaluated in chunks of ``batch_size`` to bound memory; the result is
        the exact sample-weighted mean.
        """
        total_grad = np.zeros(self.dim, dtype=np.float64)
        total_loss = 0.0
        total_count = 0
        for features, labels in iterate_minibatches(
            self.dataset.features, self.dataset.labels, batch_size, shuffle=False
        ):
            value, grad = self.loss_and_grad(params, features, labels)
            weight = labels.shape[0]
            total_loss += value * weight
            total_grad += grad * weight
            total_count += weight
        return total_loss / total_count, total_grad / total_count

    def full_loss(self, params: np.ndarray, batch_size: int | None = 256) -> float:
        """Mean local loss ``f_i(params)`` over the whole local dataset.

        Forward passes only, in the same chunks and with the same
        sample-weighted mean as :meth:`full_loss_and_grad`.
        """
        model = self.model
        model.set_flat_params(params)
        total_loss = 0.0
        total_count = 0
        for features, labels in iterate_minibatches(
            self.dataset.features, self.dataset.labels, batch_size, shuffle=False
        ):
            weight = labels.shape[0]
            total_loss += self.loss.value(model.forward(features), labels) * weight
            total_count += weight
        return total_loss / total_count

    # ------------------------------------------------------------------ #
    # Batching
    # ------------------------------------------------------------------ #
    def minibatches(
        self, batch_size: int | None, rng: SeedLike = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield shuffled mini-batches for one local epoch."""
        yield from iterate_minibatches(
            self.dataset.features,
            self.dataset.labels,
            batch_size,
            rng=as_rng(rng),
            shuffle=True,
        )
