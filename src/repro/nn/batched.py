"""A cohort of clients as one stacked tensor, on the model's own layers.

The federated hot path is local training: every selected client runs a few
epochs of SGD on a small model, and the serial executor pays the full
Python dispatch cost (layer-by-layer forward/backward) once *per client per
batch*.  For the models the presets sweep that dispatch cost dwarfs the
arithmetic.  This module removes it by giving the whole cohort a leading
client axis:

* parameters are one ``(C, dim)`` array (one flat vector per client),
* features/labels are ``(C, n, d)`` / ``(C, n)`` stacks,
* each layer's forward/backward is a single stacked ``matmul`` /
  elementwise op over all ``C`` clients at once.

There is no second set of kernels.  The layers and losses of
:mod:`repro.nn.layers` / :mod:`repro.nn.losses` are written on trailing
axes, and a :class:`BatchedModel` is a private copy of the template's own
layers whose ``Parameter.value`` / ``.grad`` are ``(C, *shape)`` views —
the values into the caller's ``(C, dim)`` rows, the gradients into the
model's **workspace**: a single allocation at the largest stack seen so
far, handed out as prefix views and reused across every step and round
(the stack a call sees shrinks epoch by epoch, see
:func:`batched_run_local_sgd`, so sizing per shape would reallocate every
step).  The gradient buffer is reused *without zeroing* — this is safe
because each parametric layer's backward **assigns** (never accumulates)
its parameters' gradients, and the views tile the entire flat layout
(:func:`build_batched_model` checks ``dim == model.num_params``).

:func:`build_batched_model` accepts the model zoo's layer and loss types —
exact types only — and returns ``None`` for anything else (custom layers,
subclassed losses); the caller then falls back to per-client execution.
:func:`batched_run_local_sgd` mirrors
:func:`repro.algorithms.base.run_local_sgd` step for step — same batch
schedule, same update order, same loss bookkeeping — so a batched cohort
reproduces the serial histories up to stacked-matmul reduction order
(``atol=1e-8`` on the pinned goldens, see ``docs/tutorials/fast-sweeps.md``
for the tolerance contract).  The two loops stay two: routing one client
through the stack costs 19–36 % per update on mini-batched shapes and moves
the mean train loss in its last bit (``np.mean`` of a list reduces
pairwise, the stacked loop keeps a running sum).  Clients of one cohort
may run different numbers of local epochs: the cohort is ordered by
descending epochs and each epoch runs on the contiguous prefix of
still-active clients.

Nothing here knows about clients, algorithms, or executors: the module
consumes arrays and a training config.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.layers import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import CrossEntropyLoss, Loss, MSELoss
from repro.nn.models import _ImageReshape
from repro.nn.module import Module
from repro.nn.parameter import Parameter

#: Extra per-parameter gradient term added before each SGD step, evaluated
#: at the stacked parameters of the clients still training — the
#: ``(active, dim)`` prefix of the cohort (proximal/dual terms).
ExtraGrad = Callable[[np.ndarray], np.ndarray]

#: What runs stacked.  Exact types: a subclass may override ``forward`` or
#: ``value_and_grad`` with semantics that do not carry a client axis.
STACKABLE_LAYERS = (Linear, Conv2D, MaxPool2D, _ImageReshape, ReLU, Tanh, Flatten)
STACKABLE_LOSSES = (CrossEntropyLoss, MSELoss)


class _Workspace:
    """One scratch allocation, handed out as prefix views of any shape.

    Sized to the largest request seen so far and never shrunk.  The active
    prefix of a cohort changes every epoch, so a buffer per shape would
    either reallocate every step or pile up one array per prefix length; a
    prefix of one flat buffer is C-contiguous for every shape.  Contents
    are whatever the previous user left: callers assign or ``fill``.
    """

    def __init__(self) -> None:
        self._flat: np.ndarray | None = None

    def view(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if self._flat is None or self._flat.size < size:
            self._flat = np.empty(size, dtype=np.float64)
        return self._flat[:size].reshape(shape)


# --------------------------------------------------------------------------- #
# The stack-bound model
# --------------------------------------------------------------------------- #
def _stack_copy(layer: Module) -> Module:
    """A private copy of ``layer`` for a stack: configuration only.

    Cached activations stay behind and every :class:`Parameter` is a new
    object (bound to a stack before it is read), so the copy shares no
    array with the per-client template or with another copy.
    """
    twin = copy.copy(layer)
    for name, value in vars(layer).items():
        if isinstance(value, np.ndarray):
            setattr(twin, name, None)
        elif isinstance(value, Parameter):
            param = copy.copy(value)
            param.stacked = True
            setattr(twin, name, param)
    twin._client_axes = 1
    return twin


class BatchedModel:
    """A model template's own layers, bound to a ``(C, dim)`` parameter stack.

    The flat-parameter layout is exactly the template's
    :meth:`~repro.nn.module.Module.get_flat_params` order, so rows of the
    stacked parameter array round-trip into the serial model unchanged.

    The model owns one gradient workspace, sized to the largest stack it
    has seen and handed out as its first ``C`` rows, reused across every
    step, round, and :meth:`loss_and_grad` call.  **The returned gradient
    array is a view of this workspace and is overwritten by the next call**
    — consume it (or copy it) before calling again; the caller may scale or
    add to it in place until then.  A ``BatchedModel`` instance is not safe
    for concurrent use; executors give each concurrent cohort its own
    :meth:`clone`.
    """

    def __init__(self, template: list[Module], loss: Loss) -> None:
        self._template = template
        #: Private stack-bound copies of the template's leaf layers, in order.
        self.layers = [_stack_copy(layer) for layer in template]
        self.loss = loss  # stateless, so shared with the template
        #: Optional :class:`repro.obs.Tracer`: when set, every layer's
        #: forward/backward (and the loss) is recorded as a ``kernel.*``
        #: span.  The untraced hot path pays exactly one ``None`` check.
        self.tracer = None
        #: Every parameter with its per-client shape and its columns of a row.
        self._layout: list[tuple[Parameter, tuple[int, ...], slice]] = []
        self._first_parametric = len(self.layers)
        offset = 0
        for index, layer in enumerate(self.layers):
            for param in layer._collect_parameters():
                self._first_parametric = min(self._first_parametric, index)
                self._layout.append(
                    (param, param.shape, slice(offset, offset + param.size))
                )
                offset += param.size
        self.dim = offset
        self._grads = _Workspace()
        self._bind(np.empty((0, self.dim), dtype=np.float64))

    def clone(self) -> "BatchedModel":
        """A fresh execution context: same layers, own copies and workspace.

        Cohorts executing concurrently must not share layers: forward
        caches activations on the instance (``_input``/``_mask``/...).
        """
        return BatchedModel(self._template, self.loss)

    def _bind(self, params: np.ndarray) -> None:
        """Point every parameter at its columns of ``params`` and of the
        first ``C`` rows of the gradient workspace, as ``(C, *shape)`` views.

        Done when the stack changes, not per step: local SGD hands the same
        rows to every step of an epoch and moves them in place.  The
        workspace is never zeroed between uses: every parametric layer's
        backward assigns its parameters' gradients, and the views tile the
        whole row, so each backward pass overwrites every element.
        """
        cohort = params.shape[0]
        grads = self._grads.view((cohort, self.dim))
        for param, shape, columns in self._layout:
            param.value = params[:, columns].reshape((cohort,) + shape)
            param.grad = grads[:, columns].reshape((cohort,) + shape)
        self._params, self._param_grads = params, grads

    def _backward_steps(self) -> Iterator[tuple[Module, Callable]]:
        """The backward chain, last layer first, as ``(layer, method)`` pairs.

        Nothing upstream of the first parametric layer reads a gradient, so
        the chain stops there (``Sequential.backward_params``): that layer
        writes its gradients without an input gradient and the layers
        before it do not run.
        """
        first = self._first_parametric
        for layer in reversed(self.layers[first + 1 :]):
            yield layer, layer.backward
        if first < len(self.layers):
            yield self.layers[first], self.layers[first].backward_params

    def loss_and_grad(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-client mean loss ``(C,)`` and flat gradients ``(C, dim)``.

        The gradient array is the model's reused workspace buffer: it is
        valid until the next ``loss_and_grad`` call on this instance.
        """
        if params is not self._params:
            self._bind(params)
        if self.tracer is not None:
            return self._profiled_loss_and_grad(features, labels)
        x = features
        for layer in self.layers:
            x = layer.forward(x)
        losses, grad_output = self.loss.value_and_grad(x, labels, client_axes=1)
        for _, step in self._backward_steps():
            grad_output = step(grad_output)
        return losses, self._param_grads

    def _profiled_loss_and_grad(
        self, features: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The same computation with one span per kernel (``repro profile``)."""

        def timed(key: str, call: Callable, *args):
            with self.tracer.span(f"kernel.{key}"):
                return call(*args)

        x = features
        for layer in self.layers:
            x = timed(f"{type(layer).__name__}.forward", layer.forward, x)
        losses, grad_output = timed(
            type(self.loss).__name__, self.loss.value_and_grad, x, labels, 1
        )
        for layer, step in self._backward_steps():
            grad_output = timed(f"{type(layer).__name__}.backward", step, grad_output)
        return losses, self._param_grads

    def full_loss_and_grad(
        self,
        params: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
        batch_size: int | None = 256,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-client loss/gradient over the whole stacked dataset.

        Chunked along the sample axis with the same sample-weighted
        accumulation as :meth:`LocalProblem.full_loss_and_grad`, so the
        reduction matches the serial path chunk for chunk.  Returns fresh
        arrays (not the workspace buffer).
        """
        cohort, n = features.shape[0], features.shape[1]
        step = n if batch_size is None or batch_size >= n else batch_size
        total_loss = np.zeros(cohort, dtype=np.float64)
        total_grad = np.zeros((cohort, self.dim), dtype=np.float64)
        for start in range(0, n, step):
            chunk = slice(start, min(start + step, n))
            losses, grads = self.loss_and_grad(
                params, features[:, chunk], labels[:, chunk]
            )
            weight = chunk.stop - chunk.start
            total_loss += losses * weight
            total_grad += grads * weight
        return total_loss / n, total_grad / n


def _leaf_layers(model: Module) -> list[Module] | None:
    """Flatten nested ``Sequential`` containers, or ``None`` if unsupported."""
    if not isinstance(model, Sequential):
        return None
    flat: list[Module] = []
    for layer in model.layers:
        if isinstance(layer, Sequential):
            inner = _leaf_layers(layer)
            if inner is None:
                return None
            flat.extend(inner)
        else:
            flat.append(layer)
    return flat


def build_batched_model(model: Module, loss: Loss) -> BatchedModel | None:
    """Bind a model template's layers to a stack: a :class:`BatchedModel`.

    Covers the full model zoo — Linear/activation stacks, the im2col
    convolution + pooling blocks of ``SmallCNN``.
    Returns ``None`` when a layer or the loss is not one of
    :data:`STACKABLE_LAYERS` / :data:`STACKABLE_LOSSES` (custom layers,
    subclassed losses) — the caller then falls back to per-client execution.
    """
    layers = _leaf_layers(model)
    if (
        layers is None
        or type(loss) not in STACKABLE_LOSSES
        or any(type(layer) not in STACKABLE_LAYERS for layer in layers)
    ):
        return None
    batched = BatchedModel(layers, loss)
    if batched.dim != model.num_params:
        # The model carries parameters outside its layers; running it
        # stacked would silently train the wrong columns.
        return None
    return batched


# --------------------------------------------------------------------------- #
# Cohorts and batched local SGD
# --------------------------------------------------------------------------- #
@dataclass
class BatchedCohort:
    """A same-shape group of clients stacked along a leading axis.

    The stacked implementation of the cohort interface an algorithm's
    ``batched_local_update`` trains against (``num_samples``, ``epochs``,
    ``steps_per_epoch``, ``run_sgd``, ``full_loss_and_grad``); the
    per-client one is :class:`repro.algorithms.base.OneClientCohort`.

    Clients are ordered by **descending local epochs**: ``epochs`` is the
    non-increasing ``(C,)`` vector of each client's realised epoch count,
    so the clients still training at epoch ``e`` are always the contiguous
    prefix ``[:active(e)]`` of every stacked array.

    ``epoch_orders`` carries the pre-drawn shuffles, one ``(active(e), n)``
    index array per epoch — drawn by the caller *in task order* from each
    task's own RNG, so the cohort consumes exactly the random numbers the
    serial executor would have (see
    :meth:`repro.systems.executor.VectorizedExecutor.run_tasks`).  ``None``
    means full-batch training, which draws nothing, again like the serial
    path.
    """

    model: BatchedModel
    features: np.ndarray  # (C, n, d)
    labels: np.ndarray  # (C, n)
    epochs: np.ndarray  # (C,), non-increasing
    epoch_orders: list[np.ndarray] | None = None  # per epoch: (active(e), n)

    def __post_init__(self) -> None:
        self.epochs = np.asarray(self.epochs, dtype=np.int64)
        if self.epochs.shape != (self.num_clients,) or np.any(
            self.epochs[1:] > self.epochs[:-1]
        ):
            raise ShapeError(
                f"cohort epochs must be a non-increasing vector of length "
                f"{self.num_clients}, got {self.epochs.tolist()}"
            )

    @property
    def num_clients(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_samples(self) -> int:
        """Local training-set size ``n`` (identical across the cohort)."""
        return int(self.features.shape[1])

    def active(self, epoch: int) -> int:
        """How many clients (a prefix) still train at 0-based ``epoch``."""
        return int(np.count_nonzero(self.epochs > epoch))

    def full_loss_and_grad(
        self, params: np.ndarray, batch_size: int | None = 256
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every client's exact local loss/gradient at shared ``params``."""
        stacked = np.broadcast_to(
            np.asarray(params, dtype=np.float64), (self.num_clients, params.size)
        )
        return self.model.full_loss_and_grad(
            stacked, self.features, self.labels, batch_size=batch_size
        )

    def steps_per_epoch(self, batch_size: int | None) -> int:
        return local_steps_per_epoch(self.num_samples, batch_size)

    def run_sgd(
        self, start_params: np.ndarray, config, extra_grad: ExtraGrad | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`batched_run_local_sgd` on this cohort.

        A writable C-contiguous float64 ``start_params`` is trained in place
        and returned; any other (a broadcast global model) is copied once.
        """
        in_place = (
            start_params.flags.writeable
            and start_params.flags.c_contiguous
            and start_params.dtype == np.float64
        )
        return batched_run_local_sgd(
            self, start_params, config, extra_grad,
            out=start_params if in_place else None,
        )


def _epoch_batches(
    cohort: BatchedCohort, batch_size: int | None, epoch: int, active: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield this epoch's stacked mini-batches for the ``active`` prefix,
    mirroring ``iterate_minibatches``."""
    n = cohort.num_samples
    features, labels = cohort.features[:active], cohort.labels[:active]
    if batch_size is None or batch_size >= n:
        yield features, labels
        return
    order = cohort.epoch_orders[epoch]  # (active, n)
    shuffled_x = np.take_along_axis(features, order[:, :, None], axis=1)
    shuffled_y = np.take_along_axis(labels, order, axis=1)
    for start in range(0, n, batch_size):
        stop = start + batch_size
        yield shuffled_x[:, start:stop], shuffled_y[:, start:stop]


def local_steps_per_epoch(num_samples: int, batch_size: int | None) -> int:
    """Mini-batch steps in one local epoch over ``num_samples`` samples.

    Mirrors ``iterate_minibatches``/:func:`_epoch_batches`: full-batch
    training is one step, otherwise ``ceil(n / batch_size)``.
    """
    if batch_size is None or batch_size >= num_samples:
        return 1
    return -(-num_samples // batch_size)


def local_steps_per_round(num_samples: int, config) -> int:
    """Mini-batch steps one client takes in ``config.epochs`` local epochs
    (what a task's ``local_sgd`` trace span reports)."""
    return config.epochs * local_steps_per_epoch(num_samples, config.batch_size)


def batched_run_local_sgd(
    cohort: BatchedCohort,
    start_params: np.ndarray,
    config,
    extra_grad: ExtraGrad | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked counterpart of :func:`repro.algorithms.base.run_local_sgd`.

    ``start_params`` is ``(C, dim)``; ``config`` supplies the batch size
    and learning rate the whole cohort shares, while each client's epoch
    count comes from ``cohort.epochs``.  The loop is an **active prefix**:
    at epoch ``e`` the kernels and the step run on views of the first
    ``cohort.active(e)`` rows only, so a client past its last epoch takes
    no step and costs no kernel work.  ``extra_grad`` is handed that prefix
    of the parameters and must return a matching ``(active, dim)`` array;
    as in the serial kernel it is only read, and only before the next
    call, so the callee may return the same scratch buffer every time.

    ``out`` is a C-contiguous float64 ``(C, dim)`` array to train in (it
    may be ``start_params`` itself); without it the iterate is a fresh copy
    of ``start_params``.

    Returns the trained ``(C, dim)`` parameters (``out`` when given) and
    each client's mean mini-batch loss ``(C,)`` — the unweighted mean over
    that client's own batches, exactly like the serial kernel.
    """
    if out is None:
        # order="C": a broadcast start (every client from the global model)
        # would otherwise copy client-axis-fastest, and no prefix of that is
        # contiguous.
        params = np.array(start_params, dtype=np.float64, order="C")
    else:
        if out is not start_params:
            np.copyto(out, start_params)
        params = out
    loss_sum = np.zeros(cohort.num_clients, dtype=np.float64)
    learning_rate = config.learning_rate
    for epoch in range(int(cohort.epochs.max(initial=0))):
        active = cohort.active(epoch)
        live = params[:active]
        for features, labels in _epoch_batches(
            cohort, config.batch_size, epoch, active
        ):
            losses, grads = cohort.model.loss_and_grad(live, features, labels)
            loss_sum[:active] += losses
            # ``grads`` is the model's workspace until the next call, so the
            # step live -= lr * (grads + extra) runs without a temporary.
            if extra_grad is not None:
                grads += extra_grad(live)
            grads *= learning_rate
            live -= grads
    batches_seen = cohort.epochs * local_steps_per_epoch(
        cohort.num_samples, config.batch_size
    )
    return params, loss_sum / batches_seen
