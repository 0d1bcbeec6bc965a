"""Batched multi-client kernels: a cohort of clients as one stacked tensor.

The federated hot path is local training: every selected client runs a few
epochs of SGD on a small model, and the serial executor pays the full
Python dispatch cost (``set_flat_params``, layer-by-layer forward/backward,
``get_flat_grad``) once *per client per batch*.  For the models the presets
sweep — stacks of :class:`~repro.nn.layers.Linear` and elementwise
activations on flat features, and the im2col convolutions of the paper's
CNN zoo — that dispatch cost dwarfs the arithmetic.  This module removes
it by giving the whole cohort a leading client axis:

* parameters become one ``(C, dim)`` array (one flat vector per client),
* features/labels become ``(C, n, d)`` / ``(C, n)`` stacks,
* each layer's forward/backward is a single stacked ``matmul`` /
  elementwise op over all ``C`` clients at once.

Every :class:`BatchedModel` owns one **workspace** per scratch array
(the ``(C, dim)`` gradient buffer, the stacked max-pool's scatter
target): a single allocation at the largest size seen so
far, handed out as prefix views and reused across every step and round —
the stack a call sees shrinks epoch by epoch (see
:func:`batched_run_local_sgd`), so sizing per shape would reallocate every
step.  The gradient buffer is reused *without zeroing* — this is safe
because each parametric op's backward **assigns** (never accumulates) its
full parameter slice, and :func:`build_batched_model` verifies the slices
tile the entire flat layout (``offset == model.num_params``).

:func:`build_batched_model` compiles a supported model template into a
:class:`BatchedModel`; architectures with genuinely unbatchable pieces
(custom layers, subclassed losses) return ``None`` and the caller falls
back to per-client execution.  :func:`batched_run_local_sgd` mirrors
:func:`repro.algorithms.base.run_local_sgd` step for step — same batch
schedule, same update order, same loss bookkeeping — so a batched cohort
reproduces the serial histories up to stacked-matmul reduction order
(``atol=1e-8`` on the pinned goldens, see ``docs/tutorials/fast-sweeps.md``
for the tolerance contract).  Clients of one cohort may run different
numbers of local epochs: the cohort is ordered by descending epochs and
each epoch runs on the contiguous prefix of still-active clients.  The one
documented exception to serial parity is
:class:`BatchedDropout`: dropout masks come from a dedicated per-model
stream (pre-seeded per cohort, drawn with a leading client axis so every
client gets its own mask), not from the serial layers' private generators,
so dropout-bearing models reproduce deterministically under the vectorized
executor but match serial only in distribution.

Nothing here knows about clients, algorithms, or executors: the module
consumes arrays and a training config, exactly like the serial kernels in
:mod:`repro.nn.layers`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.functional import (
    check_label_range,
    col2im,
    conv_output_size,
    im2col,
)
from repro.nn.layers import (
    Conv2D,
    Dropout,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import CrossEntropyLoss, Loss, MSELoss
from repro.nn.module import Module

#: Extra per-parameter gradient term added before each SGD step, evaluated
#: at the stacked parameters of the clients still training — the
#: ``(active, dim)`` prefix of the cohort (proximal/dual terms).
ExtraGrad = Callable[[np.ndarray], np.ndarray]


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
# Batched layer ops
# --------------------------------------------------------------------------- #
class _BatchedOp:
    """One layer of a :class:`BatchedModel`: stacked forward/backward."""

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        """Write parameter gradients into ``grads`` (``(C, dim)``) and
        return the gradient with respect to this op's input.

        Parametric ops **assign** their full slice of ``grads`` (no ``+=``):
        the model's workspace relies on this to reuse the buffer between
        steps without zeroing it.
        """
        raise NotImplementedError

    def backward_params(self, grads: np.ndarray, grad_output: np.ndarray) -> None:
        """Write parameter gradients when nobody needs the input gradient.

        Same ``grads`` as :meth:`backward`, bit for bit (the contract of
        :meth:`repro.nn.module.Module.backward_params`); parametric ops
        override it to skip the work that only produces the return value.
        """
        self.backward(grads, grad_output)

    def clone(self) -> "_BatchedOp":
        """A fresh op with the same configuration and no cached state.

        Cohorts executing concurrently must not share ops: forward caches
        activations on the instance (``_input``/``_mask``/...), so each
        concurrent execution context clones the compiled pipeline.
        """
        raise NotImplementedError


class BatchedLinear(_BatchedOp):
    """``y = x @ W + b`` with a leading client axis on everything."""

    def __init__(self, in_features: int, out_features: int, offset: int):
        self.in_features = in_features
        self.out_features = out_features
        self.offset = offset
        self.weight_slice = slice(offset, offset + in_features * out_features)
        self.bias_slice = slice(
            self.weight_slice.stop, self.weight_slice.stop + out_features
        )
        self._input: np.ndarray | None = None
        self._weight: np.ndarray | None = None

    def clone(self) -> "BatchedLinear":
        return BatchedLinear(self.in_features, self.out_features, self.offset)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        cohort = params.shape[0]
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ShapeError(
                f"BatchedLinear expected input of shape (C, n, "
                f"{self.in_features}), got {x.shape}"
            )
        weight = params[:, self.weight_slice].reshape(
            cohort, self.in_features, self.out_features
        )
        bias = params[:, self.bias_slice]
        self._input = x
        self._weight = weight
        out = x @ weight
        out += bias[:, None, :]
        return out

    def backward_params(self, grads: np.ndarray, grad_output: np.ndarray) -> None:
        if self._input is None or self._weight is None:
            raise ShapeError("backward called before forward on BatchedLinear")
        # Both results land in their slice of ``grads`` (the reshape of a
        # column slice is a view): no temporary, no strided copy.
        np.matmul(
            self._input.transpose(0, 2, 1),
            grad_output,
            out=grads[:, self.weight_slice].reshape(self._weight.shape),
        )
        np.add.reduce(grad_output, axis=1, out=grads[:, self.bias_slice])

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        self.backward_params(grads, grad_output)
        return grad_output @ self._weight.transpose(0, 2, 1)


class BatchedConv2D(_BatchedOp):
    """Stacked 2-D convolution via the documented im2col path.

    im2col is weight-independent, so the client axis folds into the im2col
    batch — one patch extraction covers the whole cohort — and only the
    multiply against the per-client weights runs as a stacked matmul:

    * ``(C, n, c, h, w)`` → fold → ``(C·n, c, h, w)`` → :func:`im2col` →
      reshape → ``cols (C, n·oh·ow, c·kh·kw)``,
    * per-client weights ``(C, out_ch, c·kh·kw)`` from the flat params,
    * ``out = cols @ Wᵀ + b`` — one batched matmul for all clients.

    Row ordering matches :class:`repro.nn.layers.Conv2D` exactly, so each
    client's slice reproduces the serial layer up to reduction order.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int,
        padding: int,
        offset: int,
    ):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.offset = offset
        weight_size = out_channels * in_channels * kernel_size * kernel_size
        self.weight_slice = slice(offset, offset + weight_size)
        self.bias_slice = slice(
            self.weight_slice.stop, self.weight_slice.stop + out_channels
        )
        self._cols: np.ndarray | None = None
        self._weight: np.ndarray | None = None
        self._input_shape: tuple[int, ...] | None = None

    def clone(self) -> "BatchedConv2D":
        return BatchedConv2D(
            self.in_channels,
            self.out_channels,
            self.kernel_size,
            self.stride,
            self.padding,
            self.offset,
        )

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ShapeError(
                f"BatchedConv2D expected input (C, n, {self.in_channels}, "
                f"h, w), got {x.shape}"
            )
        cohort, n, _, height, width = x.shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)

        folded = x.reshape(cohort * n, self.in_channels, height, width)
        cols = im2col(
            folded, self.kernel_size, self.kernel_size, self.stride, self.padding
        ).reshape(cohort, n * out_h * out_w, -1)
        weight = params[:, self.weight_slice].reshape(
            cohort, self.out_channels, -1
        )
        bias = params[:, self.bias_slice]
        out = cols @ weight.transpose(0, 2, 1)
        out += bias[:, None, :]
        out = out.reshape(cohort, n, out_h, out_w, self.out_channels)

        self._cols = cols
        self._weight = weight
        self._input_shape = x.shape
        return out.transpose(0, 1, 4, 2, 3)

    def _assign(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        """Write the parameter gradients; return ``grad_output`` as matrices."""
        if self._cols is None or self._weight is None or self._input_shape is None:
            raise ShapeError("backward called before forward on BatchedConv2D")
        # (C, n, out_ch, oh, ow) -> (C, n*oh*ow, out_ch): the serial layer's
        # row order, per client.
        grad_mat = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            self._input_shape[0], -1, self.out_channels
        )
        np.matmul(
            grad_mat.transpose(0, 2, 1),
            self._cols,
            out=grads[:, self.weight_slice].reshape(self._weight.shape),
        )
        np.add.reduce(grad_mat, axis=1, out=grads[:, self.bias_slice])
        return grad_mat

    def backward_params(self, grads: np.ndarray, grad_output: np.ndarray) -> None:
        self._assign(grads, grad_output)

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        grad_mat = self._assign(grads, grad_output)
        cohort, n = self._input_shape[0], self._input_shape[1]
        grad_cols = grad_mat @ self._weight
        folded_shape = (cohort * n,) + self._input_shape[2:]
        grad_input = col2im(
            grad_cols.reshape(-1, grad_cols.shape[2]),
            folded_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
        return grad_input.reshape(self._input_shape)


class BatchedMaxPool2D(_BatchedOp):
    """Stacked max pooling: clients *and* channels fold into the im2col batch."""

    def __init__(self, kernel_size: int, stride: int):
        self.kernel_size = kernel_size
        self.stride = stride
        self._input_shape: tuple[int, ...] | None = None
        self._argmax: np.ndarray | None = None
        self._cols_grad = _Workspace()

    def clone(self) -> "BatchedMaxPool2D":
        return BatchedMaxPool2D(self.kernel_size, self.stride)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5:
            raise ShapeError(f"BatchedMaxPool2D expected 5-D input, got {x.shape}")
        cohort, n, channels, height, width = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(height, k, s, 0)
        out_w = conv_output_size(width, k, s, 0)

        folded = x.reshape(cohort * n * channels, 1, height, width)
        cols = im2col(folded, k, k, s, 0)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]

        self._input_shape = x.shape
        self._argmax = argmax
        return out.reshape(cohort, n, channels, out_h, out_w)

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None or self._argmax is None:
            raise ShapeError("backward called before forward on BatchedMaxPool2D")
        cohort, n, channels, height, width = self._input_shape
        k, s = self.kernel_size, self.stride

        grad_flat = grad_output.reshape(-1)
        # Workspace: the scatter target is reused between steps (zeroed each
        # time — only the argmax positions are written).
        cols_grad = self._cols_grad.view((grad_flat.size, k * k))
        cols_grad.fill(0.0)
        cols_grad[np.arange(grad_flat.size), self._argmax] = grad_flat
        grad_input = col2im(
            cols_grad, (cohort * n * channels, 1, height, width), k, k, s, 0
        )
        return grad_input.reshape(self._input_shape)


class BatchedImageReshape(_BatchedOp):
    """Unflatten ``(C, n, c·h·w)`` feature stacks into ``(C, n, c, h, w)``."""

    def __init__(self, channels: int, height: int, width: int):
        self.channels = channels
        self.height = height
        self.width = width

    def clone(self) -> "BatchedImageReshape":
        return BatchedImageReshape(self.channels, self.height, self.width)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        expected = self.channels * self.height * self.width
        if x.ndim != 3 or x.shape[2] != expected:
            raise ShapeError(
                f"BatchedImageReshape expected input (C, n, {expected}), "
                f"got {x.shape}"
            )
        return x.reshape(
            x.shape[0], x.shape[1], self.channels, self.height, self.width
        )

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(grad_output.shape[0], grad_output.shape[1], -1)


class BatchedReLU(_BatchedOp):
    """:class:`repro.nn.layers.ReLU`'s arithmetic on a stacked activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def clone(self) -> "BatchedReLU":
        return BatchedReLU()

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        out = np.fmax(x, 0.0)
        out += 0.0
        return out

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError("backward called before forward on BatchedReLU")
        return grad_output * self._mask


class BatchedTanh(_BatchedOp):
    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def clone(self) -> "BatchedTanh":
        return BatchedTanh()

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise ShapeError("backward called before forward on BatchedTanh")
        return grad_output * (1.0 - self._output**2)


class BatchedFlatten(_BatchedOp):
    """Flatten everything after the sample axis (identity on flat features)."""

    def __init__(self) -> None:
        self._input_shape: tuple[int, ...] | None = None

    def clone(self) -> "BatchedFlatten":
        return BatchedFlatten()

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError("backward called before forward on BatchedFlatten")
        return grad_output.reshape(self._input_shape)


class BatchedDropout(_BatchedOp):
    """Inverted dropout with per-client masks; identity in evaluation mode.

    Each training-mode forward draws one mask of the activation's full
    ``(C, n, ...)`` shape — a distinct mask per client — from the op's own
    generator.  The generator is **not** the serial layers' private stream:
    serial execution interleaves per-client draws in a way a single stacked
    forward cannot replay, so dropout-bearing models are deterministic
    under the vectorized executor (see :meth:`BatchedModel.reseed_dropout`)
    but match the serial path only in distribution.  The ``atol=1e-8``
    tolerance contract therefore applies to dropout-free models.
    """

    def __init__(self, rate: float, rng: np.random.Generator | int | None = None):
        self.rate = rate
        self.training = True
        self._rng = (
            rng if isinstance(rng, np.random.Generator)
            else np.random.default_rng(0 if rng is None else rng)
        )
        self._mask: np.ndarray | None = None

    def clone(self) -> "BatchedDropout":
        # Clones start from a fresh deterministic stream; executors reseed
        # per cohort before use (BatchedModel.reseed_dropout).
        return BatchedDropout(self.rate, 0)

    def forward(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grads: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


# --------------------------------------------------------------------------- #
# Batched losses
# --------------------------------------------------------------------------- #
class BatchedCrossEntropy:
    """Per-client softmax cross-entropy over ``(C, n, K)`` logits.

    :meth:`repro.nn.losses.CrossEntropyLoss.value_and_grad` with a client
    axis: one shifted/exp/sum feeds both results.
    """

    def clone(self) -> "BatchedCrossEntropy":
        return BatchedCrossEntropy()

    def value_and_grad(
        self, logits: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        targets = np.asarray(targets, dtype=np.int64)
        n, num_classes = logits.shape[1:]
        check_label_range(targets, num_classes)
        clients, rows = np.arange(logits.shape[0])[:, None], np.arange(n)
        shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
        probs = np.exp(shifted)
        total = np.add.reduce(probs, axis=-1, keepdims=True)
        picked = shifted[clients, rows, targets]
        picked -= np.log(total)[:, :, 0]
        losses = -(np.add.reduce(picked, axis=1) / n)
        probs /= total
        probs[clients, rows, targets] -= 1.0
        probs /= n
        return losses, probs


class BatchedMSE:
    """Per-client mean squared error over ``(C, ...)`` predictions."""

    def clone(self) -> "BatchedMSE":
        return BatchedMSE()

    def value_and_grad(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ShapeError(
                f"BatchedMSE shape mismatch: {predictions.shape} vs "
                f"{targets.shape}"
            )
        diff = predictions - targets
        per_client = diff.size // diff.shape[0]
        losses = (diff**2).reshape(diff.shape[0], -1).mean(axis=1)
        grad = 2.0 * diff / per_client
        return losses, grad


def _batched_loss_for(loss: Loss):
    """The stacked counterpart of a serial loss, or ``None`` if unsupported.

    Exact type matches only: a subclass may override ``value_and_grad``
    with semantics the batched kernel would silently diverge from.
    """
    if type(loss) is CrossEntropyLoss:
        return BatchedCrossEntropy()
    if type(loss) is MSELoss:
        return BatchedMSE()
    return None


# --------------------------------------------------------------------------- #
# Model compilation
# --------------------------------------------------------------------------- #
class BatchedModel:
    """A model template compiled to stacked ops over a ``(C, dim)`` packing.

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

    def __init__(self, ops: list[_BatchedOp], dim: int, loss) -> None:
        self.ops = ops
        self.dim = dim
        self.loss = loss
        #: Optional :class:`repro.obs.Profiler`: when set, every stacked
        #: op's forward/backward is timed under a ``kernel.*`` key.  The
        #: untimed hot path pays exactly one ``None`` check per call.
        self.profiler = None
        self._grads = _Workspace()
        self._first_parametric = next(
            (
                index
                for index, op in enumerate(ops)
                if isinstance(op, (BatchedLinear, BatchedConv2D))
            ),
            len(ops),
        )

    def clone(self) -> "BatchedModel":
        """A fresh execution context: same compiled pipeline, own workspace."""
        cloned = BatchedModel(
            [op.clone() for op in self.ops], self.dim, self.loss.clone()
        )
        cloned.profiler = self.profiler
        return cloned

    @property
    def has_dropout(self) -> bool:
        """Whether any op draws stochastic masks during training."""
        return any(isinstance(op, BatchedDropout) for op in self.ops)

    def reseed_dropout(self, seed: int) -> None:
        """Reset every dropout op's mask stream deterministically.

        Executors call this once per cohort before training, with a seed
        pre-drawn in task order, so dropout-bearing cohorts reproduce
        regardless of which worker thread (or pooled model clone) runs them.
        """
        for index, op in enumerate(self.ops):
            if isinstance(op, BatchedDropout):
                op._rng = np.random.default_rng([seed, index])

    def train(self, training: bool = True) -> "BatchedModel":
        """Toggle training mode (dropout active) on every stochastic op."""
        for op in self.ops:
            if isinstance(op, BatchedDropout):
                op.training = training
        return self

    def eval(self) -> "BatchedModel":
        return self.train(False)

    def _grads_for(self, cohort: int) -> np.ndarray:
        """The first ``C`` rows of the reused gradient workspace.

        Never zeroed between uses: every parametric op's backward assigns
        its full slice, and compilation verified the slices tile the whole
        flat layout, so each backward pass overwrites every element.
        """
        return self._grads.view((cohort, self.dim))

    def _backward_steps(self) -> Iterator[tuple[_BatchedOp, Callable]]:
        """The backward chain, last op first, as ``(op, method)`` pairs.

        Nothing upstream of the first parametric op reads a gradient, so the
        chain stops there (``Sequential.backward_params``): that op writes
        its slice without an input gradient and the ops before it do not run.
        """
        first = self._first_parametric
        for op in reversed(self.ops[first + 1 :]):
            yield op, op.backward
        if first < len(self.ops):
            yield self.ops[first], self.ops[first].backward_params

    def loss_and_grad(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-client mean loss ``(C,)`` and flat gradients ``(C, dim)``.

        The gradient array is the model's reused workspace buffer: it is
        valid until the next ``loss_and_grad`` call on this instance.
        """
        if self.profiler is not None:
            return self._profiled_loss_and_grad(params, features, labels)
        x = features
        for op in self.ops:
            x = op.forward(params, x)
        losses, grad_output = self.loss.value_and_grad(x, labels)
        grads = self._grads_for(params.shape[0])
        for _, step in self._backward_steps():
            grad_output = step(grads, grad_output)
        return losses, grads

    def _profiled_loss_and_grad(
        self, params: np.ndarray, features: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The same computation with per-kernel timing (``repro profile``)."""
        profiler = self.profiler
        x = features
        for op in self.ops:
            started = time.perf_counter()
            x = op.forward(params, x)
            profiler.add(
                f"kernel.{type(op).__name__}.forward",
                time.perf_counter() - started,
            )
        started = time.perf_counter()
        losses, grad_output = self.loss.value_and_grad(x, labels)
        profiler.add(
            f"kernel.{type(self.loss).__name__}", time.perf_counter() - started
        )
        grads = self._grads_for(params.shape[0])
        for op, step in self._backward_steps():
            started = time.perf_counter()
            grad_output = step(grads, grad_output)
            profiler.add(
                f"kernel.{type(op).__name__}.backward",
                time.perf_counter() - started,
            )
        return losses, grads

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


def _iter_supported_layers(model: Module) -> Iterator[Module] | None:
    """Flatten nested ``Sequential`` containers, or ``None`` if unsupported."""
    if not isinstance(model, Sequential):
        return None
    flat: list[Module] = []
    for layer in model.layers:
        if isinstance(layer, Sequential):
            inner = _iter_supported_layers(layer)
            if inner is None:
                return None
            flat.extend(inner)
        else:
            flat.append(layer)
    return flat


def build_batched_model(model: Module, loss: Loss) -> BatchedModel | None:
    """Compile a model template into a :class:`BatchedModel`.

    Covers the full model zoo — Linear/activation stacks, the im2col
    convolution + pooling blocks of the paper's CNNs, and dropout.
    Returns ``None`` when the architecture or loss has no batched
    counterpart (custom layers, subclassed losses) — the caller then
    falls back to per-client execution.
    """
    from repro.nn.models import _ImageReshape

    layers = _iter_supported_layers(model)
    batched_loss = _batched_loss_for(loss)
    if layers is None or batched_loss is None:
        return None
    ops: list[_BatchedOp] = []
    offset = 0
    for position, layer in enumerate(layers):
        if type(layer) is Linear:
            ops.append(BatchedLinear(layer.in_features, layer.out_features, offset))
            offset += layer.in_features * layer.out_features + layer.out_features
        elif type(layer) is Conv2D:
            ops.append(
                BatchedConv2D(
                    layer.in_channels,
                    layer.out_channels,
                    layer.kernel_size,
                    layer.stride,
                    layer.padding,
                    offset,
                )
            )
            offset += (
                layer.out_channels * layer.in_channels * layer.kernel_size**2
                + layer.out_channels
            )
        elif type(layer) is MaxPool2D:
            ops.append(BatchedMaxPool2D(layer.kernel_size, layer.stride))
        elif type(layer) is _ImageReshape:
            ops.append(BatchedImageReshape(layer.channels, layer.height, layer.width))
        elif type(layer) is ReLU:
            ops.append(BatchedReLU())
        elif type(layer) is Tanh:
            ops.append(BatchedTanh())
        elif type(layer) is Flatten:
            ops.append(BatchedFlatten())
        elif type(layer) is Dropout:
            ops.append(BatchedDropout(layer.rate, position))
        else:
            return None
    if offset != model.num_params:
        # A layer carries parameters the batched packing did not account
        # for; running it stacked would silently train the wrong slices.
        return None
    return BatchedModel(ops, dim=offset, loss=batched_loss)


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
        """:func:`batched_run_local_sgd` on this cohort."""
        return batched_run_local_sgd(self, start_params, config, extra_grad)


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

    Returns the trained ``(C, dim)`` parameters and each client's mean
    mini-batch loss ``(C,)`` — the unweighted mean over that client's own
    batches, exactly like the serial kernel.
    """
    # order="C": a broadcast start (every client from the global model) would
    # otherwise copy client-axis-fastest, and no prefix of that is contiguous.
    params = np.array(start_params, dtype=np.float64, order="C")
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
