"""Composable layers with explicit forward/backward passes.

Each layer caches whatever it needs during ``forward`` to compute gradients
in ``backward``.  The layers are deliberately small and single-purpose:
``Sequential`` is the only container and is what the model zoo in
:mod:`repro.nn.models` builds on.

Every layer is written on trailing axes, so it takes one client's batch
``(n, ...)`` or — when :class:`repro.nn.batched.BatchedModel` has bound a
private copy to a ``(C, d)`` parameter stack — a cohort's ``(C, n, ...)``,
issuing the 2-D or the stacked NumPy call respectively.  The shapes in the
docstrings below are one client's.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import SeedLike, as_rng


class Linear(Module):
    """Fully connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    rng:
        Seed or generator for the He-normal weight initialisation.
    """

    def __init__(self, in_features: int, out_features: int, rng: SeedLike = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ConfigurationError(
                f"Linear dimensions must be positive, got "
                f"({in_features}, {out_features})"
            )
        weight = he_normal((in_features, out_features), in_features, rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight, name="linear.weight")
        self.bias = Parameter(zeros((out_features,)), name="linear.bias")
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 + self._client_axes or x.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expected {2 + self._client_axes}-D input "
                f"(n, {self.in_features}), got {x.shape}"
            )
        self._input = x
        out = x @ self.weight.value
        # One bias row per client: a stack adds it across that client's rows.
        bias = self.bias.value
        out += bias[..., None, :] if self._client_axes else bias
        return out

    def backward_params(self, grad_output: np.ndarray) -> None:
        if self._input is None:
            raise ShapeError("backward called before forward on Linear")
        np.matmul(self._input.swapaxes(-1, -2), grad_output, out=self.weight.grad)
        np.add.reduce(grad_output, axis=-2, out=self.bias.grad)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.backward_params(grad_output)
        return grad_output @ self.weight.value.swapaxes(-1, -2)


class Conv2D(Module):
    """2-D convolution implemented with im2col.

    Input/output layout is ``(n, channels, height, width)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: SeedLike = None,
    ):
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ConfigurationError("Conv2D sizes must be positive")
        if padding < 0:
            raise ConfigurationError("Conv2D padding must be non-negative")
        rng = as_rng(rng)
        fan_in = in_channels * kernel_size * kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            he_normal((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng),
            name="conv.weight",
        )
        self.bias = Parameter(zeros((out_channels,)), name="conv.bias")
        self._cols: np.ndarray | None = None
        self._input_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 + self._client_axes or x.shape[-3] != self.in_channels:
            raise ShapeError(
                f"Conv2D expected {4 + self._client_axes}-D input "
                f"(n, {self.in_channels}, h, w), got {x.shape}"
            )
        height, width = x.shape[-2:]
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)

        # im2col is weight-independent, so client axes fold into its batch —
        # one patch extraction for the whole stack — and unfold again into
        # one (n*out_h*out_w, c*k*k) matrix per client for the multiply.
        samples = x.shape[:-3]
        cols = im2col(
            x.reshape((-1,) + x.shape[-3:]),
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
        cols = cols.reshape(samples[:-1] + (-1, cols.shape[-1]))
        out = cols @ self._weight_matrix(self.weight.value).swapaxes(-1, -2)
        bias = self.bias.value
        out += bias[..., None, :] if self._client_axes else bias
        out = out.reshape(samples + (out_h, out_w, self.out_channels))

        self._cols = cols
        self._input_shape = x.shape
        return np.moveaxis(out, -1, -3)

    def _weight_matrix(self, weight: np.ndarray) -> np.ndarray:
        """``weight`` (values or gradients) as one (out_ch, c*k*k) matrix a client."""
        return weight.reshape(weight.shape[:-3] + (-1,))

    def _assign(self, grad_output: np.ndarray) -> np.ndarray:
        """Write the parameter gradients; return ``grad_output`` as matrices."""
        if self._cols is None or self._input_shape is None:
            raise ShapeError("backward called before forward on Conv2D")
        grad_mat = np.moveaxis(grad_output, -3, -1).reshape(
            self._input_shape[:-4] + (-1, self.out_channels)
        )
        np.matmul(
            grad_mat.swapaxes(-1, -2),
            self._cols,
            out=self._weight_matrix(self.weight.grad),
        )
        np.add.reduce(grad_mat, axis=-2, out=self.bias.grad)
        return grad_mat

    def backward_params(self, grad_output: np.ndarray) -> None:
        self._assign(grad_output)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_cols = self._assign(grad_output) @ self._weight_matrix(self.weight.value)
        grad_input = col2im(
            grad_cols.reshape(-1, grad_cols.shape[-1]),
            (math.prod(self._input_shape[:-3]),) + self._input_shape[-3:],
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )
        return grad_input.reshape(self._input_shape)


class MaxPool2D(Module):
    """Max pooling over non-overlapping (by default) square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        if kernel_size <= 0:
            raise ConfigurationError("MaxPool2D kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._input_shape: tuple[int, int, int, int] | None = None
        self._argmax: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 + self._client_axes:
            raise ShapeError(
                f"MaxPool2D expected {4 + self._client_axes}-D input, got {x.shape}"
            )
        height, width = x.shape[-2:]
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(height, k, s, 0)
        out_w = conv_output_size(width, k, s, 0)

        # Every channel (of every sample, of every client) is pooled on its
        # own: all leading axes fold into the im2col batch.
        cols = im2col(x.reshape(-1, 1, height, width), k, k, s, 0)
        argmax = cols.argmax(axis=1)  # cols: (..*c*out_h*out_w, k*k)
        out = cols[np.arange(cols.shape[0]), argmax]

        self._input_shape = x.shape
        self._argmax = argmax
        return out.reshape(x.shape[:-2] + (out_h, out_w))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None or self._argmax is None:
            raise ShapeError("backward called before forward on MaxPool2D")
        height, width = self._input_shape[-2:]
        k, s = self.kernel_size, self.stride

        grad_flat = grad_output.reshape(-1)
        cols_grad = np.zeros((grad_flat.size, k * k), dtype=np.float64)
        cols_grad[np.arange(grad_flat.size), self._argmax] = grad_flat
        grad_input = col2im(
            cols_grad,
            (math.prod(self._input_shape[:-2]), 1, height, width),
            k,
            k,
            s,
            0,
        )
        return grad_input.reshape(self._input_shape)


class ReLU(Module):
    """Rectified linear activation.

    ``fmax`` sends negatives and NaN to its ``0.0`` operand without a
    data-dependent branch, and ``+ 0.0`` turns a surviving ``-0.0`` into
    ``+0.0``: ``where(x > 0, x, 0.0)`` bit for bit, on every float.
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        out = np.fmax(x, 0.0)
        out += 0.0
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeError("backward called before forward on ReLU")
        return grad_output * self._mask


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise ShapeError("backward called before forward on Tanh")
        return grad_output * (1.0 - self._output**2)


class Flatten(Module):
    """Flatten all but the batch dimension (and any client axes before it).

    Rank alone cannot tell ``(n, h, w)`` from ``(C, n, d)``, so the number
    of leading axes kept comes from the storage the layer is bound to.
    """

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[: self._client_axes + 1] + (-1,))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError("backward called before forward on Flatten")
        return grad_output.reshape(self._input_shape)


class Sequential(Module):
    """Run layers in order; backward runs them in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def append(self, layer: Module) -> "Sequential":
        """Add a layer at the end and return ``self`` for chaining."""
        self.layers.append(layer)
        self._structure_changed()
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def backward_params(self, grad_output: np.ndarray) -> None:
        # Nothing upstream of the first layer that has parameters reads a
        # gradient, so the chain stops there: that layer skips its input
        # gradient and the parameter-free layers before it do not run.
        first = next(
            (i for i, layer in enumerate(self.layers) if layer.num_params),
            len(self.layers),
        )
        for layer in reversed(self.layers[first + 1 :]):
            grad_output = layer.backward(grad_output)
        if first < len(self.layers):
            self.layers[first].backward_params(grad_output)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
