"""Stateless numerical primitives shared by the layers.

Includes the im2col/col2im machinery used by :class:`repro.nn.layers.Conv2D`
and :class:`repro.nn.layers.MaxPool2D`, plus softmax utilities used by the
cross-entropy loss.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError


def check_label_range(targets: np.ndarray, num_classes: int) -> None:
    """Raise unless every int64 label lies in ``[0, num_classes)``.

    One reduction answers both bounds: viewed as unsigned, a negative label
    is larger than any class count.
    """
    if targets.size and (
        np.maximum.reduce(targets.view(np.uint64), axis=None) >= num_classes
    ):
        raise ShapeError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{targets.min()}, {targets.max()}]"
        )


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a ``(n, num_classes)`` one-hot encoding of integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    check_label_range(labels, num_classes)
    encoded = np.zeros((labels.size, num_classes), dtype=np.float64)
    encoded[np.arange(labels.size), labels] = 1.0
    return encoded


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive output size {out} for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    images:
        Batch of shape ``(n, channels, height, width)``.

    Returns
    -------
    Array of shape ``(n * out_h * out_w, channels * kernel_h * kernel_w)``
    where each row is one receptive field.
    """
    if images.ndim != 4:
        raise ShapeError(f"expected 4-D input (n, c, h, w), got {images.shape}")
    n, channels, height, width = images.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)

    padded = np.pad(
        images,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )
    cols = np.empty((n, channels, kernel_h, kernel_w, out_h, out_w), dtype=images.dtype)
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = padded[:, :, ky:y_end:stride, kx:x_end:stride]
    # (n, out_h, out_w, channels, kernel_h, kernel_w) -> rows
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        n * out_h * out_w, channels * kernel_h * kernel_w
    )
    return cols


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image batch."""
    n, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)

    cols = cols.reshape(n, out_h, out_w, channels, kernel_h, kernel_w)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)

    padded = np.zeros(
        (n, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols[:, :, ky, kx, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]
