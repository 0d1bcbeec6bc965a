"""Model zoo.

``MLP`` is the model every preset, study and benchmark trains: the
federated *dynamics* (not the vision accuracy) are what the reproduction
measures.  ``SmallCNN`` keeps the paper's CNN topology (two 5x5
convolutional layers each followed by 2x2 max pooling, then a fully
connected module; Table II) at narrow widths, and pins the stacked conv
kernels.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.nn.module import Module
from repro.utils.rng import SeedLike, as_rng


class _ImageReshape(Module):
    """Reshape flattened image vectors into ``(n, c, h, w)`` batches
    (``(C, n, c, h, w)`` on a stack)."""

    def __init__(self, channels: int, height: int, width: int):
        super().__init__()
        self.channels = channels
        self.height = height
        self.width = width

    def forward(self, x: np.ndarray) -> np.ndarray:
        image = (self.channels, self.height, self.width)
        expected = self.channels * self.height * self.width
        flat_rank = 2 + self._client_axes
        if x.ndim == flat_rank and x.shape[-1] == expected:
            return x.reshape(x.shape[:-1] + image)
        if x.ndim == flat_rank + 2 and x.shape[-3:] == image:
            return x
        raise ShapeError(
            f"expected {flat_rank}-D input (n, {expected}) or {flat_rank + 2}-D "
            f"(n, {self.channels}, {self.height}, {self.width}), got {x.shape}"
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(grad_output.shape[:-3] + (-1,))


class SmallCNN(Sequential):
    """A reduced CNN used by the scaled-down image benchmarks.

    Same topology as the paper's CNNs (two conv + pool blocks, one hidden
    fully connected layer) but with narrow channels so a full federated sweep
    runs on a laptop CPU in minutes.
    """

    def __init__(
        self,
        rng: SeedLike = None,
        channels: int = 1,
        image_size: int = 28,
        num_classes: int = 10,
        conv_channels: tuple[int, int] = (4, 8),
        hidden: int = 32,
    ):
        rng = as_rng(rng)
        pooled = image_size // 4
        super().__init__(
            _ImageReshape(channels, image_size, image_size),
            Conv2D(channels, conv_channels[0], kernel_size=5, padding=2, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(conv_channels[0], conv_channels[1], kernel_size=5, padding=2, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Linear(pooled * pooled * conv_channels[1], hidden, rng=rng),
            ReLU(),
            Linear(hidden, num_classes, rng=rng),
        )


class MLP(Sequential):
    """Multi-layer perceptron on flattened inputs."""

    def __init__(
        self,
        input_dim: int,
        hidden_dims: tuple[int, ...] = (64,),
        num_classes: int = 10,
        rng: SeedLike = None,
    ):
        rng = as_rng(rng)
        layers: list[Module] = []
        previous = input_dim
        for hidden in hidden_dims:
            layers.append(Linear(previous, hidden, rng=rng))
            layers.append(ReLU())
            previous = hidden
        layers.append(Linear(previous, num_classes, rng=rng))
        super().__init__(*layers)


ModelBuilder = Callable[..., Module]

MODEL_REGISTRY: dict[str, ModelBuilder] = {
    "small_cnn": SmallCNN,
    "mlp": MLP,
}


def build_model(name: str, rng: SeedLike = None, **kwargs) -> Module:
    """Instantiate a model from :data:`MODEL_REGISTRY` by name."""
    key = name.lower()
    if key not in MODEL_REGISTRY:
        raise ConfigurationError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
        )
    return MODEL_REGISTRY[key](rng=rng, **kwargs)
