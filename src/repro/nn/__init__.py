"""A from-scratch NumPy neural-network substrate.

The paper trains CNNs with PyTorch; this environment has no PyTorch, so the
package provides the minimal-but-complete pieces federated optimisation
needs: composable layers with explicit forward/backward passes, losses,
initialisers, flat parameter packing (every federated
algorithm in :mod:`repro.algorithms` operates on flat vectors), a small
model zoo, and numerical gradient checking used by the tests.
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Module
from repro.nn.layers import (
    Linear,
    Conv2D,
    MaxPool2D,
    ReLU,
    Tanh,
    Flatten,
    Sequential,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss, Loss
from repro.nn.models import (
    MLP,
    build_model,
    MODEL_REGISTRY,
)
from repro.nn.gradcheck import numerical_gradient, check_gradients
from repro.nn.batched import (
    BatchedCohort,
    BatchedModel,
    batched_run_local_sgd,
    build_batched_model,
)

__all__ = [
    "BatchedCohort",
    "BatchedModel",
    "batched_run_local_sgd",
    "build_batched_model",
    "Parameter",
    "Module",
    "Linear",
    "Conv2D",
    "MaxPool2D",
    "ReLU",
    "Tanh",
    "Flatten",
    "Sequential",
    "CrossEntropyLoss",
    "MSELoss",
    "Loss",
    "MLP",
    "build_model",
    "MODEL_REGISTRY",
    "numerical_gradient",
    "check_gradients",
]
