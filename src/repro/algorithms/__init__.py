"""Federated optimisation algorithms: FedADMM and the paper's baselines."""

from repro.algorithms.base import (
    FederatedAlgorithm,
    LocalTrainingConfig,
    run_local_sgd,
)
from repro.algorithms.fedsgd import FedSGD
from repro.algorithms.fedavg import FedAvg
from repro.algorithms.fedprox import FedProx
from repro.algorithms.scaffold import Scaffold
from repro.algorithms.fedadmm import FedADMM
from repro.algorithms.fedpd import FedPD

__all__ = [
    "FederatedAlgorithm",
    "LocalTrainingConfig",
    "run_local_sgd",
    "FedSGD",
    "FedAvg",
    "FedProx",
    "Scaffold",
    "FedADMM",
    "FedPD",
    "ALGORITHM_REGISTRY",
    "build_algorithm",
]

ALGORITHM_REGISTRY: dict[str, type[FederatedAlgorithm]] = {
    "fedsgd": FedSGD,
    "fedavg": FedAvg,
    "fedprox": FedProx,
    "scaffold": Scaffold,
    "fedadmm": FedADMM,
    "fedpd": FedPD,
}


def build_algorithm(name: str, **kwargs) -> FederatedAlgorithm:
    """Instantiate an algorithm by its registry name."""
    from repro.exceptions import ConfigurationError

    key = name.lower()
    if key not in ALGORITHM_REGISTRY:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHM_REGISTRY)}"
        )
    return ALGORITHM_REGISTRY[key](**kwargs)
