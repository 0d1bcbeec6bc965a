"""FedAvg (McMahan et al., 2017).

Each selected client downloads θ, runs E epochs of SGD on its local loss
starting from θ, and uploads the resulting model; the server averages the
uploaded models.  Following the paper's experimental protocol, aggregation
uses equal client weights by default (``weighting="uniform"``), with
volume-proportional weights available as an option.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    FederatedAlgorithm,
    LocalTrainingConfig,
    UpdateAccumulator,
)
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState
from repro.federated.messages import ClientMessage


class FedAvg(FederatedAlgorithm):
    """Local SGD from the global model, plain model averaging at the server."""

    name = "fedavg"

    def __init__(self, weighting: str = "uniform"):
        if weighting not in ("uniform", "samples"):
            raise ConfigurationError(
                f"weighting must be 'uniform' or 'samples', got {weighting!r}"
            )
        self.weighting = weighting

    def batched_local_update(
        self,
        cohort,
        clients: list[ClientState],
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        config: LocalTrainingConfig,
        round_index: int = 0,
    ) -> list[ClientMessage]:
        start = np.broadcast_to(global_params, (len(clients), global_params.size))
        params, losses = cohort.run_sgd(start, config)
        return self.build_cohort_messages(
            clients, cohort, cohort.epochs, losses, {"params": params}
        )

    def server_step(self, sums: UpdateAccumulator) -> np.ndarray:
        """The (optionally volume-weighted) average of the uploaded models."""
        return sums.mean("params")
