"""FedSGD: one exact local gradient per round, averaged at the server.

Each selected client evaluates the full gradient of its local loss at the
current global model and uploads it; the server applies one SGD step with the
averaged gradient.  FedSGD is the slowest baseline in the paper's Table III
and serves as the reference point for every speedup factor.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    FederatedAlgorithm,
    LocalTrainingConfig,
    UpdateAccumulator,
)
from repro.federated.client import ClientState
from repro.federated.messages import ClientMessage
from repro.utils.validation import check_positive


class FedSGD(FederatedAlgorithm):
    """Distributed synchronous SGD over the selected clients."""

    name = "fedsgd"
    # One exact full-dataset gradient per round: no mini-batch shuffling,
    # so the vectorized executor must not pre-draw epoch permutations.
    shuffles_minibatches = False

    def __init__(self, server_learning_rate: float = 0.1):
        self.server_learning_rate = check_positive(
            server_learning_rate, "server_learning_rate"
        )

    def batched_local_update(
        self,
        cohort,
        clients: list[ClientState],
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        config: LocalTrainingConfig,
        round_index: int = 0,
    ) -> list[ClientMessage]:
        losses, grads = cohort.full_loss_and_grad(global_params)
        # One exact gradient per round: local_epochs is 1 regardless of
        # the config.
        return self.build_cohort_messages(
            clients, cohort, np.ones(len(clients), dtype=np.int64), losses,
            {"gradient": grads},
        )

    def server_step(self, sums: UpdateAccumulator) -> np.ndarray:
        """One server SGD step along the averaged client gradient."""
        return sums.global_params - self.server_learning_rate * sums.mean("gradient")
