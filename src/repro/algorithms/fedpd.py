"""FedPD (Zhang et al., 2021) — related primal-dual baseline.

FedPD also maintains primal/dual pairs at clients but, unlike FedADMM,
requires *all* clients to compute every round, and global communication
happens only with a fixed probability ``communication_probability`` (when it
does, every client participates simultaneously).  The paper excludes FedPD
from its experimental comparison for exactly this reason (unrealistic for
large federated populations); it is implemented here for completeness and for
the communication-pattern ablation.

When driven by the simulation engine, FedPD should be paired with a sampler
that selects the full population (e.g. ``UniformFractionSampler(1.0)``).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    FederatedAlgorithm,
    LocalTrainingConfig,
    UpdateAccumulator,
)
from repro.core.admm_client import admm_client_update
from repro.core.dual import augmented_model
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState, gather, scatter
from repro.federated.messages import ClientMessage
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive


class FedPD(FederatedAlgorithm):
    """Primal-dual method with full participation and probabilistic aggregation."""

    name = "fedpd"

    #: FedPD flips a per-round communication coin at the server; that
    #: protocol has no analogue under the buffered plans.
    supports_async = False

    def __init__(self, rho: float = 0.01, communication_probability: float = 1.0):
        check_positive(rho, "rho")
        if not 0 < communication_probability <= 1:
            raise ConfigurationError(
                f"communication_probability must lie in (0, 1], "
                f"got {communication_probability}"
            )
        self.rho = rho
        self.communication_probability = communication_probability
        self._comm_rng = as_rng(0)

    def rng_streams(self) -> dict[str, np.random.Generator]:
        # The server's communication coin, so a restored run flips it on.
        return {"fedpd-communication": self._comm_rng}

    def init_client_state(
        self, client: ClientState, initial_params: np.ndarray
    ) -> None:
        if not client.has("w"):
            client.set("w", initial_params)
        if not client.has("y"):
            client.set("y", np.zeros_like(initial_params))

    def batched_local_update(
        self,
        cohort,
        clients: list[ClientState],
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        config: LocalTrainingConfig,
        round_index: int = 0,
    ) -> list[ClientMessage]:
        """FedADMM's warm-started primal-dual ClientUpdate; the upload is the
        new augmented model rather than its change."""
        for client in clients:
            self.init_client_state(client, global_params)
        w, y = gather(clients, "w"), gather(clients, "y")
        result = admm_client_update(cohort, w, y, global_params, self.rho, config)
        scatter(clients, "w", w)
        scatter(clients, "y", y)
        return self.build_cohort_messages(
            clients, cohort, cohort.epochs, result.train_loss,
            {"augmented_model": augmented_model(w, y, self.rho)},
        )

    def server_step(self, sums: UpdateAccumulator) -> np.ndarray:
        # With probability (1 - p) the round carries no communication and the
        # global model is unchanged; otherwise it is replaced by the average
        # of the clients' augmented models.
        if self._comm_rng.random() >= self.communication_probability:
            return np.array(sums.global_params, copy=True)
        return sums.mean("augmented_model")
