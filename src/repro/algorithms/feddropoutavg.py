"""FedDropoutAvg (Gunesli et al., 2021).

Each selected client trains like FedAvg but uploads a randomly *masked*
model: a per-client binary dropout mask zeroes a fraction of the trained
coordinates, and the server averages each coordinate over only the clients
that reported it.  The random masks act as aggregation-level dropout —
a regulariser against client-specific overfitting — and shrink the useful
upload (zeroed coordinates compress away under sparsifying codecs).

The mask travels in the payload (``"mask"``) so the server-side
mask-aware average stays a pure function of the messages; coordinates no
client reported fall back to the previous global value.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    FederatedAlgorithm,
    LocalTrainingConfig,
    UpdateAccumulator,
    run_local_sgd,
)
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import ClientMessage
from repro.utils.rng import SeedLike, as_rng


class FedDropoutAvg(FederatedAlgorithm):
    """FedAvg with per-client random model dropout before upload."""

    name = "feddropoutavg"
    #: Mask-aware aggregation needs every mask from one lock-step cohort;
    #: a stale masked model has no meaningful delta against newer params.
    supports_async = False

    def __init__(self, dropout_rate: float = 0.25):
        if not 0 <= dropout_rate < 1:
            raise ConfigurationError(
                f"dropout_rate must lie in [0, 1), got {dropout_rate}"
            )
        self.dropout_rate = dropout_rate

    def local_update(
        self,
        problem: LocalProblem,
        client: ClientState,
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        config: LocalTrainingConfig,
        round_index: int = 0,
        rng: SeedLike = None,
    ) -> ClientMessage:
        rng = as_rng(rng)
        params, train_loss = run_local_sgd(problem, global_params, config, rng=rng)
        # The mask is drawn *after* training from the same task stream, so
        # the SGD trajectory is identical to FedAvg's for a fixed seed.  A
        # stack cannot pre-draw it, hence local_update (per client under
        # every executor) and no batched_local_update.
        mask = (rng.random(params.size) >= self.dropout_rate).astype(np.float64)
        client.record_participation(config.epochs)
        return ClientMessage(
            client_id=client.client_id,
            payload={"params": params * mask, "mask": mask},
            num_samples=problem.num_samples,
            local_epochs=config.epochs,
            train_loss=train_loss,
            metadata={"dropout_rate": self.dropout_rate},
        )

    def server_step(self, sums: UpdateAccumulator) -> np.ndarray:
        """Average each coordinate over the clients that reported it."""
        masked_total, mask_total = sums.sums["params"], sums.sums["mask"]
        reported = mask_total > 0
        out = np.array(sums.global_params, dtype=np.float64, copy=True)
        out[reported] = masked_total[reported] / mask_total[reported]
        return out

    def upload_vector_dims(self, dim: int) -> tuple[int, ...]:
        # The masked model plus its binary mask both travel on the wire.
        return (dim, dim)
