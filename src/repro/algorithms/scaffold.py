"""SCAFFOLD (Karimireddy et al., 2020).

Stochastic controlled averaging: the server maintains a control variate ``c``
and each client a control variate ``c_i``.  Local SGD steps are corrected by
``c − c_i`` to counter client drift; after training, the client refreshes
``c_i`` (option II of the original paper) and uploads *two* d-dimensional
vectors — the model delta and the control-variate delta — which is why the
paper repeatedly notes SCAFFOLD doubles the per-round upload relative to
FedAvg/FedProx/FedADMM.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    FederatedAlgorithm,
    LocalTrainingConfig,
    UpdateAccumulator,
)
from repro.federated.client import ClientState, gather, scatter
from repro.federated.messages import ClientMessage
from repro.utils.validation import check_positive


class Scaffold(FederatedAlgorithm):
    """SCAFFOLD with option-II control-variate refresh."""

    name = "scaffold"

    #: The server control variate assumes lock-step rounds: an update's
    #: control delta is only meaningful against the server state it was
    #: computed from, so SCAFFOLD opts out of asynchronous aggregation.
    supports_async = False

    def __init__(self, server_step_size: float = 1.0):
        self.server_step_size = check_positive(server_step_size, "server_step_size")

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    def init_server_state(
        self, initial_params: np.ndarray, num_clients: int
    ) -> dict[str, np.ndarray]:
        return {"control": np.zeros_like(initial_params)}

    def init_client_state(
        self, client: ClientState, initial_params: np.ndarray
    ) -> None:
        if not client.has("control"):
            client.set("control", np.zeros_like(initial_params))

    # ------------------------------------------------------------------ #
    # Round
    # ------------------------------------------------------------------ #
    def batched_local_update(
        self,
        cohort,
        clients: list[ClientState],
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        config: LocalTrainingConfig,
        round_index: int = 0,
    ) -> list[ClientMessage]:
        """A cohort of corrected local updates as one SGD run.

        The per-client correction ``c − c_i`` is fixed for the whole round,
        so it stacks into a single ``(C, dim)`` ``extra_grad`` term.  A
        cohort shares ``(n, batch_size)`` but not the epoch count, so the
        option-II refresh divides by a per-client ``(C, 1)`` step count
        ``K_i``.
        """
        for client in clients:
            self.init_client_state(client, global_params)
        server_control = server_state["control"]
        client_controls = gather(clients, "control")
        correction = server_control[None, :] - client_controls

        start = np.broadcast_to(
            global_params, (len(clients), global_params.size)
        )
        params, losses = cohort.run_sgd(
            start, config, lambda live: correction[: live.shape[0]]
        )

        # Option II refresh: c_i+ = c_i - c + (theta - w) / (K_i * lr).
        num_steps = cohort.epochs[:, None] * cohort.steps_per_epoch(config.batch_size)
        new_controls = client_controls - server_control[None, :] + (
            global_params[None, :] - params
        ) / (num_steps * config.learning_rate)

        delta_params = params - global_params[None, :]
        delta_controls = new_controls - client_controls
        # On a cohort of one ``client_controls`` is the live row, which this
        # scatter overwrites: every read of it comes before.
        scatter(clients, "control", new_controls)
        return self.build_cohort_messages(
            clients, cohort, cohort.epochs, losses,
            {"delta_params": delta_params, "delta_control": delta_controls},
        )

    def server_step(self, sums: UpdateAccumulator) -> np.ndarray:
        """Step along the mean model delta and refresh the server control."""
        sums.server_state["control"] = sums.server_state["control"] + (
            sums.count / sums.num_clients
        ) * sums.mean("delta_control")
        return sums.global_params + self.server_step_size * sums.mean("delta_params")

    # ------------------------------------------------------------------ #
    # Communication accounting (double upload and download)
    # ------------------------------------------------------------------ #
    def download_floats(self, dim: int) -> int:
        return 2 * dim

    def upload_vector_dims(self, dim: int) -> tuple[int, ...]:
        return (dim, dim)
