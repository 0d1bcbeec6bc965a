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
    run_local_sgd,
)
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import ClientMessage
from repro.utils.rng import SeedLike, as_rng


class Scaffold(FederatedAlgorithm):
    """SCAFFOLD with option-II control-variate refresh."""

    name = "scaffold"

    #: The server control variate assumes lock-step rounds: an update's
    #: control delta is only meaningful against the server state it was
    #: computed from, so SCAFFOLD opts out of asynchronous aggregation.
    supports_async = False

    #: The drift correction is constant within a round, so a whole cohort's
    #: corrected SGD runs as one stacked ``extra_grad`` term (control
    #: variates stacked along the client axis).
    supports_batched = True

    def __init__(self, server_step_size: float = 1.0):
        if server_step_size <= 0:
            raise ConfigurationError(
                f"server_step_size must be positive, got {server_step_size}"
            )
        self.server_step_size = server_step_size

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
        from repro.nn.batched import local_steps_per_round

        self.init_client_state(client, global_params)
        server_control = server_state["control"]
        client_control = client.get("control")

        correction = server_control - client_control
        params, train_loss = run_local_sgd(
            problem,
            global_params,
            config,
            rng=as_rng(rng),
            extra_grad=lambda _: correction,
        )

        # Option II refresh: c_i+ = c_i - c + (theta - w) / (K * lr).
        num_steps = local_steps_per_round(problem.num_samples, config)
        new_control = client_control - server_control + (
            global_params - params
        ) / (num_steps * config.learning_rate)

        delta_params = params - global_params
        delta_control = new_control - client_control
        client.set("control", new_control)
        client.record_participation(config.epochs)
        return ClientMessage(
            client_id=client.client_id,
            payload={"delta_params": delta_params, "delta_control": delta_control},
            num_samples=problem.num_samples,
            local_epochs=config.epochs,
            train_loss=train_loss,
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
        """A cohort of corrected local updates as one stacked SGD run.

        The per-client correction ``c − c_i`` is fixed for the whole round,
        so it stacks into a single ``(C, dim)`` ``extra_grad`` term.  A
        cohort shares ``(n, batch_size)`` but not the epoch count, so the
        option-II refresh divides by a per-client ``(C, 1)`` step count
        ``K_i``.  Numerics match :meth:`local_update` client for client up
        to stacked-matmul reduction order.
        """
        from repro.nn.batched import batched_run_local_sgd, local_steps_per_epoch

        for client in clients:
            self.init_client_state(client, global_params)
        server_control = server_state["control"]
        client_controls = np.stack([client.get("control") for client in clients])
        correction = server_control[None, :] - client_controls

        start = np.broadcast_to(
            global_params, (len(clients), global_params.size)
        )
        params, losses = batched_run_local_sgd(
            cohort,
            start,
            config,
            extra_grad=lambda live: correction[: live.shape[0]],
        )

        num_steps = cohort.epochs[:, None] * local_steps_per_epoch(
            cohort.num_samples, config.batch_size
        )
        new_controls = client_controls - server_control[None, :] + (
            global_params[None, :] - params
        ) / (num_steps * config.learning_rate)

        delta_params = params - global_params[None, :]
        delta_controls = new_controls - client_controls
        for index, client in enumerate(clients):
            client.set("control", new_controls[index])
        return self.build_cohort_messages(
            clients,
            cohort,
            cohort.epochs,
            losses,
            lambda index: {
                "delta_params": delta_params[index].copy(),
                "delta_control": delta_controls[index].copy(),
            },
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
