"""FedADMM — Algorithm 1 of the paper, the primary contribution.

Each selected client keeps a persistent primal/dual pair ``(w_i, y_i)``.
On selection it inexactly minimises the augmented Lagrangian of eq. (3),
updates its dual, and uploads the difference of augmented models Δ_i (eq. 4);
the server applies the tracking update θ ← θ + (η/|S_t|) Σ Δ_i (eq. 5).

The class composes the building blocks in :mod:`repro.core`:

* ``rho`` may be a float or a :class:`repro.core.rho.RhoSchedule`
  (the dynamic-ρ study of Fig. 9),
* ``server_step_size`` may be a float, ``"participation"`` (η = |S_t|/m, the
  analysed choice), or a :class:`repro.core.stepsize.ServerStepSize`
  (the η study of Fig. 6),
* ``warm_start`` selects local initialisation I (from w_i, recommended) or II
  (from θ) — the Fig. 8 study,
* ``use_duals=False`` disables the dual variables entirely, which by
  Section III-B must make FedADMM's local problem coincide with FedProx's;
  this ablation switch is exercised by the property tests.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    FederatedAlgorithm,
    LocalTrainingConfig,
    UpdateAccumulator,
)
from repro.core.admm_client import admm_client_update
from repro.core.rho import ConstantRho, RhoSchedule
from repro.core.stepsize import (
    ConstantStepSize,
    ParticipationScaledStepSize,
    ServerStepSize,
)
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState, gather, scatter
from repro.federated.messages import ClientMessage


def _coerce_rho(rho) -> RhoSchedule:
    if isinstance(rho, RhoSchedule):
        return rho
    if isinstance(rho, (int, float)):
        return ConstantRho(float(rho))
    raise ConfigurationError(f"rho must be a number or RhoSchedule, got {type(rho)}")


def _coerce_step_size(step) -> ServerStepSize:
    if isinstance(step, ServerStepSize):
        return step
    if isinstance(step, str):
        if step.lower() in ("participation", "|s|/m", "s/m"):
            return ParticipationScaledStepSize()
        raise ConfigurationError(
            f"unknown server step size spec {step!r}; use 'participation' or a number"
        )
    if isinstance(step, (int, float)):
        return ConstantStepSize(float(step))
    raise ConfigurationError(
        f"server_step_size must be a number, 'participation', or ServerStepSize, "
        f"got {type(step)}"
    )


class FedADMM(FederatedAlgorithm):
    """The paper's primal-dual federated learning algorithm."""

    name = "fedadmm"

    def __init__(
        self,
        rho: float | RhoSchedule = 0.01,
        server_step_size: float | str | ServerStepSize = 1.0,
        warm_start: bool = True,
        use_duals: bool = True,
    ):
        self.rho_schedule = _coerce_rho(rho)
        self.step_size_policy = _coerce_step_size(server_step_size)
        self.warm_start = warm_start
        self.use_duals = use_duals

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    def init_client_state(
        self, client: ClientState, initial_params: np.ndarray
    ) -> None:
        """Paper initialisation: w_i⁰ = θ⁰ and y_i⁰ = 0."""
        if not client.has("w"):
            client.set("w", initial_params)
        if not client.has("y"):
            client.set("y", np.zeros_like(initial_params))

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
        """Algorithm 1's ClientUpdate on the clients' stacked ``(w_i, y_i)``
        (a cohort of one updates its rows in place)."""
        rho = self.rho_schedule.value(round_index)
        for client in clients:
            self.init_client_state(client, global_params)
        w = gather(clients, "w")
        y = gather(clients, "y") if self.use_duals else np.zeros(w.shape)

        result = admm_client_update(
            cohort, w, y, global_params, rho, config, warm_start=self.warm_start,
        )

        scatter(clients, "w", w)
        if self.use_duals:
            scatter(clients, "y", y)
        return self.build_cohort_messages(
            clients, cohort, cohort.epochs, result.train_loss,
            {"delta": result.delta},
            metadata={"rho": rho},
        )

    def server_step(self, sums: UpdateAccumulator) -> np.ndarray:
        """The tracking update of eq. (5): θ + (η/|S_t|) Σ Δ_i.

        η is resolved from the *total* count, so shard merging cannot
        perturb participation-scaled step sizes.
        """
        eta = self.step_size_policy.value(
            sums.round_index, sums.count, sums.num_clients
        )
        if eta <= 0:
            raise ConfigurationError(f"server step size must be positive, got {eta}")
        return sums.global_params + (eta / sums.count) * sums.sums["delta"]
