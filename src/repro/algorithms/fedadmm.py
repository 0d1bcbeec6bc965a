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
from repro.core.augmented_lagrangian import AugmentedLagrangian
from repro.core.dual import augmented_model, dual_update
from repro.core.rho import ConstantRho, RhoSchedule
from repro.core.stepsize import (
    ConstantStepSize,
    ParticipationScaledStepSize,
    ServerStepSize,
)
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import ClientMessage
from repro.utils.rng import SeedLike


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
    supports_batched = True

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
        self.init_client_state(client, global_params)
        rho = self.rho_schedule.value(round_index)
        w_old = client.get("w")
        y_old = client.get("y") if self.use_duals else np.zeros_like(global_params)

        result = admm_client_update(
            problem,
            w_old=w_old,
            y_old=y_old,
            theta=global_params,
            rho=rho,
            config=config,
            rng=rng,
            warm_start=self.warm_start,
        )

        client.set("w", result.w_new)
        if self.use_duals:
            client.set("y", result.y_new)
        client.record_participation(config.epochs)
        return ClientMessage(
            client_id=client.client_id,
            payload={"delta": result.delta},
            num_samples=problem.num_samples,
            local_epochs=config.epochs,
            train_loss=result.train_loss,
            metadata={"rho": rho},
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
        """Stacked Algorithm 1 ClientUpdate: one SGD sweep for the cohort.

        The per-client state reads/writes, the dual update, and the Δ_i
        assembly are :func:`repro.core.admm_client.admm_client_update`'s
        own in-place helpers, broadcast over a leading client axis.
        """
        from repro.nn.batched import batched_run_local_sgd

        rho = self.rho_schedule.value(round_index)
        if rho <= 0:
            raise ConfigurationError(f"FedADMM requires rho > 0, got {rho}")
        for client in clients:
            self.init_client_state(client, global_params)
        w_old = np.stack([client.get("w") for client in clients])
        if self.use_duals:
            y_old = np.stack([client.get("y") for client in clients])
        else:
            y_old = np.zeros_like(w_old)
        start = w_old if self.warm_start else np.broadcast_to(
            global_params, w_old.shape
        )
        lagrangian = AugmentedLagrangian(rho)
        scratch = np.empty(w_old.shape, dtype=np.float64)

        def extra_grad(params: np.ndarray) -> np.ndarray:
            active = params.shape[0]
            return lagrangian.penalty_gradient(
                params, y_old[:active], global_params, out=scratch[:active]
            )

        w_new, losses = batched_run_local_sgd(
            cohort, start, config, extra_grad=extra_grad
        )
        # Eq. (4) as update_message computes it, with every stack that has
        # just died reused as the next output: the epilogue allocates nothing.
        u_old = augmented_model(w_old, y_old, rho, out=scratch)
        y_new = dual_update(y_old, w_new, global_params, rho, out=w_old)
        delta = augmented_model(w_new, y_new, rho, out=y_old)
        delta -= u_old

        for index, client in enumerate(clients):
            client.set("w", w_new[index])
            if self.use_duals:
                client.set("y", y_new[index])
        return self.build_cohort_messages(
            clients, cohort, cohort.epochs, losses,
            lambda index: {"delta": delta[index].copy()},
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
