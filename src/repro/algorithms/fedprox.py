"""FedProx (Li et al., 2020).

Identical to FedAvg except that local training minimises
``f_i(w) + (ρ/2) ‖w − θ‖²`` — i.e. the FedADMM subproblem of eq. (3) with the
dual variable pinned to zero.  The proximal coefficient ρ must be tuned per
setting for competitive performance (the paper's Table V quantifies this
sensitivity), which is exactly the burden FedADMM's duals remove.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import LocalTrainingConfig
from repro.algorithms.fedavg import FedAvg
from repro.federated.client import ClientState
from repro.federated.messages import ClientMessage
from repro.utils.validation import check_non_negative


class FedProx(FedAvg):
    """FedAvg plus a quadratic proximal term in the local objective.

    Only local training differs; the server step (and its ``weighting``
    option) is FedAvg's.
    """

    name = "fedprox"

    def __init__(self, rho: float = 0.1, weighting: str = "uniform"):
        super().__init__(weighting)
        self.rho = check_non_negative(rho, "rho")

    def batched_local_update(
        self,
        cohort,
        clients: list[ClientState],
        global_params: np.ndarray,
        server_state: dict[str, np.ndarray],
        config: LocalTrainingConfig,
        round_index: int = 0,
    ) -> list[ClientMessage]:
        theta = global_params[None, :]
        rho = self.rho
        start = np.broadcast_to(global_params, (len(clients), global_params.size))
        scratch = np.empty(start.shape, dtype=np.float64)

        def extra_grad(params: np.ndarray) -> np.ndarray:
            out = np.subtract(params, theta, out=scratch[: params.shape[0]])
            out *= rho
            return out

        params, losses = cohort.run_sgd(start, config, extra_grad)
        return self.build_cohort_messages(
            clients, cohort, cohort.epochs, losses, {"params": params}
        )
