"""FedADMM ClientUpdate — Algorithm 1, lines 12–21.

A selected client i, holding its persistent primal/dual pair ``(w_i, y_i)``:

1. (optionally warm-started from ``w_i``, or restarted from the downloaded
   global model θ — Fig. 8 of the paper studies both) runs ``E_i`` epochs of
   SGD on the augmented Lagrangian, with per-batch direction
   ``∇f_i(w; b) + y_i + ρ (w − θ)``,
2. updates its dual ``y_i ← y_i + ρ (w_i − θ)``,
3. forms the update message ``Δ_i`` (difference of augmented models, eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import LocalTrainingConfig, run_local_sgd
from repro.core.augmented_lagrangian import AugmentedLagrangian
from repro.core.dual import dual_update, update_message
from repro.exceptions import ConfigurationError
from repro.federated.local_problem import LocalProblem
from repro.utils.rng import SeedLike


@dataclass
class AdmmClientResult:
    """Output of one FedADMM client update."""

    w_new: np.ndarray
    y_new: np.ndarray
    delta: np.ndarray
    train_loss: float


def admm_client_update(
    problem: LocalProblem,
    w_old: np.ndarray,
    y_old: np.ndarray,
    theta: np.ndarray,
    rho: float,
    config: LocalTrainingConfig,
    rng: SeedLike = None,
    warm_start: bool = True,
) -> AdmmClientResult:
    """Run Algorithm 1's ClientUpdate and return the new state plus ``Δ_i``.

    Parameters
    ----------
    warm_start:
        ``True`` (paper's recommended choice, "initialisation I") starts local
        SGD from the stored local model ``w_i``; ``False`` ("initialisation
        II") restarts from the downloaded global model θ.
    """
    if rho <= 0:
        raise ConfigurationError(f"FedADMM requires rho > 0, got {rho}")
    lagrangian = AugmentedLagrangian(rho)
    start = w_old if warm_start else theta

    scratch = np.empty(theta.shape, dtype=np.float64)

    def extra_grad(params: np.ndarray) -> np.ndarray:
        return lagrangian.penalty_gradient(params, y_old, theta, out=scratch)

    w_new, train_loss = run_local_sgd(
        problem, start, config, rng=rng, extra_grad=extra_grad
    )
    y_new = dual_update(y_old, w_new, theta, rho)
    delta = update_message(w_new, y_new, w_old, y_old, rho)
    return AdmmClientResult(w_new=w_new, y_new=y_new, delta=delta, train_loss=train_loss)
