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

from repro.algorithms.base import LocalTrainingConfig
from repro.core.augmented_lagrangian import AugmentedLagrangian
from repro.core.dual import augmented_model, dual_update
from repro.exceptions import ConfigurationError


@dataclass
class AdmmClientResult:
    """Output of one ClientUpdate sweep: ``(C, dim)`` stacks, ``(C,)`` losses."""

    w_new: np.ndarray
    y_new: np.ndarray
    delta: np.ndarray
    train_loss: np.ndarray


def admm_client_update(
    cohort,
    w_old: np.ndarray,
    y_old: np.ndarray,
    theta: np.ndarray,
    rho: float,
    config: LocalTrainingConfig,
    warm_start: bool = True,
) -> AdmmClientResult:
    """Run Algorithm 1's ClientUpdate for a cohort and return the new states
    plus every ``Δ_i``.

    ``cohort`` is the clients' data behind the cohort interface of
    :meth:`repro.algorithms.base.FederatedAlgorithm.batched_local_update`
    (one client or a stack); ``w_old`` / ``y_old`` are the cohort's
    ``(C, dim)`` primal / dual stacks.  The update owns them: their memory
    becomes the returned ``y_new`` and ``delta``, so pass stacks nobody
    else reads (:func:`repro.federated.client.gather` returns fresh ones).

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
    w_old = np.asarray(w_old, dtype=np.float64)
    y_old = np.asarray(y_old, dtype=np.float64)
    start = w_old if warm_start else np.broadcast_to(theta, w_old.shape)

    scratch = np.empty(w_old.shape, dtype=np.float64)

    def extra_grad(params: np.ndarray) -> np.ndarray:
        # ``params`` is the prefix of clients still training this epoch.
        active = params.shape[0]
        return lagrangian.penalty_gradient(
            params, y_old[:active], theta, out=scratch[:active]
        )

    w_new, train_loss = cohort.run_sgd(start, config, extra_grad)
    # Eq. (4) as update_message computes it, with every one of our stacks
    # that has just died reused as the next output: no allocation here.
    u_old = augmented_model(w_old, y_old, rho, out=scratch)
    y_new = dual_update(y_old, w_new, theta, rho, out=w_old)
    delta = augmented_model(w_new, y_new, rho, out=y_old)
    delta -= u_old
    return AdmmClientResult(w_new=w_new, y_new=y_new, delta=delta, train_loss=train_loss)
