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
from repro.core.dual import augmented_model
from repro.utils.validation import check_positive


@dataclass
class AdmmClientResult:
    """Output of one ClientUpdate sweep: the ``(C, dim)`` uploads ``Δ`` and
    the ``(C,)`` train losses (the new states are in the arrays passed in)."""

    delta: np.ndarray
    train_loss: np.ndarray


def admm_client_update(
    cohort,
    w: np.ndarray,
    y: np.ndarray,
    theta: np.ndarray,
    rho: float,
    config: LocalTrainingConfig,
    warm_start: bool = True,
) -> AdmmClientResult:
    """Run Algorithm 1's ClientUpdate for a cohort, in place, and return
    every ``Δ_i``.

    ``cohort`` is the clients' data behind the cohort interface of
    :meth:`repro.algorithms.base.FederatedAlgorithm.batched_local_update`
    (one client or a stack); ``w`` / ``y`` are the cohort's writable
    ``(C, dim)`` float64 primal / dual arrays, and the update writes the
    new ``(w_i, y_i)`` into them: :func:`repro.federated.client.gather`
    hands a cohort of one its live rows, so the client's state is trained
    where it lives.  ``Δ`` is a fresh array that shares memory with
    neither.  If training raises, ``w`` and ``y`` may be half-written.

    Parameters
    ----------
    warm_start:
        ``True`` (paper's recommended choice, "initialisation I") starts local
        SGD from the stored local model ``w_i``; ``False`` ("initialisation
        II") restarts from the downloaded global model θ.
    """
    check_positive(rho, "FedADMM's rho")
    lagrangian = AugmentedLagrangian(rho)
    # Eq. (4)'s old augmented model u_old = w + y/ρ, formed before training
    # overwrites w, in the buffer that becomes Δ.
    delta = augmented_model(w, y, rho)
    if not warm_start:
        w[...] = theta
    scratch = np.empty(w.shape, dtype=np.float64)

    def extra_grad(params: np.ndarray) -> np.ndarray:
        # ``params`` is the prefix of clients still training this epoch.
        active = params.shape[0]
        return lagrangian.penalty_gradient(
            params, y[:active], theta, out=scratch[:active]
        )

    _, train_loss = cohort.run_sgd(w, config, extra_grad)
    # y ← y + ρ(w − θ), dual_update's operations in its order; its ``out``
    # may not alias ``y``, so ρ(w − θ) goes through the scratch first.
    step = np.subtract(w, theta, out=scratch, dtype=np.float64)
    step *= rho
    np.add(y, step, out=y)
    # Δ = u_new − u_old.
    u_new = augmented_model(w, y, rho, out=scratch)
    np.subtract(u_new, delta, out=delta)
    return AdmmClientResult(delta=delta, train_loss=train_loss)
