"""Dual-variable mechanics: updates, augmented models, messages, KKT residuals.

These are the pieces that distinguish FedADMM from the primal-only baselines:

* dual update (Algorithm 1, line 20): ``y_i ← y_i + ρ (w_i − θ)``,
* augmented model: ``u_i = w_i + y_i / ρ``,
* update message (eq. 4): ``Δ_i = u_i^{new} − u_i^{old}``,
* KKT residuals of the consensus problem (2), which quantify how far the
  current primal-dual iterates are from stationarity (used for diagnostics
  and in the convergence tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive


def dual_update(
    y: np.ndarray,
    w: np.ndarray,
    theta: np.ndarray,
    rho: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Algorithm 1 line 20: ``y_new = y + ρ (w − θ)``.

    Written into ``out`` when given (it must not alias ``y``).
    """
    check_positive(rho, "rho")
    y_new = np.subtract(w, theta, out=out, dtype=np.float64)
    y_new *= rho
    return np.add(y, y_new, out=y_new)


def augmented_model(
    w: np.ndarray, y: np.ndarray, rho: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The augmented model ``u = w + y / ρ`` combined into a single vector.

    Written into ``out`` when given (it may alias neither input).
    """
    check_positive(rho, "rho")
    u = np.divide(y, rho, out=out)
    return np.add(w, u, out=u)


def update_message(
    w_new: np.ndarray,
    y_new: np.ndarray,
    w_old: np.ndarray,
    y_old: np.ndarray,
    rho: float,
) -> np.ndarray:
    """Eq. (4): difference of successive augmented models, ``Δ_i``."""
    delta = augmented_model(w_new, y_new, rho)
    delta -= augmented_model(w_old, y_old, rho)
    return delta


@dataclass
class KKTResiduals:
    """Stationarity diagnostics for the consensus problem (2).

    * ``primal``: mean ‖w_i − θ‖ (consensus violation),
    * ``dual_balance``: ‖(1/m) Σ y_i‖ (should vanish at optimality since
      Σ y_i* = 0),
    * ``stationarity``: mean ‖∇f_i(w_i) + y_i‖ (client stationarity,
      requires gradients to be supplied).
    """

    primal: float
    dual_balance: float
    stationarity: float | None = None


def kkt_residuals(
    client_params: list[np.ndarray],
    client_duals: list[np.ndarray],
    theta: np.ndarray,
    client_gradients: list[np.ndarray] | None = None,
) -> KKTResiduals:
    """Compute :class:`KKTResiduals` from current iterates.

    ``client_gradients[i]`` should be ``∇f_i(w_i)`` if stationarity is wanted.
    """
    if len(client_params) != len(client_duals):
        raise ConfigurationError(
            f"got {len(client_params)} primal iterates but {len(client_duals)} duals"
        )
    if not client_params:
        raise ConfigurationError("need at least one client iterate")

    primal = float(
        np.mean([np.linalg.norm(w - theta) for w in client_params])
    )
    dual_mean = np.mean(np.stack(client_duals), axis=0)
    dual_balance = float(np.linalg.norm(dual_mean))

    stationarity = None
    if client_gradients is not None:
        if len(client_gradients) != len(client_params):
            raise ConfigurationError(
                "client_gradients must align with client_params"
            )
        stationarity = float(
            np.mean(
                [
                    np.linalg.norm(grad + y)
                    for grad, y in zip(client_gradients, client_duals)
                ]
            )
        )
    return KKTResiduals(
        primal=primal, dual_balance=dual_balance, stationarity=stationarity
    )
