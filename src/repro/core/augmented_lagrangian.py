"""The client-local augmented Lagrangian of eq. (3).

    L_i(w_i, y_i, θ) = f_i(w_i) + y_iᵀ (w_i − θ) + (ρ/2) ‖w_i − θ‖².

Its gradient with respect to ``w_i`` is ``∇f_i(w_i) + y_i + ρ (w_i − θ)``,
which is exactly the per-batch update direction used in Algorithm 1 line 17.
The class also exposes the inexactness check of eq. (6) and the strong-
convexity condition that underpins the "variable amount of work" property.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.federated.local_problem import LocalProblem
from repro.utils.validation import check_non_negative


class AugmentedLagrangian:
    """Evaluates the augmented Lagrangian terms added on top of ``f_i``."""

    def __init__(self, rho: float):
        self.rho = check_non_negative(rho, "rho")

    # ------------------------------------------------------------------ #
    # Penalty terms (everything except f_i)
    # ------------------------------------------------------------------ #
    def penalty_value(
        self, w: np.ndarray, y: np.ndarray, theta: np.ndarray
    ) -> float:
        """Value of ``yᵀ(w − θ) + (ρ/2)‖w − θ‖²``."""
        diff = w - theta
        return float(y @ diff + 0.5 * self.rho * diff @ diff)

    def penalty_gradient(
        self,
        w: np.ndarray,
        y: np.ndarray,
        theta: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Gradient of the penalty terms with respect to ``w``: ``y + ρ(w − θ)``.

        Written into ``out`` when given (it must not alias ``y``), so a local
        SGD loop can evaluate it every step without allocating.
        """
        out = np.subtract(w, theta, out=out, dtype=np.float64)
        out *= self.rho
        return np.add(y, out, out=out)

    # ------------------------------------------------------------------ #
    # Full objective against a LocalProblem
    # ------------------------------------------------------------------ #
    def value(
        self,
        problem: LocalProblem,
        w: np.ndarray,
        y: np.ndarray,
        theta: np.ndarray,
        batch_size: int | None = 256,
    ) -> float:
        """Full ``L_i(w, y, θ)`` over the client's dataset."""
        return problem.full_loss(w, batch_size=batch_size) + self.penalty_value(
            w, y, theta
        )

    def gradient(
        self,
        problem: LocalProblem,
        w: np.ndarray,
        y: np.ndarray,
        theta: np.ndarray,
        batch_size: int | None = 256,
    ) -> np.ndarray:
        """Full gradient ``∇_w L_i(w, y, θ)`` over the client's dataset."""
        _, grad_f = problem.full_loss_and_grad(w, batch_size=batch_size)
        return grad_f + self.penalty_gradient(w, y, theta)

    def inexactness(
        self,
        problem: LocalProblem,
        w: np.ndarray,
        y: np.ndarray,
        theta: np.ndarray,
        batch_size: int | None = 256,
    ) -> float:
        """Squared gradient norm ``‖∇_w L_i(w, y, θ)‖²`` — the ε_i of eq. (6)."""
        grad = self.gradient(problem, w, y, theta, batch_size=batch_size)
        return float(grad @ grad)

    # ------------------------------------------------------------------ #
    # Theory helpers
    # ------------------------------------------------------------------ #
    def is_strongly_convex(self, lipschitz_constant: float) -> bool:
        """Whether ρ exceeds L so that ``L_i`` is strongly convex in ``w``.

        For an L-smooth (possibly non-convex) ``f_i``, adding (ρ/2)‖w − θ‖²
        makes the local subproblem (ρ − L)-strongly convex whenever ρ > L.
        """
        if lipschitz_constant < 0:
            raise ConfigurationError(
                f"lipschitz_constant must be non-negative, got {lipschitz_constant}"
            )
        return self.rho > lipschitz_constant

    def strong_convexity_modulus(self, lipschitz_constant: float) -> float:
        """The modulus ``ρ − L`` (non-positive means not guaranteed convex)."""
        return self.rho - lipschitz_constant
