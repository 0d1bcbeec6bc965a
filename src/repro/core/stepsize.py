"""Server gathering step-size policies η.

The paper studies three regimes (Section V-B, Fig. 6):

* a constant nominal η = 1.0, the fast default,
* η = |S_t| / m, the theoretically analysed choice that damps oscillations
  under heavy heterogeneity,
* decreasing η mid-run ("adjusting the step size at later stages"), which the
  piecewise policy expresses.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive


class ServerStepSize:
    """Interface: the server step size for a given round."""

    def value(self, round_index: int, num_selected: int, num_clients: int) -> float:
        """Return η for this round."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable description for tables and logs."""
        return type(self).__name__


class ConstantStepSize(ServerStepSize):
    """A fixed η (the paper's nominal setting is η = 1.0)."""

    def __init__(self, eta: float = 1.0):
        self.eta = check_positive(eta, "eta")

    def value(self, round_index: int, num_selected: int, num_clients: int) -> float:
        return self.eta

    def describe(self) -> str:
        return f"eta={self.eta}"


class ParticipationScaledStepSize(ServerStepSize):
    """η = |S_t| / m, the choice used in the convergence analysis."""

    def value(self, round_index: int, num_selected: int, num_clients: int) -> float:
        if num_clients <= 0 or num_selected <= 0:
            raise ConfigurationError(
                "num_selected and num_clients must be positive to scale eta"
            )
        return num_selected / num_clients

    def describe(self) -> str:
        return "eta=|S_t|/m"


class PiecewiseStepSize(ServerStepSize):
    """Switch η at given round boundaries (Fig. 6's mid-run adjustment).

    ``boundaries`` are the round indices at which the *next* value takes
    effect; ``values`` has one more element than ``boundaries``.
    """

    def __init__(self, values: Sequence[float], boundaries: Sequence[int]):
        if len(values) != len(boundaries) + 1:
            raise ConfigurationError(
                "values must have exactly one more element than boundaries"
            )
        for value in values:
            check_positive(value, "every eta value")
        if list(boundaries) != sorted(boundaries):
            raise ConfigurationError("boundaries must be sorted ascending")
        self.values = list(values)
        self.boundaries = list(boundaries)

    def value(self, round_index: int, num_selected: int, num_clients: int) -> float:
        segment = 0
        for boundary in self.boundaries:
            if round_index >= boundary:
                segment += 1
        return self.values[segment]

    def describe(self) -> str:
        return f"eta piecewise {self.values} at {self.boundaries}"
