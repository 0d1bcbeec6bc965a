"""Proximal-coefficient (ρ) schedules.

The paper's headline claim about ρ is that FedADMM works with a *fixed*
ρ = 0.01 across datasets, scales, and heterogeneity levels (Theorem 1 and
Remark 1 support a constant, dimension-free choice), in sharp contrast to
FedProx which must be re-tuned per setting (Table V).  Fig. 9 additionally
explores a simple dynamic adaptation — small ρ early, larger ρ later — which
the piecewise schedule expresses.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive


class RhoSchedule:
    """Interface: ρ for a given round."""

    def value(self, round_index: int) -> float:
        """Return ρ used by selected clients in round ``round_index``."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable description for tables and logs."""
        return type(self).__name__


class ConstantRho(RhoSchedule):
    """A fixed ρ (the paper fixes ρ = 0.01 for FedADMM everywhere)."""

    def __init__(self, rho: float = 0.01):
        self.rho = check_positive(rho, "rho")

    def value(self, round_index: int) -> float:
        return self.rho

    def describe(self) -> str:
        return f"rho={self.rho}"


class PiecewiseRho(RhoSchedule):
    """Switch ρ at given round boundaries (Fig. 9's dynamic adaptation)."""

    def __init__(self, values: Sequence[float], boundaries: Sequence[int]):
        if len(values) != len(boundaries) + 1:
            raise ConfigurationError(
                "values must have exactly one more element than boundaries"
            )
        for value in values:
            check_positive(value, "every rho value")
        if list(boundaries) != sorted(boundaries):
            raise ConfigurationError("boundaries must be sorted ascending")
        self.values = list(values)
        self.boundaries = list(boundaries)

    def value(self, round_index: int) -> float:
        segment = 0
        for boundary in self.boundaries:
            if round_index >= boundary:
                segment += 1
        return self.values[segment]

    def describe(self) -> str:
        return f"rho piecewise {self.values} at {self.boundaries}"
