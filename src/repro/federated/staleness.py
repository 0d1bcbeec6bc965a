"""Staleness weighting, the in-flight record, and the rebase onto θ.

An update trained against model version ``v`` and aggregated into version
``V`` has staleness ``V - v``.  A :class:`StalenessWeighting` maps that age
to a mixing weight in ``(0, 1]``, and :func:`rebase` applies it: the stale
upload is re-expressed against the *current* model, after which the
ordinary reduction (:class:`~repro.algorithms.base.UpdateAccumulator` plus
the algorithm's ``server_step``) aggregates it like any fresh message.

These pieces are shared by the execution plans that mix updates of
different ages; see :class:`repro.federated.plans.BufferedPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ConfigurationError
from repro.federated.messages import ClientMessage


class StalenessWeighting:
    """Interface: map an update's staleness to a mixing weight in (0, 1]."""

    name = "base"

    def weight(self, staleness: int) -> float:
        """Mixing weight for an update that is ``staleness`` versions old."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ConstantStaleness(StalenessWeighting):
    """Every update weighs the same regardless of age (no damping)."""

    name = "constant"

    def weight(self, staleness: int) -> float:
        return 1.0


class PolynomialStaleness(StalenessWeighting):
    """Polynomial decay ``(1 + s)^{-a}`` (Xie et al., 2019's ``s_a``)."""

    name = "polynomial"

    def __init__(self, exponent: float = 0.5):
        if exponent < 0:
            raise ConfigurationError(
                f"staleness exponent must be non-negative, got {exponent}"
            )
        self.exponent = float(exponent)

    def weight(self, staleness: int) -> float:
        if staleness < 0:
            raise ConfigurationError(
                f"staleness must be non-negative, got {staleness}"
            )
        return float((1.0 + staleness) ** -self.exponent)


STALENESS_REGISTRY: dict[str, type[StalenessWeighting]] = {
    ConstantStaleness.name: ConstantStaleness,
    PolynomialStaleness.name: PolynomialStaleness,
}


def build_staleness(name: str, **kwargs) -> StalenessWeighting:
    """Instantiate a staleness weighting by registry name."""
    try:
        staleness_cls = STALENESS_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown staleness weighting {name!r}; "
            f"available: {sorted(STALENESS_REGISTRY)}"
        ) from None
    return staleness_cls(**kwargs)


def resolve_staleness(
    staleness: StalenessWeighting | str | None, exponent: float = 0.5
) -> StalenessWeighting:
    """Coerce a policy instance, registry name, or ``None`` into a policy.

    ``None`` gives the polynomial default; a name is looked up in the
    registry (the exponent only applies to the polynomial policy).
    """
    if staleness is None:
        return PolynomialStaleness(exponent)
    if isinstance(staleness, str):
        kwargs = (
            {"exponent": exponent}
            if staleness == PolynomialStaleness.name
            else {}
        )
        return build_staleness(staleness, **kwargs)
    if not isinstance(staleness, StalenessWeighting):
        raise ConfigurationError(
            f"staleness must be a name or StalenessWeighting, "
            f"got {type(staleness)}"
        )
    return staleness


def rebase(
    message: ClientMessage, base_params: np.ndarray, weight: float, params: np.ndarray
) -> ClientMessage:
    """Re-express an upload trained from ``base_params`` against ``params``.

    The server update is additive in the uploads (eq. 5), so a late one
    needs no second aggregation rule, only its payload moved onto the
    current model and damped by its staleness ``weight``: a model-valued
    vector (key ``"params"``) becomes ``params + weight * (p - base)``, an
    update-valued one (``"delta"``, ``"gradient"``) is scaled.  FedADMM's
    Δ_i is never differenced against its stale anchor — the client's
    fresh dual already carries the correction toward consensus.
    """
    payload = {}
    for key, vector in message.payload.items():
        if key == "params":
            payload[key] = params + weight * (vector - base_params)
        elif key in ("delta", "gradient"):
            payload[key] = weight * vector
        else:
            raise ConfigurationError(
                f"cannot rebase payload keys {sorted(message.payload)} onto "
                "the current model; buffered plans need 'params', 'delta' "
                "or 'gradient' payloads"
            )
    return replace(message, payload=payload)


@dataclass
class StaleUpdate:
    """One dispatched client update, in flight or awaiting aggregation.

    ``message`` is ``None`` when the dispatch crashed or outran the fault
    deadline.  ``base_params`` is the exact global-parameter vector the
    client downloaded (version ``base_version``); its staleness is known
    only when the consuming version is.
    """

    message: ClientMessage | None
    base_params: np.ndarray
    base_version: int
    epochs: int
    #: Round the dispatch happened in: detects late arrivals even when the
    #: intervening rounds were abandoned and the version did not advance.
    dispatch_round: int
