"""Client contribution valuation: leave-one-out and truncated-MC Shapley.

Data valuation asks *how much each client's participation is worth* to the
final global model.  Both methods here reduce to a single primitive — the
**subset utility** ``U(S)``: the final test accuracy of a full federated
run trained on only the clients in ``S`` — and differ in how they combine
marginal contributions:

* **leave-one-out** scores client ``i`` as ``U(N) - U(N \\ {i})``:
  cheap (``n + 1`` runs) but blind to redundancy between clients,
* **truncated Monte-Carlo Shapley** (Ghorbani & Zou, 2019) averages the
  marginal gain of ``i`` over sampled permutation prefixes, truncating a
  permutation walk once the prefix utility is within ``tolerance`` of the
  full-coalition utility (later marginals are ~0 by diminishing returns).

Subset utilities are *stored run histories*: every evaluated coalition's
utility is cached in a JSON ledger keyed by the sorted client subset, so
re-running with more permutations — or switching from leave-one-out to
Shapley — reuses every run already paid for.  All randomness (permutation
order) derives from the experiment seed via :class:`~repro.utils.rng.RngFactory`,
making reports bit-reproducible.

The natural companion to the adversary subsystem (see
``docs/tutorials/robustness.md``): under an attack, adversarial clients
should surface with near-zero or negative contribution scores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.experiments.runner import (
    build_model_template,
    build_simulation,
    prepare_environment,
)
from repro.federated.client import ClientState
from repro.federated.evaluation import evaluate_model
from repro.utils.rng import RngFactory

#: Cache-key for the empty coalition (accuracy of the untrained model).
_EMPTY_KEY = "-"


def subset_key(subset: Iterable[int]) -> str:
    """Canonical cache key for a client coalition: sorted ids, comma-joined."""
    indices = sorted(set(int(index) for index in subset))
    return ",".join(str(index) for index in indices) if indices else _EMPTY_KEY


class UtilityCache:
    """JSON-backed ledger of coalition utilities, keyed by :func:`subset_key`.

    With ``path=None`` the cache is memory-only (tests, throwaway runs);
    with a path every new utility is flushed eagerly so an interrupted
    valuation loses at most the run in flight.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.utilities: dict[str, float] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self.utilities = {
                str(key): float(value)
                for key, value in json.loads(self.path.read_text()).items()
            }

    def __len__(self) -> int:
        return len(self.utilities)

    def get(self, key: str) -> float | None:
        if key in self.utilities:
            self.hits += 1
            return self.utilities[key]
        return None

    def put(self, key: str, utility: float) -> None:
        self.misses += 1
        self.utilities[key] = float(utility)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(
                json.dumps(dict(sorted(self.utilities.items())), indent=2)
                + "\n"
            )


@dataclass
class ContributionReport:
    """Per-client contribution scores plus the bookkeeping behind them."""

    method: str
    scores: dict[int, float]
    utility_full: float
    utility_empty: float
    runs_executed: int
    runs_reused: int
    permutations: int = 0
    metadata: dict = field(default_factory=dict)

    def ranked(self) -> list[tuple[int, float]]:
        """Clients from most to least valuable."""
        return sorted(self.scores.items(), key=lambda item: -item[1])

    def to_payload(self) -> dict:
        return {
            "method": self.method,
            "scores": {str(client): score for client, score in self.scores.items()},
            "utility_full": self.utility_full,
            "utility_empty": self.utility_empty,
            "runs_executed": self.runs_executed,
            "runs_reused": self.runs_reused,
            "permutations": self.permutations,
            **self.metadata,
        }


class ContributionValuer:
    """Evaluates coalition utilities for one (config, algorithm) pair.

    The dataset split and partition are prepared once; each coalition run
    gets *fresh* :class:`ClientState` objects over the same immutable
    ``Dataset`` shards, so persistent algorithm variables never leak
    between coalitions.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        algorithm: AlgorithmSpec,
        cache: UtilityCache | None = None,
    ):
        self.config = config
        self.algorithm = algorithm
        self.cache = cache if cache is not None else UtilityCache()
        self.split, self._clients, _ = prepare_environment(config)

    @property
    def num_clients(self) -> int:
        return len(self._clients)

    def _fresh_clients(self, subset: Sequence[int]) -> list[ClientState]:
        states = []
        for new_id, index in enumerate(sorted(subset)):
            template = self._clients[index]
            states.append(
                ClientState(client_id=new_id, dataset=template.dataset)
            )
        return states

    def utility(self, subset: Iterable[int]) -> float:
        """``U(S)``: final test accuracy of a run over only ``subset``."""
        indices = sorted(set(int(index) for index in subset))
        if any(index < 0 or index >= self.num_clients for index in indices):
            raise ConfigurationError(
                f"subset {indices} out of range for {self.num_clients} clients"
            )
        key = subset_key(indices)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        if not indices:
            # The empty coalition: the untrained (seed-initialised) model.
            model, loss = build_model_template(self.config)
            evaluation = evaluate_model(
                model,
                loss,
                model.get_flat_params(),
                self.split.test,
            )
            utility = evaluation.accuracy
        else:
            config = self.config.with_overrides(
                num_clients=len(indices),
                name=f"{self.config.name}-coalition",
            )
            simulation = build_simulation(
                config,
                self.algorithm,
                clients=self._fresh_clients(indices),
                split=self.split,
            )
            result = simulation.run(config.num_rounds, stop_at_target=False)
            utility = result.history.final_accuracy()
        self.cache.put(key, utility)
        return utility

    # ------------------------------------------------------------------ #
    # Valuation methods
    # ------------------------------------------------------------------ #
    def leave_one_out(self) -> ContributionReport:
        """``score_i = U(N) - U(N \\ {i})`` for every client ``i``."""
        everyone = list(range(self.num_clients))
        baseline_hits = self.cache.hits
        baseline_misses = self.cache.misses
        full = self.utility(everyone)
        empty = self.utility([])
        scores = {
            index: full - self.utility([j for j in everyone if j != index])
            for index in everyone
        }
        return ContributionReport(
            method="loo",
            scores=scores,
            utility_full=full,
            utility_empty=empty,
            runs_executed=self.cache.misses - baseline_misses,
            runs_reused=self.cache.hits - baseline_hits,
        )

    def shapley(
        self, permutations: int = 10, tolerance: float = 0.01
    ) -> ContributionReport:
        """Truncated Monte-Carlo Shapley over sampled permutations.

        Each permutation walk stops early once the running prefix utility
        is within ``tolerance`` of the full-coalition utility: remaining
        clients in that permutation get a zero marginal, which is what
        makes the estimator tractable (Ghorbani & Zou, 2019, alg. 1).
        """
        if permutations < 1:
            raise ConfigurationError(
                f"permutations must be >= 1, got {permutations}"
            )
        everyone = list(range(self.num_clients))
        baseline_hits = self.cache.hits
        baseline_misses = self.cache.misses
        full = self.utility(everyone)
        empty = self.utility([])
        rng = RngFactory(self.config.seed).make("contributions/permutations")
        totals = {index: 0.0 for index in everyone}
        truncated_walks = 0
        for _ in range(permutations):
            order = [int(i) for i in rng.permutation(self.num_clients)]
            previous = empty
            prefix: list[int] = []
            for index in order:
                if abs(full - previous) < tolerance:
                    # Diminishing returns: credit the tail with zero.
                    truncated_walks += 1
                    break
                prefix.append(index)
                current = self.utility(prefix)
                totals[index] += current - previous
                previous = current
        scores = {index: total / permutations for index, total in totals.items()}
        return ContributionReport(
            method="shapley",
            scores=scores,
            utility_full=full,
            utility_empty=empty,
            runs_executed=self.cache.misses - baseline_misses,
            runs_reused=self.cache.hits - baseline_hits,
            permutations=permutations,
            metadata={"tolerance": tolerance, "truncated_walks": truncated_walks},
        )


def compute_contributions(
    config: ExperimentConfig,
    algorithm: AlgorithmSpec,
    method: str = "loo",
    permutations: int = 10,
    tolerance: float = 0.01,
    cache: UtilityCache | None = None,
) -> ContributionReport:
    """One-call API: value every client of ``config`` under ``algorithm``."""
    valuer = ContributionValuer(config, algorithm, cache=cache)
    if method == "loo":
        return valuer.leave_one_out()
    if method == "shapley":
        return valuer.shapley(permutations=permutations, tolerance=tolerance)
    raise ConfigurationError(
        f"unknown contribution method {method!r}; available: ['loo', 'shapley']"
    )
