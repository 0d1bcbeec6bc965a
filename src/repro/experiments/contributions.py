"""Client contribution valuation: leave-one-out and truncated-MC Shapley.

Both combine coalition utilities ``U(S)``, the final test accuracy of a run
trained on only the clients in ``S``.  Leave-one-out scores client ``i`` as
``U(N) - U(N \\ {i})``; truncated Monte-Carlo Shapley (Ghorbani & Zou, 2019)
averages ``i``'s marginal gain over seeded permutation prefixes, ending a
walk once the prefix is within ``tolerance`` of ``U(N)``.  A coalition is an
ordinary run spec (``config.coalition``) for the
:class:`~repro.experiments.orchestrator.SweepOrchestrator`: parallel with
``jobs=N``, loaded from the store under ``resume``.  The empty coalition is
the untrained seed model, evaluated directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.experiments.orchestrator import RunSpec, SweepOrchestrator
from repro.experiments.runner import build_model_template, prepare_environment
from repro.federated.evaluation import evaluate_model
from repro.utils.rng import RngFactory


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
        payload = asdict(self)
        metadata = payload.pop("metadata")
        payload["scores"] = {str(client): score for client, score in self.scores.items()}
        return {**payload, **metadata}


def compute_contributions(
    config: ExperimentConfig,
    algorithm: AlgorithmSpec,
    method: str = "loo",
    permutations: int = 10,
    tolerance: float = 0.01,
    orchestrator: SweepOrchestrator | None = None,
) -> ContributionReport:
    """Value every client of ``config`` under ``algorithm``.

    A coalition the store already held, or one looked up again, is reused.
    """
    if method not in ("loo", "shapley"):
        raise ConfigurationError(
            f"unknown contribution method {method!r}; available: ['loo', 'shapley']"
        )
    if method == "shapley" and permutations < 1:
        raise ConfigurationError(f"permutations must be >= 1, got {permutations}")
    everyone = tuple(range(config.num_clients))
    # The smallest coalition trained: n - 1 clients for leave-one-out, a
    # Shapley walk's first one-client prefix.
    smallest = len(everyone) - 1 if method == "loo" else 1
    if config.num_shards > 1 and config.num_shards > smallest:
        raise ConfigurationError(
            f"num_shards {config.num_shards} exceeds the {smallest}-client "
            f"coalitions {method} trains"
        )
    orchestrator = orchestrator if orchestrator is not None else SweepOrchestrator()
    memo: dict[tuple[int, ...], float] = {}
    counts = {"executed": 0, "reused": 0}

    def utilities(coalitions) -> list[float]:
        """``U(S)`` of each coalition; the new ones run as one sweep."""
        wanted = [tuple(sorted(coalition)) for coalition in coalitions]
        counts["reused"] += sum(coalition in memo for coalition in wanted)
        specs = [
            RunSpec("contributions", coalition, config.with_overrides(coalition=coalition),
                    algorithm, stop_at_target=False)
            for coalition in wanted if coalition not in memo
        ]
        if specs:
            results = orchestrator.execute(specs)
            counts["executed"] += len(orchestrator.last_report.executed)
            counts["reused"] += len(orchestrator.last_report.skipped)
            for spec in specs:
                memo[spec.key] = results[spec.key].history.final_accuracy()
        return [memo[coalition] for coalition in wanted]

    (full,) = utilities([everyone])
    # The empty coalition is the untrained model the full run starts from:
    # evaluated directly, and counted as executed or reused with that run.
    model, loss = build_model_template(config)
    test = prepare_environment(config)[0].test
    empty = memo[()] = evaluate_model(model, loss, model.get_flat_params(), test).accuracy
    counts["executed" if counts["executed"] else "reused"] += 1
    if method == "loo":
        complements = utilities([everyone[:i] + everyone[i + 1:] for i in everyone])
        scores = {i: full - complements[i] for i in everyone}
        return ContributionReport("loo", scores, full, empty, *counts.values())
    rng = RngFactory(config.seed).make("contributions/permutations")
    totals = dict.fromkeys(everyone, 0.0)
    truncated_walks = 0
    for _ in range(permutations):
        previous, prefix = empty, []
        for index in rng.permutation(len(everyone)).tolist():
            if abs(full - previous) < tolerance:
                # Diminishing returns: credit the tail with zero.
                truncated_walks += 1
                break
            prefix.append(index)
            (current,) = utilities([prefix])
            totals[index] += current - previous
            previous = current
    scores = {index: total / permutations for index, total in totals.items()}
    metadata = {"tolerance": tolerance, "truncated_walks": truncated_walks}
    return ContributionReport(
        "shapley", scores, full, empty, *counts.values(), permutations, metadata
    )
