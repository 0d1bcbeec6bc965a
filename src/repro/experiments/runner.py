"""Core experiment machinery: config → simulation → result.

This module holds the reusable primitives every study builds on:
``prepare_environment`` (dataset → partition → clients),
``build_simulation`` (config + algorithm → engine with the right execution
plan), ``run_single`` / ``run_comparison`` (one run / several algorithms on
identical data), and ``rounds_summary``.

The per-table/figure orchestration that used to live here as thirteen
``run_*_study`` functions is now declared against the
:class:`~repro.experiments.registry.StudyRegistry` in
:mod:`repro.experiments.studies`; ``run_study("table3", request)`` executes
any of them generically, routing each study's sweep points through the
:class:`~repro.experiments.orchestrator.SweepOrchestrator` (serially by
default, in parallel worker processes with ``jobs=N``, resumably against
an :class:`~repro.experiments.store.ExperimentStore`).

``run_single`` is the orchestrator's unit of execution: one (config,
algorithm) pair, deterministic from the config seed alone.  That is what
makes the spec decomposition safe — ``run_comparison``'s shared-data loop
and N independent ``run_single`` calls produce bit-identical results, so
a sweep computes the same bytes serially, in parallel, or resumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.algorithms import build_algorithm
from repro.algorithms.base import FederatedAlgorithm
from repro.datasets.base import TrainTestSplit
from repro.datasets.registry import load_dataset
from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.federated.client import ClientState, build_clients
from repro.federated.engine import FederatedSimulation, SimulationResult
from repro.federated.heterogeneity import FixedEpochs, UniformRandomEpochs
from repro.federated.plans import AsyncPlan, HierarchicalPlan, SemiSyncPlan
from repro.federated.sampler import UniformFractionSampler
from repro.metrics.rounds_to_target import format_rounds, rounds_to_target
from repro.metrics.speedup import reduction_vs_best_baseline, speedup_vs_reference
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.partition import build_partitioner, compute_partition_stats
from repro.partition.stats import PartitionStats
from repro.systems import (
    FaultInjector,
    Transport,
    build_codec,
    build_executor,
    build_network,
)
from repro.systems.adversaries import (
    DefendedAlgorithm,
    build_adversary,
    build_defense,
)
from repro.utils.rng import RngFactory

#: Algorithms that, per the paper's protocol, tolerate variable local work
#: (the uniform 1..E epoch draw); the others always run exactly E epochs.
_VARIABLE_WORK_ALGORITHMS = {"fedadmm", "fedprox", "fedpd"}


# --------------------------------------------------------------------------- #
# Building blocks
# --------------------------------------------------------------------------- #
def prepare_environment(
    config: ExperimentConfig,
) -> tuple[TrainTestSplit, list[ClientState], PartitionStats]:
    """Load the dataset, partition it, and build client states.

    With a ``config.coalition`` only the listed clients of the
    ``num_clients`` partition are kept, renumbered ``0..|S|-1``; the
    partition statistics still describe the whole population.
    """
    split = load_dataset(
        config.dataset,
        n_train=config.n_train,
        n_test=config.n_test,
        rng=config.seed,
    )
    partitioner = build_partitioner(config.partition, **config.partition_kwargs)
    partition = partitioner.partition(split.train, config.num_clients, rng=config.seed)
    clients = build_clients(split.train, partition)
    if config.coalition is not None:
        if config.coalition[-1] >= len(clients):
            raise ConfigurationError(
                f"coalition {config.coalition} names a client the partition "
                f"left without data; only {len(clients)} clients hold samples"
            )
        clients = [
            ClientState(client_id=new_id, dataset=clients[index].dataset)
            for new_id, index in enumerate(config.coalition)
        ]
    stats = compute_partition_stats(partition, split.train)
    return split, clients, stats


def build_model_template(config: ExperimentConfig) -> tuple[Module, Loss]:
    """The freshly initialised model (and its loss) every run starts from.

    Every algorithm — and every serve worker rebuilding its environment —
    starts from the same random initialisation: the model seed depends only
    on the experiment seed.
    """
    model_rng = RngFactory(config.seed).make("model-init")
    model = build_model(config.model, rng=model_rng, **config.model_kwargs)
    return model, CrossEntropyLoss()


def _work_policy(config: ExperimentConfig, algorithm_name: str):
    if config.system_heterogeneity and algorithm_name in _VARIABLE_WORK_ALGORITHMS:
        return UniformRandomEpochs(max_epochs=config.local_epochs)
    return FixedEpochs(config.local_epochs)


def build_simulation(
    config: ExperimentConfig,
    algorithm: FederatedAlgorithm | AlgorithmSpec,
    clients: list[ClientState] | None = None,
    split: TrainTestSplit | None = None,
    executor=None,
) -> FederatedSimulation:
    """Construct a simulation from a config, with the configured plan.

    ``config.mode`` selects the execution plan: ``"sync"`` (lock-step),
    ``"semisync"`` (deadline-bounded rounds), or ``"async"`` (event-driven
    buffered aggregation).  ``clients``/``split`` may be passed in so that
    several algorithms are compared on identical data; when omitted they
    are regenerated from the config (deterministically, from its seed).
    ``executor`` overrides ``config.executor`` with a ready-made
    :class:`~repro.systems.executor.ClientExecutor` instance — the serve
    layer uses this to hand local updates to remote worker processes while
    everything else (sampling, systems model, transport) stays identical.
    """
    if isinstance(algorithm, AlgorithmSpec):
        algorithm = build_algorithm(algorithm.name, **algorithm.kwargs)
    if config.defense is not None:
        # The wrapper screens every cohort with the robust transform before
        # the inner algorithm's own reduction sums it; local training is
        # untouched.
        algorithm = DefendedAlgorithm(algorithm, build_defense(config.defense))
    if config.coalition is not None and clients is not None and not isinstance(clients, list):
        raise ConfigurationError("a coalition needs a client list, not a lazy population")
    if clients is None or split is None:
        split, clients, _ = prepare_environment(config)

    model, loss = build_model_template(config)

    transport = (
        Transport(build_codec(config.codec, **config.codec_kwargs))
        if config.codec is not None
        else None
    )
    # Buffered plans need a virtual clock: default to equally fast clients.
    network_name = config.network or (None if config.mode == "sync" else "homogeneous")
    network = build_network(network_name) if network_name is not None else None
    faults = (
        FaultInjector(dropout_rate=config.dropout, deadline_s=config.deadline_s)
        if config.dropout > 0 or config.deadline_s is not None
        else None
    )
    adversary = (
        build_adversary(config.adversary, fraction=config.adversary_fraction)
        if config.adversary is not None
        else None
    )

    if config.mode == "async":
        # buffer_size=None defers to the plan's default: the synchronous
        # cohort, so each aggregation consumes the same number of uploads.
        plan = AsyncPlan(
            buffer_size=config.buffer_size,
            max_concurrency=config.max_concurrency,
            staleness=config.staleness,
            staleness_exponent=config.staleness_exponent,
        )
    elif config.mode == "semisync":
        plan = SemiSyncPlan(
            round_deadline_s=config.round_deadline_s,
            staleness=config.staleness,
            staleness_exponent=config.staleness_exponent,
        )
    else:
        # plan="flat" is the one-shard case (the config refuses flat + shards).
        plan = HierarchicalPlan(num_shards=config.num_shards)
    return FederatedSimulation(
        algorithm=algorithm,
        model=model,
        clients=clients,
        test_dataset=split.test,
        loss=loss,
        sampler=UniformFractionSampler(config.client_fraction),
        local_work=_work_policy(config, algorithm.name),
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        seed=config.seed,
        eval_every=config.eval_every,
        transport=transport,
        network=network,
        faults=faults,
        adversary=adversary,
        executor=executor
        if executor is not None
        else build_executor(config.executor, max_workers=config.max_workers),
        plan=plan,
    )


def run_single(
    config: ExperimentConfig,
    algorithm: FederatedAlgorithm | AlgorithmSpec,
    stop_at_target: bool = True,
) -> SimulationResult:
    """Run one algorithm under one configuration."""
    simulation = build_simulation(config, algorithm)
    return simulation.run(
        config.num_rounds,
        target_accuracy=config.target_accuracy,
        stop_at_target=stop_at_target,
    )


# --------------------------------------------------------------------------- #
# Comparisons (Table III core machinery, reused by most studies)
# --------------------------------------------------------------------------- #
@dataclass
class ComparisonResult:
    """Results of several algorithms under one configuration."""

    config: ExperimentConfig
    results: dict[str, SimulationResult] = field(default_factory=dict)
    partition_stats: PartitionStats | None = None

    def rounds(self, label: str) -> int | None:
        """Rounds to target for one algorithm label, or ``None``."""
        return self.results[label].rounds_to_target

    def rounds_table(self) -> dict[str, int | None]:
        """Label -> rounds-to-target mapping."""
        return {label: res.rounds_to_target for label, res in self.results.items()}

    def speedups_vs(self, reference_label: str) -> dict[str, float | None]:
        """Speedup of every algorithm relative to ``reference_label``."""
        reference = self.rounds(reference_label)
        return {
            label: speedup_vs_reference(res.rounds_to_target, reference)
            for label, res in self.results.items()
        }

    def reduction_of(self, method_label: str) -> float | None:
        """Round reduction of ``method_label`` over its best competitor."""
        baselines = {
            label: res.rounds_to_target
            for label, res in self.results.items()
            if label != method_label
        }
        return reduction_vs_best_baseline(self.rounds(method_label), baselines)


def run_comparison(
    config: ExperimentConfig,
    algorithms: Sequence[AlgorithmSpec],
    stop_at_target: bool = True,
) -> ComparisonResult:
    """Run several algorithms on identical data and initialisation."""
    if not algorithms:
        raise ConfigurationError("run_comparison needs at least one algorithm")
    split, clients_template, stats = prepare_environment(config)
    outcome = ComparisonResult(config=config, partition_stats=stats)
    for spec in algorithms:
        # Fresh client states per algorithm (persistent variables must not leak
        # between methods), but identical datasets/partition.
        clients = [
            ClientState(client_id=c.client_id, dataset=c.dataset)
            for c in clients_template
        ]
        simulation = build_simulation(config, spec, clients=clients, split=split)
        outcome.results[spec.label()] = simulation.run(
            config.num_rounds,
            target_accuracy=config.target_accuracy,
            stop_at_target=stop_at_target,
        )
    return outcome


# --------------------------------------------------------------------------- #
# Convenience extraction
# --------------------------------------------------------------------------- #
def rounds_summary(
    comparison: ComparisonResult,
) -> dict[str, dict[str, Any]]:
    """Per-algorithm summary: rounds, formatted rounds, speedup vs FedSGD."""
    fedsgd_label = next(
        (label for label in comparison.results if label.startswith("fedsgd")), None
    )
    summary: dict[str, dict[str, Any]] = {}
    for label, result in comparison.results.items():
        metric = rounds_to_target(
            result.history,
            comparison.config.target_accuracy,
            budget=comparison.config.num_rounds,
        )
        speedup = (
            None
            if fedsgd_label is None
            else speedup_vs_reference(
                metric.rounds, comparison.rounds(fedsgd_label)
            )
        )
        summary[label] = {
            "rounds": metric.rounds,
            "formatted": format_rounds(metric),
            "speedup_vs_fedsgd": speedup,
            "final_accuracy": result.history.final_accuracy(),
            "best_accuracy": result.history.best_accuracy(),
        }
    return summary
