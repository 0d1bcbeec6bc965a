"""Federated-learning runtime: clients, server state, plans, and pipelines.

The runtime is algorithm-agnostic and layered:

* :mod:`repro.federated.state` — explicit server-side state
  (:class:`ServerState`) and per-round context (:class:`RoundContext`);
* :mod:`repro.federated.rounds` — the :class:`ClientWorkPipeline` every
  execution mode drives (seeding, local updates, codec/network/fault
  application, accounting);
* :mod:`repro.federated.plans` — :class:`ExecutionPlan` strategies
  (synchronous lock-step, deadline-bounded semi-synchronous, event-driven
  asynchronous) over that shared core;
* :class:`FederatedSimulation` — the composition root a
  :class:`repro.algorithms.base.FederatedAlgorithm` plugs into.
"""

from repro.federated.local_problem import LocalProblem
from repro.federated.client import (
    ClientState,
    ClientStateStore,
    build_clients,
    gather,
    scatter,
)
from repro.federated.sampler import (
    ClientSampler,
    UniformFractionSampler,
    BernoulliSampler,
    FixedScheduleSampler,
)
from repro.federated.heterogeneity import (
    LocalWorkPolicy,
    FixedEpochs,
    UniformRandomEpochs,
    PerClientEpochs,
)
from repro.federated.messages import ClientMessage, CommunicationLedger
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.evaluation import evaluate_model, Evaluation
from repro.federated.state import ServerState, RoundContext
from repro.federated.rounds import ClientWork, ClientWorkPipeline, finalise_round
from repro.federated.plans import (
    ExecutionPlan,
    HierarchicalPlan,
    BufferedPlan,
    SemiSyncPlan,
    AsyncPlan,
    PLAN_REGISTRY,
)
from repro.federated.engine import FederatedSimulation, SimulationResult
from repro.federated.scheduler import AsyncScheduler, ClientCompletion, EventQueue
from repro.federated.staleness import (
    ConstantStaleness,
    PolynomialStaleness,
    STALENESS_REGISTRY,
    StaleUpdate,
    StalenessWeighting,
    build_staleness,
    rebase,
    resolve_staleness,
)

__all__ = [
    # Clients and local problems
    "LocalProblem",
    "ClientState",
    "ClientStateStore",
    "build_clients",
    "gather",
    "scatter",
    # Sampling and local-work policies
    "ClientSampler",
    "UniformFractionSampler",
    "BernoulliSampler",
    "FixedScheduleSampler",
    "LocalWorkPolicy",
    "FixedEpochs",
    "UniformRandomEpochs",
    "PerClientEpochs",
    # Messages, history, evaluation
    "ClientMessage",
    "CommunicationLedger",
    "RoundRecord",
    "TrainingHistory",
    "evaluate_model",
    "Evaluation",
    # Server runtime: state, pipeline, plans
    "ServerState",
    "RoundContext",
    "ClientWork",
    "ClientWorkPipeline",
    "finalise_round",
    "ExecutionPlan",
    "HierarchicalPlan",
    "BufferedPlan",
    "SemiSyncPlan",
    "AsyncPlan",
    "PLAN_REGISTRY",
    # The engine (composition root)
    "FederatedSimulation",
    "SimulationResult",
    # Virtual clock
    "AsyncScheduler",
    "ClientCompletion",
    "EventQueue",
    # Staleness
    "StalenessWeighting",
    "ConstantStaleness",
    "PolynomialStaleness",
    "STALENESS_REGISTRY",
    "StaleUpdate",
    "build_staleness",
    "rebase",
    "resolve_staleness",
]
