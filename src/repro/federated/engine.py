"""The federated server runtime: state + pipeline + execution plan.

:class:`FederatedSimulation` is the composition root of the federated
runtime.  It no longer hard-codes a round loop; instead it wires together
three explicit pieces and delegates:

* a :class:`~repro.federated.state.ServerState` holding every mutable
  server-side quantity (global parameters, model version, round counter,
  evaluation bookkeeping),
* a :class:`~repro.federated.rounds.ClientWorkPipeline` owning the
  client-side mechanics shared by every execution mode (seeding, local
  updates through the configured executor, codec/network/fault
  application, ledger and timing accounting), and
* an :class:`~repro.federated.plans.ExecutionPlan` strategy deciding who
  trains when and when the server aggregates — lock-step synchronous by
  default, with semi-synchronous and fully asynchronous plans available
  (:mod:`repro.federated.plans`).

Every systems component is optional; with none configured the default
synchronous plan is bit-identical to the idealised round loop of the seed
reproduction (pinned by ``tests/test_regression_sync_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.algorithms.base import FederatedAlgorithm
from repro.datasets.base import Dataset
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState, ClientStateStore
from repro.federated.evaluation import Evaluation, evaluate_model
from repro.federated.heterogeneity import FixedEpochs, LocalWorkPolicy
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.messages import CommunicationLedger
from repro.federated.plans import ExecutionPlan, HierarchicalPlan
from repro.federated.rounds import ClientWorkPipeline
from repro.federated.sampler import ClientSampler, UniformFractionSampler
from repro.federated.state import ServerState
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.module import Module
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.utils.rng import RngFactory

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.systems.adversaries import AdversaryModel
    from repro.systems.executor import ClientExecutor
    from repro.systems.faults import FaultInjector
    from repro.systems.network import NetworkModel
    from repro.systems.transport import Transport


@dataclass
class SimulationResult:
    """Everything produced by one federated training run."""

    algorithm: str
    history: TrainingHistory
    final_params: np.ndarray
    ledger: CommunicationLedger
    final_evaluation: Evaluation | None
    rounds_run: int
    target_accuracy: float | None = None
    rounds_to_target: int | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def reached_target(self) -> bool:
        """Whether the target accuracy was reached within the run."""
        return self.rounds_to_target is not None

    @property
    def simulated_seconds(self) -> float:
        """Total simulated wall-clock time (0.0 without a network model)."""
        return self.history.total_simulated_seconds()


class FederatedSimulation:
    """Drives one federated training run for a given algorithm and plan."""

    def __init__(
        self,
        algorithm: FederatedAlgorithm,
        model: Module,
        clients: Sequence[ClientState],
        test_dataset: Dataset,
        loss: Loss | None = None,
        sampler: ClientSampler | None = None,
        local_work: LocalWorkPolicy | None = None,
        batch_size: int | None = 32,
        learning_rate: float = 0.1,
        seed: int = 0,
        eval_every: int = 1,
        eval_batch_size: int | None = 512,
        eager_client_init: bool = True,
        transport: Transport | None = None,
        network: NetworkModel | None = None,
        faults: FaultInjector | None = None,
        adversary: AdversaryModel | None = None,
        executor: ClientExecutor | None = None,
        plan: ExecutionPlan | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if not clients:
            raise ConfigurationError("FederatedSimulation needs at least one client")
        if eval_every <= 0:
            raise ConfigurationError(f"eval_every must be positive, got {eval_every}")
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {learning_rate}"
            )
        self.algorithm = algorithm
        self.model = model
        self.loss = loss if loss is not None else CrossEntropyLoss()
        if isinstance(clients, list):
            # One store for the whole list, so a cohort's rows are one take.
            ClientStateStore.adopt(clients)
        self.clients = clients
        self.test_dataset = test_dataset
        self.sampler = sampler if sampler is not None else UniformFractionSampler(0.1)
        self.local_work = local_work if local_work is not None else FixedEpochs(1)
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.eval_every = eval_every
        self.eval_batch_size = eval_batch_size

        from repro.systems.executor import SerialExecutor

        if faults is not None and faults.deadline_s is not None and network is None:
            raise ConfigurationError(
                "a round deadline needs a network model to compute client "
                "round times; pass network= alongside faults.deadline_s"
            )

        self._rng_factory = RngFactory(seed)
        self._sampling_rng = self._rng_factory.make("client-sampling")
        self._work_rng = self._rng_factory.make("local-work")

        self.pipeline = ClientWorkPipeline(
            algorithm=algorithm,
            model=model,
            loss=self.loss,
            clients=clients,
            executor=executor if executor is not None else SerialExecutor(),
            rng_factory=self._rng_factory,
            batch_size=batch_size,
            learning_rate=learning_rate,
            transport=transport,
            network=network,
            faults=faults,
            adversary=adversary,
            tracer=tracer,
            metrics=metrics,
        )

        initial_params = model.get_flat_params()
        self.state = ServerState(
            params=initial_params,
            algorithm_state=algorithm.init_server_state(
                initial_params, len(clients)
            ),
        )
        if eager_client_init:
            for client in clients:
                algorithm.init_client_state(client, initial_params)

        self.history = TrainingHistory(algorithm=algorithm.name)
        self.ledger = CommunicationLedger()

        if self.tracer.enabled and self.tracer.virtual_clock is None:
            # Default virtual clock: cumulative simulated seconds.  Plans
            # that own a scheduler repoint this at scheduler.now in bind().
            self.tracer.virtual_clock = self.history.total_simulated_seconds

        self.plan = plan if plan is not None else HierarchicalPlan()
        if self.plan.bound:
            raise ConfigurationError(
                "ExecutionPlan instances are single-use (they carry per-run "
                "schedulers, buffers, and derived deadlines); construct a "
                "fresh plan for each simulation"
            )
        self.plan.bind(self)
        self.plan.bound = True

    # ------------------------------------------------------------------ #
    # Compatibility accessors (the pre-decomposition attribute surface)
    # ------------------------------------------------------------------ #
    @property
    def global_params(self) -> np.ndarray:
        """The current global parameter vector (lives in ``state``)."""
        return self.state.params

    @global_params.setter
    def global_params(self, params: np.ndarray) -> None:
        self.state.params = params

    @property
    def server_state(self) -> dict[str, np.ndarray]:
        """The algorithm's persistent server state (lives in ``state``)."""
        return self.state.algorithm_state

    @server_state.setter
    def server_state(self, value: dict[str, np.ndarray]) -> None:
        self.state.algorithm_state = value

    @property
    def executor(self) -> ClientExecutor:
        return self.pipeline.executor

    @property
    def tracer(self) -> Tracer:
        """The simulation's tracer (the shared null tracer when disabled)."""
        return self.pipeline.tracer

    @property
    def metrics(self) -> MetricsRegistry | None:
        return self.pipeline.metrics

    @property
    def transport(self) -> Transport | None:
        return self.pipeline.transport

    @property
    def network(self) -> NetworkModel | None:
        return self.pipeline.network

    @property
    def faults(self) -> FaultInjector | None:
        return self.pipeline.faults

    @property
    def adversary(self) -> AdversaryModel | None:
        return self.pipeline.adversary

    # ------------------------------------------------------------------ #
    # Evaluation cadence
    # ------------------------------------------------------------------ #
    def _maybe_evaluate(self) -> Evaluation | None:
        """Evaluate the global model if the eval cadence says this round should.

        Shared by every execution plan; also remembers the evaluation so
        the end-of-run report can reuse it when the last round already
        evaluated these exact parameters.
        """
        state = self.state
        evaluate_now = (
            state.rounds_run % self.eval_every == 0 or state.rounds_run == 1
        )
        if not evaluate_now or len(self.test_dataset) == 0:
            return None
        evaluation = evaluate_model(
            self.model,
            self.loss,
            state.params,
            self.test_dataset,
            batch_size=self.eval_batch_size,
        )
        state.last_evaluation = evaluation
        state.last_evaluation_round = state.rounds_run
        return evaluation

    # ------------------------------------------------------------------ #
    # One round / full run
    # ------------------------------------------------------------------ #
    def run_round(self) -> RoundRecord:
        """Execute a single round under the configured execution plan."""
        with self.tracer.span(
            "round", round=self.state.rounds_run, plan=self.plan.name
        ):
            return self.plan.run_round(self)

    def run(
        self,
        num_rounds: int,
        target_accuracy: float | None = None,
        stop_at_target: bool = False,
    ) -> SimulationResult:
        """Run up to ``num_rounds`` rounds.

        If ``target_accuracy`` is given and ``stop_at_target`` is true, the
        run stops at the first evaluated round whose test accuracy reaches
        the target (the paper's rounds-to-target protocol).
        """
        if num_rounds <= 0:
            raise ConfigurationError(f"num_rounds must be positive, got {num_rounds}")
        try:
            with self.tracer.span(
                "run", algorithm=self.algorithm.name, plan=self.plan.name
            ):
                for _ in range(num_rounds):
                    record = self.run_round()
                    reached = (
                        target_accuracy is not None
                        and record.test_accuracy is not None
                        and record.test_accuracy >= target_accuracy
                    )
                    if reached and stop_at_target:
                        break
        finally:
            self.pipeline.close()
        return self.result(target_accuracy)

    def result(self, target_accuracy: float | None = None) -> SimulationResult:
        """The :class:`SimulationResult` of the rounds completed so far.

        What :meth:`run` returns; drivers that call :meth:`run_round`
        themselves (the federation server) take their snapshots here.
        """
        final_evaluation = None
        if len(self.test_dataset) > 0:
            if self.state.evaluation_is_current():
                # The last executed round already evaluated these exact
                # parameters; reuse it instead of re-running evaluate_model.
                final_evaluation = self.state.last_evaluation
            else:
                final_evaluation = evaluate_model(
                    self.model,
                    self.loss,
                    self.state.params,
                    self.test_dataset,
                    batch_size=self.eval_batch_size,
                )
        rounds_to_target = (
            None
            if target_accuracy is None
            else self.history.rounds_to_accuracy(target_accuracy)
        )
        metadata = {
            "num_clients": len(self.clients),
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "executor": type(self.executor).__name__,
            "codec": None if self.transport is None else self.transport.codec.name,
            **self.plan.extra_metadata(self),
        }
        if self.metrics is not None:
            # Only when metrics are active: default payloads stay identical
            # to pre-observability runs (store keys, golden comparisons).
            metadata["metrics"] = self.metrics.snapshot()
        return SimulationResult(
            algorithm=self.algorithm.name,
            history=self.history,
            final_params=np.array(self.state.params, copy=True),
            ledger=self.ledger,
            final_evaluation=final_evaluation,
            rounds_run=self.state.rounds_run,
            target_accuracy=target_accuracy,
            rounds_to_target=rounds_to_target,
            metadata=metadata,
        )
