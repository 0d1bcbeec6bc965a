"""The federated server runtime: state + pipeline + execution plan.

:class:`FederatedSimulation` is the composition root.  It wires together a
:class:`~repro.federated.state.ServerState` (every mutable server-side
quantity), a :class:`~repro.federated.rounds.ClientWorkPipeline` (the
client-side mechanics every plan shares: seeding, local updates through
the executor, codec/network/fault application, accounting) and an
:class:`~repro.federated.plans.ExecutionPlan` (who trains when, and when
the server aggregates: lock-step by default, semi-synchronous or
asynchronous on request), and delegates each round to the plan.  It also
owns the run's checkpoint (:meth:`FederatedSimulation.checkpoint`,
:meth:`FederatedSimulation.restore`).

Every systems component is optional; with none configured the default
synchronous plan is bit-identical to the idealised round loop of the seed
reproduction (pinned by ``tests/test_regression_sync_golden.py``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.algorithms.base import FederatedAlgorithm
from repro.datasets.base import Dataset
from repro.exceptions import ConfigurationError
from repro.federated.client import ClientState, ClientStateStore, scatter
from repro.federated.evaluation import Evaluation, evaluate_model
from repro.federated.heterogeneity import FixedEpochs, LocalWorkPolicy
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.messages import CommunicationLedger
from repro.federated.plans import BufferedPlan, ExecutionPlan, HierarchicalPlan
from repro.federated.rounds import ClientWorkPipeline
from repro.federated.sampler import ClientSampler, UniformFractionSampler
from repro.federated.state import ServerState
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.module import Module
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.utils.rng import RngFactory, load_state_words, state_words

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
        self._sampling_rng = self._rng_factory.stream("client-sampling")
        self._work_rng = self._rng_factory.stream("local-work")

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

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #
    def rng_streams(self) -> dict[str, np.random.Generator]:
        """Every generator the run draws from after construction, by label."""
        return {**self._rng_factory.streams, **self.algorithm.rng_streams()}

    def _client_list(self) -> list[ClientState]:
        if not isinstance(self.clients, list):
            raise ConfigurationError("a checkpoint needs a client list, not a lazy population")
        return self.clients

    def checkpoint(self) -> dict[str, np.ndarray]:
        """Everything a continued run needs beyond :meth:`result`, as arrays.

        θ, algorithm state and counters; per client variable one stacked
        ``(N, *shape)`` array from the arena plus the mask of the rows some
        client has set (unset rows are zero); the exact state of every
        stream in :meth:`rng_streams`, by label.  Only :meth:`restore`
        reads the names; ``np.load`` needs no pickling for any array.
        """
        clients, state, streams = self._client_list(), self.state, self.rng_streams()
        arrays = {
            "rounds_run": np.asarray(state.rounds_run),
            "model_version": np.asarray(state.model_version),
            "last_aggregation_time": np.asarray(float(state.last_aggregation_time)),
            "params": np.array(state.params, dtype=np.float64),
            "client_counters": np.array(
                [(c.client_id, c.rounds_participated, c.local_work_done) for c in clients],
                dtype=np.int64,
            ),
            "rng_labels": np.array(list(streams), dtype=str),
            "rng_states": np.array(
                [state_words(generator) for generator in streams.values()], dtype=np.uint64
            ).reshape(-1, 6),
        }
        for key, value in state.algorithm_state.items():
            arrays[f"state.{key}"] = np.array(value, dtype=np.float64)
        store = clients[0].store
        for key in store.names():
            arrays[f"has.{key}"] = has = np.array([client.has(key) for client in clients])
            arrays[f"var.{key}"] = store.take(key, range(store.rows))
            arrays[f"var.{key}"][~has] = 0.0
        return arrays

    def restore(self, checkpoint: dict[str, np.ndarray], result: SimulationResult) -> None:
        """Continue from a :meth:`checkpoint` and the :meth:`result` taken with it.

        Call on a freshly built simulation of the same configuration.  It
        draws nothing, so the next round is the one the checkpointed run
        would have run next, bit for bit.
        """
        if isinstance(self.plan, BufferedPlan):
            raise ConfigurationError(
                f"cannot restore a run under the {self.plan.name!r} plan: its "
                "scheduler holds in-flight updates a checkpoint does not carry"
            )
        if "rng_states" not in checkpoint:
            raise ConfigurationError(
                "checkpoint is in the per-client 'client.<id>.<key>' format of "
                "earlier releases, which is no longer read; start the run over"
            )
        rounds_run = int(checkpoint["rounds_run"])
        if rounds_run != result.rounds_run:
            # A store replaces the sidecar just before the result; a crash
            # in between leaves a pair from two different rounds.
            raise ConfigurationError(
                f"checkpoint is from round {rounds_run} but the result from "
                f"round {result.rounds_run}; drop the pair and start over"
            )
        clients, streams = self._client_list(), self.rng_streams()
        counters, labels = checkpoint["client_counters"], list(checkpoint["rng_labels"])
        if sorted(labels) != sorted(streams) or len(counters) != len(clients):
            raise ConfigurationError(
                f"checkpoint of {len(counters)} clients and streams {sorted(labels)} "
                f"does not fit this run of {len(clients)} and {sorted(streams)}"
            )
        state = self.state
        state.params = np.array(checkpoint["params"], dtype=np.float64)
        state.model_version = int(checkpoint["model_version"])
        state.rounds_run = rounds_run
        state.last_aggregation_time = float(checkpoint["last_aggregation_time"])
        state.algorithm_state = {}
        self.history.records[:] = result.history.records
        self.ledger = copy.deepcopy(result.ledger)
        for client, (_, participated, work_done) in zip(clients, counters):
            client.rounds_participated, client.local_work_done = int(participated), int(work_done)
            client.variables = {}
        for name, value in checkpoint.items():
            kind, _, key = name.partition(".")
            if kind == "state":
                state.algorithm_state[key] = np.array(value, dtype=np.float64)
            elif kind == "var" and checkpoint[f"has.{key}"].any():
                has = checkpoint[f"has.{key}"]
                scatter([c for c, set_ in zip(clients, has) if set_], key, value[has])
        for label, words in zip(labels, checkpoint["rng_states"]):
            load_state_words(streams[str(label)], words)

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
