"""The client-work pipeline: one round's worth of client-side mechanics.

Every execution plan — lock-step synchronous, deadline-bounded
semi-synchronous, fully asynchronous — drives the same per-client
machinery: derive a deterministic seed, run the algorithm's local update
through the configured executor, fold worker copies of client state back
into the population, round-trip uploads through the transport codec, and
account wire bytes and simulated time.  :class:`ClientWorkPipeline` owns
exactly that machinery (and the RNG streams it consumes), so the plans in
:mod:`repro.federated.plans` reduce to control flow over a shared core.

The pipeline is deliberately free of round-loop policy: it never decides
*who* trains or *when* the server aggregates.  Those decisions belong to
the plans; keeping them out of this module is what makes the synchronous
and asynchronous histories bit-for-bit reproducible across refactors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.algorithms.base import FederatedAlgorithm, LocalTrainingConfig
from repro.federated.client import ClientState
from repro.federated.evaluation import Evaluation
from repro.federated.history import RoundRecord
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import BYTES_PER_FLOAT, ClientMessage
from repro.federated.population import LazyProblems
from repro.federated.state import RoundContext
from repro.nn.losses import Loss
from repro.nn.module import Module
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import get_obs, observe
from repro.obs.trace import Tracer
from repro.utils.rng import RngFactory, SeedLike

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.systems.adversaries import AdversaryModel
    from repro.systems.executor import ClientExecutor, LocalUpdateOutcome
    from repro.systems.faults import FaultInjector
    from repro.systems.network import ClientSystemProfile, NetworkModel
    from repro.systems.transport import Transport


@dataclass
class ClientWork:
    """One client's share of a round: who trains, for how long, seeded how."""

    client_index: int
    epochs: int
    round_index: int
    rng: SeedLike


class ClientWorkPipeline:
    """Seeding, local updates, codec/network/fault application, accounting.

    Constructed once per simulation; every execution plan calls into the
    same instance, so the RNG streams (``local-training``, ``faults``,
    ``transport``) advance identically no matter which plan drives the run.
    """

    def __init__(
        self,
        *,
        algorithm: FederatedAlgorithm,
        model: Module,
        loss: Loss,
        clients: Sequence[ClientState],
        executor: ClientExecutor,
        rng_factory: RngFactory,
        batch_size: int | None,
        learning_rate: float,
        transport: Transport | None = None,
        network: NetworkModel | None = None,
        faults: FaultInjector | None = None,
        adversary: AdversaryModel | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.algorithm = algorithm
        self.clients = clients
        self.executor = executor
        self.transport = transport
        self.network = network
        self.faults = faults
        self.adversary = adversary
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.dim = model.get_flat_params().size

        # Observability sinks: explicit arguments win; otherwise resolve
        # from the process-wide context (see repro.obs.runtime), so one
        # observe() block around a run instruments everything.
        obs = get_obs()
        self.tracer = tracer if tracer is not None else obs.tracer
        self.metrics = metrics if metrics is not None else obs.metrics

        self._rng_factory = rng_factory
        self.training_rng = rng_factory.make("local-training")
        self.fault_rng = rng_factory.make("faults")
        self.transport_rng = rng_factory.make("transport")

        self.profiles: list[ClientSystemProfile] | None = None
        if network is not None:
            self.profiles = network.profiles(
                len(clients), rng_factory.make("network")
            )

        # Adversarial clients are chosen once per simulation from their own
        # RNG stream — a property of the seed, not of executor or plan.
        # Data poisoners (label_flip) swap the chosen clients' datasets for
        # poisoned copies *before* the local problems are built below, so
        # they then train honestly on dishonest data; byzantine behaviours
        # corrupt uploads in local_updates instead.
        self.adversarial: frozenset[int] = frozenset()
        if adversary is not None:
            if not isinstance(clients, list):
                from repro.exceptions import ConfigurationError

                raise ConfigurationError(
                    "adversaries need a materialised client list; virtual "
                    "(lazy) populations are not supported"
                )
            self.adversarial = adversary.select(
                len(clients), rng_factory.make("adversary-selection")
            )
            if adversary.poisons_data:
                for index in sorted(self.adversarial):
                    client = clients[index]
                    client.dataset = adversary.poison_dataset(client.dataset)

        if isinstance(clients, list):
            self.problems = [
                LocalProblem(model=model, loss=loss, dataset=client.dataset)
                for client in clients
            ]
        else:
            # Virtual populations (repro.federated.population) stay lazy:
            # problems are built per touched client, so a million-client
            # simulation never materialises a million-element list.
            self.problems = LazyProblems(model, loss, clients)
        # Ship the immutable per-client problems to the executor once; for
        # process pools this is what reaches the workers at creation, so the
        # per-round task payloads stay small.  Priming runs under this
        # pipeline's resolved sinks so executors that consult get_obs() —
        # the vectorized executor reads its metrics registry and tracer
        # there — see the same sinks regardless of injection route.
        with observe(tracer=self.tracer, metrics=self.metrics):
            self.executor.prime(self.problems, self.algorithm)

    # ------------------------------------------------------------------ #
    # Seeding
    # ------------------------------------------------------------------ #
    def seed_from_label(self, label: str) -> int:
        """Deterministic integer seed for one isolated local-update task."""
        return int(self._rng_factory.make(label).integers(0, 2**62))

    # ------------------------------------------------------------------ #
    # Systems model: time and faults
    # ------------------------------------------------------------------ #
    def client_round_seconds(self, client_id: int, epochs: int) -> float:
        """Simulated seconds for one client's full participation this round."""
        profile = self.profiles[client_id]
        dim = self.dim
        download_bytes = self.algorithm.download_floats(dim) * BYTES_PER_FLOAT
        if self.transport is not None:
            # The transport compresses each payload vector separately, so
            # per-vector overheads (norms, scales) are paid once per vector.
            # An algorithm that overrides upload_floats without
            # upload_vector_dims falls back to one concatenated vector.
            vector_dims = self.algorithm.upload_vector_dims(dim)
            if sum(vector_dims) != self.algorithm.upload_floats(dim):
                vector_dims = (self.algorithm.upload_floats(dim),)
            upload_bytes = sum(
                self.transport.upload_wire_bytes(vec_dim)
                for vec_dim in vector_dims
            )
        else:
            upload_bytes = self.algorithm.upload_floats(dim) * BYTES_PER_FLOAT
        return profile.round_seconds(
            download_bytes=download_bytes,
            upload_bytes=upload_bytes,
            num_samples=self.clients[client_id].num_samples,
            epochs=epochs,
        )

    def crashes(self, count: int) -> np.ndarray:
        """Roll the fault injector's crash dice for ``count`` dispatches."""
        if self.faults is None:
            return np.zeros(count, dtype=bool)
        return self.faults.crashes(count, self.fault_rng)

    def past_deadline(self, duration_s: float) -> bool:
        """Whether one dispatch's duration exceeds the fault deadline."""
        return (
            self.faults is not None
            and self.faults.deadline_s is not None
            and duration_s > self.faults.deadline_s
        )

    def simulate_systems(
        self,
        round_index: int,
        selected: np.ndarray,
        epochs_by_client: dict[int, int],
    ) -> RoundContext:
        """Apply faults and the time model to a lock-step round's cohort.

        Without a network model round time is 0.0; without a fault injector
        every selected client survives.
        """
        selected_ids = [int(c) for c in selected]
        ctx = RoundContext(
            round_index=round_index,
            selected=tuple(selected_ids),
            epochs_by_client=epochs_by_client,
        )
        if self.faults is None and self.network is None:
            ctx.survivors = selected_ids
            return ctx

        crashed = self.crashes(len(selected_ids))

        if self.profiles is not None:
            times = np.array(
                [
                    self.client_round_seconds(cid, epochs_by_client[cid])
                    for cid in selected_ids
                ]
            )
        else:
            times = np.zeros(len(selected_ids))

        if self.faults is not None and self.profiles is not None:
            straggled = self.faults.stragglers(times)
        else:
            straggled = np.zeros(len(selected_ids), dtype=bool)

        dropped_mask = crashed | straggled
        ctx.survivors = [
            cid for cid, out in zip(selected_ids, dropped_mask) if not out
        ]
        ctx.dropped = [cid for cid, out in zip(selected_ids, dropped_mask) if out]

        if self.profiles is None:
            ctx.round_seconds = 0.0
        elif straggled.any():
            # The server holds the round open until its deadline when any
            # straggler misses it.
            ctx.round_seconds = float(self.faults.deadline_s)
        elif ctx.survivors:
            ctx.round_seconds = float(times[~dropped_mask].max())
        else:
            # Everyone crashed: the server waits for the slowest client to
            # have timed out before abandoning the round.
            ctx.round_seconds = float(times.max())
        return ctx

    # ------------------------------------------------------------------ #
    # Local updates
    # ------------------------------------------------------------------ #
    def local_updates(
        self,
        params: np.ndarray,
        algorithm_state: dict[str, np.ndarray],
        work: Sequence[ClientWork],
    ) -> list[LocalUpdateOutcome]:
        """Run the algorithm's local update for each work item.

        Worker-process copies of client state are folded back into the
        population before the outcomes are returned, so callers only see
        the messages.
        """
        from repro.systems.executor import LocalUpdateTask

        trace = self.tracer.enabled
        tasks = [
            LocalUpdateTask(
                client_index=item.client_index,
                client=self.clients[item.client_index],
                global_params=params,
                server_state=algorithm_state,
                config=LocalTrainingConfig(
                    epochs=item.epochs,
                    batch_size=self.batch_size,
                    learning_rate=self.learning_rate,
                ),
                round_index=item.round_index,
                rng=item.rng,
                trace=trace,
            )
            for item in work
        ]
        outcomes = self.executor.run_tasks(tasks) if tasks else []
        for task, outcome in zip(tasks, outcomes):
            self.merge_client(task.client_index, outcome.client)
        if self.adversary is not None and self.adversary.corrupts_updates:
            # Corrupt on the coordinator thread, after the executor returns:
            # the same bytes replace the same messages no matter which
            # executor (or max_workers) produced them.  Each corruption
            # draws from its own (client, round) stream so the order the
            # outcomes are visited cannot perturb another client's noise.
            corrupted = 0
            for task, outcome in zip(tasks, outcomes):
                if task.client_index not in self.adversarial:
                    continue
                rng = self._rng_factory.make(
                    f"adversary/round-{task.round_index}/client-{task.client_index}"
                )
                outcome.message = self.adversary.corrupt_message(
                    outcome.message, params, rng
                )
                corrupted += 1
            if self.metrics is not None and corrupted:
                self.metrics.counter("adversary.corrupted_updates").inc(corrupted)
        if self.metrics is not None and tasks:
            self.metrics.counter("tasks_executed").inc(len(tasks))
        if trace:
            # Executors return picklable span records (possibly produced in
            # worker threads/processes); adopting re-parents the orphan
            # client_task roots under the caller's open round span and gives
            # every record a place in this tracer's FIFO order.
            produced = [span for outcome in outcomes for span in outcome.spans]
            if produced:
                self.tracer.adopt(produced)
        return outcomes

    def merge_client(self, client_index: int, updated: ClientState) -> None:
        """Copy a worker-process copy's rows back into the original client's."""
        original = self.clients[client_index]
        if updated is original:
            return
        original.variables = updated.variables
        original.rounds_participated = updated.rounds_participated
        original.local_work_done = updated.local_work_done

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def compress(
        self, messages: Iterable[ClientMessage], upload_floats: int
    ) -> tuple[list[ClientMessage], int]:
        """Round-trip uploads through the codec; return post-wire messages.

        Returns ``(messages, upload_wire_bytes)``.  ``upload_floats`` is the
        messages' summed :attr:`ClientMessage.upload_floats`, which the
        caller has already counted for the ledger; without a transport the
        messages pass through and the wire bytes are those raw float bytes.
        """
        messages = list(messages)
        codec = "raw" if self.transport is None else self.transport.codec.name
        with self.tracer.span("compress", codec=codec, messages=len(messages)):
            if self.transport is None:
                compressed, wire_bytes = messages, upload_floats * BYTES_PER_FLOAT
            else:
                wire_bytes = 0
                compressed = []
                for message in messages:
                    message, wire = self.transport.compress_message(
                        message, self.transport_rng
                    )
                    compressed.append(message)
                    wire_bytes += wire
        if self.metrics is not None and messages:
            self.metrics.counter(f"wire.upload_bytes.{codec}").inc(wire_bytes)
        return compressed, wire_bytes

    def close(self) -> None:
        """Release executor resources (worker pools)."""
        self.executor.close()


def finalise_round(
    engine,
    *,
    evaluation: Evaluation | None,
    train_losses: Sequence[float],
    num_selected: int,
    uploads: int,
    downloads: int,
    upload_wire_bytes: int,
    download_wire_bytes: int,
    epochs_used: Sequence[int],
    simulated_seconds: float,
    dropped: Sequence[int],
    stalenesses: Sequence[int] = (),
    deadline_s: float | None = None,
) -> RoundRecord:
    """Shared end-of-round bookkeeping for every execution plan.

    Records the communication costs in the ledger, assembles the
    :class:`~repro.federated.history.RoundRecord` (one schema across sync,
    semi-sync, and async), and appends it to the history.  The caller has
    already advanced ``engine.state.rounds_run`` / ``model_version`` and
    run the evaluation cadence, because evaluation must see the
    post-aggregation parameters.
    """
    state = engine.state
    record = RoundRecord(
        round_index=state.rounds_run,
        test_accuracy=None if evaluation is None else evaluation.accuracy,
        test_loss=None if evaluation is None else evaluation.loss,
        train_loss=(
            float(np.mean(np.asarray(train_losses)))
            if len(train_losses)
            else float("nan")
        ),
        num_selected=num_selected,
        upload_floats=uploads,
        download_floats=downloads,
        mean_local_epochs=(
            float(np.mean(np.asarray(epochs_used))) if len(epochs_used) else 0.0
        ),
        upload_wire_bytes=upload_wire_bytes,
        download_wire_bytes=download_wire_bytes,
        simulated_seconds=simulated_seconds,
        dropped_clients=tuple(dropped),
        model_version=state.model_version,
        mean_staleness=(
            float(np.mean(np.asarray(stalenesses))) if len(stalenesses) else 0.0
        ),
        max_staleness=int(max(stalenesses)) if len(stalenesses) else 0,
        deadline_s=deadline_s,
    )
    engine.ledger.record_round(
        uploads, downloads, upload_wire_bytes, download_wire_bytes
    )
    engine.history.append(record)
    metrics = engine.pipeline.metrics
    if metrics is not None:
        metrics.counter("rounds_completed").inc()
        metrics.counter("wire.download_bytes").inc(download_wire_bytes)
        if dropped:
            metrics.counter("clients.dropped").inc(len(dropped))
        if stalenesses:
            staleness_hist = metrics.histogram("staleness")
            for staleness in stalenesses:
                staleness_hist.observe(staleness)
    return record
