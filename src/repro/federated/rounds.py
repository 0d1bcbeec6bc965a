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

from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.algorithms.base import FederatedAlgorithm, LocalTrainingConfig
from repro.exceptions import SimulationError
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
from repro.obs.trace import SpanRecord, Tracer
from repro.utils.rng import RngFactory, SeedLike

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.algorithms.base import UpdateAccumulator
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
        self.training_rng = rng_factory.stream("local-training")
        self.fault_rng = rng_factory.stream("faults")
        self.transport_rng = rng_factory.stream("transport")
        self._upload_thread: ThreadPoolExecutor | None = None

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
        # Ship the immutable per-client problems to the executor once, so
        # the per-round tasks carry only round-varying state.  Priming runs
        # under this pipeline's resolved sinks so executors that consult
        # get_obs() — the vectorized executor reads its metrics registry and
        # tracer there — see the same sinks regardless of injection route.
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
        on_outcome: Callable[[LocalUpdateOutcome], None] | None = None,
    ) -> list[LocalUpdateOutcome] | None:
        """Run the algorithm's local update for each work item.

        Served workers' decoded copies of client state are folded back into
        the population, and adversarial uploads corrupted, one outcome at a
        time as the executor hands them over, so callers only see the
        messages.  Without ``on_outcome`` the outcomes are returned in task
        order; with it each is handed on in that order instead (the serial
        executor as each task finishes, the others after their batch) and
        nothing is returned.
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
        outcomes: list[LocalUpdateOutcome] = []
        spans: list[SpanRecord] = []
        corrupts = self.adversary is not None and self.adversary.corrupts_updates
        corrupted = 0

        def hand_over(task: LocalUpdateTask, outcome: LocalUpdateOutcome) -> None:
            nonlocal corrupted
            self.merge_client(task.client_index, outcome.client)
            if corrupts and task.client_index in self.adversarial:
                # Corrupt on the coordinator thread, after the executor
                # hands the outcome over: the same bytes replace the same
                # messages no matter which executor (or max_workers)
                # produced them.  Each corruption draws from its own
                # (client, round) stream, so the order the outcomes are
                # visited cannot perturb another client's noise.
                rng = self._rng_factory.make(
                    f"adversary/round-{task.round_index}/client-{task.client_index}"
                )
                outcome.message = self.adversary.corrupt_message(
                    outcome.message, params, rng
                )
                corrupted += 1
            spans.extend(outcome.spans)
            if on_outcome is None:
                outcomes.append(outcome)
            else:
                on_outcome(outcome)

        if tasks:
            self.executor.run_tasks(tasks, on_outcome=hand_over)
        if self.metrics is not None:
            if corrupted:
                self.metrics.counter("adversary.corrupted_updates").inc(corrupted)
            if tasks:
                self.metrics.counter("tasks_executed").inc(len(tasks))
        if spans:
            # Executors return plain span records (possibly produced in
            # worker threads or served workers); adopting re-parents the orphan
            # client_task roots under the caller's open round span and gives
            # every record a place in this tracer's FIFO order.
            self.tracer.adopt(spans)
        return outcomes if on_outcome is None else None

    def merge_client(self, client_index: int, updated: ClientState) -> None:
        """Copy a decoded client copy's rows back into the original client's."""
        original = self.clients[client_index]
        if updated is original:
            return
        original.variables = updated.variables
        original.rounds_participated = updated.rounds_participated
        original.local_work_done = updated.local_work_done

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    @property
    def codec_name(self) -> str:
        """The uplink codec's name; ``"raw"`` without a transport."""
        return "raw" if self.transport is None else self.transport.codec.name

    def compress(
        self,
        messages: Iterable[ClientMessage],
        upload_floats: int,
        tracer: Tracer | None = None,
    ) -> tuple[list[ClientMessage], int]:
        """Round-trip uploads through the codec; return post-wire messages.

        Returns ``(messages, upload_wire_bytes)``.  ``upload_floats`` is the
        messages' summed :attr:`ClientMessage.upload_floats`, which the
        caller has already counted for the ledger; without a transport the
        messages pass through and the wire bytes are those raw float bytes.
        The ``compress`` span goes to ``tracer`` (default: the pipeline's);
        the upload thread passes a tracer of its own.
        """
        messages = list(messages)
        tracer = self.tracer if tracer is None else tracer
        with tracer.span("compress", codec=self.codec_name, messages=len(messages)):
            if self.transport is None:
                return messages, upload_floats * BYTES_PER_FLOAT
            wire_bytes = 0
            compressed = []
            for message in messages:
                message, wire = self.transport.compress_message(
                    message, self.transport_rng
                )
                compressed.append(message)
                wire_bytes += wire
        return compressed, wire_bytes

    def upload_stage(self, accumulator: UpdateAccumulator) -> UploadStage:
        """A stage that compresses uploads and sums them into ``accumulator``.

        With a codec the stage runs on the pipeline's one upload thread,
        created here on first use and joined by :meth:`close`.
        """
        thread = None
        if self.transport is not None:
            if self._upload_thread is None:
                self._upload_thread = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-upload"
                )
            thread = self._upload_thread
        return UploadStage(self, accumulator, thread)

    def close(self) -> None:
        """Join the upload thread and release executor resources (pools)."""
        if self._upload_thread is not None:
            self._upload_thread.shutdown(wait=True)
            self._upload_thread = None
        self.executor.close()


class UploadStage:
    """One shard's uploads: each is compressed, then summed, in hand-over order.

    With a codec configured, each submitted message is compressed and folded
    into the accumulator on the pipeline's one upload thread while the
    calling thread trains the next client; the codec and the sum work on
    whole parameter vectors, so both threads make progress.  One thread fed
    in task order keeps the ``transport_rng`` draws and the sum's ``+=``
    order exactly those of compressing and summing after the whole cohort,
    so results are bit for bit the same.  A message is dropped as soon as it
    is summed.  Without a codec there is nothing to overlap: the messages
    are held and go through :meth:`ClientWorkPipeline.compress` as one batch
    on the calling thread when the stage is left.

    Use it as a context manager.  Leaving it waits for the upload thread,
    adopts the spans it recorded under the caller's open span, and re-raises
    the first upload error (nothing is summed after one).  If the block
    raises, uploads not yet started are cancelled and the block's error
    propagates.
    """

    def __init__(
        self,
        pipeline: ClientWorkPipeline,
        accumulator: UpdateAccumulator,
        thread: ThreadPoolExecutor | None,
    ):
        self.pipeline = pipeline
        self.accumulator = accumulator
        self.wire_bytes = 0
        self._thread = thread
        self._held: list[ClientMessage] = []
        self._futures: list[Future] = []
        self._error: BaseException | None = None
        # Spans opened on the upload thread have no parent there: they are
        # recorded on a tracer of their own and adopted on the way out.
        self._tracer = (
            Tracer()
            if thread is not None and pipeline.tracer.enabled
            else pipeline.tracer
        )

    def submit(self, message: ClientMessage) -> None:
        """Hand one upload over, in task order."""
        if self._thread is None:
            self._held.append(message)
            return
        if self._error is not None:
            raise self._error  # stop training a cohort that cannot be summed
        self._futures.append(self._thread.submit(self._upload, message))

    def _upload(self, message: ClientMessage) -> None:
        """Compress one message and sum it (on the upload thread)."""
        if self._error is not None:
            return
        try:
            (compressed,), wire_bytes = self.pipeline.compress(
                [message], message.upload_floats, tracer=self._tracer
            )
            self.accumulator.accumulate(compressed)
        except BaseException as error:
            self._error = error
        else:
            self.wire_bytes += wire_bytes

    def __enter__(self) -> UploadStage:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            for future in self._futures:
                future.cancel()
        wait(self._futures)
        self._futures = []
        if self._tracer is not self.pipeline.tracer:
            self.pipeline.tracer.adopt(self._tracer.records)
        if exc_type is not None:
            return
        if self._error is not None:
            raise self._error
        if self._thread is None:
            held, self._held = self._held, []
            compressed, self.wire_bytes = self.pipeline.compress(
                held, sum(message.upload_floats for message in held)
            )
            for message in compressed:
                self.accumulator.accumulate(message)


def _first_non_finite(model: Module, params: np.ndarray) -> str:
    """Which of ``model``'s parameters holds the first non-finite entry of
    its flat vector ``params``."""
    index = int(np.flatnonzero(~np.isfinite(params))[0])
    parameters = model.parameters()
    end = 0
    for position, parameter in enumerate(parameters, start=1):
        end += parameter.size
        if index < end:
            break
    return (
        f"first non-finite value in parameter {position} of {len(parameters)} "
        f"({parameter.name}, shape {parameter.shape})"
    )


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
    post-aggregation parameters.  A non-finite θ ends the run here: every
    later round would train on NaN.
    """
    state = engine.state
    if not np.isfinite(state.params).all():
        raise SimulationError(
            f"round {state.rounds_run}: {engine.algorithm.name} produced a "
            "non-finite global model; the run diverged; "
            + _first_non_finite(engine.model, state.params)
        )
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
        if train_losses:  # one per upload
            metrics.counter(f"wire.upload_bytes.{engine.pipeline.codec_name}").inc(
                upload_wire_bytes
            )
        metrics.counter("rounds_completed").inc()
        metrics.counter("wire.download_bytes").inc(download_wire_bytes)
        if dropped:
            metrics.counter("clients.dropped").inc(len(dropped))
        if stalenesses:
            staleness_hist = metrics.histogram("staleness")
            for staleness in stalenesses:
                staleness_hist.observe(staleness)
    return record
