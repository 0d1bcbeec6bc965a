"""Execution plans: the server's round-loop strategies.

A plan decides *who trains when* and *when the server aggregates*; all of
the client-side mechanics (seeding, local updates, codec/network/fault
application, ledger accounting) are delegated to the shared
:class:`~repro.federated.rounds.ClientWorkPipeline`, and all mutable
server state lives in an explicit
:class:`~repro.federated.state.ServerState`.  Three strategies ship:

* :class:`HierarchicalPlan` — the paper's lock-step round (Fig. 1 /
  Algorithm 1): every selected client must report back (or be dropped)
  before the server aggregates, so one straggler stalls the whole round.
  With one shard (the default, plan name ``"sync"``) that is the flat
  single-server round; with more, the same loop runs per shard (clients →
  edge aggregators → root), each shard reducing its cohort into an
  :class:`~repro.algorithms.base.UpdateAccumulator` and the root merging
  one partial per shard, so peak memory scales with the shard cohort and
  the shard count, not the population.
* :class:`SemiSyncPlan` — deadline-bounded rounds: the server dispatches
  a cohort, aggregates whatever has arrived by the round deadline, and
  lets stragglers deliver into *later* rounds as stale updates weighted
  FedBuff-style.
* :class:`AsyncPlan` — fully event-driven: a virtual clock dispatches
  clients as they become free and the server aggregates whenever its
  bounded buffer fills (FedBuff, Nguyen et al., 2022).

The last two are :class:`BufferedPlan` subclasses: they share one dispatch
wave, one in-flight record and one aggregation tail, which rebases every
stale arrival onto the current model
(:func:`~repro.federated.staleness.rebase`) and then runs the same
reduction as the lock-step round — the server update is additive in the
uploads, so buffering needs no second aggregation rule.

Plans are deliberately thin: adding a new execution mode means writing one
subclass with a ``run_round`` and binding it to a
:class:`~repro.federated.engine.FederatedSimulation` — no engine subclass,
no copied pipeline code.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

try:  # POSIX-only; the RSS gauge degrades gracefully elsewhere
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

from repro.exceptions import ConfigurationError, SimulationError
from repro.federated.history import RoundRecord
from repro.federated.messages import BYTES_PER_FLOAT
from repro.federated.rounds import ClientWork, finalise_round
from repro.federated.scheduler import AsyncScheduler
from repro.federated.sharding import (
    Shard,
    ShardSampler,
    shard_label,
    shard_population,
)
from repro.federated.staleness import (
    StalenessWeighting,
    StaleUpdate,
    rebase,
    resolve_staleness,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federated.engine import FederatedSimulation


class ExecutionPlan:
    """Interface: one server-side round-loop strategy.

    ``bind`` is called exactly once, at the end of engine construction; it
    validates the engine/plan combination and allocates any plan-private
    state (schedulers, buffers).  ``run_round`` executes one round — one
    appended :class:`~repro.federated.history.RoundRecord` — against the
    engine's :class:`~repro.federated.state.ServerState` and pipeline.
    """

    name = "base"

    #: Set by the engine after a successful bind.  Plans carry per-run
    #: state (schedulers, buffers, derived deadlines), so an instance is
    #: single-use: binding it to a second engine would silently reuse the
    #: first run's state.
    bound = False

    def bind(self, engine: FederatedSimulation) -> None:
        """Validate against the engine and allocate plan-private state."""

    def run_round(self, engine: FederatedSimulation) -> RoundRecord:
        """Execute one round and return its record."""
        raise NotImplementedError

    def extra_metadata(self, engine: FederatedSimulation) -> dict:
        """Plan-specific additions to the end-of-run result metadata."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


# --------------------------------------------------------------------------- #
# Lock-step rounds: clients → (edge aggregators →) root server
# --------------------------------------------------------------------------- #
@dataclass
class _RoundTotals:
    """One round's accounting, summed over its shards."""

    num_selected: int = 0
    uploads: int = 0
    upload_wire_bytes: int = 0
    train_losses: list[float] = field(default_factory=list)
    epochs_used: list[int] = field(default_factory=list)
    dropped: list[int] = field(default_factory=list)
    #: Edge aggregators work concurrently; the round closes when the
    #: slowest shard reports its partial.
    round_seconds: float = 0.0


class HierarchicalPlan(ExecutionPlan):
    """The lock-step round (Fig. 1 / Algorithm 1), over one or many shards.

    The population is split into ``num_shards`` contiguous shards, each
    owned by a simulated edge aggregator.  Every round, each shard samples
    its own cohort, trains the survivors as one executor dispatch, and
    folds their uploads into a per-shard
    :class:`~repro.algorithms.base.UpdateAccumulator`; the root merges one
    pre-reduced partial per shard and applies the algorithm's server step.
    Peak memory is therefore one shard's cohort plus one partial per shard,
    whatever the population size.  Edge aggregators are simulated as
    running in parallel: the round's simulated duration is the slowest
    shard's.

    One shard *is* the paper's flat round — every selected client reports
    to the single server (or is dropped) before it aggregates — and runs
    under the name ``"sync"``, with no shard spans or shard metadata.  Each
    shard draws from its own streams, labelled via
    :func:`~repro.federated.sharding.shard_label` — for one shard the flat
    ``client-sampling`` and ``local-work`` streams themselves — and with
    more shards the plan reports as ``"hierarchical"``.
    """

    name = "hierarchical"

    def __init__(self, num_shards: int = 1, shard_samplers=None):
        if num_shards <= 0:
            raise ConfigurationError(
                f"num_shards must be positive, got {num_shards}"
            )
        if shard_samplers is not None and len(shard_samplers) != num_shards:
            raise ConfigurationError(
                f"got {len(shard_samplers)} shard samplers for "
                f"{num_shards} shards"
            )
        self.num_shards = int(num_shards)
        if self.num_shards == 1:
            self.name = "sync"
        self._explicit_samplers = (
            list(shard_samplers) if shard_samplers is not None else None
        )
        self.shards: list[Shard] = []
        self._shard_samplers: list[ShardSampler] = []
        self._streams: list = []  # per shard: (client-sampling, local-work)

    def bind(self, engine: FederatedSimulation) -> None:
        num_clients = len(engine.clients)
        if self.num_shards > num_clients:
            raise ConfigurationError(
                f"num_shards {self.num_shards} exceeds the population of "
                f"{num_clients} clients"
            )
        self.shards = shard_population(num_clients, self.num_shards)
        bases = self._explicit_samplers or [engine.sampler] * self.num_shards
        self._shard_samplers = [
            ShardSampler(base, shard) for base, shard in zip(bases, self.shards)
        ]
        self._streams = [
            tuple(
                engine._rng_factory.stream(shard_label(base, shard.index, self.num_shards))
                for base in ("client-sampling", "local-work")
            )
            for shard in self.shards
        ]

    def _run_shard(
        self,
        engine: FederatedSimulation,
        shard: Shard,
        sampler: ShardSampler,
        sampling_rng,
        work_rng,
        round_index: int,
        totals: _RoundTotals,
    ):
        """One edge aggregator's round: sample, train the cohort, reduce."""
        state, pipeline = engine.state, engine.pipeline
        selected = sampler.sample(round_index, sampling_rng)
        if selected.size == 0:
            raise SimulationError(
                f"round {round_index}: shard {shard.index} sampled no clients"
            )
        epochs_by_client = {
            int(client_id): engine.local_work.epochs(
                int(client_id), round_index, work_rng
            )
            for client_id in selected
        }
        ctx = pipeline.simulate_systems(round_index, selected, epochs_by_client)
        totals.num_selected += ctx.num_selected
        totals.dropped.extend(ctx.dropped)
        totals.round_seconds = max(totals.round_seconds, ctx.round_seconds)

        work: list[ClientWork] = []
        for client_index in ctx.survivors:
            rng = (
                pipeline.seed_from_label(
                    f"local-training/round-{round_index}/client-{client_index}"
                )
                if pipeline.executor.isolated
                else pipeline.training_rng
            )
            work.append(
                ClientWork(
                    client_index=client_index,
                    epochs=epochs_by_client[client_index],
                    round_index=round_index,
                    rng=rng,
                )
            )
        partial = engine.algorithm.make_accumulator(
            state.params, state.algorithm_state, len(engine.clients), round_index
        )

        def hand_over(outcome) -> None:
            message = outcome.message
            totals.uploads += message.upload_floats
            totals.epochs_used.append(message.local_epochs)
            totals.train_losses.append(message.train_loss)
            stage.submit(message)

        # The whole shard cohort is one dispatch, so pooled, vectorized and
        # remote executors see every task of the shard at once; each upload
        # is compressed and summed as the executor hands it over, beside the
        # training of the next client (UploadStage), and the stage is
        # joined before the partial leaves the shard.
        with pipeline.upload_stage(partial) as stage:
            pipeline.local_updates(
                state.params, state.algorithm_state, work, on_outcome=hand_over
            )
        totals.upload_wire_bytes += stage.wire_bytes
        return partial

    def run_round(self, engine: FederatedSimulation) -> RoundRecord:
        state, pipeline = engine.state, engine.pipeline
        round_index = state.rounds_run
        num_clients = len(engine.clients)
        dim = state.params.size
        sharded = self.num_shards > 1

        root = engine.algorithm.make_accumulator(
            state.params, state.algorithm_state, num_clients, round_index
        )
        totals = _RoundTotals()
        for shard, sampler, (sampling_rng, work_rng) in zip(
            self.shards, self._shard_samplers, self._streams
        ):
            span = (
                engine.tracer.span("shard", shard=shard.index, clients=shard.size)
                if sharded
                else nullcontext()
            )
            with span:
                partial = self._run_shard(
                    engine, shard, sampler, sampling_rng, work_rng, round_index,
                    totals,
                )
            root.merge(partial)

        # Every selected client downloaded the model, including those that
        # later crashed or straggled; only survivors upload.
        downloads = totals.num_selected * engine.algorithm.download_floats(dim)

        if root.count:
            with engine.tracer.span("aggregate", updates=root.count):
                state.params = root.finalise()
        # With no survivor anywhere the round is abandoned: the global
        # model is unchanged, but the costs were still paid.

        state.rounds_run += 1
        # Lock-step: the model version is the round count and every
        # aggregated update is fresh (staleness zero).
        state.model_version = state.rounds_run
        metrics = pipeline.metrics
        if sharded and metrics is not None and resource is not None:
            # ru_maxrss is KiB on Linux; the gauge tracks its own max, so
            # repeated sets record the run's high-water mark.
            metrics.gauge("scale.peak_rss_bytes").set(
                float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
                * 1024.0
            )
        evaluation = engine._maybe_evaluate()
        return finalise_round(
            engine,
            evaluation=evaluation,
            train_losses=totals.train_losses,
            num_selected=totals.num_selected,
            uploads=totals.uploads,
            downloads=downloads,
            upload_wire_bytes=totals.upload_wire_bytes,
            download_wire_bytes=downloads * BYTES_PER_FLOAT,
            epochs_used=totals.epochs_used,
            simulated_seconds=totals.round_seconds,
            dropped=totals.dropped,
        )

    def extra_metadata(self, engine: FederatedSimulation) -> dict:
        if self.num_shards == 1:
            return {}
        return {
            "plan": "hierarchical",
            "num_shards": self.num_shards,
            "shard_sizes": [shard.size for shard in self.shards],
        }


# --------------------------------------------------------------------------- #
# Buffered plans: a virtual clock, stale arrivals, the one reduction
# --------------------------------------------------------------------------- #
class BufferedPlan(ExecutionPlan):
    """What the buffered plans share: dispatch, delivery, the aggregate tail.

    Clients are dispatched onto a virtual clock; their uploads — trained
    eagerly, delivered when the clock reaches their completion — collect
    in the open *window* until the subclass closes it.  Closing stamps
    each arrival with its staleness, rebases it onto the current model
    (:func:`~repro.federated.staleness.rebase`) and runs the ordinary
    reduction, so to the algorithm a stale upload is just another message.
    A subclass decides only *who is dispatched when* and *when the window
    closes*.
    """

    #: RNG-stream label of one dispatch's local update, formatted with the
    #: dispatch ``round``, its running ``seq`` number and the ``client`` id.
    seed_label: str

    def __init__(
        self,
        staleness: StalenessWeighting | str | None = None,
        staleness_exponent: float = 0.5,
    ):
        self.staleness_policy = resolve_staleness(staleness, staleness_exponent)
        self._scheduler: AsyncScheduler | None = None
        self._trained = 0  # dispatches that ran a local update, ever
        # The open aggregation window (reset by _close_window).
        self._arrived: list[StaleUpdate] = []
        self._dropped: list[int] = []
        self._dispatched = 0

    def bind(self, engine: FederatedSimulation) -> None:
        if not engine.algorithm.supports_plan(self.name):
            raise ConfigurationError(
                f"{engine.algorithm.name!r} cannot run under the "
                f"{self.name!r} plan: it mixes updates trained against "
                "different model versions and this algorithm's server step "
                "is lock-step; use the synchronous plan"
            )
        if engine.pipeline.profiles is None:
            raise ConfigurationError(
                f"the {self.name!r} plan needs a network model to drive its "
                "virtual clock; pass network= (HomogeneousNetwork works for "
                "homogeneous populations)"
            )
        self._scheduler = AsyncScheduler(len(engine.clients), tracer=engine.tracer)
        if engine.tracer.enabled:
            # Spans opened from here on read the scheduler's virtual clock.
            engine.tracer.virtual_clock = lambda: self._scheduler.now

    def _dispatch_wave(self, engine: FederatedSimulation, client_ids: list[int]) -> None:
        """Dispatch a batch of clients at the current virtual instant.

        Local updates are computed eagerly (their result depends only on
        the parameters shipped at dispatch) and ride on the completion
        event, so a pooled executor parallelises each wave.  The fault
        model applies exactly as in the lock-step round: a crash or a
        duration past ``faults.deadline_s`` voids the upload (the download
        was still paid).
        """
        state, pipeline = engine.state, engine.pipeline
        round_index = state.rounds_run
        flights: list[tuple[int, float, int]] = []
        work: list[ClientWork] = []
        for client_id in client_ids:
            epochs = engine.local_work.epochs(client_id, round_index, engine._work_rng)
            duration = pipeline.client_round_seconds(client_id, epochs)
            crashed = engine.faults is not None and bool(pipeline.crashes(1)[0])
            flights.append((client_id, duration, epochs))
            if crashed or pipeline.past_deadline(duration):
                continue
            work.append(
                ClientWork(
                    client_index=client_id,
                    epochs=epochs,
                    round_index=round_index,
                    # Always per-task integer seeds: buffered histories are
                    # identical across serial/thread executors.
                    rng=pipeline.seed_from_label(
                        self.seed_label.format(
                            round=round_index,
                            seq=self._trained + len(work),
                            client=client_id,
                        )
                    ),
                )
            )
        self._trained += len(work)
        self._dispatched += len(flights)

        outcomes = pipeline.local_updates(state.params, state.algorithm_state, work)
        messages = {
            item.client_index: outcome.message
            for item, outcome in zip(work, outcomes)
        }
        for client_id, duration, epochs in flights:
            self._scheduler.dispatch(
                client_id,
                duration,
                payload=StaleUpdate(
                    message=messages.get(client_id),
                    base_params=state.params,
                    base_version=state.model_version,
                    epochs=epochs,
                    dispatch_round=round_index,
                ),
            )

    def _deliver_next(self) -> StaleUpdate:
        """Advance the clock to the next completion; file it in the window."""
        event = self._scheduler.next_completion()
        update: StaleUpdate = event.payload
        if update.message is None:
            self._dropped.append(event.client_id)
        else:
            self._arrived.append(update)
        return update

    def _close_window(
        self,
        engine: FederatedSimulation,
        close_time: float,
        deadline_s: float | None = None,
    ) -> RoundRecord:
        """Mix the window's arrivals into the next model version."""
        state, pipeline = engine.state, engine.pipeline
        arrived, self._arrived = self._arrived, []
        dropped, self._dropped = self._dropped, []
        dispatched, self._dispatched = self._dispatched, 0
        stalenesses = [state.model_version - u.base_version for u in arrived]
        weights = [self.staleness_policy.weight(s) for s in stalenesses]

        uploads = sum(u.message.upload_floats for u in arrived)
        downloads = dispatched * engine.algorithm.download_floats(state.params.size)
        messages, upload_wire_bytes = pipeline.compress(
            [u.message for u in arrived], uploads
        )
        if arrived:
            with engine.tracer.span("aggregate", updates=len(arrived)):
                state.params = engine.algorithm.aggregate(
                    state.params,
                    state.algorithm_state,
                    [
                        rebase(message, u.base_params, weight, state.params)
                        for u, message, weight in zip(arrived, messages, weights)
                    ],
                    len(engine.clients),
                    state.model_version,
                )
            state.model_version += 1
        # An empty window is an abandoned round: the deadline elapsed, the
        # costs were paid, and the model version did not advance.

        state.rounds_run += 1
        evaluation = engine._maybe_evaluate()
        record = finalise_round(
            engine,
            evaluation=evaluation,
            train_losses=[message.train_loss for message in messages],
            # "Selected" means resolved in this window: the aggregated
            # arrivals plus the dispatches that crashed or outran the fault
            # deadline.  Sampled-but-busy clients were neither dispatched
            # nor charged a download, so they do not count.
            num_selected=len(arrived) + len(dropped),
            uploads=uploads,
            downloads=downloads,
            upload_wire_bytes=upload_wire_bytes,
            download_wire_bytes=downloads * BYTES_PER_FLOAT,
            epochs_used=[u.epochs for u in arrived],
            simulated_seconds=close_time - state.last_aggregation_time,
            dropped=dropped,
            stalenesses=stalenesses,
            deadline_s=deadline_s,
        )
        state.last_aggregation_time = close_time
        return record

    def extra_metadata(self, engine: FederatedSimulation) -> dict:
        return {
            "mode": self.name,
            "staleness": self.staleness_policy.name,
            "final_version": engine.state.model_version,
            "virtual_time_s": self._scheduler.now,
        }


class SemiSyncPlan(BufferedPlan):
    """Deadline-bounded rounds that aggregate whatever arrived in time.

    Each round the server samples a cohort among the currently idle
    clients, dispatches them with the current model version, and closes
    the round at ``now + round_deadline_s``: every completion that lands
    inside the window — including stragglers dispatched in *earlier*
    rounds — is aggregated, weighted by its staleness (FedBuff-style),
    while anything still in flight keeps running and will land in a later
    round.  With no deadline given, the plan derives one from the network
    model: ``deadline_factor`` times the population's median predicted
    round duration, so roughly half the cohort makes each round.
    """

    name = "semisync"
    seed_label = "semisync-training/round-{round}/client-{client}"

    def __init__(
        self,
        round_deadline_s: float | None = None,
        deadline_factor: float = 1.0,
        staleness: StalenessWeighting | str | None = None,
        staleness_exponent: float = 0.5,
    ):
        if round_deadline_s is not None and round_deadline_s <= 0:
            raise ConfigurationError(
                f"round_deadline_s must be positive, got {round_deadline_s}"
            )
        if deadline_factor <= 0:
            raise ConfigurationError(
                f"deadline_factor must be positive, got {deadline_factor}"
            )
        super().__init__(staleness, staleness_exponent)
        self.round_deadline_s = round_deadline_s
        self.deadline_factor = deadline_factor
        self.late_arrivals = 0  # deliveries that missed their dispatch round

    def bind(self, engine: FederatedSimulation) -> None:
        super().bind(engine)
        if self.round_deadline_s is None:
            times = sorted(
                engine.pipeline.client_round_seconds(
                    client_id, engine.local_work.max_epochs
                )
                for client_id in range(len(engine.clients))
            )
            self.round_deadline_s = self.deadline_factor * float(
                np.median(times)
            )

    def run_round(self, engine: FederatedSimulation) -> RoundRecord:
        scheduler = self._scheduler
        round_index = engine.state.rounds_run
        selected = engine.sampler.sample(
            round_index, len(engine.clients), engine._sampling_rng
        )
        if selected.size == 0:
            raise SimulationError(
                f"round {round_index}: sampler selected no clients"
            )
        # Clients still working on an earlier round's dispatch keep running;
        # only idle ones take new work this round.
        cohort = [int(c) for c in selected if scheduler.is_idle(int(c))]
        if not cohort and not scheduler.has_pending():
            raise SimulationError(
                "semi-synchronous round stalled: every sampled client is "
                "busy and nothing is in flight"
            )
        self._dispatch_wave(engine, cohort)

        # Collect everything that lands inside the deadline window — the
        # *round* deadline is a separate knob from faults.deadline_s:
        # slow-but-healthy clients deliver late — then close the round: at
        # the deadline, or at the last delivery when nothing is left in
        # flight (nobody is worth waiting for).
        deadline = scheduler.now + self.round_deadline_s
        while scheduler.has_pending() and scheduler.peek_time() <= deadline:
            update = self._deliver_next()
            # Compared by round, not version: abandoned rounds in between
            # leave the model version — hence the staleness — unchanged.
            if update.message is not None and update.dispatch_round < round_index:
                self.late_arrivals += 1
        round_close = deadline if scheduler.has_pending() else scheduler.now
        scheduler.advance_to(round_close)
        return self._close_window(
            engine, round_close, deadline_s=self.round_deadline_s
        )

    def extra_metadata(self, engine: FederatedSimulation) -> dict:
        return {
            **super().extra_metadata(engine),
            "round_deadline_s": self.round_deadline_s,
            "late_arrivals": self.late_arrivals,
        }


class AsyncPlan(BufferedPlan):
    """Event-driven buffered aggregation (the FedBuff protocol).

    At most ``max_concurrency`` clients train at any virtual instant;
    whenever a slot frees up an idle client is drawn uniformly at random
    and dispatched with the current model.  Completed updates accumulate
    in a bounded buffer; when ``buffer_size`` updates have arrived the
    server aggregates them into the next model version, weighting each by
    its staleness.  One "round" is one aggregation.
    """

    name = "async"
    seed_label = "async-training/dispatch-{seq}/client-{client}"

    #: Consecutive dropped deliveries tolerated before the plan concludes
    #: the fault configuration can never fill the buffer (e.g. a deadline
    #: below every client's possible round time).
    _MAX_CONSECUTIVE_DROPS = 10_000

    def __init__(
        self,
        buffer_size: int | None = None,
        max_concurrency: int | None = None,
        staleness: StalenessWeighting | str | None = None,
        staleness_exponent: float = 0.5,
    ):
        super().__init__(staleness, staleness_exponent)
        self.buffer_size = buffer_size
        self.max_concurrency = max_concurrency

    def bind(self, engine: FederatedSimulation) -> None:
        super().bind(engine)
        faults = engine.faults
        if faults is not None and (
            faults.deadline_s == 0 or faults.dropout_rate >= 1.0
        ):
            # Every dispatch would be discarded (instant deadline) or crash
            # (certain dropout): the buffer could never fill and the virtual
            # clock would spin forever.  The lock-step plan handles these
            # extremes as abandoned rounds; here they are configuration
            # errors.
            raise ConfigurationError(
                "faults that drop every dispatch (dropout_rate=1.0 or "
                "deadline_s=0) give the asynchronous plan nothing to "
                "aggregate; use the synchronous plan for that regime"
            )

        num_clients = len(engine.clients)
        buffer_size = self.buffer_size
        if buffer_size is None:
            buffer_size = self._default_buffer_size(engine, num_clients)
        if buffer_size <= 0:
            raise ConfigurationError(
                f"buffer_size must be positive, got {buffer_size}"
            )
        if buffer_size > num_clients:
            raise ConfigurationError(
                f"buffer_size {buffer_size} exceeds the population of "
                f"{num_clients} clients"
            )
        max_concurrency = self.max_concurrency
        if max_concurrency is None:
            max_concurrency = min(num_clients, 2 * buffer_size)
        if max_concurrency <= 0:
            raise ConfigurationError(
                f"max_concurrency must be positive, got {max_concurrency}"
            )
        self.buffer_size = int(buffer_size)
        self.max_concurrency = int(min(max_concurrency, num_clients))
        self._dispatch_rng = engine._rng_factory.stream("async-dispatch")

    @staticmethod
    def _default_buffer_size(engine: FederatedSimulation, num_clients: int) -> int:
        """The synchronous per-round cohort, so each aggregation consumes the
        same number of uploads in both modes; falls back to a tenth of the
        population for samplers without a fixed cohort size."""
        num_selected = getattr(engine.sampler, "num_selected", None)
        if callable(num_selected):
            return max(1, int(num_selected(num_clients)))
        return max(1, int(round(0.1 * num_clients)))

    def _fill_dispatch_slots(self, engine: FederatedSimulation) -> None:
        """Dispatch idle clients until the concurrency cap is reached."""
        free_slots = self.max_concurrency - self._scheduler.num_in_flight
        if free_slots <= 0:
            return
        idle = np.fromiter(self._scheduler.idle_clients(), dtype=np.int64)
        count = min(free_slots, idle.size)
        if count == 0:
            return
        chosen = self._dispatch_rng.choice(idle, size=count, replace=False)
        self._dispatch_wave(engine, sorted(int(c) for c in chosen))

    def run_round(self, engine: FederatedSimulation) -> RoundRecord:
        """Advance the virtual clock until the next aggregation completes."""
        self._fill_dispatch_slots(engine)
        consecutive_drops = 0
        # Delivery stops the moment the buffer fills, so the window is
        # exactly one aggregation's worth.
        while len(self._arrived) < self.buffer_size:
            if not self._scheduler.has_pending():
                raise SimulationError(
                    "asynchronous plan stalled: no client in flight and "
                    "the aggregation buffer is not full"
                )
            if self._deliver_next().message is None:
                consecutive_drops += 1
                if consecutive_drops >= self._MAX_CONSECUTIVE_DROPS:
                    raise SimulationError(
                        f"{consecutive_drops} consecutive dispatches were "
                        "dropped without one delivery; the fault "
                        "configuration can never fill the aggregation buffer"
                    )
            else:
                consecutive_drops = 0
                metrics = engine.pipeline.metrics
                if metrics is not None:
                    metrics.gauge("async.buffer_depth").set(len(self._arrived))
            self._fill_dispatch_slots(engine)
        return self._close_window(engine, self._scheduler.now)

    def extra_metadata(self, engine: FederatedSimulation) -> dict:
        return {
            **super().extra_metadata(engine),
            "buffer_size": self.buffer_size,
            "max_concurrency": self.max_concurrency,
        }


PLAN_REGISTRY: dict[str, type[ExecutionPlan]] = {
    # One class, two names: "sync" is the one-shard case.
    "sync": HierarchicalPlan,
    "hierarchical": HierarchicalPlan,
    SemiSyncPlan.name: SemiSyncPlan,
    AsyncPlan.name: AsyncPlan,
}
