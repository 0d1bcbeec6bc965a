"""Client executors: how a round's local updates actually run.

The engine *primes* an executor once with the immutable per-client state
(the :class:`~repro.federated.local_problem.LocalProblem` list and the
algorithm), then per round packages each surviving client's update into a
slim :class:`LocalUpdateTask`; the executor runs the batch and returns one
:class:`LocalUpdateOutcome` per task, in task order — or hands each outcome
to the caller's ``on_outcome`` in that order: the serial executor as each
task finishes, the others once the batch is done.

* :class:`SerialExecutor` — the seed behaviour: tasks run in order in the
  calling thread, sharing the engine's model template and training RNG, so
  results are bit-identical to the pre-systems engine.
* :class:`ThreadPoolClientExecutor` — tasks run concurrently in threads.
  Each task deep-copies the model template (the NumPy substrate mutates
  parameter buffers in place, so sharing one template across threads would
  race) and draws from its own per-task seed.
* :class:`VectorizedExecutor` — same-shape tasks are grouped into cohorts
  (whatever their local epoch counts) and each cohort's local updates run
  as stacked NumPy operations with a leading client axis (see
  :mod:`repro.nn.batched`), eliminating the per-client Python dispatch
  that dominates the serial hot path; a round with fewer cohorts than
  workers deals each cohort evenly across them.  Every algorithm's
  ClientUpdate is written over a client axis, so all of them run stacked
  on models with batched kernels; an unbatchable model falls back to the
  serial per-task loop, so a vectorized run never changes *which*
  computation happens — only how it is scheduled.  RNG streams are
  consumed in task order, matching the serial executor draw for draw;
  histories agree with serial within ``atol=1e-8`` (stacked matmuls
  reduce in a different order).
Isolated executors (``isolated = True``) receive an integer seed per task
instead of a shared generator, so their results are deterministic under a
fixed engine seed *regardless of scheduling order* — the thread executor
and the served executor (:class:`repro.serve.server.RemoteExecutor`)
produce identical models from the same task list.

An executor instance belongs to one simulation at a time: priming replaces
any previously primed state.
"""

from __future__ import annotations

import collections
import copy
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.federated.client import ClientState
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import ClientMessage
from repro.obs.trace import SpanRecord, Tracer, new_span_id
from repro.utils.rng import SeedLike, as_rng


@dataclass
class LocalUpdateTask:
    """One client's local update, relative to the executor's primed state.

    ``client_index`` selects the primed :class:`LocalProblem`; everything
    else is the round-varying state.  ``trace`` asks the executing side —
    possibly a worker thread or a served worker — to record plain span
    records describing the task; the pipeline adopts them into the engine's
    tracer on join.
    """

    client_index: int
    client: ClientState
    global_params: np.ndarray
    server_state: dict[str, np.ndarray]
    config: Any
    round_index: int
    rng: SeedLike
    trace: bool = False


@dataclass
class LocalUpdateOutcome:
    """A finished local update: the upload plus the (possibly copied) client.

    When the task ran on a served worker, ``client`` is a decoded copy whose
    mutated rows the engine copies back into its store; in-process
    executors return the original object and the merge is a no-op.
    ``spans`` carries the task's trace records (empty unless the task asked
    for tracing); roots have ``parent_id=None`` so the adopting tracer can
    re-parent them under the open round span.
    """

    message: ClientMessage
    client: ClientState
    spans: tuple[SpanRecord, ...] = ()


#: ``run_tasks``' ordered hand-over: called with each task and its outcome.
OnOutcome = Callable[[LocalUpdateTask, LocalUpdateOutcome], None]


def _task_spans(
    task: LocalUpdateTask,
    wall_start: float,
    duration_s: float,
    **extra_attrs: Any,
) -> tuple[SpanRecord, SpanRecord]:
    """A ``client_task`` root span plus its ``local_sgd`` child, same window.

    ``local_sgd`` carries the task's ``epochs`` and mini-batch ``steps``,
    so a trace yields time per SGD step whatever executor ran the task.
    """
    from repro.nn.batched import local_steps_per_round

    pid, tid = os.getpid(), threading.get_ident() & 0xFFFF
    task_id = new_span_id()
    attrs = {"client": task.client_index, "round": task.round_index, **extra_attrs}
    return (
        SpanRecord(
            name="client_task",
            span_id=task_id,
            start_s=wall_start,
            duration_s=duration_s,
            pid=pid,
            tid=tid,
            attrs=attrs,
        ),
        SpanRecord(
            name="local_sgd",
            span_id=new_span_id(),
            parent_id=task_id,
            start_s=wall_start,
            duration_s=duration_s,
            pid=pid,
            tid=tid,
            attrs={
                "client": task.client_index,
                "epochs": task.config.epochs,
                "steps": local_steps_per_round(
                    task.client.num_samples, task.config
                ),
            },
        ),
    )


def execute_task(
    task: LocalUpdateTask, problem: LocalProblem, algorithm: Any
) -> LocalUpdateOutcome:
    """Run one local update on ``problem``."""
    wall_start = time.time()
    perf_start = time.perf_counter()
    message = algorithm.local_update(
        problem,
        task.client,
        task.global_params,
        task.server_state,
        task.config,
        round_index=task.round_index,
        rng=as_rng(task.rng),
    )
    if not task.trace:
        return LocalUpdateOutcome(message=message, client=task.client)
    spans = _task_spans(task, wall_start, time.perf_counter() - perf_start)
    return LocalUpdateOutcome(message=message, client=task.client, spans=spans)


class ClientExecutor:
    """Interface: run a batch of local-update tasks, preserving order."""

    #: Isolated executors receive per-task integer seeds (picklable, order
    #: independent); non-isolated executors share the engine's training RNG.
    isolated = False

    def prime(self, problems: list[LocalProblem], algorithm: Any) -> None:
        """Bind the immutable per-client problems and the algorithm."""
        self._problems = problems
        self._algorithm = algorithm

    def _require_primed(self) -> None:
        if getattr(self, "_problems", None) is None:
            raise SimulationError("executor used before prime() was called")

    def run_tasks(
        self, tasks: list[LocalUpdateTask], on_outcome: OnOutcome | None = None
    ) -> list[LocalUpdateOutcome] | None:
        """Execute every task; outcomes come back in task order.

        Without ``on_outcome`` the outcomes are returned as a list.  With
        it, each ``(task, outcome)`` pair is handed to ``on_outcome`` in
        task order on the calling thread, and nothing is returned.  A batch
        executor hands every outcome over once the whole batch has run;
        :class:`SerialExecutor` hands each one over as soon as its task
        finishes, so what the caller does with it overlaps the next task.
        """
        outcomes = self._run_batch(tasks)
        if on_outcome is None:
            return outcomes
        for task, outcome in zip(tasks, outcomes):
            on_outcome(task, outcome)
        return None

    def _run_batch(self, tasks: list[LocalUpdateTask]) -> list[LocalUpdateOutcome]:
        """Execute every task and return outcomes in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (pools are lazily recreated)."""


class SerialExecutor(ClientExecutor):
    """Run tasks one after another in the calling thread (seed behaviour)."""

    isolated = False

    def run_tasks(
        self, tasks: list[LocalUpdateTask], on_outcome: OnOutcome | None = None
    ) -> list[LocalUpdateOutcome] | None:
        self._require_primed()
        outcomes = []
        for task in tasks:
            outcome = execute_task(
                task, self._problems[task.client_index], self._algorithm
            )
            if on_outcome is None:
                outcomes.append(outcome)
            else:
                on_outcome(task, outcome)
        return None if on_outcome is not None else outcomes


#: Fewest stacked feature values (clients × rows per step × feature width) a
#: dealt part may hold.  Two threads only overlap while each NumPy call runs
#: long enough to outlast a GIL hand-off, and per-call cost is what the
#: ledger found small cohorts drowning in (``bench/README.md``, "Cohorts
#: behind ``vec_ragged`` vs ``vec_uniform``").  Measured on that shape (16
#: rows × 32 features a client, two workers): halving 256 clients into two
#: 128-client parts (65,536 values each) cuts a round from 35 to 26 ms;
#: halving 128 into two of 64 gains nothing and halving 64 loses 5 %.  On
#: 20-row × 784-feature clients the same floor deals 100 clients into two
#: parts of 50 for 2× and still deals 20 into two of 10.
MIN_PART_ELEMENTS = 65_536


class VectorizedExecutor(ClientExecutor):
    """Run same-shape cohorts of tasks as stacked NumPy operations.

    Grouping key: local dataset shape × batch size × learning rate × round
    index — *not* the local epoch count.  Clients whose datasets are ragged
    (different sample counts) land in different groups; a group of one
    still runs through the batched kernels (with a leading axis of 1).
    Within a group, clients are ordered by descending epochs, so the
    paper's variable-work protocol (1..E epochs per client) trains as one
    stack whose active prefix shrinks epoch by epoch (see
    :func:`repro.nn.batched.batched_run_local_sgd`).

    Seeding semantics are preserved exactly: each task's epoch shuffles are
    pre-drawn *in task order* from that task's own RNG before anything
    executes, so the executor consumes the same random numbers in the same
    order as :class:`SerialExecutor` — whether the plan hands every task
    the shared training stream (sync) or per-task integer seeds
    (async/semisync).  ``isolated`` stays ``False`` for the same reason:
    the sync plan must seed vectorized runs exactly like serial ones.

    Work is spread over ``max_workers`` threads (default
    ``os.cpu_count()``; NumPy releases the GIL inside the stacked kernels)
    by *dealing*: when a round has fewer groups than workers, each group's
    epoch-sorted clients are dealt round-robin into enough parts to occupy
    every worker (never below :data:`MIN_PART_ELEMENTS` stacked feature
    values a part), so every part carries the same epoch profile and the
    same load.  The calling
    thread is one of the workers — it takes parts alongside
    ``max_workers - 1`` pool threads — so a round that comes to a single
    part (or ``max_workers=1``) runs inline with no thread overhead.  A
    client's row of a stacked kernel does not depend on who else is in the
    stack, every per-task random draw happens *before* dispatch in task
    order, client-state mutations are disjoint across parts, and outcomes
    are reassembled in task order afterwards, so results are bit-identical
    for every ``max_workers`` and thread schedule — the ``atol=1e-8``
    golden-parity contract against serial is unchanged.

    Each concurrent part executes on its own :class:`BatchedModel` clone
    drawn from a lock-protected pool that persists across rounds, so the
    gradient workspace is reused round to round instead of reallocated.
    """

    isolated = False

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers <= 0:
            raise ConfigurationError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers
        self._batched_model = None
        self._model_pool: list[Any] = []
        self._pool_lock = threading.Lock()
        self._dispatch_pool: ThreadPoolExecutor | None = None
        self._data_cache: dict[
            tuple[int, ...], tuple[np.ndarray, np.ndarray, tuple[int, ...]]
        ] = {}  # sorted client indices -> (features, labels, source array ids)

    def prime(self, problems: list[LocalProblem], algorithm: Any) -> None:
        super().prime(problems, algorithm)
        from repro.nn.batched import build_batched_model
        from repro.obs.runtime import get_obs

        self._metrics = get_obs().metrics
        self._tracer = get_obs().tracer
        self._batched_model = None
        self._model_pool = []
        self._data_cache = {}
        template = problems[0]
        if any(problem.dataset.features.ndim != 2 for problem in problems):
            return  # stacked kernels take flat (n, d) features only
        self._batched_model = build_batched_model(template.model, template.loss)
        if self._batched_model is not None:
            # Seed the reusable execution-context pool with the compiled
            # template itself; concurrent cohorts clone on demand and the
            # clones (with their warmed workspaces) live for the run.
            self._model_pool = [self._batched_model]

    @property
    def vectorizes(self) -> bool:
        """Whether primed tasks will actually run through batched kernels."""
        self._require_primed()
        return self._batched_model is not None

    @property
    def fallback_reason(self) -> str | None:
        """Why primed tasks fall back to the serial loop (``None`` if none)."""
        return None if self.vectorizes else "unbatchable_model"

    def _acquire_model(self):
        with self._pool_lock:
            if self._model_pool:
                return self._model_pool.pop()
        return self._batched_model.clone()

    def _release_model(self, model) -> None:
        with self._pool_lock:
            self._model_pool.append(model)

    def _stacked_data(
        self, client_indices: list[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A group's cached ``(C, n, d)`` / ``(C, n)`` stacks and row map.

        The stacks hold the group's client *set* in client-index order,
        whatever order the round trains them in; the third result maps
        each entry of ``client_indices`` to its row.  Client datasets are
        immutable for the life of a simulation, so a recurring group
        (full participation, under any epoch draw) pays the stacking cost
        exactly once and holds exactly one entry.  Entries are validated
        against the identity of the source arrays, so repriming on new
        problems can never serve stale data; the cache is cleared when
        changing compositions (client sampling) stop it from ever hitting.
        Called on the dispatching thread only.
        """
        key = tuple(sorted(client_indices))
        rows = np.searchsorted(key, client_indices)
        problems = [self._problems[index] for index in key]
        source_ids = tuple(id(problem.dataset.features) for problem in problems)
        cached = self._data_cache.get(key)
        if cached is not None and cached[2] == source_ids:
            return cached[0], cached[1], rows
        features = np.stack([problem.dataset.features for problem in problems])
        labels = np.stack([problem.dataset.labels for problem in problems])
        if len(self._data_cache) >= 64:
            self._data_cache.clear()
        self._data_cache[key] = (features, labels, source_ids)
        return features, labels, rows

    def _draw_epoch_orders(
        self, tasks: list[LocalUpdateTask]
    ) -> list[np.ndarray | None]:
        """Pre-draw every task's per-epoch shuffles, in task order.

        Mirrors ``iterate_minibatches``: full-batch training (or a
        non-shuffling algorithm) draws nothing; otherwise one permutation
        per epoch from the task's RNG — the exact draws, in the exact
        order, the serial executor would have made.
        """
        orders: list[np.ndarray | None] = []
        shuffles = getattr(self._algorithm, "shuffles_minibatches", True)
        for task in tasks:
            n = self._problems[task.client_index].num_samples
            batch_size = task.config.batch_size
            if not shuffles or batch_size is None or batch_size >= n:
                orders.append(None)
                continue
            rng = as_rng(task.rng)
            orders.append(
                np.stack(
                    [rng.permutation(n) for _ in range(task.config.epochs)]
                )
            )
        return orders

    def _run_part(
        self,
        positions: list[int],
        rows: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
        tasks: list[LocalUpdateTask],
        epoch_orders: list[np.ndarray | None],
    ) -> tuple[list[ClientMessage], float, float, list[SpanRecord]]:
        """Execute one part on a pooled model clone (worker-thread safe).

        ``positions`` are the part's tasks in descending-epoch order and
        ``rows`` their rows in the group's cached ``features``/``labels``
        stacks.  Everything stochastic (the epoch shuffles) was drawn
        before dispatch; client-state mutations are confined to
        this part's clients; ``server_state``, the cached stacks and the
        algorithm are read-only here — so parts may run on any thread in
        any order.  A traced part records one span per kernel call on a
        tracer of its own and returns them as parentless records.
        """
        from repro.nn.batched import BatchedCohort

        part_tasks = [tasks[position] for position in positions]
        epochs = np.array([task.config.epochs for task in part_tasks])
        if not np.array_equal(rows, np.arange(features.shape[0])):
            features, labels = features.take(rows, axis=0), labels.take(rows, axis=0)
        model = self._acquire_model()
        model.tracer = Tracer() if part_tasks[0].trace else None
        try:
            cohort = BatchedCohort(
                model=model, features=features, labels=labels, epochs=epochs
            )
            if epoch_orders[positions[0]] is not None:
                # Per epoch, the shuffles of the prefix of clients still active.
                cohort.epoch_orders = [
                    np.stack(
                        [
                            epoch_orders[position][epoch]
                            for position in positions[: cohort.active(epoch)]
                        ]
                    )
                    for epoch in range(epochs[0])
                ]
            lead = part_tasks[0]
            cohort_wall = time.time()
            cohort_perf = time.perf_counter()
            messages = self._algorithm.batched_local_update(
                cohort,
                [task.client for task in part_tasks],
                lead.global_params,
                lead.server_state,
                lead.config,
                round_index=lead.round_index,
            )
            cohort_duration = time.perf_counter() - cohort_perf
            kernels = model.tracer.records if model.tracer is not None else []
        finally:
            self._release_model(model)
        return messages, cohort_wall, cohort_duration, kernels

    def _run_batch(self, tasks: list[LocalUpdateTask]) -> list[LocalUpdateOutcome]:
        self._require_primed()
        if self._batched_model is None:
            # Unbatchable model: the serial loop, bit for bit.  The labelled
            # counter and span say *why*, so unexpected serial fallbacks are
            # diagnosable from `repro profile` / the metrics snapshot.
            reason = self.fallback_reason
            if self._metrics is not None and tasks:
                self._metrics.counter(f"executor.fallback.{reason}").inc(
                    len(tasks)
                )
            with self._tracer.span(f"executor.fallback.{reason}"):
                return [
                    execute_task(
                        task, self._problems[task.client_index], self._algorithm
                    )
                    for task in tasks
                ]

        epoch_orders = self._draw_epoch_orders(tasks)

        groups: dict[tuple, list[int]] = {}
        for position, task in enumerate(tasks):
            problem = self._problems[task.client_index]
            key = (
                problem.num_samples,
                problem.dataset.features.shape[1],
                task.config.batch_size,
                task.config.learning_rate,
                task.round_index,
            )
            groups.setdefault(key, []).append(position)

        workers = self.max_workers or os.cpu_count() or 1
        parts = []
        for (num_samples, width, batch_size, *_), positions in groups.items():
            # Descending epochs (stable: ties keep task order) makes the
            # clients still training at any epoch a prefix of the stack.
            positions.sort(key=lambda position: -tasks[position].config.epochs)
            features, labels, rows = self._stacked_data(
                [tasks[position].client_index for position in positions]
            )
            # Fewer groups than workers: deal each group round-robin into
            # enough parts to occupy every worker, as far as the floor on
            # a part's stacked step allows.  Dealing after the sort gives
            # every part the same epoch profile, hence the same load.
            step_rows = min(batch_size or num_samples, num_samples)
            count = max(
                1,
                min(
                    -(-workers // len(groups)),
                    len(positions) * step_rows * width // MIN_PART_ELEMENTS,
                ),
            )
            for offset in range(count):
                parts.append(
                    (positions[offset::count], rows[offset::count], features, labels)
                )

        # The calling thread works too: it and up to ``workers - 1`` pool
        # threads each take the next part until none is left, so a round of
        # one part (or ``max_workers=1``) runs inline with no thread at all.
        results: list[Any] = [None] * len(parts)
        pending = collections.deque(enumerate(parts))

        def drain() -> None:
            while True:
                try:
                    index, part = pending.popleft()
                except IndexError:  # none left (or another thread took the last)
                    return
                results[index] = self._run_part(*part, tasks, epoch_orders)

        helpers = min(workers, len(parts)) - 1
        if helpers > 0 and self._dispatch_pool is None:
            self._dispatch_pool = ThreadPoolExecutor(
                max_workers=workers - 1, thread_name_prefix="repro-cohort"
            )
        futures = [self._dispatch_pool.submit(drain) for _ in range(helpers)]
        try:
            drain()
        finally:
            # Join every helper even if this thread's part raised; with the
            # queue emptied they stop after the part they are on.
            pending.clear()
            errors = [future.exception() for future in futures]
        for error in errors:
            if error is not None:
                raise error

        # Reassembly — and all metrics/trace bookkeeping — happens back on
        # the calling thread, in task order.
        outcomes: list[LocalUpdateOutcome | None] = [None] * len(tasks)
        for (positions, *_), (messages, cohort_wall, cohort_duration, kernels) in zip(
            parts, results
        ):
            if self._metrics is not None:
                self._metrics.counter("executor.batched_tasks").inc(len(positions))
                self._metrics.histogram("executor.cohort_size").observe(
                    len(positions)
                )
            for position, message in zip(positions, messages):
                task = tasks[position]
                spans: tuple[SpanRecord, ...] = ()
                if task.trace:
                    # One client_task span per task sharing the part's
                    # window: the stacked kernels ran every client jointly,
                    # so per-client attribution is the part's extent.
                    spans = _task_spans(
                        task,
                        cohort_wall,
                        cohort_duration,
                        cohort=len(positions),
                        batched=True,
                    )
                    if position == positions[0]:
                        # The part's kernels ran once for all its clients;
                        # they hang off its first client's local_sgd span.
                        for kernel in kernels:
                            kernel.parent_id = spans[1].span_id
                        spans += tuple(kernels)
                outcomes[position] = LocalUpdateOutcome(
                    message=message, client=task.client, spans=spans
                )
        return outcomes

    def close(self) -> None:
        if self._dispatch_pool is not None:
            self._dispatch_pool.shutdown(wait=True)
            self._dispatch_pool = None


class ThreadPoolClientExecutor(ClientExecutor):
    """Run tasks concurrently in threads (NumPy releases the GIL in kernels)."""

    isolated = True

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers <= 0:
            raise ConfigurationError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def prime(self, problems: list[LocalProblem], algorithm: Any) -> None:
        self.close()  # a new simulation's state must reach fresh workers
        super().prime(problems, algorithm)

    def _run_task(self, task: LocalUpdateTask) -> LocalUpdateOutcome:
        # Each task trains its own copy of the model template: layers
        # mutate their parameter buffers in place, so threads sharing one
        # template would race.
        problem = self._problems[task.client_index]
        private = LocalProblem(
            model=copy.deepcopy(problem.model),
            loss=problem.loss,
            dataset=problem.dataset,
        )
        return execute_task(task, private, self._algorithm)

    def _run_batch(self, tasks: list[LocalUpdateTask]) -> list[LocalUpdateOutcome]:
        self._require_primed()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return list(self._pool.map(self._run_task, tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass


EXECUTOR_REGISTRY: dict[str, type[ClientExecutor]] = {
    "serial": SerialExecutor,
    "thread": ThreadPoolClientExecutor,
    "vectorized": VectorizedExecutor,
}


def build_executor(name: str, max_workers: int | None = None) -> ClientExecutor:
    """Instantiate a client executor by registry name.

    ``max_workers`` bounds the worker pool of every concurrent executor
    (the thread executor's pool and the vectorized executor's cohort
    dispatch).
    """
    try:
        executor_cls = EXECUTOR_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executor {name!r}; available: {sorted(EXECUTOR_REGISTRY)}"
        ) from None
    if executor_cls is SerialExecutor:
        # Strictly in-order, in-thread: nothing to configure.
        return executor_cls()
    return executor_cls(max_workers=max_workers)
