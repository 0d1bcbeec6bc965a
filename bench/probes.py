"""Outside-in tracing: spans around the calls into each layer.

Nothing under ``src/`` changes.  ``Probes`` replaces the public entry points
of each layer with timing wrappers -- instance attributes on the objects the
harness built, class or module attributes where the instance is private to
the program (worker-side objects, lazily built problems, pooled batched
models) -- and records one span per call through a *private*
``repro.obs.trace.Tracer`` that is never installed with ``observe()``, so the
program's own spans stay off.  ``fold`` turns the span list into per-name
totals and self times (duration minus the part covered by child spans); it is
written against plain ``SpanRecord`` lists, so it survives when a later
change moves the spans inside the program.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.algorithms.base import UpdateAccumulator
from repro.obs.trace import SpanRecord, Tracer

class Probes:
    """Timing wrappers around layer entry points, undone by ``restore``."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._undo: list[tuple[Any, str, bool, Any]] = []
        #: Parent for spans opened on a thread with no open span of its own
        #: (cohort threads, HTTP handlers, workers) while a dispatching call
        #: is in flight on the driver thread.
        self._ambient: str | None = None
        #: The traced repeat's outermost span; adopts every other orphan.
        self.root_id: str | None = None

    def span(self, name: str, **attrs):
        active = self.tracer.span(name, category="ledger", **attrs)
        if active.record.parent_id is None:
            active.record.parent_id = self._ambient or self.root_id
        return active

    def wrap(
        self,
        owner: Any,
        attr: str,
        name=None,
        *,
        ambient: bool = False,
        size: Callable[[tuple, dict], int] | None = None,
        on_result: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``name`` is the span name, a callable deriving it from the call's
        arguments (``None`` result = no span), or ``None`` for a wrapper that
        only runs ``on_result`` -- the hook that reaches objects the program
        builds itself (accumulators, partitioners, executors).  ``size``
        stores a per-call work count in the span's ``n`` attribute.
        """
        original = getattr(owner, attr)
        self._undo.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if label is None:
                result = original(*args, **kwargs)
            else:
                attrs = {"n": size(args, kwargs)} if size is not None else {}
                with self.span(label, **attrs) as active:
                    if ambient:
                        # Only the dispatching (driver) thread ever sets it.
                        self._ambient = active.record.span_id
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        if ambient:
                            self._ambient = None
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had_own, previous = self._undo.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    # What gets wrapped, per layer
    # ------------------------------------------------------------------ #
    def attach_setup(self, shape: str) -> None:
        """Probes for what ``prepare_environment``/``build_simulation`` call."""
        from repro.experiments import runner
        from repro.systems.executor import SerialExecutor

        self.wrap(runner, "load_dataset", "datasets.load")
        self.wrap(
            runner,
            "build_partitioner",
            on_result=lambda made: self.wrap(made, "partition", "partition.partition"),
        )
        self.wrap(
            runner,
            "build_executor",
            on_result=lambda made: self.wrap(made, "prime", "executor.prime"),
        )
        if shape == "hier":
            # hier_stream composes the engine directly; its default executor
            # is created inside the engine, so the class is the only handle.
            self.wrap(SerialExecutor, "prime", "executor.prime")

    def attach_simulation(self, simulation) -> None:
        """Probes on the objects of one built simulation."""
        from repro.federated import engine
        from repro.federated.local_problem import LocalProblem
        from repro.nn.batched import BatchedModel

        pipeline, algorithm = simulation.pipeline, simulation.algorithm
        self.wrap(simulation, "run_round", "round")
        self.wrap(simulation.plan, "run_round", "plans.round")
        self.wrap(simulation.sampler, "sample", "sampler.sample")
        self.wrap(pipeline, "simulate_systems", "pipeline.simulate_systems")
        self.wrap(pipeline, "local_updates", "pipeline.local_updates")
        self.wrap(pipeline, "compress", "pipeline.compress")
        self.wrap(
            pipeline.executor,
            "run_tasks",
            "executor.run_tasks",
            ambient=True,
            size=lambda args, kwargs: len(args[0]),
        )
        self.wrap(algorithm, "local_update", "algorithms.local_update")
        self.wrap(
            algorithm,
            "batched_local_update",
            "algorithms.batched_local_update",
            size=lambda args, kwargs: len(args[1]),
        )
        self.wrap(algorithm, "aggregate", "algorithms.aggregate")
        self.wrap(algorithm, "make_accumulator", on_result=self._wrap_accumulator)
        # Problems may be built lazily per access and batched models are
        # pooled clones, so the class is the stable handle for the kernels.
        self.wrap(LocalProblem, "loss_and_grad", "nn.loss_and_grad")
        self.wrap(BatchedModel, "loss_and_grad", "nn.batched_loss_and_grad")
        self.wrap(engine, "evaluate_model", "evaluation.evaluate")
        if pipeline.transport is not None:
            codec = type(pipeline.transport.codec)
            self.wrap(
                pipeline.transport, "compress_message", "transport.compress_message"
            )
            # Class-level: the served worker encodes with a codec of its own.
            self.wrap(codec, "encode", "codec.encode")
            self.wrap(codec, "decode", "codec.decode")

    def _wrap_accumulator(self, accumulator: UpdateAccumulator) -> None:
        self.wrap(accumulator, "accumulate", "algorithms.accumulate")
        self.wrap(accumulator, "merge", "algorithms.merge")
        self.wrap(accumulator, "finalise", "algorithms.finalise")

    def attach_server(self, server) -> None:
        """Probes on a ``FederationServer`` and the worker side it feeds."""
        from repro.serve import protocol
        from repro.serve.worker import ServerClient, WorkerEnvironment

        self.attach_simulation(server.simulation)
        for call in ("encode_task", "decode_task", "encode_submit", "decode_submit"):
            self.wrap(protocol, call, f"protocol.{call}")
        self.wrap(server.board, "wait", "server.board_wait")
        self.wrap(server, "handle_task", "server.handle_task")
        self.wrap(server, "handle_submit", "server.handle_submit")
        # Worker-side objects are private to run_worker: class attributes.
        requests = {"/v1/task": "worker.task_request", "/v1/submit": "worker.submit_request"}
        self.wrap(ServerClient, "post", lambda args, kwargs: requests.get(args[1]))
        self.wrap(WorkerEnvironment, "execute", "worker.execute")
        self.wrap(
            type(server.algorithm), "local_update", "algorithms.local_update"
        )


# --------------------------------------------------------------------------- #
# The fold: spans -> per-name totals and self times
# --------------------------------------------------------------------------- #
@dataclass
class SpanStat:
    """All spans of one name inside a time window."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)

    @property
    def p50_s(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def fold(
    records: Iterable[SpanRecord], since: float = 0.0, until: float = float("inf")
) -> dict[str, SpanStat]:
    """Per-name call counts, total and self time of spans starting in a window.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children on other threads may overlap each other,
    hence the union).  The wall-clock start and the ``perf_counter`` duration
    of a record give its interval.
    """
    records = list(records)
    children: dict[str, list[tuple[float, float]]] = {}
    for record in records:
        if record.parent_id is not None:
            children.setdefault(record.parent_id, []).append(
                (record.start_s, record.start_s + record.duration_s)
            )
    stats: dict[str, SpanStat] = {}
    for record in records:
        if not since <= record.start_s < until:
            continue
        start, end = record.start_s, record.start_s + record.duration_s
        clipped = [
            (max(child_start, start), min(child_end, end))
            for child_start, child_end in children.get(record.span_id, ())
            if child_end > start and child_start < end
        ]
        stat = stats.setdefault(record.name, SpanStat())
        stat.calls += 1
        stat.total_s += record.duration_s
        stat.self_s += max(record.duration_s - _covered(clipped), 0.0)
        stat.durations.append(record.duration_s)
        if "n" in record.attrs:
            stat.sizes.append(record.attrs["n"])
    return stats
