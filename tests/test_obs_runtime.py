"""Observability woven through the federation runtime.

The contract under test: with a tracer attached, every run produces a
span tree (``run`` → ``round`` → ``client_task`` → ``local_sgd``, plus
``compress``/``aggregate`` per round) whose counts reconcile *exactly*
with the run's own :class:`TrainingHistory` — no matter which executor
physically ran the client work or which execution plan scheduled it —
and with the metrics registry's counters.  Also pins the AsyncScheduler
ordering invariants (span log totally ordered by virtual time then FIFO
seq) and that observability never changes training results.
"""

from __future__ import annotations

import pytest

from repro.algorithms import build_algorithm
from repro.federated import AsyncPlan, FederatedSimulation, SemiSyncPlan
from repro.federated.scheduler import AsyncScheduler
from repro.obs import MetricsRegistry, Tracer, observe
from repro.obs.trace import load_chrome_trace, span_tree
from repro.systems.executor import build_executor
from repro.systems.network import HomogeneousNetwork, LogNormalNetwork

from conftest import make_model

ROUNDS = 3


def make_sim(clients, test_dataset, *, executor=None, plan=None, network=None,
             **obs_kwargs):
    return FederatedSimulation(
        algorithm=build_algorithm("fedadmm", rho=0.3),
        model=make_model(seed=0),
        clients=clients,
        test_dataset=test_dataset,
        batch_size=16,
        learning_rate=0.1,
        seed=0,
        executor=executor,
        plan=plan,
        network=network,
        **obs_kwargs,
    )


def reconcile(tracer, result, expected_tasks=None):
    """Assert the span tree matches the run's own accounting.

    ``expected_tasks`` is the independently derived task count (history
    for the sync plan, the ``tasks_executed`` counter otherwise — the
    async/semi-sync plans run more tasks than the aggregated rounds
    record, since in-flight work spans round boundaries).
    """
    records = tracer.sorted_records()
    by_name = {}
    for record in records:
        by_name.setdefault(record.name, []).append(record)
    assert len(by_name["run"]) == 1
    assert len(by_name["round"]) == result.rounds_run
    if expected_tasks is not None:
        assert len(by_name["client_task"]) == expected_tasks
    assert len(by_name["local_sgd"]) == len(by_name["client_task"])

    spans = {record.span_id: record for record in records}
    assert len(spans) == len(records), "span ids must be unique"
    for record in by_name["round"]:
        assert spans[record.parent_id].name == "run"
    for name in ("client_task", "compress", "aggregate"):
        for record in by_name.get(name, []):
            assert spans[record.parent_id].name == "round"
    for record in by_name["local_sgd"]:
        assert spans[record.parent_id].name == "client_task"
        # How much work the span timed: duration / steps = time per SGD step.
        epochs, steps = record.attrs["epochs"], record.attrs["steps"]
        assert type(steps) is int and steps >= epochs >= 1

    keys = [record.sort_key() for record in records]
    assert keys == sorted(keys)
    return by_name


class TestSpanReconciliation:
    @pytest.mark.parametrize("executor", ["serial", "thread", "vectorized"])
    def test_sync_plan_span_tree_counts(self, executor, iid_clients, blobs_split):
        tracer, metrics = Tracer(), MetricsRegistry()
        sim = make_sim(
            iid_clients, blobs_split.test,
            executor=build_executor(executor, max_workers=2),
            tracer=tracer, metrics=metrics,
        )
        result = sim.run(ROUNDS)
        by_name = reconcile(
            tracer, result,
            expected_tasks=sum(r.num_selected for r in result.history.records),
        )
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["rounds_completed"] == result.rounds_run
        assert snapshot["counters"]["tasks_executed"] == len(by_name["client_task"])
        # The traced run reports its metrics snapshot in the metadata.
        assert result.metadata["metrics"] == snapshot

    def test_async_plan_spans_follow_virtual_clock(self, iid_clients, blobs_split):
        tracer = Tracer()
        sim = make_sim(
            iid_clients, blobs_split.test,
            plan=AsyncPlan(buffer_size=2, max_concurrency=4),
            network=LogNormalNetwork(),
            tracer=tracer, metrics=MetricsRegistry(),
        )
        result = sim.run(ROUNDS)
        tasks = sim.metrics.snapshot()["counters"]["tasks_executed"]
        by_name = reconcile(tracer, result, expected_tasks=tasks)
        # The tracer's virtual clock is the scheduler's: flight spans exist
        # and every round closes at a non-decreasing virtual time.
        assert by_name["client_flight"]
        round_ends = [r.virtual_end_s for r in by_name["round"]]
        assert all(end is not None for end in round_ends)
        assert round_ends == sorted(round_ends)
        for flight in by_name["client_flight"]:
            assert flight.virtual_end_s >= flight.virtual_start_s
        depth = sim.metrics.snapshot()["gauges"]["async.buffer_depth"]
        assert depth["max"] >= 1

    def test_semisync_plan_records_staleness(self, iid_clients, blobs_split):
        tracer, metrics = Tracer(), MetricsRegistry()
        sim = make_sim(
            iid_clients, blobs_split.test,
            plan=SemiSyncPlan(deadline_factor=0.5),
            network=HomogeneousNetwork(),
            tracer=tracer, metrics=metrics,
        )
        result = sim.run(ROUNDS)
        snapshot = metrics.snapshot()
        reconcile(
            tracer, result, expected_tasks=snapshot["counters"]["tasks_executed"]
        )
        assert snapshot["counters"]["rounds_completed"] == result.rounds_run

    def test_obs_context_reaches_engine_without_kwargs(
        self, iid_clients, blobs_split
    ):
        tracer = Tracer()
        with observe(tracer=tracer, metrics=MetricsRegistry()):
            sim = make_sim(iid_clients, blobs_split.test)
        assert sim.tracer is tracer
        result = sim.run(2)
        reconcile(tracer, result)

    def test_chrome_export_round_trips_the_run(
        self, tmp_path, iid_clients, blobs_split
    ):
        tracer = Tracer()
        sim = make_sim(iid_clients, blobs_split.test, tracer=tracer)
        sim.run(2)
        path = tracer.write_chrome_trace(tmp_path / "run.trace.json")
        loaded = load_chrome_trace(path)
        originals = tracer.sorted_records()
        assert [(r.name, r.span_id, r.parent_id) for r in loaded] == [
            (r.name, r.span_id, r.parent_id) for r in originals
        ]
        tree = span_tree(loaded)
        run = [r for r in tree[None] if r.name == "run"]
        assert len(run) == 1


class TestObservabilityIsInert:
    def test_traced_run_matches_untraced_run(self, blobs_split, iid_partition):
        from repro.federated.client import build_clients

        plain = make_sim(
            build_clients(blobs_split.train, iid_partition), blobs_split.test
        )
        plain_result = plain.run(ROUNDS)
        traced = make_sim(
            build_clients(blobs_split.train, iid_partition), blobs_split.test,
            tracer=Tracer(), metrics=MetricsRegistry(),
        )
        traced_result = traced.run(ROUNDS)
        assert (
            traced_result.final_params == plain_result.final_params
        ).all()
        assert [r.test_accuracy for r in traced_result.history.records] == [
            r.test_accuracy for r in plain_result.history.records
        ]
        # Without sinks, the result metadata carries no metrics key at all.
        assert "metrics" not in plain_result.metadata
        assert "metrics" in traced_result.metadata

    def test_kernel_spans_never_change_results(self, blobs_split, iid_partition):
        from repro.federated.client import build_clients

        def run(tracer):
            sim = make_sim(
                build_clients(blobs_split.train, iid_partition), blobs_split.test,
                executor=build_executor("vectorized", max_workers=2), tracer=tracer,
            )
            return sim.run(ROUNDS)

        tracer = Tracer()
        traced, plain = run(tracer), run(None)
        assert any(r.name.startswith("kernel.") for r in tracer.records)
        assert traced.final_params.tobytes() == plain.final_params.tobytes()
        assert [r.train_loss for r in traced.history.records] == [
            r.train_loss for r in plain.history.records
        ]

    def test_trace_covers_the_round_phases(self, iid_clients, blobs_split):
        tracer = Tracer()
        sim = make_sim(iid_clients, blobs_split.test, tracer=tracer)
        sim.run(2)
        names = [record.name for record in tracer.records]
        for name in ("round", "compress", "aggregate"):
            assert names.count(name) == 2
        assert names.count("local_sgd") == names.count("client_task") > 0
        # The serial executor records no kernel spans.
        assert not any(name.startswith("kernel.") for name in names)

    def test_vectorized_kernels_profiled(self, iid_clients, blobs_split):
        tracer = Tracer()
        sim = make_sim(
            iid_clients, blobs_split.test,
            executor=build_executor("vectorized"), tracer=tracer,
        )
        result = sim.run(2)
        by_name = reconcile(tracer, result)
        spans = {record.span_id: record for record in tracer.records}
        kernels = [r for r in tracer.records if r.name.startswith("kernel.")]
        assert {r.name for r in kernels} >= {
            "kernel.Linear.forward", "kernel.Linear.backward",
            "kernel.CrossEntropyLoss",
        }
        # Each part's kernels hang off the local_sgd span of its first client.
        assert {spans[r.parent_id].name for r in kernels} == {"local_sgd"}
        assert len({r.parent_id for r in kernels}) <= len(by_name["local_sgd"])


class TestSchedulerObservability:
    def test_flight_spans_cover_dispatch_to_completion(self):
        tracer = Tracer()
        scheduler = AsyncScheduler(num_clients=4, tracer=tracer)
        scheduler.dispatch(0, duration_s=5.0)
        scheduler.dispatch(1, duration_s=2.0)
        first = scheduler.next_completion()
        second = scheduler.next_completion()
        assert (first.client_id, second.client_id) == (1, 0)
        flights = {r.attrs["client"]: r for r in tracer.records}
        assert flights[1].virtual_start_s == 0.0
        assert flights[1].virtual_end_s == 2.0
        assert flights[0].virtual_end_s == 5.0

    def test_simultaneous_completions_keep_fifo_order(self):
        tracer = Tracer()
        scheduler = AsyncScheduler(num_clients=4, tracer=tracer)
        for client in range(3):
            scheduler.dispatch(client, duration_s=1.0)
        completions = [scheduler.next_completion().client_id for _ in range(3)]
        assert completions == [0, 1, 2]
        records = tracer.sorted_records()
        # Identical virtual end-times: FIFO seq breaks the tie, so the
        # span order matches the completion order exactly.
        assert [r.attrs["client"] for r in records] == [0, 1, 2]
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)

    def test_untraced_scheduler_records_nothing(self):
        scheduler = AsyncScheduler(num_clients=2)
        scheduler.dispatch(0, duration_s=1.0)
        scheduler.next_completion()
        assert not scheduler.tracer.enabled
