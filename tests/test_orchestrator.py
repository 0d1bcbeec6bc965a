"""Tests for the sweep orchestrator: parallelism, resume, and crash paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.experiments.orchestrator import (
    RunSpec,
    SweepOrchestrator,
    execute_spec,
)
from repro.experiments.registry import StudyRequest, expand
from repro.experiments.runner import run_comparison
from repro.experiments.store import ExperimentStore, RunStatus
from repro.experiments.studies import STUDIES, run_study
from repro.utils.serialization import to_jsonable

TINY = ExperimentConfig(
    name="tiny-orchestrator",
    dataset="blobs",
    n_train=240,
    n_test=80,
    model="mlp",
    model_kwargs={"input_dim": 32, "hidden_dims": (8,)},
    num_clients=6,
    client_fraction=0.5,
    local_epochs=1,
    batch_size=16,
    num_rounds=2,
    target_accuracy=0.99,
)

ALGORITHMS = [
    AlgorithmSpec("fedadmm", {"rho": 0.3}),
    AlgorithmSpec("fedavg", {}),
    AlgorithmSpec("fedprox", {"rho": 0.1}),
]


def tiny_specs(stop_at_target=False) -> list[RunSpec]:
    return [
        RunSpec("demo", (algorithm.label(),), TINY, algorithm, stop_at_target)
        for algorithm in ALGORITHMS
    ]


def assert_results_bit_identical(left, right):
    assert set(left) == set(right)
    for key in left:
        assert left[key].history.records == right[key].history.records
        np.testing.assert_array_equal(
            left[key].final_params, right[key].final_params
        )


class TestConstruction:
    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ConfigurationError):
            SweepOrchestrator(jobs=0)

    def test_resume_requires_a_store(self):
        with pytest.raises(ConfigurationError, match="store"):
            SweepOrchestrator(resume=True)


class TestSerialExecution:
    def test_results_keyed_and_ordered_by_spec(self):
        results = SweepOrchestrator().execute(tiny_specs())
        assert list(results) == [spec.key for spec in tiny_specs()]

    def test_serial_matches_monolithic_run_comparison(self):
        # The spec decomposition re-derives each run's environment from the
        # config seed; that must reproduce the shared-environment loop of
        # run_comparison bit for bit.
        comparison = run_comparison(TINY, ALGORITHMS, stop_at_target=False)
        results = SweepOrchestrator().execute(tiny_specs())
        for spec, algorithm in zip(tiny_specs(), ALGORITHMS):
            monolithic = comparison.results[algorithm.label()]
            orchestrated = results[spec.key]
            assert orchestrated.history.records == monolithic.history.records
            np.testing.assert_array_equal(
                orchestrated.final_params, monolithic.final_params
            )

    def test_progress_events_stream_in_order(self):
        events = []
        orchestrator = SweepOrchestrator(progress=events.append)
        orchestrator.execute(tiny_specs())
        assert [e.event for e in events] == ["start", "done"] * len(ALGORITHMS)
        assert [e.index for e in events if e.event == "done"] == [0, 1, 2]
        assert all(e.total == len(ALGORITHMS) for e in events)
        done = [e for e in events if e.event == "done"]
        assert all(e.elapsed_s is not None and e.elapsed_s >= 0 for e in done)

    def test_done_events_carry_a_shrinking_eta(self):
        events = []
        SweepOrchestrator(progress=events.append).execute(tiny_specs())
        etas = [e.eta_s for e in events if e.event == "done"]
        # Every resolved spec except the last estimates the remainder; the
        # final one has nothing outstanding.
        assert all(eta is not None and eta >= 0 for eta in etas[:-1])
        assert etas[-1] is None

    def test_parallel_eta_scales_by_jobs(self):
        events = []
        SweepOrchestrator(jobs=3, progress=events.append).execute(tiny_specs())
        etas = [e.eta_s for e in events if e.event in ("done", "failed")]
        assert etas[-1] is None
        assert all(eta is not None for eta in etas[:-1])

    def test_sweep_metrics_counters(self, tmp_path):
        from repro.obs import MetricsRegistry, observe

        store = ExperimentStore(tmp_path / "store")
        metrics = MetricsRegistry()
        with observe(metrics=metrics):
            SweepOrchestrator(store=store).execute(tiny_specs())
        assert metrics.snapshot()["counters"]["sweep.specs_done"] == len(ALGORITHMS)
        with observe(metrics=metrics):
            SweepOrchestrator(store=store, resume=True).execute(tiny_specs())
        assert metrics.snapshot()["counters"]["sweep.store_hits"] == len(ALGORITHMS)

    def test_serial_sweep_spans_nest_runs_under_specs(self):
        from repro.obs import Tracer, observe
        from repro.obs.trace import span_tree

        tracer = Tracer()
        with observe(tracer=tracer):
            SweepOrchestrator().execute(tiny_specs())
        records = tracer.sorted_records()
        spans = {r.span_id: r for r in records}
        spec_spans = [r for r in records if r.name == "spec"]
        assert len(spec_spans) == len(ALGORITHMS)
        run_spans = [r for r in records if r.name == "run"]
        assert len(run_spans) == len(ALGORITHMS)
        for run in run_spans:
            assert spans[run.parent_id].name == "spec"
        tree = span_tree(records)
        for spec in spec_spans:
            assert [r.name for r in tree[spec.span_id]] == ["run"]


class TestParallelExecution:
    def test_parallel_bit_identical_to_serial(self):
        serial = SweepOrchestrator(jobs=1).execute(tiny_specs())
        parallel = SweepOrchestrator(jobs=2).execute(tiny_specs())
        assert_results_bit_identical(serial, parallel)

    def test_parallel_persists_every_result(self, tmp_path):
        store = ExperimentStore(tmp_path)
        orchestrator = SweepOrchestrator(jobs=2, store=store)
        results = orchestrator.execute(tiny_specs())
        assert store.summary()["done"] == len(ALGORITHMS)
        for spec in tiny_specs():
            loaded = store.load_result(store.key_for(spec))
            assert loaded.history.records == results[spec.key].history.records


class TestResume:
    def test_resume_skips_done_and_runs_the_rest(self, tmp_path):
        store = ExperimentStore(tmp_path)
        specs = tiny_specs()
        # Interrupt after k of n points: only the first two ran to completion.
        SweepOrchestrator(store=store).execute(specs[:2])
        orchestrator = SweepOrchestrator(store=store, resume=True)
        resumed = orchestrator.execute(specs)
        report = orchestrator.last_report
        assert [spec.key for spec in report.skipped] == [s.key for s in specs[:2]]
        assert [spec.key for spec in report.executed] == [s.key for s in specs[2:]]
        # The stitched-together sweep equals an uninterrupted serial run.
        uninterrupted = SweepOrchestrator().execute(specs)
        assert_results_bit_identical(resumed, uninterrupted)

    def test_resume_reruns_failed_and_running_specs(self, tmp_path):
        store = ExperimentStore(tmp_path)
        specs = tiny_specs()
        store.save_result(specs[0], execute_spec(specs[0]))
        store.mark(specs[1], RunStatus.FAILED, error="crashed earlier")
        # A worker killed mid-run leaves `running` with no payload behind.
        store.mark(specs[2], RunStatus.RUNNING)
        orchestrator = SweepOrchestrator(store=store, resume=True)
        orchestrator.execute(specs)
        report = orchestrator.last_report
        assert [spec.key for spec in report.skipped] == [specs[0].key]
        assert [spec.key for spec in report.executed] == [
            specs[1].key, specs[2].key,
        ]
        assert store.summary() == {
            "pending": 0, "running": 0, "done": 3, "failed": 0,
        }

    def test_without_resume_done_specs_are_re_executed(self, tmp_path):
        store = ExperimentStore(tmp_path)
        specs = tiny_specs()[:1]
        SweepOrchestrator(store=store).execute(specs)
        orchestrator = SweepOrchestrator(store=store, resume=False)
        orchestrator.execute(specs)
        assert [spec.key for spec in orchestrator.last_report.executed] == [
            specs[0].key
        ]

    def test_skipped_events_fire_for_cached_specs(self, tmp_path):
        store = ExperimentStore(tmp_path)
        specs = tiny_specs()[:1]
        SweepOrchestrator(store=store).execute(specs)
        events = []
        SweepOrchestrator(store=store, resume=True, progress=events.append).execute(
            specs
        )
        assert [e.event for e in events] == ["skipped"]


class TestFailureHandling:
    def failing_specs(self) -> list[RunSpec]:
        specs = tiny_specs()
        bad = RunSpec(
            study="demo",
            key=("broken",),
            config=TINY,
            algorithm=AlgorithmSpec("no-such-algorithm", {}),
            stop_at_target=False,
        )
        return [specs[0], bad, specs[2]]

    def test_failure_recorded_and_raised_after_the_batch(self, tmp_path):
        store = ExperimentStore(tmp_path)
        orchestrator = SweepOrchestrator(store=store)
        with pytest.raises(SimulationError, match="1 of 3"):
            orchestrator.execute(self.failing_specs())
        # Healthy specs still ran and were persisted for the next resume.
        assert store.summary()["done"] == 2
        assert store.summary()["failed"] == 1
        failed = [
            rec for rec in store.records().values()
            if rec.status is RunStatus.FAILED
        ]
        assert "no-such-algorithm" in failed[0].error

    def test_parallel_failure_also_raises_after_the_batch(self, tmp_path):
        store = ExperimentStore(tmp_path)
        orchestrator = SweepOrchestrator(jobs=2, store=store)
        with pytest.raises(SimulationError, match="1 of 3"):
            orchestrator.execute(self.failing_specs())
        assert store.summary()["done"] == 2

    def test_resume_after_failure_completes_the_sweep(self, tmp_path):
        store = ExperimentStore(tmp_path)
        specs = self.failing_specs()
        with pytest.raises(SimulationError):
            SweepOrchestrator(store=store).execute(specs)
        # Fix the bad spec (as a user would) and resume: only it re-runs.
        repaired = [specs[0], tiny_specs()[1], specs[2]]
        orchestrator = SweepOrchestrator(store=store, resume=True)
        orchestrator.execute(repaired)
        assert [spec.key for spec in orchestrator.last_report.executed] == [
            repaired[1].key
        ]


class TestRegistryIntegration:
    REQUEST = StudyRequest(dataset="blobs", clients=8, rounds=2)

    def test_every_training_study_is_orchestrable(self):
        for study in STUDIES:
            specs = expand(study, study.config(self.REQUEST), self.REQUEST)
            if study.name == "table1":
                assert specs == []  # closed form: the study with zero runs
            else:
                assert specs and all(spec.study == study.name for spec in specs)

    def test_specs_are_self_contained_and_picklable(self):
        import pickle

        study = STUDIES.get("table3")
        specs = expand(study, study.config(self.REQUEST), self.REQUEST)
        assert len(specs) == 5  # the paper's five-algorithm comparison
        for spec in specs:
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_run_study_parallel_payload_matches_serial(self, tmp_path):
        serial = to_jsonable(run_study("table4", self.REQUEST))
        parallel = to_jsonable(run_study(
            "table4", self.REQUEST,
            orchestrator=SweepOrchestrator(
                jobs=2, store=ExperimentStore(tmp_path)
            ),
        ))
        assert serial == parallel

    def test_run_study_resume_payload_matches_serial(self, tmp_path):
        store = ExperimentStore(tmp_path)
        study = STUDIES.get("table4")
        specs = expand(study, study.config(self.REQUEST), self.REQUEST)
        # Pre-populate the store with the first point, as an interrupted
        # sweep would have; the resumed study must reuse it untouched.
        SweepOrchestrator(store=store).execute(specs[:1])
        orchestrator = SweepOrchestrator(store=store, resume=True)
        resumed = to_jsonable(run_study("table4", self.REQUEST, orchestrator))
        assert len(orchestrator.last_report.skipped) == 1
        assert resumed == to_jsonable(run_study("table4", self.REQUEST))

    def test_zero_spec_studies_run_through_the_orchestrator_too(self, capsys):
        # table1 has no second execution mode: it is the same path with
        # nothing to execute (and no "--jobs has no effect" note).
        orchestrator = SweepOrchestrator(jobs=4)
        payload = run_study("table1", orchestrator=orchestrator)
        assert payload["rows"]
        assert orchestrator.last_report.executed == []
        assert "note:" not in capsys.readouterr().out
