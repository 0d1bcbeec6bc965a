"""Tests for the content-addressed experiment store (crash paths included)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.experiments.orchestrator import RunSpec, execute_spec
from repro.experiments.store import (
    ExperimentStore,
    RunRecord,
    RunStatus,
)

TINY = ExperimentConfig(
    name="tiny-store",
    dataset="blobs",
    n_train=200,
    n_test=80,
    model="mlp",
    model_kwargs={"input_dim": 32, "hidden_dims": (8,)},
    num_clients=6,
    client_fraction=0.5,
    local_epochs=1,
    batch_size=16,
    num_rounds=2,
    target_accuracy=0.5,
)


def make_spec(name="fedavg", kwargs=None, seed=0, stop=True, key=("a",)) -> RunSpec:
    return RunSpec(
        study="demo",
        key=key,
        config=TINY.with_overrides(seed=seed),
        algorithm=AlgorithmSpec(name, kwargs or {}),
        stop_at_target=stop,
    )


class TestContentAddressing:
    def test_key_is_stable_across_store_instances(self, tmp_path):
        spec = make_spec()
        first = ExperimentStore(tmp_path / "a").key_for(spec)
        second = ExperimentStore(tmp_path / "b").key_for(spec)
        assert first == second

    def test_key_varies_with_content(self, tmp_path):
        store = ExperimentStore(tmp_path)
        base = store.key_for(make_spec())
        assert store.key_for(make_spec(seed=1)) != base
        assert store.key_for(make_spec(kwargs={"server_learning_rate": 0.5})) != base
        assert store.key_for(make_spec(name="fedsgd")) != base
        assert store.key_for(make_spec(stop=False)) != base

    def test_default_config_key_is_the_one_older_stores_wrote(self, tmp_path):
        # Recorded on 46cbbf4, when ExperimentConfig still had ``backend``
        # (hashed as null): dropping the field must not move any key, or
        # every existing store stops resuming.
        spec = RunSpec(
            study="demo",
            key=("a",),
            config=ExperimentConfig(name="default"),
            algorithm=AlgorithmSpec("fedadmm", {}),
            stop_at_target=True,
        )
        store = ExperimentStore(tmp_path, version="1.0.0")
        assert store.key_for(spec) == "7f03788576daa291de75"

    def test_key_ignores_spec_position(self, tmp_path):
        # The sweep-tree position is bookkeeping, not run content: the same
        # training run reached via a different study layout must hit the cache.
        store = ExperimentStore(tmp_path)
        assert store.key_for(make_spec(key=("a",))) == store.key_for(
            make_spec(key=("elsewhere", "b"))
        )

    def test_key_varies_with_code_version(self, tmp_path):
        spec = make_spec()
        current = ExperimentStore(tmp_path, version="1.0.0").key_for(spec)
        future = ExperimentStore(tmp_path, version="2.0.0").key_for(spec)
        assert current != future


class TestLifecycle:
    def test_status_transitions_last_wins(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = make_spec()
        key = store.key_for(spec)
        store.mark(spec, RunStatus.PENDING)
        assert store.record(key).status is RunStatus.PENDING
        store.mark(spec, RunStatus.RUNNING)
        assert store.record(key).status is RunStatus.RUNNING
        store.mark(spec, RunStatus.FAILED, error="boom")
        record = store.record(key)
        assert record.status is RunStatus.FAILED
        assert record.error == "boom"
        assert record.spec_key == ("a",)
        assert record.algorithm == "fedavg"

    def test_save_and_load_result_round_trips_bit_identically(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = make_spec()
        result = execute_spec(spec)
        record = store.save_result(spec, result, duration_s=1.25)
        assert record.status is RunStatus.DONE
        key = store.key_for(spec)
        assert store.has_result(key)
        loaded = store.load_result(key)
        assert loaded.history.records == result.history.records
        np.testing.assert_array_equal(loaded.final_params, result.final_params)
        assert loaded.final_params.dtype == result.final_params.dtype
        assert loaded.ledger == result.ledger
        assert loaded.final_evaluation == result.final_evaluation
        assert loaded.rounds_to_target == result.rounds_to_target
        assert loaded.metadata == result.metadata

    def test_abandoned_round_nan_is_stored_as_strict_null(self, tmp_path):
        # Abandoned semi-sync rounds record train_loss=NaN; the persisted
        # payload must still parse under a strict JSON reader (jq et al.
        # reject the bare NaN token the stdlib emits by default).
        store = ExperimentStore(tmp_path)
        spec = make_spec()
        result = execute_spec(spec)
        result.history.records[0].train_loss = float("nan")
        store.save_result(spec, result)
        key = store.key_for(spec)

        def reject(token):
            raise ValueError(f"non-standard JSON constant: {token}")

        for path in (
            tmp_path / ExperimentStore.RESULTS_DIR / f"{key}.json",
            tmp_path / ExperimentStore.INDEX_NAME,
        ):
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text
            for line in filter(None, text.splitlines()):
                json.loads(line, parse_constant=reject)

        loaded = store.load_result(key)
        assert loaded.history.records[0].train_loss is None
        assert loaded.history.records[1:] == result.history.records[1:]

    def test_array_sidecar_round_trips_bit_for_bit(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = make_spec()
        rng = np.random.default_rng(0)
        arrays = {
            "client.3.w": rng.standard_normal(257) * 1e-9,
            "state.scalar": np.asarray(np.nextafter(1.0, 2.0)),
            "counters": np.arange(6, dtype=np.int64).reshape(2, 3),
        }
        store.save_result(spec, execute_spec(spec), arrays=arrays)
        loaded = store.load_arrays(store.key_for(spec))
        assert set(loaded) == set(arrays)
        for name, value in arrays.items():
            assert loaded[name].dtype == value.dtype
            assert loaded[name].tobytes() == value.tobytes()
        assert list((tmp_path / "results").glob("*.tmp")) == []

    def test_result_without_arrays_has_no_sidecar(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = make_spec()
        store.save_result(spec, execute_spec(spec))
        assert store.load_arrays(store.key_for(spec)) is None

    def test_load_unknown_key_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no stored result"):
            ExperimentStore(tmp_path).load_result("deadbeef")

    def test_done_without_payload_file_is_not_a_result(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = make_spec()
        store.save_result(spec, execute_spec(spec))
        key = store.key_for(spec)
        (tmp_path / "results" / f"{key}.json").unlink()
        assert not store.has_result(key)

    def test_summary_counts(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.mark(make_spec(seed=0), RunStatus.PENDING)
        store.mark(make_spec(seed=1), RunStatus.FAILED, error="x")
        assert store.summary() == {
            "pending": 1, "running": 0, "done": 0, "failed": 1,
        }


class TestCrashPaths:
    def test_torn_final_line_is_discarded(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.mark(make_spec(seed=0), RunStatus.DONE)
        # Simulate a crash mid-append: a final line with no terminator.
        with store.index_path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "partial", "status": "do')
        records = store.records()
        assert len(records) == 1
        assert "partial" not in records

    def test_append_after_torn_line_recovers(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.mark(make_spec(seed=0), RunStatus.DONE)
        with store.index_path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "partial", "status": "do')
        # The next append must not be glued onto the torn line.
        store.mark(make_spec(seed=1), RunStatus.PENDING)
        records = store.records()
        assert len(records) == 2
        assert {rec.status for rec in records.values()} == {
            RunStatus.DONE, RunStatus.PENDING,
        }

    def test_corrupt_mid_file_line_is_skipped(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.mark(make_spec(seed=0), RunStatus.DONE)
        with store.index_path.open("a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        store.mark(make_spec(seed=1), RunStatus.PENDING)
        assert len(store.records()) == 2

    def test_interrupted_result_write_leaves_no_partial_record(
        self, tmp_path, monkeypatch
    ):
        store = ExperimentStore(tmp_path)
        spec = make_spec()
        result = execute_spec(spec)
        key = store.key_for(spec)
        store.mark(spec, RunStatus.RUNNING)

        def exploding_replace(src, dst):
            raise OSError("simulated crash during atomic rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.save_result(spec, result)
        monkeypatch.undo()
        # No payload at the final path, no done line in the index, and no
        # temp-file litter: the run is still `running` and will be re-run.
        assert not store.has_result(key)
        assert store.record(key).status is RunStatus.RUNNING
        assert list((tmp_path / "results").glob("*.tmp")) == []

    def test_empty_store_directory_reads_as_empty(self, tmp_path):
        store = ExperimentStore(tmp_path / "fresh")
        assert store.records() == {}
        assert store.summary()["done"] == 0


class TestClean:
    def test_clean_defaults_to_non_done(self, tmp_path):
        store = ExperimentStore(tmp_path)
        done_spec = make_spec(seed=0)
        store.save_result(done_spec, execute_spec(done_spec))
        store.mark(make_spec(seed=1), RunStatus.FAILED, error="x")
        store.mark(make_spec(seed=2), RunStatus.RUNNING)
        dropped = store.clean()
        assert len(dropped) == 2
        records = store.records()
        assert len(records) == 1
        assert next(iter(records.values())).status is RunStatus.DONE

    def test_clean_specific_status_removes_payloads(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = make_spec()
        store.save_result(spec, execute_spec(spec))
        key = store.key_for(spec)
        dropped = store.clean([RunStatus.DONE])
        assert dropped == [key]
        assert store.records() == {}
        assert not (tmp_path / "results" / f"{key}.json").exists()

    def test_clean_removes_the_array_sidecar_with_the_payload(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = make_spec()
        store.save_result(spec, execute_spec(spec), arrays={"w": np.ones(3)})
        key = store.key_for(spec)
        assert (tmp_path / "results" / f"{key}.npz").exists()
        store.clean([RunStatus.DONE])
        assert list((tmp_path / "results").iterdir()) == []

    def test_clean_compacts_index_to_one_line_per_run(self, tmp_path):
        store = ExperimentStore(tmp_path)
        spec = make_spec()
        store.mark(spec, RunStatus.PENDING)
        store.mark(spec, RunStatus.RUNNING)
        store.save_result(spec, execute_spec(spec))
        assert len(store.index_path.read_text().strip().splitlines()) == 3
        store.clean([RunStatus.FAILED])  # drops nothing, but compacts
        assert len(store.index_path.read_text().strip().splitlines()) == 1
        assert store.record(store.key_for(spec)).status is RunStatus.DONE


class TestRecordSerialisation:
    def test_record_line_round_trip(self):
        record = RunRecord(
            key="abc", status=RunStatus.FAILED, study="s", spec_key=(1, "x"),
            config_name="cfg", algorithm="fedavg", seed=3, updated_at=12.5,
            duration_s=0.25, error="trace",
        )
        replayed = RunRecord.from_payload(json.loads(record.to_line()))
        assert replayed == record


class TestPolicyObjectAddressing:
    """Non-dataclass policy objects in algorithm kwargs must hash by value."""

    def _fig6_switch_spec(self):
        from repro.core.stepsize import PiecewiseStepSize

        policy = PiecewiseStepSize(values=[1.0, 0.5], boundaries=[10])
        return make_spec(name="fedadmm", kwargs={"rho": 0.3, "server_step_size": policy})

    def test_structurally_equal_policies_hash_identically(self, tmp_path):
        # Two instances have different memory addresses; a repr-based
        # fallback would give each its own key and break --resume.
        store = ExperimentStore(tmp_path)
        assert store.key_for(self._fig6_switch_spec()) == store.key_for(
            self._fig6_switch_spec()
        )

    def test_policy_values_change_the_key(self, tmp_path):
        from repro.core.rho import PiecewiseRho
        from repro.core.stepsize import PiecewiseStepSize

        store = ExperimentStore(tmp_path)
        base = store.key_for(self._fig6_switch_spec())
        other_policy = PiecewiseStepSize(values=[1.0, 0.25], boundaries=[10])
        assert store.key_for(
            make_spec(name="fedadmm", kwargs={"rho": 0.3, "server_step_size": other_policy})
        ) != base
        schedule = PiecewiseRho(values=[0.1, 0.3], boundaries=[10])
        assert store.key_for(
            make_spec(name="fedadmm", kwargs={"rho": schedule})
        ) != base

    def test_registry_piecewise_specs_resume_cleanly(self, tmp_path):
        # The fig6/fig9 switch points carry policy objects; a full
        # store-backed run followed by a resume must skip every point.
        from repro.experiments.orchestrator import SweepOrchestrator
        from repro.experiments.registry import StudyRequest, expand
        from repro.experiments.studies import STUDIES

        request = StudyRequest(dataset="blobs", clients=8, rounds=2)
        study = STUDIES.get("fig9")
        config = study.config(request)
        specs = expand(study, config, request)
        store = ExperimentStore(tmp_path)
        SweepOrchestrator(store=store).execute(specs)
        resumer = SweepOrchestrator(store=store, resume=True)
        resumer.execute(expand(study, config, request))  # freshly-built specs
        assert len(resumer.last_report.skipped) == len(specs)
        assert resumer.last_report.executed == []


class TestForeignIndexLines:
    def test_json_line_missing_required_fields_is_skipped(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.mark(make_spec(seed=0), RunStatus.DONE)
        with store.index_path.open("a", encoding="utf-8") as handle:
            handle.write('{"status": "done"}\n')   # valid JSON, no "key"
            handle.write('{"key": "x", "status": "not-a-status"}\n')
        assert len(store.records()) == 1  # both foreign lines skipped

    def test_set_valued_kwargs_hash_stably(self, tmp_path):
        store = ExperimentStore(tmp_path)
        first = store.key_for(make_spec(kwargs={"tags": {"b", "a", "c"}}))
        second = store.key_for(make_spec(kwargs={"tags": {"c", "a", "b"}}))
        assert first == second
