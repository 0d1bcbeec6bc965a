"""The upload stage: each upload is compressed and summed in task order.

With a codec configured the lock-step round hands every client's message to
a one-thread stage that compresses it and folds it into the shard's
accumulator while the calling thread trains the next client.  Because the
stage is one thread fed in task order, ``transport_rng`` draws and the sum's
``+=`` order are those of the all-at-once round; the pins below were
recorded before the stage existed and hold it to that, bit for bit.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.exceptions import SimulationError
from repro.federated.client import build_clients
from repro.federated.engine import FederatedSimulation
from repro.federated.heterogeneity import FixedEpochs
from repro.federated.plans import HierarchicalPlan
from repro.federated.sampler import UniformFractionSampler
from repro.nn.losses import CrossEntropyLoss
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.systems import (
    FaultInjector,
    Transport,
    build_codec,
    build_executor,
    build_network,
)
from repro.systems.adversaries import build_adversary
from tests.conftest import make_model


def _qsgd_simulation(
    blobs_split, iid_partition, *, executor="serial", fraction=0.5, dropout=0.2,
    codec="qsgd", **extra,
):
    """FedADMM under QSGD: the shape of ``test_systems.CODEC_RUN_GOLDENS``."""
    return FederatedSimulation(
        algorithm=build_algorithm("fedadmm", rho=0.3),
        model=make_model(seed=11),
        clients=build_clients(blobs_split.train, iid_partition),
        test_dataset=blobs_split.test,
        loss=CrossEntropyLoss(),
        sampler=UniformFractionSampler(fraction),
        local_work=FixedEpochs(2),
        batch_size=16,
        learning_rate=0.2,
        seed=11,
        transport=Transport(build_codec(codec)) if codec else None,
        network=build_network("lognormal"),
        faults=FaultInjector(dropout_rate=dropout),
        executor=build_executor(executor, max_workers=2),
        **extra,
    )


def _fingerprint(result):
    return (
        hashlib.sha256(result.final_params.tobytes()).hexdigest(),
        [record.test_accuracy for record in result.history.records],
        result.ledger.upload_wire_bytes,
    )


#: The orderings the stage touches, one QSGD run each (4 rounds, seed 11):
#: final-params sha256, per-round test accuracies, upload wire bytes and the
#: metrics counters.  Recorded at 55ae068, before the stage existed.
_COUNTERS = {
    "clients.dropped": 2.0,
    "rounds_completed": 4.0,
    "tasks_executed": 14.0,
    "wire.download_bytes": 17664.0,
    "wire.upload_bytes.qsgd": 2954.0,
}
STAGE_ORDER_PINS = {
    # Two edge aggregators: one stage per shard, joined before the merge.
    "two_shards": (
        "e9df87ebf39c526e7fefae7f152e471835b518a25995b4e9bec869b4f4a5325d",
        [1.0, 1.0, 1.0, 1.0],
        2954,
        _COUNTERS,
    ),
    # Corruption happens before compression: the codec sees the flipped Δ.
    "sign_flip": (
        "a9029a3a38c0cf9991c25926a41a3104b83705be6fa16a2e47596cdafd4d6439",
        [0.075, 0.325, 0.475, 0.9875],
        2954,
        {**_COUNTERS, "adversary.corrupted_updates": 3.0},
    ),
    # A batch executor hands every outcome over after its batch.
    "thread": (
        "094e1d5239737d1f51c548e6fe1fafce026a0f5e80b7b73f9e9f1aa8ab1211e0",
        [0.99375, 1.0, 1.0, 1.0],
        2954,
        _COUNTERS,
    ),
}


def _pinned_run(case, blobs_split, iid_partition, metrics=None):
    extra = {"metrics": metrics}
    executor = "serial"
    if case == "two_shards":
        extra["plan"] = HierarchicalPlan(num_shards=2)
    elif case == "sign_flip":
        extra["adversary"] = build_adversary("sign_flip", 0.25)
    elif case == "thread":
        executor = "thread"
    sim = _qsgd_simulation(blobs_split, iid_partition, executor=executor, **extra)
    return sim.run(4)


@pytest.mark.parametrize("case", sorted(STAGE_ORDER_PINS))
def test_stage_orderings_are_pinned(case, blobs_split, iid_partition):
    metrics = MetricsRegistry()
    result = _pinned_run(case, blobs_split, iid_partition, metrics=metrics)
    assert (*_fingerprint(result), metrics.snapshot()["counters"]) == (
        STAGE_ORDER_PINS[case]
    )


def _upload_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-upload")
    }


def _all_selected(blobs_split, iid_partition, **kwargs):
    """Every client trains every round and none drops: eight uploads."""
    return _qsgd_simulation(
        blobs_split, iid_partition, fraction=1.0, dropout=0.0, **kwargs
    )


def _record_accumulates(sim, slow_s=0.0):
    """Log (client, end time) of every ``accumulate`` the run makes."""
    summed = []
    make = sim.algorithm.make_accumulator

    def make_accumulator(*args, **kwargs):
        accumulator = make(*args, **kwargs)
        accumulate = accumulator.accumulate

        def logged(message):
            time.sleep(slow_s)
            accumulate(message)
            summed.append((message.client_id, time.monotonic()))

        accumulator.accumulate = logged
        return accumulator

    sim.algorithm.make_accumulator = make_accumulator
    return summed


def _third_update_goes_wrong(sim, go_wrong):
    """Pass the third local update's message through ``go_wrong``."""
    update = sim.algorithm.local_update
    trained = []

    def local_update(problem, client, *args, **kwargs):
        message = update(problem, client, *args, **kwargs)
        trained.append(client.client_id)
        return go_wrong(message) if len(trained) == 3 else message

    sim.algorithm.local_update = local_update
    return trained


class TestUploadStage:
    def test_encode_error_surfaces_and_nothing_is_summed_after_it(
        self, blobs_split, iid_partition
    ):
        sim = _all_selected(blobs_split, iid_partition)
        summed = _record_accumulates(sim)

        def non_finite(message):
            message.payload = {
                key: np.where(np.arange(vector.size) == 0, np.inf, vector)
                for key, vector in message.payload.items()
            }
            return message

        trained = _third_update_goes_wrong(sim, non_finite)
        with pytest.raises(SimulationError, match="qsgd") as caught:
            sim.run_round()
        assert "\n" not in str(caught.value)
        # The two uploads before the non-finite one were summed; it and every
        # upload after it were not.
        assert [client for client, _ in summed] == trained[:2]
        sim.pipeline.close()

    def test_training_error_leaves_no_stage_work_running(
        self, blobs_split, iid_partition
    ):
        sim = _all_selected(blobs_split, iid_partition)
        summed = _record_accumulates(sim, slow_s=0.05)

        def fail(message):
            raise RuntimeError("local update failed")

        _third_update_goes_wrong(sim, fail)
        with pytest.raises(RuntimeError, match="local update failed"):
            sim.run_round()
        raised, done = time.monotonic(), len(summed)
        time.sleep(0.2)
        # Every upload the stage had started was summed before run_round
        # raised, and none started afterwards.
        assert done <= 2 and len(summed) == done
        assert all(end <= raised for _, end in summed)
        sim.pipeline.close()

    def test_close_joins_the_thread_and_a_later_round_recreates_it(
        self, blobs_split, iid_partition
    ):
        reference = _all_selected(blobs_split, iid_partition).run(2)
        sim = _all_selected(blobs_split, iid_partition)
        before = _upload_threads()
        sim.run_round()
        first = _upload_threads() - before
        assert len(first) == 1
        sim.pipeline.close()
        assert not any(thread.is_alive() for thread in first)
        sim.run_round()
        second = _upload_threads() - before
        assert len(second) == 1 and not second & first
        sim.pipeline.close()
        assert not any(thread.is_alive() for thread in second)
        assert sim.state.params.tobytes() == reference.final_params.tobytes()

    def test_no_codec_no_thread(self, blobs_split, iid_partition):
        sim = _all_selected(blobs_split, iid_partition, codec=None)
        before = _upload_threads()
        sim.run_round()
        assert _upload_threads() == before
        sim.pipeline.close()

    @pytest.mark.parametrize(
        "executor, shards",
        [("serial", 1), ("thread", 1), ("vectorized", 1), ("serial", 2)],
    )
    def test_stage_spans_hang_off_the_round_or_shard(
        self, executor, shards, blobs_split, iid_partition
    ):
        tracer = Tracer()
        sim = _qsgd_simulation(
            blobs_split, iid_partition, executor=executor, tracer=tracer,
            plan=HierarchicalPlan(num_shards=shards),
        )
        result = sim.run(2)
        spans = {record.span_id: record for record in tracer.records}
        compress = [record for record in tracer.records if record.name == "compress"]
        # One span per upload, each under the span its shard's work ran in.
        assert len(compress) == sum(
            record.num_selected - len(record.dropped_clients)
            for record in result.history.records
        )
        parent = "round" if shards == 1 else "shard"
        assert {spans[record.parent_id].name for record in compress} == {parent}
        assert all(record.attrs["messages"] == 1 for record in compress)
