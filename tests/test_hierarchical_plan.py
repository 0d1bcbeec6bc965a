"""Flat-vs-sharded parity and the accumulator contracts.

The lock-step plan's correctness claim has two tiers:

* **one shard** is the flat round: it must reproduce, bit for bit, the
  values pinned from the dedicated flat plan before the two round loops
  became one (``FLAT_GOLDENS`` in ``test_regression_sync_golden.py``) —
  across the serial and thread executors;
* an **N-shard** run with shard-preserving sampling selects the same
  global cohorts but associates the aggregation sum differently
  (per-shard partials merged at the root), so it must match flat within
  ``atol=1e-8``.

The accumulator itself is pinned against the paper-equation references in
``repro.core.admm_server`` (the property tests in
``test_reduction_contract.py`` extend this to every registered algorithm).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.algorithms.base import UpdateAccumulator
from repro.algorithms.fedadmm import FedADMM
from repro.algorithms.fedavg import FedAvg
from repro.core.admm_server import admm_server_update, average_aggregate
from repro.exceptions import ConfigurationError, SimulationError
from repro.federated.engine import FederatedSimulation
from repro.federated.heterogeneity import FixedEpochs
from repro.federated.messages import ClientMessage
from repro.federated.plans import HierarchicalPlan
from repro.federated.population import ClientPopulation
from repro.federated.client import build_clients
from repro.federated.sampler import FixedScheduleSampler, UniformFractionSampler
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.systems import build_executor

from conftest import make_model
from test_regression_sync_golden import (
    FLAT_CASES,
    FLAT_GOLDENS,
    flat_fingerprint,
    run_flat_recipe,
)

EXECUTORS = ("serial", "thread")


def make_sim(clients, test_dataset, *, algorithm="fedadmm", plan=None,
             executor="serial", sampler=None, local_work=None, metrics=None,
             tracer=None, **kwargs):
    algo_kwargs = {"rho": 0.3} if algorithm in ("fedadmm", "fedprox") else {}
    return FederatedSimulation(
        algorithm=build_algorithm(algorithm, **algo_kwargs),
        model=make_model(seed=0),
        clients=clients,
        test_dataset=test_dataset,
        batch_size=16,
        learning_rate=0.1,
        seed=0,
        plan=plan,
        executor=build_executor(executor),
        sampler=sampler,
        local_work=local_work,
        metrics=metrics,
        tracer=tracer,
        **kwargs,
    )


def histories_equal(a, b) -> bool:
    return len(a.records) == len(b.records) and all(
        x == y for x, y in zip(a.records, b.records)
    )


# --------------------------------------------------------------------------- #
# 1-shard bit-identity
# --------------------------------------------------------------------------- #
class TestSingleShardBitIdentity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("algorithm", sorted(FLAT_CASES))
    def test_matches_flat_sync_plan(self, executor, algorithm):
        # The isolated thread executor seeds every task on its own and has
        # one pinned history; serial has the other.
        pinned = "serial" if executor == "serial" else "thread"
        sharded = run_flat_recipe(
            algorithm, executor, plan=HierarchicalPlan(num_shards=1)
        )
        assert flat_fingerprint(sharded) == FLAT_GOLDENS[algorithm, pinned]


# --------------------------------------------------------------------------- #
# N-shard parity under shard-preserving sampling
# --------------------------------------------------------------------------- #
#: Global per-round cohorts for 8 clients in two shards [0..3] / [4..7];
#: every round activates members of both shards (a shard sampling nobody
#: is a SimulationError by design).
GLOBAL_SCHEDULE = [[0, 2, 5, 7], [1, 4, 6], [3, 5, 0, 4]]
SHARD0_SCHEDULE = [[0, 2], [1], [3, 0]]          # shard-local = global
SHARD1_SCHEDULE = [[1, 3], [0, 2], [1, 0]]       # shard-local = global - 4


class TestMultiShardParity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("algorithm", ["fedadmm", "fedavg"])
    def test_two_shards_match_flat_within_atol(
        self, blobs_split, iid_partition, executor, algorithm
    ):
        plan = HierarchicalPlan(
            num_shards=2,
            shard_samplers=[
                FixedScheduleSampler(SHARD0_SCHEDULE),
                FixedScheduleSampler(SHARD1_SCHEDULE),
            ],
        )
        flat = make_sim(
            build_clients(blobs_split.train, iid_partition), blobs_split.test,
            algorithm=algorithm, executor=executor,
            sampler=FixedScheduleSampler(GLOBAL_SCHEDULE),
            local_work=FixedEpochs(2),
        ).run(num_rounds=3)
        sharded = make_sim(
            build_clients(blobs_split.train, iid_partition), blobs_split.test,
            algorithm=algorithm, executor=executor, plan=plan,
            local_work=FixedEpochs(2),
        ).run(num_rounds=3)

        np.testing.assert_allclose(
            flat.final_params, sharded.final_params, atol=1e-8, rtol=0
        )
        for flat_round, sharded_round in zip(
            flat.history.records, sharded.history.records
        ):
            assert flat_round.num_selected == sharded_round.num_selected
            assert flat_round.upload_floats == sharded_round.upload_floats
            assert flat_round.train_loss == pytest.approx(
                sharded_round.train_loss, abs=1e-8
            )

    def test_shard_cohorts_union_to_global_cohort(self, iid_clients, blobs_split):
        plan = HierarchicalPlan(
            num_shards=2,
            shard_samplers=[
                FixedScheduleSampler(SHARD0_SCHEDULE),
                FixedScheduleSampler(SHARD1_SCHEDULE),
            ],
        )
        sim = make_sim(iid_clients, blobs_split.test, plan=plan)
        merged = [
            sorted(
                sampler.sample(round_index).tolist()
                for sampler in sim.plan._shard_samplers
            )
            for round_index in range(3)
        ]
        for round_index, parts in enumerate(merged):
            combined = sorted(cid for part in parts for cid in part)
            assert combined == sorted(GLOBAL_SCHEDULE[round_index])


# --------------------------------------------------------------------------- #
# Plan validation and observability
# --------------------------------------------------------------------------- #
class TestPlanBehaviour:
    def test_more_shards_than_clients_rejected(self, iid_clients, blobs_split):
        with pytest.raises(ConfigurationError):
            make_sim(
                iid_clients, blobs_split.test,
                plan=HierarchicalPlan(num_shards=9),
            )

    def test_invalid_shard_count_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            HierarchicalPlan(num_shards=0)
        with pytest.raises(ConfigurationError):
            HierarchicalPlan(num_shards=2, shard_samplers=[None])

    def test_empty_shard_cohort_is_a_simulation_error(
        self, iid_clients, blobs_split
    ):
        class EmptySampler:
            def sample(self, round_index, num_clients, rng=None):
                return np.array([], dtype=np.int64)

            def min_participation_probability(self, num_clients):
                return 0.0

        sim = make_sim(
            iid_clients, blobs_split.test,
            plan=HierarchicalPlan(num_shards=2),
            sampler=EmptySampler(),
        )
        with pytest.raises(SimulationError):
            sim.run_round()

    def test_metadata_reports_shard_layout(self, iid_clients, blobs_split):
        result = make_sim(
            iid_clients, blobs_split.test, plan=HierarchicalPlan(num_shards=3)
        ).run(num_rounds=1)
        assert result.metadata["plan"] == "hierarchical"
        assert result.metadata["num_shards"] == 3
        assert result.metadata["shard_sizes"] == [3, 3, 2]

    def test_shard_spans_and_rss_gauge_recorded(self, iid_clients, blobs_split):
        tracer, metrics = Tracer(), MetricsRegistry()
        make_sim(
            iid_clients, blobs_split.test,
            plan=HierarchicalPlan(num_shards=2),
            tracer=tracer, metrics=metrics,
        ).run(num_rounds=2)
        names = [record.name for record in tracer.sorted_records()]
        assert names.count("shard") == 4  # 2 shards x 2 rounds
        # The shard span nests between round and client_task.
        assert "round" in names and "client_task" in names
        assert metrics.gauge("scale.peak_rss_bytes").max_value > 0


# --------------------------------------------------------------------------- #
# Virtual populations
# --------------------------------------------------------------------------- #
class TestClientPopulation:
    def test_materialises_only_touched_clients(self, iid_clients, blobs_split):
        population = ClientPopulation(
            5000, templates=[client.dataset for client in iid_clients[:2]]
        )
        sim = make_sim(
            population, blobs_split.test,
            plan=HierarchicalPlan(num_shards=10),
            sampler=UniformFractionSampler(0.002),  # 1 client per shard
            eager_client_init=False,
        )
        sim.run(num_rounds=2)
        assert population.materialised <= 10 * 2  # <= cohort x rounds
        assert len(population) == 5000

    def test_same_object_identity_per_index(self, iid_clients):
        population = ClientPopulation(100, [iid_clients[0].dataset])
        assert population[7] is population[7]
        assert population[-1].client_id == 99

    def test_rejects_empty_templates(self, iid_clients):
        with pytest.raises(ConfigurationError):
            ClientPopulation(10, [])
        with pytest.raises(ConfigurationError):
            ClientPopulation(0, [iid_clients[0].dataset])


# --------------------------------------------------------------------------- #
# Streaming accumulators vs batch aggregate
# --------------------------------------------------------------------------- #
def make_messages(key, count, dim=64, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ClientMessage(
            client_id=i,
            payload={key: rng.normal(size=dim)},
            num_samples=int(rng.integers(10, 100)),
            local_epochs=2,
            train_loss=float(rng.random()),
        )
        for i in range(count)
    ]


class TestAccumulators:
    @pytest.mark.parametrize("count", [1, 3, 8, 17, 64])
    def test_fedavg_uniform_streaming_is_bitwise_equal(self, count):
        algorithm = FedAvg(weighting="uniform")
        messages = make_messages("params", count)
        acc = algorithm.make_accumulator(None, {}, 100, 0)
        assert type(acc) is UpdateAccumulator
        for message in messages:
            acc.accumulate(message)
        batch = average_aggregate([m.payload["params"] for m in messages])
        assert (acc.finalise() == batch).all()

    @pytest.mark.parametrize("count", [1, 3, 8, 17, 64])
    def test_fedadmm_streaming_is_bitwise_equal(self, count):
        theta = np.linspace(-1, 1, 64)
        algorithm = FedADMM(rho=0.3, server_step_size="participation")
        messages = make_messages("delta", count)
        acc = algorithm.make_accumulator(theta, {}, 100, 5)
        assert type(acc) is UpdateAccumulator
        for message in messages:
            acc.accumulate(message)
        batch = admm_server_update(
            theta, [m.payload["delta"] for m in messages], eta=count / 100
        )
        assert (acc.finalise() == batch).all()

    def test_fedavg_weighted_streaming_is_close(self):
        algorithm = FedAvg(weighting="samples")
        messages = make_messages("params", 20)
        acc = algorithm.make_accumulator(None, {}, 100, 0)
        for message in messages:
            acc.accumulate(message)
        batch = average_aggregate(
            [m.payload["params"] for m in messages],
            weights=[m.num_samples for m in messages],
        )
        np.testing.assert_allclose(acc.finalise(), batch, rtol=1e-14)

    def test_shard_merge_equals_single_accumulator(self):
        algorithm = FedADMM(rho=0.3, server_step_size="participation")
        theta = np.zeros(32)
        messages = make_messages("delta", 10, dim=32)
        root = algorithm.make_accumulator(theta, {}, 50, 0)
        for chunk in (messages[:4], messages[4:7], messages[7:]):
            partial = algorithm.make_accumulator(theta, {}, 50, 0)
            for message in chunk:
                partial.accumulate(message)
            root.merge(partial)
        single = algorithm.make_accumulator(theta, {}, 50, 0)
        for message in messages:
            single.accumulate(message)
        assert root.count == single.count == 10
        np.testing.assert_allclose(
            root.finalise(), single.finalise(), atol=1e-12, rtol=0
        )

    def test_participation_step_size_uses_total_count(self):
        # η = |S_t|/m must be resolved from the merged count, not any
        # shard's local count.
        algorithm = FedADMM(rho=0.3, server_step_size="participation")
        theta = np.zeros(8)
        messages = make_messages("delta", 6, dim=8)
        root = algorithm.make_accumulator(theta, {}, 12, 0)
        for half in (messages[:3], messages[3:]):
            partial = algorithm.make_accumulator(theta, {}, 12, 0)
            for message in half:
                partial.accumulate(message)
            root.merge(partial)
        expected = admm_server_update(
            theta, [m.payload["delta"] for m in messages], eta=6 / 12
        )
        np.testing.assert_allclose(root.finalise(), expected, atol=1e-12)

    def test_empty_finalise_raises(self):
        algorithm = FedAvg()
        acc = algorithm.make_accumulator(None, {}, 10, 0)
        with pytest.raises(ConfigurationError):
            acc.finalise()
