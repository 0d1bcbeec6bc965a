"""Vectorized executor: cohort grouping, fallback, and seeding equivalence.

The contract under test (see ``repro.systems.executor.VectorizedExecutor``
and ``repro.nn.batched``):

* histories match the serial executor within ``atol=1e-8`` (identical
  evaluated accuracies; stacked matmuls only change reduction order),
  for every batched algorithm, in full-batch and mini-batch mode;
* RNG streams are consumed in task order, so the *seeding* is exactly
  serial's — with the shared sync training stream and with per-task
  integer seeds (async/semisync);
* ragged client datasets land in separate cohorts and still match;
* clients of one shape form ONE cohort whatever their local epoch counts
  (epoch-sorted, trained as a shrinking active prefix) and still match;
* a cohort of size one runs through the batched kernels and matches;
* a cohort dealt round-robin into any number of parts matches too, and
  results are bit-identical regardless of ``max_workers`` (a client's row
  does not depend on who shares its stack; every draw is made
  pre-dispatch; reassembly is in task order);
* every registered algorithm runs batched on the MLP (nothing opts out);
  only genuinely unbatchable pieces (subclassed losses, custom layers)
  fall back to the serial per-task loop bit for bit, with the reason
  recorded in the labelled fallback counters.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.systems.executor as executor_module
from repro.algorithms import ALGORITHM_REGISTRY, FedAvg, build_algorithm
from repro.algorithms.base import LocalTrainingConfig
from repro.datasets.base import Dataset
from repro.datasets.synthetic import make_blobs
from repro.federated.client import ClientState
from repro.federated.engine import FederatedSimulation
from repro.federated.heterogeneity import UniformRandomEpochs
from repro.federated.local_problem import LocalProblem
from repro.federated.sampler import UniformFractionSampler
from repro.nn.layers import Linear, Sequential, Tanh
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP, SmallCNN
from repro.obs import MetricsRegistry, observe
from repro.systems.executor import (
    LocalUpdateTask,
    SerialExecutor,
    VectorizedExecutor,
    build_executor,
)
from repro.systems.faults import FaultInjector
from repro.systems.network import LogNormalNetwork

ATOL = 1e-8


def min_part_clients(clients, rows, width=12):
    """Lower the dealing floor to ``clients`` clients a part.

    The floor is in stacked feature values per step (clients × rows ×
    width) and far above what test-sized cohorts reach; ``rows`` is the
    batch size, or the local dataset size under full-batch training.
    """
    return mock.patch.object(
        executor_module, "MIN_PART_ELEMENTS", clients * rows * width
    )


def make_ragged_clients(sizes, seed=0, num_classes=4, feature_dim=12):
    """Clients with *different* local dataset sizes (forces ragged cohorts)."""
    split = make_blobs(
        n_train=sum(sizes), n_test=80, num_classes=num_classes,
        feature_dim=feature_dim, separation=2.0, noise_std=0.6, rng=seed,
    )
    clients, start = [], 0
    for client_id, size in enumerate(sizes):
        subset = Dataset(
            features=split.train.features[start:start + size],
            labels=split.train.labels[start:start + size],
            name=f"client-{client_id}",
        )
        clients.append(ClientState(client_id=client_id, dataset=subset))
        start += size
    return split, clients


def make_simulation(algorithm_name, executor, sizes, *, batch_size=5,
                    mode_kwargs=None, local_work=None, seed=11,
                    algorithm_kwargs=None, model=None, sampler=None):
    split, clients = make_ragged_clients(sizes, seed=3)
    if model is None:
        model = MLP(input_dim=12, hidden_dims=(8,), num_classes=4,
                    rng=np.random.default_rng(5))
    if isinstance(algorithm_name, str):
        algorithm = build_algorithm(algorithm_name, **(algorithm_kwargs or {}))
    else:
        algorithm = algorithm_name  # a pre-built instance
    return FederatedSimulation(
        algorithm=algorithm,
        model=model,
        clients=clients,
        test_dataset=split.test,
        sampler=sampler or UniformFractionSampler(1.0),
        local_work=local_work,
        batch_size=batch_size,
        learning_rate=0.1,
        seed=seed,
        eval_every=1,
        executor=executor,
        **(mode_kwargs or {}),
    )


def run_simulation(algorithm_name, executor, sizes, *, rounds=4, **kwargs):
    simulation = make_simulation(algorithm_name, executor, sizes, **kwargs)
    return simulation.run(rounds, target_accuracy=None)


def assert_histories_match(serial, vectorized, atol=ATOL):
    assert [r.test_accuracy for r in vectorized.history.records] == [
        r.test_accuracy for r in serial.history.records
    ]
    np.testing.assert_allclose(
        np.array([r.train_loss for r in vectorized.history.records]),
        np.array([r.train_loss for r in serial.history.records]),
        atol=atol, rtol=0,
    )
    np.testing.assert_allclose(
        vectorized.final_params, serial.final_params, atol=atol, rtol=0
    )


BATCHED_ALGORITHMS = ["fedavg", "fedprox", "fedsgd", "fedadmm", "scaffold",
                      "fedpd"]
ALGO_KWARGS = {"fedprox": {"rho": 0.1}, "fedadmm": {"rho": 0.3},
               "fedpd": {"rho": 0.1}}


class TweakedCrossEntropy(CrossEntropyLoss):
    """A loss *subclass*: unbatchable by the exact-type compilation rule."""

    def value_and_grad(self, predictions, targets):
        return super().value_and_grad(predictions, targets)


class TestSerialEquivalence:
    @pytest.mark.parametrize("name", BATCHED_ALGORITHMS)
    @pytest.mark.parametrize("batch_size", [5, None])
    def test_uniform_cohort_matches_serial(self, name, batch_size):
        sizes = [20] * 6  # one cohort per round
        serial = run_simulation(name, SerialExecutor(), sizes,
                                batch_size=batch_size,
                                algorithm_kwargs=ALGO_KWARGS.get(name))
        vectorized = run_simulation(name, VectorizedExecutor(), sizes,
                                    batch_size=batch_size,
                                    algorithm_kwargs=ALGO_KWARGS.get(name))
        assert_histories_match(serial, vectorized)

    @pytest.mark.parametrize("name", BATCHED_ALGORITHMS)
    def test_ragged_datasets_match_serial(self, name):
        # Four distinct dataset sizes -> at least four cohorts per round,
        # with the shared training RNG threading through all of them in
        # task order.
        sizes = [8, 8, 13, 21, 21, 34, 5, 13]
        serial = run_simulation(name, SerialExecutor(), sizes,
                                algorithm_kwargs=ALGO_KWARGS.get(name))
        vectorized = run_simulation(name, VectorizedExecutor(), sizes,
                                    algorithm_kwargs=ALGO_KWARGS.get(name))
        assert_histories_match(serial, vectorized)

    def test_cohort_of_size_one(self):
        sizes = [25]  # a single client: leading axis of 1 end to end
        serial = run_simulation("fedadmm", SerialExecutor(), sizes,
                                algorithm_kwargs={"rho": 0.3})
        vectorized = run_simulation("fedadmm", VectorizedExecutor(), sizes,
                                    algorithm_kwargs={"rho": 0.3})
        assert_histories_match(serial, vectorized)

    def test_variable_epochs_group_into_ragged_cohorts(self):
        # UniformRandomEpochs gives each client its own epoch draw; eight
        # equal-sized clients still form ONE cohort a round (the epoch
        # count is not part of the grouping key).  The work RNG is shared,
        # so both runs see identical draws.
        sizes = [16] * 8
        work = lambda: UniformRandomEpochs(max_epochs=4)  # noqa: E731
        serial = run_simulation("fedadmm", SerialExecutor(), sizes,
                                local_work=work(),
                                algorithm_kwargs={"rho": 0.3})
        metrics = MetricsRegistry()
        with observe(metrics=metrics):
            vectorized = run_simulation("fedadmm", VectorizedExecutor(), sizes,
                                        local_work=work(),
                                        algorithm_kwargs={"rho": 0.3})
        assert_histories_match(serial, vectorized)
        assert len({r.mean_local_epochs for r in serial.history.records}) > 1
        cohort_size = metrics.snapshot()["histograms"]["executor.cohort_size"]
        assert cohort_size["count"] == serial.rounds_run  # one group a round
        assert cohort_size["min"] == cohort_size["max"] == 8


class TestFallback:
    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_every_registered_algorithm_runs_batched(self, name):
        # Nothing opts out: on the MLP, priming leaves no fallback reason
        # and every task of a run is counted batched, none as a fallback.
        executor, metrics = VectorizedExecutor(), MetricsRegistry()
        with observe(metrics=metrics):
            run_simulation(name, executor, [16] * 4, rounds=2,
                           algorithm_kwargs=ALGO_KWARGS.get(name))
        assert executor.fallback_reason is None
        counters = metrics.snapshot()["counters"]
        assert counters["executor.batched_tasks"] == 2 * 4
        assert not [key for key in counters if key.startswith("executor.fallback.")]

    def test_unbatchable_loss_falls_back_bit_identically(self):
        # A subclassed loss has no stacked counterpart (exact-type rule):
        # prime() must detect this and the run must equal serial exactly.
        split = make_blobs(n_train=60, n_test=20, num_classes=3,
                           feature_dim=16, rng=0)
        clients = [
            ClientState(
                client_id=i,
                dataset=Dataset(
                    features=split.train.features[i * 20:(i + 1) * 20],
                    labels=split.train.labels[i * 20:(i + 1) * 20],
                ),
            )
            for i in range(3)
        ]

        def run(executor):
            model = MLP(input_dim=16, hidden_dims=(8,), num_classes=3,
                        rng=np.random.default_rng(1))
            fresh = [
                ClientState(client_id=c.client_id, dataset=c.dataset)
                for c in clients
            ]
            simulation = FederatedSimulation(
                algorithm=build_algorithm("fedavg"),
                model=model,
                loss=TweakedCrossEntropy(),
                clients=fresh,
                test_dataset=split.test,
                sampler=UniformFractionSampler(1.0),
                batch_size=10,
                learning_rate=0.05,
                seed=7,
                executor=executor,
            )
            return simulation.run(2, target_accuracy=None)

        serial, vectorized = run(SerialExecutor()), run(VectorizedExecutor())
        assert serial.history.records == vectorized.history.records
        np.testing.assert_array_equal(
            serial.final_params, vectorized.final_params
        )

    def test_fallback_counters_are_labelled_by_reason(self):
        split, clients = make_ragged_clients([10, 10])
        mlp_problems = [
            LocalProblem(
                model=MLP(input_dim=12, hidden_dims=(8,), num_classes=4,
                          rng=np.random.default_rng(0)),
                loss=CrossEntropyLoss(),
                dataset=client.dataset,
            )
            for client in clients
        ]
        unbatchable_problems = [
            LocalProblem(
                model=MLP(input_dim=12, hidden_dims=(8,), num_classes=4,
                          rng=np.random.default_rng(0)),
                loss=TweakedCrossEntropy(),
                dataset=client.dataset,
            )
            for client in clients
        ]
        params = mlp_problems[0].model.get_flat_params()

        def tasks_for(problems):
            return [
                LocalUpdateTask(
                    client_index=i,
                    client=clients[i],
                    global_params=params,
                    server_state={},
                    config=LocalTrainingConfig(
                        epochs=1, batch_size=5, learning_rate=0.1
                    ),
                    round_index=0,
                    rng=100 + i,
                )
                for i in range(len(problems))
            ]

        metrics = MetricsRegistry()
        with observe(metrics=metrics):
            executor = VectorizedExecutor()
            executor.prime(mlp_problems, build_algorithm("fedavg"))
            executor.run_tasks(tasks_for(mlp_problems))
            executor.prime(unbatchable_problems, build_algorithm("fedavg"))
            executor.run_tasks(tasks_for(unbatchable_problems))
        counters = metrics.snapshot()["counters"]
        assert executor.fallback_reason == "unbatchable_model"
        assert counters["executor.batched_tasks"] == 2
        assert [key for key in counters if key.startswith("executor.fallback.")] == [
            "executor.fallback.unbatchable_model"
        ]
        assert counters["executor.fallback.unbatchable_model"] == 2

    def test_batched_run_increments_no_fallback_counters(self):
        # SCAFFOLD end to end under the vectorized executor: every task
        # must run batched, with zero fallback counter increments.
        metrics = MetricsRegistry()
        with observe(metrics=metrics):
            run_simulation("scaffold", VectorizedExecutor(), [16] * 5)
        counters = metrics.snapshot()["counters"]
        assert not any(name.startswith("executor.fallback.")
                       for name in counters)
        assert counters["executor.batched_tasks"] > 0


class TestBufferedPlans:
    """Vectorized under async/semisync: per-task integer seeds."""

    def test_async_plan_matches_serial(self):
        sizes = [16] * 6
        from repro.federated.plans import AsyncPlan

        def run(executor):
            split, clients = make_ragged_clients(sizes, seed=3)
            model = MLP(input_dim=12, hidden_dims=(8,), num_classes=4,
                        rng=np.random.default_rng(5))
            simulation = FederatedSimulation(
                algorithm=build_algorithm("fedavg"),
                model=model,
                clients=clients,
                test_dataset=split.test,
                sampler=UniformFractionSampler(0.5),
                batch_size=5,
                learning_rate=0.1,
                seed=11,
                plan=AsyncPlan(buffer_size=2, max_concurrency=4),
                network=LogNormalNetwork(),
                executor=executor,
            )
            return simulation.run(4, target_accuracy=None)

        serial, vectorized = run(SerialExecutor()), run(VectorizedExecutor())
        assert_histories_match(serial, vectorized)

    def test_semisync_plan_matches_serial(self):
        from repro.federated.plans import SemiSyncPlan

        def run(executor):
            split, clients = make_ragged_clients([16] * 6, seed=3)
            model = MLP(input_dim=12, hidden_dims=(8,), num_classes=4,
                        rng=np.random.default_rng(5))
            simulation = FederatedSimulation(
                algorithm=build_algorithm("fedadmm", rho=0.3),
                model=model,
                clients=clients,
                test_dataset=split.test,
                sampler=UniformFractionSampler(0.5),
                batch_size=5,
                learning_rate=0.1,
                seed=11,
                network=LogNormalNetwork(),
                plan=SemiSyncPlan(round_deadline_s=5.0),
                executor=executor,
            )
            return simulation.run(4, target_accuracy=None)

        serial, vectorized = run(SerialExecutor()), run(VectorizedExecutor())
        assert_histories_match(serial, vectorized)


class TestCohortMechanics:
    def _prime(self, sizes, algorithm_name="fedavg", seed=0):
        split, clients = make_ragged_clients(sizes, seed=seed)
        model = MLP(input_dim=12, hidden_dims=(8,), num_classes=4,
                    rng=np.random.default_rng(2))
        problems = [
            LocalProblem(model=model, loss=CrossEntropyLoss(),
                         dataset=client.dataset)
            for client in clients
        ]
        executor = VectorizedExecutor()
        algorithm = build_algorithm(algorithm_name)
        executor.prime(problems, algorithm)
        params = model.get_flat_params()
        return executor, clients, params

    def _task(self, clients, params, index, epochs, rng, batch_size=5):
        return LocalUpdateTask(
            client_index=index,
            client=clients[index],
            global_params=params,
            server_state={},
            config=LocalTrainingConfig(
                epochs=epochs, batch_size=batch_size, learning_rate=0.1
            ),
            round_index=0,
            rng=rng,
        )

    def test_outcomes_preserve_task_order_across_cohorts(self):
        # Interleave two dataset sizes and two epoch counts: four cohorts,
        # but the outcome list must still line up with the task list.
        sizes = [10, 20, 10, 20, 10, 20]
        executor, clients, params = self._prime(sizes)
        tasks = [
            self._task(clients, params, i, epochs=1 + (i % 2), rng=100 + i)
            for i in range(len(sizes))
        ]
        outcomes = executor.run_tasks(tasks)
        assert [o.message.client_id for o in outcomes] == [
            t.client.client_id for t in tasks
        ]
        assert [o.message.local_epochs for o in outcomes] == [
            t.config.epochs for t in tasks
        ]
        assert [o.message.num_samples for o in outcomes] == sizes

    def test_mixed_cohorts_match_per_task_serial_execution(self):
        # The same interleaved task list through a serial executor, with
        # identical per-task seeds: grouping must not change results.
        sizes = [10, 20, 10, 20, 10, 20]
        vec, clients_v, params = self._prime(sizes)
        ser, clients_s, params_s = self._prime(sizes)
        np.testing.assert_array_equal(params, params_s)
        serial = SerialExecutor()
        serial.prime(ser._problems, ser._algorithm)
        tasks_v = [
            self._task(clients_v, params, i, epochs=1 + (i % 2), rng=100 + i)
            for i in range(len(sizes))
        ]
        tasks_s = [
            self._task(clients_s, params, i, epochs=1 + (i % 2), rng=100 + i)
            for i in range(len(sizes))
        ]
        for out_v, out_s in zip(vec.run_tasks(tasks_v), serial.run_tasks(tasks_s)):
            np.testing.assert_allclose(
                out_v.message.payload["params"],
                out_s.message.payload["params"],
                atol=ATOL, rtol=0,
            )

    def test_build_executor_registry_entry(self):
        assert isinstance(build_executor("vectorized"), VectorizedExecutor)
        executor = build_executor("vectorized", max_workers=4)
        assert isinstance(executor, VectorizedExecutor)
        assert executor.max_workers == 4

    def test_invalid_max_workers_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            VectorizedExecutor(max_workers=0)

    def test_stacked_data_is_cached_across_rounds(self):
        # Client datasets are immutable for a simulation, so a recurring
        # group must reuse its (C, n, d) stack rather than re-stacking
        # every round — and the cached arrays must be the exact bytes a
        # fresh stack would produce.  The entry is keyed on the client
        # *set*: the order a round trains them in (epoch-sorted, so
        # different every round) is a row map over the same entry.
        sizes = [10, 10, 10]
        executor, clients, params = self._prime(sizes)
        problems = executor._problems
        features_a, labels_a, rows_a = executor._stacked_data([0, 1, 2])
        features_b, labels_b, rows_b = executor._stacked_data([2, 0, 1])
        assert features_b is features_a and labels_b is labels_a
        assert len(executor._data_cache) == 1
        np.testing.assert_array_equal(
            features_a, np.stack([p.dataset.features for p in problems])
        )
        np.testing.assert_array_equal(
            labels_a, np.stack([p.dataset.labels for p in problems])
        )
        np.testing.assert_array_equal(rows_a, [0, 1, 2])
        np.testing.assert_array_equal(rows_b, [2, 0, 1])
        np.testing.assert_array_equal(
            features_b.take(rows_b, axis=0),
            np.stack([problems[i].dataset.features for i in (2, 0, 1)]),
        )
        # A different set is a different cache entry, stacked in
        # client-index order; rows index into that entry.
        subset, _, rows = executor._stacked_data([2, 0])
        assert subset is not features_a and len(executor._data_cache) == 2
        np.testing.assert_array_equal(subset, features_a[[0, 2]])
        np.testing.assert_array_equal(rows, [1, 0])
        # Repriming (new problem objects, fresh arrays) must never serve
        # a stale stack: the entry is validated by source-array identity.
        executor.prime(
            [
                LocalProblem(
                    model=p.model,
                    loss=p.loss,
                    dataset=Dataset(
                        features=p.dataset.features.copy(),
                        labels=p.dataset.labels.copy(),
                        name=p.dataset.name,
                    ),
                )
                for p in problems
            ],
            executor._algorithm,
        )
        features_c, _, _ = executor._stacked_data([0, 1, 2])
        assert features_c is not features_a
        np.testing.assert_array_equal(features_c, features_a)

    def test_ragged_full_participation_holds_one_stack_per_group(self):
        # Twenty rounds of freshly drawn epochs reorder every group every
        # round; the cache must still hit (one entry per shape group, the
        # same arrays throughout), however the groups are dealt into parts.
        sizes = [12] * 6 + [20] * 5
        with min_part_clients(2, rows=5):
            executor = VectorizedExecutor(max_workers=2)
            simulation = make_simulation(
                "fedadmm", executor, sizes,
                local_work=UniformRandomEpochs(max_epochs=5),
                algorithm_kwargs={"rho": 0.3},
            )
            simulation.run_round()
            first = {key: entry[0] for key, entry in executor._data_cache.items()}
            for _ in range(19):
                simulation.run_round()
            simulation.pipeline.close()
        assert sorted(first) == [tuple(range(6)), tuple(range(6, 11))]
        assert executor._data_cache.keys() == first.keys()
        for key, entry in executor._data_cache.items():
            assert entry[0] is first[key]


class TestMergeAndDeal:
    """One cohort per shape, epoch-sorted, dealt into any number of parts.

    The contract, stated once: for arbitrary per-client epoch counts and
    arbitrary part counts, merged-and-dealt execution equals per-task
    serial execution (``atol=1e-8``, bookkeeping exactly), consumes the
    same random numbers, and is bit-identical for every ``max_workers``.
    """

    NUM_SAMPLES = 16

    def _primed(self, executor, name, num_clients):
        _, clients = make_ragged_clients([self.NUM_SAMPLES] * num_clients, seed=3)
        model = MLP(input_dim=12, hidden_dims=(8,), num_classes=4,
                    rng=np.random.default_rng(5))
        algorithm = name  # a pre-built instance ...
        if isinstance(name, str):  # ... or a registry name
            algorithm = build_algorithm(name, **ALGO_KWARGS.get(name, {}))
        executor.prime(
            [LocalProblem(model=model, loss=CrossEntropyLoss(), dataset=c.dataset)
             for c in clients],
            algorithm,
        )
        params = model.get_flat_params()
        for client in clients:
            algorithm.init_client_state(client, params)
        return clients, params, algorithm.init_server_state(params, num_clients)

    def _run(self, executor, name, epochs, batch_size, seed):
        """Two rounds over one shared training stream; persistent client
        state (w/y, control variates) carries from the first to the second."""
        clients, params, server_state = self._primed(executor, name, len(epochs))
        rng = np.random.default_rng(seed)
        outcomes = []
        for round_index in range(2):
            realised = epochs[round_index:] + epochs[:round_index]
            tasks = [
                LocalUpdateTask(
                    client_index=i,
                    client=clients[i],
                    global_params=params + 0.01 * round_index,
                    server_state=server_state,
                    config=LocalTrainingConfig(
                        epochs=realised[i], batch_size=batch_size,
                        learning_rate=0.1,
                    ),
                    round_index=round_index,
                    rng=rng,
                )
                for i in range(len(epochs))
            ]
            outcomes += executor.run_tasks(tasks)
        executor.close()
        return outcomes, clients, int(rng.integers(2**62))

    @pytest.mark.parametrize("name", BATCHED_ALGORITHMS)
    @settings(max_examples=12, deadline=None)
    @given(
        epochs=st.lists(st.integers(1, 5), min_size=1, max_size=9),
        min_part=st.integers(1, 5),
        batch_size=st.sampled_from([None, 5]),
        seed=st.integers(0, 2**16),
    )
    @example(epochs=[3] * 6, min_part=2, batch_size=5, seed=0)  # all equal
    @example(epochs=[1, 2, 3, 4, 5], min_part=1, batch_size=None, seed=1)
    @example(epochs=[4], min_part=1, batch_size=5, seed=2)  # a single client
    @example(epochs=[5, 4, 3, 2, 1], min_part=5, batch_size=5, seed=3)
    def test_merged_and_dealt_equals_per_task_serial(
        self, name, epochs, min_part, batch_size, seed
    ):
        metrics = MetricsRegistry()
        with min_part_clients(min_part, rows=batch_size or self.NUM_SAMPLES), \
                observe(metrics=metrics):
            serial, serial_clients, serial_next = self._run(
                SerialExecutor(), name, epochs, batch_size, seed
            )
            runs = {
                workers: self._run(
                    VectorizedExecutor(max_workers=workers), name, epochs,
                    batch_size, seed,
                )
                for workers in (1, 2, 4)
            }
        counters = metrics.snapshot()["counters"]
        assert not any(key.startswith("executor.fallback.") for key in counters)
        assert counters["executor.batched_tasks"] == 3 * 2 * len(epochs)

        inline, inline_clients, inline_next = runs[1]
        # Same shuffles drawn, so the shared stream continues identically.
        assert inline_next == serial_next
        for ours, theirs in zip(inline, serial):
            assert ours.message.client_id == theirs.message.client_id
            assert ours.message.local_epochs == theirs.message.local_epochs
            assert type(ours.message.local_epochs) is int
            assert ours.message.num_samples == theirs.message.num_samples
            assert ours.message.metadata == theirs.message.metadata
            assert abs(ours.message.train_loss - theirs.message.train_loss) <= ATOL
            assert ours.message.payload.keys() == theirs.message.payload.keys()
            for key, vector in theirs.message.payload.items():
                np.testing.assert_allclose(
                    ours.message.payload[key], vector, atol=ATOL, rtol=0
                )
        for ours, theirs in zip(inline_clients, serial_clients):
            assert ours.rounds_participated == theirs.rounds_participated
            assert ours.local_work_done == theirs.local_work_done
            assert ours.variables.keys() == theirs.variables.keys()
            for key, vector in theirs.variables.items():
                np.testing.assert_allclose(
                    ours.variables[key], vector, atol=ATOL, rtol=0
                )

        # Dealt across 2 or 4 workers: not "close" — the same bytes.
        for workers in (2, 4):
            dealt, dealt_clients, dealt_next = runs[workers]
            assert dealt_next == inline_next
            for ours, theirs in zip(dealt, inline):
                assert ours.message.train_loss == theirs.message.train_loss
                assert ours.message.local_epochs == theirs.message.local_epochs
                for key, vector in theirs.message.payload.items():
                    np.testing.assert_array_equal(ours.message.payload[key], vector)
            for ours, theirs in zip(dealt_clients, inline_clients):
                assert ours.local_work_done == theirs.local_work_done
                for key, vector in theirs.variables.items():
                    np.testing.assert_array_equal(ours.variables[key], vector)

    @pytest.mark.parametrize("sizes, workers, min_part, expected", [
        ([16] * 8, 1, 2, [8]),            # one worker: never dealt
        ([16] * 8, 2, 2, [4, 4]),         # one part per worker ...
        ([16] * 8, 4, 2, [2, 2, 2, 2]),
        ([16] * 8, 8, 2, [2, 2, 2, 2]),   # ... but never below the floor
        ([16] * 8, 2, 5, [8]),            # too small to deal at all
        ([16] * 7, 2, 2, [3, 4]),         # uneven deals differ by one
        ([16] * 6 + [20] * 4, 2, 2, [4, 6]),     # as many groups as workers
        ([16] * 6 + [20] * 4, 4, 2, [2, 2, 3, 3]),  # two parts per group
    ])
    def test_groups_are_dealt_to_occupy_the_workers(
        self, sizes, workers, min_part, expected
    ):
        metrics = MetricsRegistry()
        with min_part_clients(min_part, rows=5), observe(metrics=metrics):
            run_simulation("fedavg", VectorizedExecutor(max_workers=workers),
                           sizes, rounds=1)
        observed = metrics.snapshot()["histograms"]["executor.cohort_size"]
        assert observed["count"] == len(expected)
        assert observed["sum"] == sum(expected)
        assert (observed["min"], observed["max"]) == (expected[0], expected[-1])

    def test_parts_are_dealt_round_robin_after_the_epoch_sort(self):
        # Descending epochs (ties in task order), then every third client
        # to each of three workers' parts: the epoch profiles interleave.
        epochs = [2, 5, 1, 4, 3, 5, 2]
        seen = []

        class Spy(FedAvg):
            def batched_local_update(self, cohort, clients, *args, **kwargs):
                seen.append((cohort.epochs.tolist(),
                             [client.client_id for client in clients]))
                return super().batched_local_update(
                    cohort, clients, *args, **kwargs
                )

        with min_part_clients(2, rows=self.NUM_SAMPLES):
            executor = VectorizedExecutor(max_workers=3)
            clients, params, server_state = self._primed(executor, Spy(), 7)
            tasks = [
                LocalUpdateTask(
                    client_index=i, client=clients[i], global_params=params,
                    server_state=server_state,
                    config=LocalTrainingConfig(epochs=epochs[i], batch_size=None,
                                               learning_rate=0.1),
                    round_index=0, rng=7,
                )
                for i in range(7)
            ]
            outcomes = executor.run_tasks(tasks)
            executor.close()
        assert sorted(seen, reverse=True) == [
            ([5, 3, 1], [1, 4, 2]),
            ([5, 2], [5, 0]),
            ([4, 2], [3, 6]),
        ]
        assert [o.message.client_id for o in outcomes] == list(range(7))
        assert [o.message.local_epochs for o in outcomes] == epochs

    @pytest.mark.parametrize("name", BATCHED_ALGORITHMS)
    @pytest.mark.parametrize("batch_size", [5, None])
    def test_ragged_rounds_match_serial_down_to_the_rng_streams(
        self, name, batch_size
    ):
        # Whole simulations under the paper's variable-work protocol, with
        # client sampling and crash faults drawing from their own streams
        # after every round's local training.
        def run(executor):
            simulation = make_simulation(
                name, executor, [16] * 10, batch_size=batch_size,
                local_work=UniformRandomEpochs(max_epochs=5),
                sampler=UniformFractionSampler(0.8),
                algorithm_kwargs=ALGO_KWARGS.get(name),
                mode_kwargs={"faults": FaultInjector(dropout_rate=0.2)},
            )
            result = simulation.run(5, target_accuracy=None)
            # Every stream the run draws from, the plan's own included.
            streams = {
                label: generator.bit_generator.state
                for label, generator in simulation.rng_streams().items()
            }
            work = [(c.rounds_participated, c.local_work_done)
                    for c in simulation.clients]
            return result, streams, work

        metrics = MetricsRegistry()
        with min_part_clients(3, rows=batch_size or 16), observe(metrics=metrics):
            serial, serial_streams, serial_work = run(SerialExecutor())
            runs = {w: run(VectorizedExecutor(max_workers=w)) for w in (1, 2, 4)}
        assert not any(key.startswith("executor.fallback.")
                       for key in metrics.snapshot()["counters"])
        inline, inline_streams, inline_work = runs[1]
        assert_histories_match(serial, inline)
        assert inline.ledger == serial.ledger
        assert inline_streams == serial_streams
        assert inline_work == serial_work
        for record, reference in zip(inline.history.records,
                                     serial.history.records):
            assert record.mean_local_epochs == reference.mean_local_epochs
            assert record.dropped_clients == reference.dropped_clients
            assert record.upload_floats == reference.upload_floats
        for workers in (2, 4):
            dealt, dealt_streams, dealt_work = runs[workers]
            assert dealt.history.records == inline.history.records
            np.testing.assert_array_equal(dealt.final_params, inline.final_params)
            assert dealt_streams == inline_streams
            assert dealt_work == inline_work

    @pytest.mark.parametrize("failing_client", [0, 1])
    def test_a_failing_part_fails_the_round_on_either_thread(self, failing_client):
        # Two parts on two workers: client 0's part runs on the calling
        # thread, client 1's on the helper; either failure must surface.
        class Failing(FedAvg):
            def batched_local_update(self, cohort, clients, *args, **kwargs):
                if any(c.client_id == failing_client for c in clients):
                    raise RuntimeError("part failed")
                return super().batched_local_update(
                    cohort, clients, *args, **kwargs
                )

        with min_part_clients(1, rows=self.NUM_SAMPLES):
            executor = VectorizedExecutor(max_workers=2)
            clients, params, server_state = self._primed(executor, Failing(), 4)
            tasks = [
                LocalUpdateTask(
                    client_index=i, client=clients[i], global_params=params,
                    server_state=server_state,
                    config=LocalTrainingConfig(epochs=1, batch_size=None,
                                               learning_rate=0.1),
                    round_index=0, rng=7,
                )
                for i in range(4)
            ]
            with pytest.raises(RuntimeError, match="part failed"):
                executor.run_tasks(tasks)
            executor.close()

    def test_more_workers_than_cores_lose_no_part(self):
        # The calling thread and seven helpers race for 24 one-client parts
        # under a 1 µs switch interval: every part must run exactly once
        # (a lost or doubled part would show in the participation counts)
        # and the history must still be the inline run's bytes.
        import sys

        def run(workers):
            simulation = make_simulation(
                "fedadmm", VectorizedExecutor(max_workers=workers), [16] * 24,
                local_work=UniformRandomEpochs(max_epochs=3),
                algorithm_kwargs={"rho": 0.3},
            )
            result = simulation.run(6, target_accuracy=None)
            return result, [c.rounds_participated for c in simulation.clients]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with min_part_clients(1, rows=5):
                raced, participation = run(8)
                inline, _ = run(1)
        finally:
            sys.setswitchinterval(interval)
        assert participation == [6] * 24
        assert raced.history.records == inline.history.records
        np.testing.assert_array_equal(raced.final_params, inline.final_params)

    def test_every_model_is_dealt_by_the_one_part_rule(self):
        # No layer keeps a cohort whole: a Tanh stack's cohort is dealt
        # into parts like the MLP's, and the history stays the same bytes.
        def run(workers):
            rng = np.random.default_rng(5)
            model = Sequential(Linear(12, 8, rng=rng), Tanh(), Linear(8, 4, rng=rng))
            metrics = MetricsRegistry()
            with observe(metrics=metrics):
                result = run_simulation(
                    "fedadmm", VectorizedExecutor(max_workers=workers),
                    [16] * 8, model=model,
                    local_work=UniformRandomEpochs(max_epochs=4),
                    algorithm_kwargs={"rho": 0.3},
                )
            return result, metrics.snapshot()["histograms"]["executor.cohort_size"]

        with min_part_clients(2, rows=5):
            (inline, inline_sizes), (two, two_sizes), (four, _) = (
                run(1), run(2), run(4)
            )
        assert inline_sizes["max"] == 8  # inline, one whole cohort a round
        assert two_sizes["max"] < 8
        for dealt in (two, four):
            assert dealt.history.records == inline.history.records
            np.testing.assert_array_equal(dealt.final_params, inline.final_params)

    def test_workspaces_are_sized_once_under_changing_prefixes(self):
        # Thirty rounds of random epochs: the active prefix takes every
        # length between 1 and the part size, yet each pooled model clone
        # holds exactly one gradient buffer — sized for a whole part on
        # first use (every client is active at epoch 0) and never
        # reallocated afterwards — and its loss no per-shape buffer at all.
        with min_part_clients(6, rows=16):
            executor = VectorizedExecutor(max_workers=2)
            simulation = make_simulation(
                "fedadmm", executor, [16] * 12, batch_size=None,
                local_work=UniformRandomEpochs(max_epochs=5),
                algorithm_kwargs={"rho": 0.3},
            )
            first_seen = {}
            for _ in range(30):
                simulation.run_round()
                for model in executor._model_pool:  # all released between rounds
                    grads = first_seen.setdefault(id(model), model._grads._flat)
                    assert model._grads._flat is grads
                    assert grads.size == 6 * model.dim  # a part of six, whole
                    assert vars(model.loss) == {}
            simulation.pipeline.close()
        assert 1 <= len(first_seen) <= 2  # at most one clone per worker


class TestParallelDispatch:
    """Cohorts dispatched across worker threads: same results, any schedule."""

    @pytest.mark.parametrize("name", ["fedadmm", "scaffold"])
    def test_parallel_cohorts_match_serial(self, name):
        # Ragged sizes + variable seeds -> several cohorts per round, run
        # concurrently; results must still match serial within tolerance.
        sizes = [8, 8, 13, 21, 21, 34, 5, 13]
        serial = run_simulation(name, SerialExecutor(), sizes,
                                algorithm_kwargs=ALGO_KWARGS.get(name))
        parallel = run_simulation(
            name, VectorizedExecutor(max_workers=4), sizes,
            algorithm_kwargs=ALGO_KWARGS.get(name),
        )
        assert_histories_match(serial, parallel)

    def test_parallel_equals_inline_bitwise(self):
        # max_workers=1 (inline) and max_workers=4 (threaded) must produce
        # bit-identical results: every random draw happens pre-dispatch.
        sizes = [10, 20, 10, 20, 10, 20]
        inline = run_simulation("fedavg", VectorizedExecutor(max_workers=1),
                                sizes)
        threaded = run_simulation("fedavg", VectorizedExecutor(max_workers=4),
                                  sizes)
        assert inline.history.records == threaded.history.records
        np.testing.assert_array_equal(
            inline.final_params, threaded.final_params
        )

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.sampled_from([12, 16]), min_size=4, max_size=24),
        max_epochs=st.integers(1, 5),
        batch_size=st.sampled_from([None, 5, 8]),
        min_part=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_history_is_independent_of_max_workers(
        self, sizes, max_epochs, batch_size, min_part, seed
    ):
        # The executor invariant, stated once: whatever the population, the
        # realised epochs (1..E per client per round), the batch size and the
        # dealing floor, a FedADMM history is the same bytes for every
        # ``max_workers``.
        def run(workers):
            return run_simulation(
                "fedadmm", VectorizedExecutor(max_workers=workers), sizes,
                rounds=2, batch_size=batch_size, seed=seed,
                local_work=UniformRandomEpochs(max_epochs=max_epochs),
                algorithm_kwargs={"rho": 0.3},
            )

        with min_part_clients(min_part, rows=batch_size or min(sizes)):
            inline = run(1)
            for workers in (2, 3, 4):
                dealt = run(workers)
                assert dealt.history.records == inline.history.records
                np.testing.assert_array_equal(
                    dealt.final_params, inline.final_params
                )


class TestConvModels:
    """The CNN zoo now vectorizes (im2col conv/pool stacked kernels)."""

    def test_small_cnn_vectorizes_and_matches_serial(self):
        split = make_blobs(n_train=48, n_test=24, num_classes=3,
                           feature_dim=16, rng=0)
        clients = [
            ClientState(
                client_id=i,
                dataset=Dataset(
                    features=split.train.features[i * 16:(i + 1) * 16],
                    labels=split.train.labels[i * 16:(i + 1) * 16],
                ),
            )
            for i in range(3)
        ]

        def run(executor):
            model = SmallCNN(rng=np.random.default_rng(1), channels=1,
                             image_size=4, num_classes=3,
                             conv_channels=(2, 2), hidden=8)
            fresh = [
                ClientState(client_id=c.client_id, dataset=c.dataset)
                for c in clients
            ]
            simulation = FederatedSimulation(
                algorithm=build_algorithm("fedavg"),
                model=model,
                clients=fresh,
                test_dataset=split.test,
                sampler=UniformFractionSampler(1.0),
                batch_size=8,
                learning_rate=0.05,
                seed=7,
                executor=executor,
            )
            return simulation.run(2, target_accuracy=None)

        metrics = MetricsRegistry()
        with observe(metrics=metrics):
            vectorized = run(VectorizedExecutor())
        counters = metrics.snapshot()["counters"]
        assert counters.get("executor.batched_tasks", 0) > 0
        assert not any(name.startswith("executor.fallback.")
                       for name in counters)
        serial = run(SerialExecutor())
        assert_histories_match(serial, vectorized)
