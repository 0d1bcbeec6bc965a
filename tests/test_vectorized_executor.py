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
* a cohort of size one runs through the batched kernels and matches;
* results are identical regardless of ``max_workers`` (parallel cohort
  dispatch reassembles in task order, with every draw made pre-dispatch);
* opt-out algorithms and genuinely unbatchable pieces (subclassed losses,
  custom layers) fall back to the serial per-task loop bit for bit, with
  the reason recorded in the labelled fallback counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import FedAvg, build_algorithm
from repro.algorithms.base import LocalTrainingConfig
from repro.datasets.base import Dataset
from repro.datasets.synthetic import make_blobs
from repro.federated.client import ClientState
from repro.federated.engine import FederatedSimulation
from repro.federated.heterogeneity import UniformRandomEpochs
from repro.federated.local_problem import LocalProblem
from repro.federated.sampler import UniformFractionSampler
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP, SmallCNN
from repro.obs import MetricsRegistry, observe
from repro.systems.executor import (
    LocalUpdateTask,
    SerialExecutor,
    VectorizedExecutor,
    build_executor,
)
from repro.systems.network import LogNormalNetwork

ATOL = 1e-8


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


def run_simulation(algorithm_name, executor, sizes, *, batch_size=5,
                   rounds=4, mode_kwargs=None, local_work=None, seed=11,
                   algorithm_kwargs=None):
    split, clients = make_ragged_clients(sizes, seed=3)
    model = MLP(input_dim=12, hidden_dims=(8,), num_classes=4,
                rng=np.random.default_rng(5))
    if isinstance(algorithm_name, str):
        algorithm = build_algorithm(algorithm_name, **(algorithm_kwargs or {}))
    else:
        algorithm = algorithm_name  # a pre-built instance
    simulation = FederatedSimulation(
        algorithm=algorithm,
        model=model,
        clients=clients,
        test_dataset=split.test,
        sampler=UniformFractionSampler(1.0),
        local_work=local_work,
        batch_size=batch_size,
        learning_rate=0.1,
        seed=seed,
        eval_every=1,
        executor=executor,
        **(mode_kwargs or {}),
    )
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


class OptOutFedAvg(FedAvg):
    """FedAvg with batching explicitly disabled (exercises the opt-out path)."""

    supports_batched = False


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
        # UniformRandomEpochs gives each client its own epoch draw, so a
        # round fragments into one cohort per realised epoch count; the
        # work RNG is shared, so both runs see identical draws.
        sizes = [16] * 8
        work = lambda: UniformRandomEpochs(max_epochs=4)  # noqa: E731
        serial = run_simulation("fedadmm", SerialExecutor(), sizes,
                                local_work=work(),
                                algorithm_kwargs={"rho": 0.3})
        vectorized = run_simulation("fedadmm", VectorizedExecutor(), sizes,
                                    local_work=work(),
                                    algorithm_kwargs={"rho": 0.3})
        assert_histories_match(serial, vectorized)


class TestFallback:
    def test_opt_out_algorithm_is_bit_identical_to_serial(self):
        # An algorithm that opts out of batching must run the per-task
        # serial loop, making the histories *exactly* equal.
        sizes = [16] * 5
        serial = run_simulation(OptOutFedAvg(), SerialExecutor(), sizes)
        vectorized = run_simulation(OptOutFedAvg(), VectorizedExecutor(), sizes)
        assert serial.history.records == vectorized.history.records
        np.testing.assert_array_equal(
            serial.final_params, vectorized.final_params
        )

    def test_opt_out_algorithm_reports_no_vectorization(self):
        split, clients = make_ragged_clients([10, 10])
        problems = [
            LocalProblem(
                model=MLP(input_dim=12, hidden_dims=(8,), num_classes=4,
                          rng=np.random.default_rng(0)),
                loss=CrossEntropyLoss(),
                dataset=client.dataset,
            )
            for client in clients
        ]
        executor = VectorizedExecutor()
        executor.prime(problems, OptOutFedAvg())
        assert not executor.vectorizes
        assert executor.fallback_reason == "algorithm_opt_out"
        executor.prime(problems, build_algorithm("fedavg"))
        assert executor.vectorizes
        assert executor.fallback_reason is None

    def test_formerly_opted_out_algorithms_now_vectorize(self):
        split, clients = make_ragged_clients([10, 10])
        problems = [
            LocalProblem(
                model=MLP(input_dim=12, hidden_dims=(8,), num_classes=4,
                          rng=np.random.default_rng(0)),
                loss=CrossEntropyLoss(),
                dataset=client.dataset,
            )
            for client in clients
        ]
        executor = VectorizedExecutor()
        for name in ("scaffold", "fedpd"):
            executor.prime(problems, build_algorithm(name))
            assert executor.vectorizes, name
            assert executor.fallback_reason is None

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
            executor.prime(mlp_problems, OptOutFedAvg())
            executor.run_tasks(tasks_for(mlp_problems))
            executor.prime(unbatchable_problems, build_algorithm("fedavg"))
            executor.run_tasks(tasks_for(unbatchable_problems))
        counters = metrics.snapshot()["counters"]
        assert counters["executor.fallback.algorithm_opt_out"] == 2
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
        executor = build_executor("vectorized", max_workers=4, backend="numpy")
        assert isinstance(executor, VectorizedExecutor)
        assert executor.max_workers == 4
        assert executor.backend == "numpy"
        # Per-task executors ignore the backend (they run serial model code).
        assert build_executor("thread", max_workers=2, backend="numpy") is not None

    def test_invalid_max_workers_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            VectorizedExecutor(max_workers=0)

    def test_stacked_data_is_cached_across_rounds(self):
        # Client datasets are immutable for a simulation, so a recurring
        # cohort composition must reuse its (C, n, d) stack rather than
        # re-stacking every round — and the cached arrays must be the
        # exact bytes a fresh stack would produce.
        sizes = [10, 10, 10]
        executor, clients, params = self._prime(sizes)
        problems = executor._problems
        key = (0, 1, 2)
        features_a, labels_a = executor._stacked_data(key, problems)
        features_b, labels_b = executor._stacked_data(key, problems)
        assert features_b is features_a and labels_b is labels_a
        np.testing.assert_array_equal(
            features_a, np.stack([p.dataset.features for p in problems])
        )
        np.testing.assert_array_equal(
            labels_a, np.stack([p.dataset.labels for p in problems])
        )
        # A different composition is a different cache entry.
        reordered, _ = executor._stacked_data((2, 1, 0), problems[::-1])
        assert reordered is not features_a
        np.testing.assert_array_equal(reordered, features_a[::-1])
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
        features_c, _ = executor._stacked_data(key, executor._problems)
        assert features_c is not features_a
        np.testing.assert_array_equal(features_c, features_a)


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

    def test_explicit_numpy_backend_is_bit_identical(self):
        sizes = [16] * 4
        default = run_simulation("fedadmm", VectorizedExecutor(), sizes,
                                 algorithm_kwargs={"rho": 0.3})
        explicit = run_simulation(
            "fedadmm", VectorizedExecutor(backend="numpy"), sizes,
            algorithm_kwargs={"rho": 0.3},
        )
        assert default.history.records == explicit.history.records
        np.testing.assert_array_equal(
            default.final_params, explicit.final_params
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
