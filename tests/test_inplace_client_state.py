"""The in-place client-state update against the copying one it replaced.

The oracle below is the per-client envelope as it stood at commit
``e3c7c85`` — ``gather`` (a fresh stack), ``scatter`` (an indexed store),
``admm_client_update`` (which reused its input stacks for its outputs),
the two cohorts' ``run_sgd`` (which never wrote their start) and the
FedADMM, FedPD and SCAFFOLD ClientUpdates built on them, bodies copied
verbatim — so this file is the one place that says what "the same update"
means: equal rows, equal uploads and equal train losses, byte for byte, on
a cohort of one (which now trains its live rows) and on a stack (which
still trains a private copy), on a shared store and on private ones.  The
other tests pin what the in-place path promises: a one-client update
writes no row back, no upload aliases a store, and the thread executor's
history does not depend on its pool size.
"""

from __future__ import annotations

import contextlib
import copy
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import build_algorithm
from repro.algorithms.base import LocalTrainingConfig, OneClientCohort, run_local_sgd
from repro.core.augmented_lagrangian import AugmentedLagrangian
from repro.core.dual import augmented_model, dual_update
from repro.datasets.base import Dataset
from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.runner import run_single
from repro.federated.client import ClientState, ClientStateStore
from repro.federated.local_problem import LocalProblem
from repro.nn.batched import BatchedCohort, batched_run_local_sgd, build_batched_model
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP

NUM_CLIENTS, NUM_SAMPLES, FEATURES, CLASSES = 5, 8, 6, 3
RHO = 0.3


# --------------------------------------------------------------------------- #
# The oracle: parent bodies, verbatim (``self`` spelled ``cohort``/``algorithm``)
# --------------------------------------------------------------------------- #
def _row_by_row(clients):
    store = clients[0].store
    return any(client.store is not store for client in clients)


def oracle_gather(clients, key):
    for client in clients:
        if key not in client._keys:
            raise client._missing(key)
    if _row_by_row(clients):
        return np.array([client.get(key) for client in clients])
    return clients[0].store.take(key, [client.row for client in clients])


def oracle_scatter(clients, key, stack):
    stack = np.asarray(stack, dtype=np.float64)
    if len(stack) != len(clients):
        raise ConfigurationError(
            f"scatter of {len(stack)} rows onto {len(clients)} clients"
        )
    if _row_by_row(clients):
        for client, value in zip(clients, stack):
            client.set(key, value)
        return
    clients[0].store.put(key, [client.row for client in clients], stack)
    for client in clients:
        client._mark(key)


@dataclass
class OracleAdmmClientResult:
    w_new: np.ndarray
    y_new: np.ndarray
    delta: np.ndarray
    train_loss: np.ndarray


def oracle_admm_client_update(
    cohort, w_old, y_old, theta, rho, config, warm_start=True
):
    if rho <= 0:
        raise ConfigurationError(f"FedADMM requires rho > 0, got {rho}")
    lagrangian = AugmentedLagrangian(rho)
    w_old = np.asarray(w_old, dtype=np.float64)
    y_old = np.asarray(y_old, dtype=np.float64)
    start = w_old if warm_start else np.broadcast_to(theta, w_old.shape)

    scratch = np.empty(w_old.shape, dtype=np.float64)

    def extra_grad(params):
        active = params.shape[0]
        return lagrangian.penalty_gradient(
            params, y_old[:active], theta, out=scratch[:active]
        )

    w_new, train_loss = cohort.run_sgd(start, config, extra_grad)
    u_old = augmented_model(w_old, y_old, rho, out=scratch)
    y_new = dual_update(y_old, w_new, theta, rho, out=w_old)
    delta = augmented_model(w_new, y_new, rho, out=y_old)
    delta -= u_old
    return OracleAdmmClientResult(
        w_new=w_new, y_new=y_new, delta=delta, train_loss=train_loss
    )


class OracleOneClientCohort(OneClientCohort):
    def run_sgd(self, start_params, config, extra_grad=None):
        if config.epochs != self.epochs[0]:
            raise ConfigurationError(
                f"cohort of one was built for {self.epochs[0]} epochs, "
                f"config asks for {config.epochs}"
            )
        live = self.problem.bind(start_params[0])
        row_extra = None
        if extra_grad is not None:
            stacked = live[None, :]

            def row_extra(_):
                return extra_grad(stacked)[0]

        params, loss = run_local_sgd(self.problem, live, config, self.rng, row_extra)
        return params[None, :], np.array([loss])


class OracleBatchedCohort(BatchedCohort):
    def run_sgd(self, start_params, config, extra_grad=None):
        return batched_run_local_sgd(self, start_params, config, extra_grad)


def oracle_fedadmm(algorithm, cohort, clients, theta, server_state, config, round_index):
    rho = algorithm.rho_schedule.value(round_index)
    for client in clients:
        algorithm.init_client_state(client, theta)
    w_old = oracle_gather(clients, "w")
    y_old = oracle_gather(clients, "y") if algorithm.use_duals else np.zeros(w_old.shape)

    result = oracle_admm_client_update(
        cohort, w_old, y_old, theta, rho, config,
        warm_start=algorithm.warm_start,
    )

    oracle_scatter(clients, "w", result.w_new)
    if algorithm.use_duals:
        oracle_scatter(clients, "y", result.y_new)
    return algorithm.build_cohort_messages(
        clients, cohort, cohort.epochs, result.train_loss,
        {"delta": result.delta},
        metadata={"rho": rho},
    )


def oracle_fedpd(algorithm, cohort, clients, theta, server_state, config, round_index):
    for client in clients:
        algorithm.init_client_state(client, theta)
    result = oracle_admm_client_update(
        cohort,
        oracle_gather(clients, "w"),
        oracle_gather(clients, "y"),
        theta,
        algorithm.rho,
        config,
    )
    oracle_scatter(clients, "w", result.w_new)
    oracle_scatter(clients, "y", result.y_new)
    return algorithm.build_cohort_messages(
        clients, cohort, cohort.epochs, result.train_loss,
        {"augmented_model": augmented_model(result.w_new, result.y_new, algorithm.rho)},
    )


def oracle_scaffold(algorithm, cohort, clients, theta, server_state, config, round_index):
    for client in clients:
        algorithm.init_client_state(client, theta)
    server_control = server_state["control"]
    client_controls = oracle_gather(clients, "control")
    correction = server_control[None, :] - client_controls

    start = np.broadcast_to(theta, (len(clients), theta.size))
    params, losses = cohort.run_sgd(
        start, config, lambda live: correction[: live.shape[0]]
    )

    num_steps = cohort.epochs[:, None] * cohort.steps_per_epoch(config.batch_size)
    new_controls = client_controls - server_control[None, :] + (
        theta[None, :] - params
    ) / (num_steps * config.learning_rate)

    delta_params = params - theta[None, :]
    delta_controls = new_controls - client_controls
    oracle_scatter(clients, "control", new_controls)
    return algorithm.build_cohort_messages(
        clients, cohort, cohort.epochs, losses,
        {"delta_params": delta_params, "delta_control": delta_controls},
    )


# --------------------------------------------------------------------------- #
# Two identical worlds: one runs the oracle, the other the live code
# --------------------------------------------------------------------------- #
CASES = {
    "fedadmm": (dict(rho=RHO), oracle_fedadmm),
    "fedadmm-no-duals": (dict(rho=RHO, use_duals=False), oracle_fedadmm),
    "fedadmm-restart": (dict(rho=RHO, warm_start=False), oracle_fedadmm),
    "fedadmm-restart-no-duals": (
        dict(rho=RHO, warm_start=False, use_duals=False), oracle_fedadmm,
    ),
    "fedpd": (dict(rho=RHO), oracle_fedpd),
    "scaffold": ({}, oracle_scaffold),
}


def _algorithm(case):
    kwargs, _ = CASES[case]
    return build_algorithm(case.split("-")[0], **kwargs)


def _datasets(seed):
    rng = np.random.default_rng(seed)
    return [
        Dataset(
            features=rng.normal(size=(NUM_SAMPLES, FEATURES)),
            labels=rng.integers(0, CLASSES, size=NUM_SAMPLES),
            name=f"client-{i}",
        )
        for i in range(NUM_CLIENTS)
    ]


class World:
    """Clients on a shared store (``adopted``) or private ones (as a lazy
    population keeps them), a model and its problems, all of its own."""

    def __init__(self, case, layout, datasets, model):
        self.algorithm = _algorithm(case)
        self.clients = [ClientState(i, data) for i, data in enumerate(datasets)]
        if layout == "adopted":
            ClientStateStore.adopt(self.clients)
        self.model = copy.deepcopy(model)
        self.problems = [
            LocalProblem(model=self.model, loss=CrossEntropyLoss(), dataset=data)
            for data in datasets
        ]
        self.batched = build_batched_model(self.model, CrossEntropyLoss())

    def rows(self):
        return [
            (client.client_id, key, client.get(key).tobytes())
            for client in self.clients
            for key in client.variables
        ]

    def stores(self):
        return [client.get(key) for client in self.clients for key in client.variables]


def _same(oracle_messages, messages):
    assert len(oracle_messages) == len(messages)
    for expected, got in zip(oracle_messages, messages):
        assert expected.client_id == got.client_id
        assert list(expected.payload) == list(got.payload)
        for key, vector in expected.payload.items():
            assert vector.tobytes() == got.payload[key].tobytes()
        assert np.float64(expected.train_loss).tobytes() == np.float64(
            got.train_loss
        ).tobytes()


@contextlib.contextmanager
def counting_row_writes():
    """Count the store writes (``put`` and ``write``) made in the body."""
    writes = []
    saved = ClientStateStore.put, ClientStateStore.write

    def put(store, key, rows, values):
        writes.append(key)
        saved[0](store, key, rows, values)

    def write(store, key, row, value):
        writes.append(key)
        saved[1](store, key, row, value)

    ClientStateStore.put, ClientStateStore.write = put, write
    try:
        yield writes
    finally:
        ClientStateStore.put, ClientStateStore.write = saved


def _step_args(data, rng, dim):
    theta = rng.normal(scale=0.5, size=dim)
    batch_size = data.draw(st.sampled_from([None, 3, 4, NUM_SAMPLES]))
    return theta, batch_size


def _server_state(case, rng, dim):
    return {"control": rng.normal(scale=0.1, size=dim)} if case == "scaffold" else {}


def _model():
    return MLP(FEATURES, (5,), num_classes=CLASSES, rng=np.random.default_rng(3))


@pytest.mark.parametrize("layout", ["adopted", "private"])
@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_one_client_updates_equal_the_copying_oracle(case, layout, data, seed):
    datasets, model = _datasets(seed), _model()
    oracle_world = World(case, layout, datasets, model)
    world = World(case, layout, datasets, model)
    rng = np.random.default_rng(seed)
    dim = model.num_params
    for _ in range(data.draw(st.integers(1, 6))):
        index = data.draw(st.integers(0, NUM_CLIENTS - 1))
        theta, batch_size = _step_args(data, rng, dim)
        server_state = _server_state(case, rng, dim)
        config = LocalTrainingConfig(
            epochs=data.draw(st.integers(1, 3)), batch_size=batch_size,
            learning_rate=0.1,
        )
        round_index = data.draw(st.integers(0, 3))
        task_seed = int(rng.integers(2**31))

        expected = CASES[case][1](
            oracle_world.algorithm,
            OracleOneClientCohort(oracle_world.problems[index], config.epochs, task_seed),
            [oracle_world.clients[index]], theta, server_state, config, round_index,
        )
        client = world.clients[index]
        initialised = bool(client.variables)
        pointers = {
            key: row.__array_interface__["data"][0]
            for key, row in client.variables.items()
        }
        with counting_row_writes() as writes:
            messages = [world.algorithm.local_update(
                world.problems[index], client, theta, server_state, config,
                round_index, rng=task_seed,
            )]
        _same(expected, messages)
        assert oracle_world.rows() == world.rows()
        for key, pointer in pointers.items():
            assert client.get(key).__array_interface__["data"][0] == pointer
        if initialised and case != "scaffold":
            # (w_i, y_i) were trained where they live: nothing is written back.
            assert writes == []
        for message in messages:
            for vector in message.payload.values():
                assert not any(np.shares_memory(vector, row) for row in world.stores())


def _stacked_cohort(cohort_type, batched, members, datasets, epochs, orders):
    return cohort_type(
        model=batched,
        features=np.stack([datasets[i].features for i in members]),
        labels=np.stack([datasets[i].labels for i in members]),
        epochs=np.array(epochs),
        epoch_orders=orders,
    )


@pytest.mark.parametrize("layout", ["adopted", "private"])
@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_stacked_updates_equal_the_copying_oracle(case, layout, data, seed):
    datasets, model = _datasets(seed), _model()
    oracle_world = World(case, layout, datasets, model)
    world = World(case, layout, datasets, model)
    rng = np.random.default_rng(seed)
    dim = model.num_params
    for _ in range(data.draw(st.integers(1, 4))):
        # A cohort of one included: it trains its live rows stacked.
        members = data.draw(
            st.lists(st.integers(0, NUM_CLIENTS - 1), min_size=1, max_size=4,
                     unique=True)
        )
        epochs = sorted(
            (data.draw(st.integers(1, 3)) for _ in members), reverse=True
        )
        theta, batch_size = _step_args(data, rng, dim)
        server_state = _server_state(case, rng, dim)
        orders = None
        if batch_size is not None and batch_size < NUM_SAMPLES:
            orders = [
                np.stack([
                    rng.permutation(NUM_SAMPLES)
                    for count in epochs if count > epoch
                ])
                for epoch in range(epochs[0])
            ]
        config = LocalTrainingConfig(
            epochs=epochs[0], batch_size=batch_size, learning_rate=0.1
        )
        round_index = data.draw(st.integers(0, 3))

        expected = CASES[case][1](
            oracle_world.algorithm,
            _stacked_cohort(OracleBatchedCohort, oracle_world.batched, members,
                            datasets, epochs, orders),
            [oracle_world.clients[i] for i in members], theta, server_state,
            config, round_index,
        )
        messages = world.algorithm.batched_local_update(
            _stacked_cohort(BatchedCohort, world.batched, members, datasets,
                            epochs, orders),
            [world.clients[i] for i in members], theta, server_state, config,
            round_index,
        )
        _same(expected, messages)
        assert oracle_world.rows() == world.rows()
        for message in messages:
            for vector in message.payload.values():
                assert not any(np.shares_memory(vector, row) for row in world.stores())


# --------------------------------------------------------------------------- #
# Concurrent parts write disjoint live rows
# --------------------------------------------------------------------------- #
def _thread_config(max_workers):
    return preset_config(
        "systems", "blobs", non_iid=True, seed=4, codec=None, dropout=0.0,
        executor="thread",
    ).with_overrides(
        num_clients=8, n_train=320, n_test=120, num_rounds=3,
        max_workers=max_workers, network=None,
    )


@pytest.mark.parametrize("name", ["fedadmm", "scaffold"])
def test_thread_pool_size_does_not_move_in_place_updates(name):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        one, four = (
            run_single(
                _thread_config(workers), AlgorithmSpec(name), stop_at_target=False
            )
            for workers in (1, 4)
        )
    finally:
        sys.setswitchinterval(interval)
    assert one.final_params.tobytes() == four.final_params.tobytes()
    assert [r.train_loss for r in one.history.records] == [
        r.train_loss for r in four.history.records
    ]
