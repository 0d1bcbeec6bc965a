"""The client-state arena: every client's persistent variables as rows of one store.

Contracts pinned here (stated once in ``docs/architecture.md``, "Client
state"): under any sequence of new handles, adoption, ``set``, ``get``,
``gather`` and ``scatter`` the stores behave as a dict of copies; a run
whose outcomes carry client copies merges their rows back bit for bit; a
lazy population holds one row per touched client; no upload aliases the
store; and ``get`` is a *live* row.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_model
from repro.algorithms import ALGORITHM_REGISTRY, build_algorithm
from repro.exceptions import ConfigurationError
from repro.federated.client import (
    ClientState,
    ClientStateStore,
    build_clients,
    gather,
    scatter,
)
from repro.federated.engine import FederatedSimulation
from repro.federated.plans import HierarchicalPlan
from repro.federated.population import ClientPopulation
from repro.federated.rounds import ClientWork
from repro.federated.sampler import UniformFractionSampler
from repro.systems import executor as executor_module
from repro.systems.executor import SerialExecutor, build_executor

DIM = 3
KEYS = ("w", "y")


# --------------------------------------------------------------------------- #
# The store is a dict of copies
# --------------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_store_behaves_as_a_dict_of_copies(data):
    clients: list[ClientState] = []
    reference: list[dict[str, np.ndarray]] = []
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(
            st.sampled_from(["touch", "adopt", "set", "get", "gather", "scatter"])
        )
        if op == "touch" or not clients:
            # First touch: a standalone handle on a one-row store of its own.
            clients.append(ClientState(len(clients), None))
            reference.append({})
            continue
        subset = data.draw(
            st.lists(st.integers(0, len(clients) - 1), min_size=1, unique=True)
        )
        chosen = [clients[i] for i in subset]
        if op == "adopt":
            # Some clients move onto a shared store, values kept; later
            # gathers and scatters mix shared and private stores.
            store = ClientStateStore.adopt(chosen)
            assert store.rows == len(chosen)
            assert all(client.store is store for client in chosen)
            continue
        key = data.draw(st.sampled_from(KEYS))
        if op == "set":
            value = rng.normal(size=DIM)
            chosen[0].set(key, value)
            reference[subset[0]][key] = value.copy()
        elif op == "scatter":
            stack = rng.normal(size=(len(subset), DIM))
            scatter(chosen, key, stack)
            for row, i in enumerate(subset):
                reference[i][key] = stack[row].copy()
        elif all(key in reference[i] for i in subset):
            if op == "get":
                for client, i in zip(chosen, subset):
                    assert np.array_equal(client.get(key), reference[i][key])
            else:
                stack = gather(chosen, key)
                assert np.array_equal(stack, [reference[i][key] for i in subset])
                if len(chosen) == 1:
                    # A cohort of one reads its live row, to update in place.
                    assert np.shares_memory(stack, chosen[0].get(key))
                else:
                    stack += 1.0  # a private stack: writing it touches no row
        else:
            with pytest.raises(ConfigurationError, match=repr(key)):
                if op == "get":
                    for client in chosen:
                        client.get(key)
                else:
                    gather(chosen, key)
    for client, expected in zip(clients, reference):
        assert list(client.variables) == list(expected)  # first-set order
        for key, value in expected.items():
            assert client.has(key)
            assert np.array_equal(client.variables[key], value)


def test_a_variable_keeps_its_row_shape():
    client = ClientState(0, None, {"w": np.zeros(3)})
    with pytest.raises(ConfigurationError, match="shape"):
        client.set("w", np.zeros(4))
    with pytest.raises(ConfigurationError, match="2 rows onto 1"):
        scatter([client], "w", np.zeros((2, 3)))


def test_racing_parts_lose_no_row():
    """Dealt parts race on a name's first write and scatter disjoint rows."""
    parts_count, rows = 8, 64  # more parts than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            clients = [ClientState(i, None) for i in range(rows)]
            ClientStateStore.adopt(clients)
            barrier = threading.Barrier(parts_count)

            def part(members):
                barrier.wait(timeout=10)
                for client in members:
                    client.set("w", np.full(DIM, float(client.client_id)))
                ids = np.array([float(client.client_id) for client in members])
                scatter(members, "y", -np.repeat(ids[:, None], DIM, axis=1))

            with ThreadPoolExecutor(max_workers=parts_count) as pool:
                futures = [
                    pool.submit(part, clients[offset::parts_count])
                    for offset in range(parts_count)
                ]
                for future in futures:
                    future.result(timeout=10)
            expected = np.arange(rows, dtype=float)[:, None].repeat(DIM, axis=1)
            assert np.array_equal(gather(clients, "w"), expected)
            assert np.array_equal(gather(clients, "y"), -expected)
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------------------- #
# Copied clients merge back
# --------------------------------------------------------------------------- #
class IsolatedSerial(SerialExecutor):
    """The serial loop seeded per task, as the thread and served executors are."""

    isolated = True


class CopiedClientSerial(IsolatedSerial):
    """Each task trains a fresh copy of its client, as a served worker does.

    The outcomes carry the copies — the shape ``protocol.decode_submit``
    returns — so the engine must merge their rows back into its store.
    """

    def run_tasks(self, tasks, on_outcome=None):
        copies = [
            dataclasses.replace(
                task,
                client=ClientState(
                    client_id=task.client.client_id,
                    dataset=task.client.dataset,
                    variables={
                        key: row.copy() for key, row in task.client.variables.items()
                    },
                    rounds_participated=task.client.rounds_participated,
                    local_work_done=task.client.local_work_done,
                ),
            )
            for task in tasks
        ]
        return super().run_tasks(copies, on_outcome)


def _run(algorithm, executor, blobs_split, iid_partition):
    kwargs = {"rho": 0.3} if algorithm == "fedadmm" else {}
    clients = build_clients(blobs_split.train, iid_partition)
    sim = FederatedSimulation(
        algorithm=build_algorithm(algorithm, **kwargs),
        model=make_model(seed=0),
        clients=clients,
        test_dataset=blobs_split.test,
        sampler=UniformFractionSampler(0.5),
        batch_size=16,
        learning_rate=0.1,
        seed=3,
        executor=executor,
    )
    result = sim.run(num_rounds=3)
    rows = {
        client.client_id: {key: row.tobytes() for key, row in client.variables.items()}
        for client in clients
    }
    # Stateless algorithms keep no rows; their counters must merge back too.
    counters = {
        client.client_id: (client.rounds_participated, client.local_work_done)
        for client in clients
    }
    return result.history.records, result.final_params.tobytes(), rows, counters


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_REGISTRY))
def test_copied_client_run_is_bit_identical_to_serial(
    algorithm, blobs_split, iid_partition
):
    serial = _run(algorithm, IsolatedSerial(), blobs_split, iid_partition)
    copied = _run(algorithm, CopiedClientSerial(), blobs_split, iid_partition)
    assert copied == serial


# --------------------------------------------------------------------------- #
# Lazy populations
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 4])
def test_lazy_rows_match_a_list_population(
    workers, monkeypatch, iid_clients, blobs_split
):
    """One row per touched client; a lazy population trains exactly like a
    list, also when a cohort is dealt into parts on threads."""
    monkeypatch.setattr(executor_module, "MIN_PART_ELEMENTS", 1)
    templates = [client.dataset for client in iid_clients[:2]]
    population = ClientPopulation(400, templates)
    eager = [ClientState(i, templates[i % 2]) for i in range(400)]

    def run(clients):
        sim = FederatedSimulation(
            algorithm=build_algorithm("fedadmm", rho=0.3),
            model=make_model(seed=0),
            clients=clients,
            test_dataset=blobs_split.test,
            sampler=UniformFractionSampler(0.04),
            batch_size=16,
            learning_rate=0.1,
            seed=0,
            plan=HierarchicalPlan(num_shards=2),
            executor=build_executor("vectorized", max_workers=workers),
            eager_client_init=False,
        )
        return sim.run(num_rounds=3).final_params.tobytes()

    assert run(population) == run(eager)
    touched = population._cache.values()
    assert sum(client.store.rows for client in touched) == population.materialised > 0
    for index, client in enumerate(eager):
        lazy = population[index].variables
        assert list(lazy) == list(client.variables)
        for key, row in client.variables.items():
            assert np.array_equal(lazy[key], row)


# --------------------------------------------------------------------------- #
# Uploads never alias the store; get is a live row
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("executor", ["serial", "vectorized"])
@pytest.mark.parametrize("algorithm", ["fedadmm", "fedpd", "scaffold"])
def test_no_payload_shares_memory_with_a_store_array(
    algorithm, executor, iid_clients, blobs_split
):
    kwargs = {"rho": 0.3} if algorithm == "fedadmm" else {}
    sim = FederatedSimulation(
        algorithm=build_algorithm(algorithm, **kwargs),
        model=make_model(seed=0),
        clients=iid_clients,
        test_dataset=blobs_split.test,
        batch_size=16,
        learning_rate=0.1,
        executor=build_executor(executor),
    )
    pipeline = sim.pipeline
    for count in (1, 4):  # a one-client payload is its stack, not a copy
        work = [ClientWork(i, 2, 0, pipeline.training_rng) for i in range(count)]
        outcomes = pipeline.local_updates(
            sim.state.params, sim.state.algorithm_state, work
        )
        arrays = [row.base for client in iid_clients for row in client.variables.values()]
        assert arrays and all(array is not None for array in arrays)
        for outcome in outcomes:
            for vector in outcome.message.payload.values():
                assert not any(np.shares_memory(vector, array) for array in arrays)


def test_get_is_a_live_row_that_the_next_scatter_overwrites():
    """Keep a vector across a round with ``.copy()``: ``get`` is the row itself."""
    clients = [ClientState(i, None, {"w": np.full(DIM, float(i))}) for i in range(4)]
    ClientStateStore.adopt(clients)
    held, kept = clients[1].get("w"), clients[1].get("w").copy()
    scatter(clients, "w", np.arange(4.0 * DIM).reshape(4, DIM))
    assert np.array_equal(held, [3.0, 4.0, 5.0])  # the live row moved on
    assert np.array_equal(kept, [1.0, 1.0, 1.0])  # the copy did not


def test_a_round_overwrites_a_held_row(local_problem, training_config):
    """The same across an algorithm's rounds on one client."""
    algorithm = build_algorithm("fedadmm", rho=0.3)
    client = ClientState(client_id=0, dataset=local_problem.dataset)
    theta = local_problem.model.get_flat_params()
    algorithm.local_update(local_problem, client, theta, {}, training_config, rng=0)
    held, kept = client.get("y"), client.get("y").copy()
    algorithm.local_update(
        local_problem, client, theta, {}, training_config, round_index=1, rng=1
    )
    assert np.shares_memory(held, client.get("y"))  # the held vector is the row
    assert not np.array_equal(kept, client.get("y"))  # which the round moved on
