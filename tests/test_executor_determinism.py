"""Executor determinism: the run history must not depend on where tasks run.

**Asynchronous engine** — every dispatch receives an integer seed derived
from ``(engine seed, dispatch index, client id)``, so the serial and
thread-pool executors must produce *identical* ``TrainingHistory`` objects
for a fixed engine seed.

**Synchronous engine** — the isolated thread executor seeds every
(round, client) task on its own, so its history must not depend on the
pool size.  (The serial executor intentionally differs there: it consumes
the engine's sequential training RNG, the seed behaviour the golden
regression test pins; ``tests/test_regression_sync_golden.py`` pins both
histories.)
"""

from __future__ import annotations

import pytest

from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.runner import run_single

EXECUTORS = ("serial", "thread")


def history_fingerprint(result):
    """Everything observable about a run that must not depend on the executor."""
    return {
        "accuracies": [rec.test_accuracy for rec in result.history.records],
        "train_losses": [rec.train_loss for rec in result.history.records],
        "simulated_seconds": [rec.simulated_seconds for rec in result.history.records],
        "dropped": [rec.dropped_clients for rec in result.history.records],
        "staleness": [rec.mean_staleness for rec in result.history.records],
        "uploads": result.ledger.per_round_upload,
        "params_bytes": result.final_params.tobytes(),
    }


def tiny_async_cfg(executor: str):
    return preset_config("async", "blobs", non_iid=True, seed=4).with_overrides(
        num_clients=8,
        n_train=320,
        n_test=120,
        num_rounds=4,
        buffer_size=2,
        max_concurrency=4,
        executor=executor,
        max_workers=2,
    )


@pytest.mark.slow
def test_async_history_identical_across_all_executors():
    spec = AlgorithmSpec("fedadmm", {"rho": 0.3})
    fingerprints = {
        executor: history_fingerprint(
            run_single(tiny_async_cfg(executor), spec, stop_at_target=False)
        )
        for executor in EXECUTORS
    }
    assert fingerprints["thread"] == fingerprints["serial"], (
        "async run under --executor thread diverged from serial"
    )


def tiny_sync_cfg(max_workers: int):
    return preset_config(
        "systems", "blobs", non_iid=True, seed=4, codec=None, dropout=0.0,
        executor="thread",
    ).with_overrides(
        num_clients=8,
        n_train=320,
        n_test=120,
        num_rounds=3,
        max_workers=max_workers,
        network=None,
    )


def test_sync_history_identical_across_thread_worker_counts():
    spec = AlgorithmSpec("fedavg", {})
    one, three = (
        history_fingerprint(
            run_single(tiny_sync_cfg(workers), spec, stop_at_target=False)
        )
        for workers in (1, 3)
    )
    assert one == three


def test_async_task_seeds_are_unique_and_stable(iid_clients, blobs_split):
    """The per-dispatch seed stream: stable across calls, distinct across tasks."""
    from repro.algorithms import build_algorithm
    from repro.federated.engine import FederatedSimulation
    from repro.federated.plans import AsyncPlan
    from repro.systems.network import HomogeneousNetwork
    from conftest import make_model

    sim = FederatedSimulation(
        algorithm=build_algorithm("fedavg"),
        model=make_model(seed=0),
        clients=iid_clients,
        test_dataset=blobs_split.test,
        batch_size=16,
        seed=9,
        plan=AsyncPlan(),
        network=HomogeneousNetwork(),
    )

    def task_seed(seq, client):
        return sim.pipeline.seed_from_label(
            sim.plan.seed_label.format(round=0, seq=seq, client=client)
        )

    seeds = [task_seed(seq, client) for seq in range(5) for client in range(4)]
    assert len(set(seeds)) == len(seeds)
    assert seeds[0] == task_seed(0, 0)
