"""Fault paths for the networked runtime: kills, restarts, stragglers.

Three failure stories, each resolving to the same invariant — the final
history is bit-identical to the uninterrupted in-process simulation:

* a worker process killed mid-round leaves a leased task behind; the
  lease expires, the board reclaims it, and another worker recomputes the
  *identical* update from the task's integer seed;
* a server killed between rounds restarts from its
  :class:`ExperimentStore` checkpoint, fast-forwards its RNG streams, and
  continues byte-for-byte the run an uninterrupted server would have
  produced;
* a real-time straggler under the async plan cannot perturb results:
  staleness weighting runs on the *simulated* clock carried in the round
  records, so the networked async history matches the in-process async
  simulation exactly, however slowly a worker returns its uploads.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.runner import build_simulation
from repro.serve.server import FederationServer
from repro.serve.worker import run_worker

from test_serve_e2e import assert_bit_identical, reference_run


def _stuck_worker(url: str) -> None:
    """A worker that pulls one task and then hangs forever mid-compute."""
    run_worker(url, max_tasks=1, delay_fn=lambda task: 3600.0)


def _wait_until(predicate, timeout: float = 30.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise TimeoutError("condition not reached in time")


def test_worker_killed_mid_round_is_absorbed_by_lease_reclaim():
    """Kill a worker holding a task; the round completes bit-identically."""
    config = preset_config("serve")
    spec = AlgorithmSpec("fedavg")
    server = FederationServer(config, spec, num_rounds=2, lease_s=0.5)
    server.start()
    stuck = multiprocessing.Process(
        target=_stuck_worker, args=(server.url,), daemon=True
    )
    stuck.start()
    try:
        # The stuck worker has pulled a task (the server counted the
        # download) and is now asleep holding its lease.  Kill it.
        _wait_until(
            lambda: server.metrics.snapshot()["counters"].get(
                "serve.download_payload_bytes", 0
            )
            > 0
        )
        stuck.terminate()
        stuck.join(timeout=10)

        # A healthy worker drains the round, including the reclaimed task.
        healthy = threading.Thread(
            target=run_worker,
            kwargs=dict(url=server.url, worker_id="healthy"),
            daemon=True,
        )
        healthy.start()
        networked = server.wait(timeout=120)
        healthy.join(timeout=30)
    finally:
        server.stop()
        if stuck.is_alive():  # pragma: no cover - cleanup only
            stuck.terminate()

    assert server.board.reclaimed >= 1
    reference = reference_run(config, spec, rounds=2)
    assert_bit_identical(networked, reference)


def test_server_restart_resumes_from_store(tmp_path):
    """Stop after 2 rounds, restart with resume=True, finish 4 — same bits."""
    config = preset_config("serve")
    spec = AlgorithmSpec("fedadmm")
    store_dir = str(tmp_path / "serve-store")

    first = FederationServer(
        config, spec, num_rounds=2, store_dir=store_dir
    )
    first.start()
    worker = threading.Thread(
        target=run_worker, kwargs=dict(url=first.url), daemon=True
    )
    worker.start()
    try:
        first.wait(timeout=120)
    finally:
        first.stop()
    worker.join(timeout=30)

    second = FederationServer(
        config, spec, num_rounds=4, store_dir=store_dir, resume=True
    )
    assert second.resumed_from_round == 2
    second.start()
    worker = threading.Thread(
        target=run_worker, kwargs=dict(url=second.url), daemon=True
    )
    worker.start()
    try:
        networked = second.wait(timeout=120)
    finally:
        second.stop()
    worker.join(timeout=30)

    reference = reference_run(config, spec, rounds=4)
    assert_bit_identical(networked, reference)


def test_resume_without_store_dir_is_refused():
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        FederationServer(
            preset_config("serve"), AlgorithmSpec("fedavg"), num_rounds=1, resume=True
        )


@pytest.mark.parametrize("mode", ["semisync", "async"])
def test_real_time_straggler_cannot_perturb_staleness_weighting(mode):
    """A slow worker changes nothing: staleness runs on the simulated clock.

    One worker sleeps on every task for client 0 — a real wall-clock
    straggler — while a fast worker serves the rest.  The async and
    semisync plans weight late/stale arrivals by the *simulated* systems
    clock, so the networked history (staleness columns included) must be
    bit-identical to the in-process plan run that tests/test_plans.py pins.
    """
    config = preset_config("serve", mode=mode)
    spec = AlgorithmSpec("fedavg")
    server = FederationServer(config, spec, num_rounds=3)
    server.start()

    def straggle(task):
        return 0.3 if task.client_index == 0 else 0.0

    workers = [
        threading.Thread(
            target=run_worker,
            kwargs=dict(url=server.url, delay_fn=straggle, worker_id="slow"),
            daemon=True,
        ),
        threading.Thread(
            target=run_worker,
            kwargs=dict(url=server.url, worker_id="fast"),
            daemon=True,
        ),
    ]
    for thread in workers:
        thread.start()
    try:
        networked = server.wait(timeout=120)
    finally:
        server.stop()
    for thread in workers:
        thread.join(timeout=30)

    # Semisync/async plans always derive labeled per-task seeds, so the
    # in-process reference uses the config's default executor unchanged.
    reference = build_simulation(config, spec).run(3, target_accuracy=None)
    assert_bit_identical(networked, reference)
    if mode == "async":
        assert any(
            record.max_staleness > 0 for record in networked.history.records
        )


def test_refused_submits_are_failures_not_completed_tasks():
    """A server that answers every submit with 400 gets a worker that stops.

    The refusals must not count as completed tasks (the parent returned
    ``max_tasks``), and must trip ``max_failures`` although every ``/v1/task``
    in between succeeds.
    """
    from repro.exceptions import ProtocolError

    server = FederationServer(
        preset_config("serve"), AlgorithmSpec("fedavg"), num_rounds=1, lease_s=0.2
    )

    def refuse(body):
        raise ProtocolError("refused by the test", code="malformed")

    server.handle_submit = refuse
    server.start()
    completed = []
    worker = threading.Thread(
        target=lambda: completed.append(
            run_worker(server.url, max_tasks=5, max_failures=3)
        ),
        daemon=True,
    )
    worker.start()
    try:
        worker.join(timeout=60)
        assert not worker.is_alive()
    finally:
        server.stop()
    assert completed == [0]
    counters = server.metrics.snapshot()["counters"]
    assert counters["serve.errors.malformed"] == 3
