"""Fault paths for the networked runtime: kills, restarts, stragglers.

Three failure stories, each resolving to the same invariant — the final
history is bit-identical to the uninterrupted in-process simulation:

* a worker process killed mid-round leaves a leased task behind; the
  lease expires, the board reclaims it, and another worker recomputes the
  *identical* update from the task's integer seed — sent the client's
  variables when the dead worker held them and the new one does not;
* a server killed between rounds restarts from its
  :class:`ExperimentStore` checkpoint, fast-forwards its RNG streams, and
  continues byte-for-byte the run an uninterrupted server would have
  produced — also for a worker that outlived the first server and names
  the model and client variables it was sent by it;
* a real-time straggler under the async plan cannot perturb results:
  staleness weighting runs on the *simulated* clock carried in the round
  records, so the networked async history matches the in-process async
  simulation exactly, however slowly a worker returns its uploads.
"""

from __future__ import annotations

import multiprocessing
import socket
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


def _hang_in_round_one(task) -> float:
    return 3600.0 if task.round_index == 1 else 0.0


def _serve_until_killed(config, spec, port: int, rounds: int, store_dir: str) -> None:
    server = FederationServer(
        config, spec, port=port, num_rounds=rounds, store_dir=store_dir
    )
    server.start()
    server.wait(timeout=300)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _listening(port: int) -> bool:
    try:
        socket.create_connection(("127.0.0.1", port), timeout=1).close()
    except OSError:
        return False
    return True


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


def test_a_killed_worker_holding_client_state_is_absorbed_by_lease_reclaim():
    """The stuck worker's lease names variables it holds, so its frame left
    them out; the reclaimed task reaches a worker that holds nothing, and
    is sent them.  Same bits."""
    config = preset_config("serve", client_fraction=1.0)  # every client, every round
    spec = AlgorithmSpec("fedadmm")
    clients = config.num_clients
    server = FederationServer(config, spec, num_rounds=3, lease_s=0.5)
    server.start()
    # A worker that serves round 0 alone, then hangs on its first round-1 task.
    stuck = multiprocessing.Process(
        target=run_worker,
        kwargs=dict(url=server.url, delay_fn=_hang_in_round_one),
        daemon=True,
    )
    stuck.start()

    def counters():
        return server.metrics.snapshot()["counters"]

    try:
        # Round 1's θ went out: the stuck worker holds its first task.
        _wait_until(lambda: counters().get("serve.model_frames", 0) == 2)
        stuck.terminate()
        stuck.join(timeout=10)

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
    # Round 0's first frame sent the stuck worker the initial row every
    # client shares (w = θ⁰, y = 0), so no other round-0 frame carried
    # one; round 1 sent every client's row to the healthy worker, the
    # reclaimed task included, and round 2 none: so the stuck worker's
    # round-1 lease was a hit, and the reclaimed task was sent the
    # variables it left out.
    assert counters()["serve.client_state_frames"] == 1 + clients
    assert_bit_identical(networked, reference_run(config, spec, rounds=3))


def test_a_worker_holding_state_across_a_server_restart_keeps_the_history(tmp_path):
    """A worker outlives its server: killed mid-round, the server restarts
    from its checkpoint on the same port.  The worker's model and client
    variables from the first server name the restored state by content:
    the rows the first server accepted and the initial row of the clients
    it never trained."""
    config = preset_config("serve")
    spec = AlgorithmSpec("fedadmm")
    store_dir = str(tmp_path / "serve-store")
    port = _free_port()
    first = multiprocessing.Process(
        target=_serve_until_killed,
        args=(config, spec, port, 4, store_dir),
        daemon=True,
    )
    first.start()
    url = f"http://127.0.0.1:{port}"
    _wait_until(lambda: _listening(port))

    reached, release = threading.Event(), threading.Event()

    def pause_in_round_two(task):
        if task.round_index == 2 and not reached.is_set():
            reached.set()  # rounds 0 and 1 are checkpointed
            release.wait(60)
        return 0.0

    worker = threading.Thread(
        target=run_worker, kwargs=dict(url=url, delay_fn=pause_in_round_two), daemon=True
    )
    worker.start()
    second = None
    try:
        assert reached.wait(60)
        first.kill()
        first.join(timeout=10)
        second = FederationServer(
            config, spec, port=port, num_rounds=4, store_dir=store_dir, resume=True
        )
        assert second.resumed_from_round == 2
        second.start()
        release.set()
        networked = second.wait(timeout=120)
        worker.join(timeout=30)
        assert not worker.is_alive()
    finally:
        release.set()
        if second is not None:
            second.stop()
        if first.is_alive():  # pragma: no cover - cleanup only
            first.kill()

    assert_bit_identical(networked, reference_run(config, spec, rounds=4))
    counters = second.metrics.snapshot()["counters"]
    # The round-2 model the worker held from the first server was the
    # restored one: only round 3's θ crossed.  Its answer from the first
    # server never came, so that submit went to the second and was unknown.
    assert counters["serve.model_frames"] == 1
    assert counters["serve.errors.unknown_task"] == 1
    # No variables crossed: the worker holds each row the first server
    # accepted, and the initial row of every client it never trained.
    sim = build_simulation(config, spec)
    cohorts = [
        {int(c) for c in sim.sampler.sample(r, len(sim.clients), sim._sampling_rng)}
        for r in range(4)
    ]
    unseen = (cohorts[2] | cohorts[3]) - (cohorts[0] | cohorts[1])
    assert unseen  # rows the restored server named by the naming pass alone
    assert counters.get("serve.client_state_frames", 0) == 0


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
