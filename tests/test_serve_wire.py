"""The served round waits for nothing but compute — pinned without a clock.

Each wait that was taken out of the served round gets a regression test
that fails if it comes back, and none of them measures a latency:

* **one-segment replies** — every accepted connection has ``TCP_NODELAY``
  and a reply is exactly one write (two small writes on a Nagle-enabled
  socket stall ~40 ms on the client's delayed ACK);
* **the blocking lease** — a puller parked on an empty board is released
  by ``publish``, ``close`` and ``abort`` and picks up a lease that expires
  while it waits; over a whole served run only the final ``done`` replies
  are empty (the count that fails if sleep-polling returns);
* **θ once per worker per round, client state only on a miss** — a worker
  lists the digests of the arrays it holds in its lease, so only its first
  task of a round carries θ, and a client's variables cross only when the
  lessee lacks them (with one worker: once a run, the initial row every
  untrained client shares); the board leases a worker the tasks whose
  variables it holds first, keeps a trained client's task for the live
  worker that holds its row (so each worker is sent client state once a
  run) and names the held digests nothing needs any more (the counts of
  such replies are pinned, and with one worker the download bytes
  exactly);
* **a stopped server is freed by reference counting** — no ``gc.collect()``;
* **the checkpoint is binary** — the result JSON of a served run carries no
  per-client number list, and a sidecar from another round is refused.

Timeouts below are generous upper bounds that only turn a hang into a
failure; nothing asserts that something took *at least* some time.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
import weakref

import numpy as np
import pytest

from repro.algorithms.base import LocalTrainingConfig
from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.federated.client import ClientState
from repro.serve import protocol, server as serve_server
from repro.serve.server import FederationServer, TaskBoard, _Aborted, _Ticket
from repro.serve.worker import ServerClient, run_worker
from repro.systems.executor import LocalUpdateTask

from test_serve_digests import joining, threaded_run
from test_serve_e2e import assert_bit_identical, reference_run, serve_run

ROUNDS = 3
WORKERS = 2
#: Upper bound for anything that should happen "at once".
SOON = 10.0
#: A wait no test could sit out: a puller that is not woken fails the test.
FOREVER = 3600.0


def served_run(rounds=ROUNDS, num_workers=WORKERS, **server_kwargs):
    """One served fedadmm run on worker processes; returns the stopped server."""
    server, _ = serve_run(
        preset_config("serve"),
        AlgorithmSpec("fedadmm"),
        rounds=rounds,
        num_workers=num_workers,
        **server_kwargs,
    )
    return server


# --------------------------------------------------------------------------- #
# (a) Replies leave in one segment
# --------------------------------------------------------------------------- #
class _CountingWriter:
    """``wfile`` stand-in that records the size of every write."""

    def __init__(self, raw, writes):
        self._raw, self._writes = raw, writes

    def write(self, data):
        self._writes.append(len(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


def test_replies_are_one_write_on_a_nodelay_connection(monkeypatch):
    nodelay: list[int] = []
    writes: list[int] = []
    original_setup = serve_server._Handler.setup

    def observed_setup(handler):
        original_setup(handler)
        nodelay.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        handler.wfile = _CountingWriter(handler.wfile, writes)

    monkeypatch.setattr(serve_server._Handler, "setup", observed_setup)
    server = FederationServer(preset_config("serve"), AlgorithmSpec("fedavg"), num_rounds=1)
    server.start()
    client = ServerClient(server.url)
    try:
        handshake = json.dumps({"protocol_version": protocol.PROTOCOL_VERSION}).encode()
        replies = [
            client.post("/v1/handshake", handshake),  # JSON body
            client.post("/v1/task", b""),  # binary task frame
            client.post("/v1/submit", b"garbage bytes"),  # coded error reply
            client.post("/v1/nowhere", b""),  # 404
        ]
    finally:
        client.close()
        server.stop()

    assert [status for status, _, _ in replies] == [200, 200, 400, 404]
    assert nodelay and all(nodelay)  # one keep-alive connection, NODELAY set
    # One write per reply, and it carried the whole body (headers included).
    assert len(writes) == len(replies)
    for written, (_, _, body) in zip(writes, replies):
        assert written > len(body)


# --------------------------------------------------------------------------- #
# (b) The blocking lease
# --------------------------------------------------------------------------- #
class _ParkingCondition(threading.Condition):
    """A condition that says when a thread is about to park on it.

    ``parked`` is set with the lock held, just before ``wait`` releases it,
    so whoever then takes the lock finds the waiter already registered.
    """

    def __init__(self):
        super().__init__()
        self.parked = threading.Event()

    def wait(self, timeout=None):
        self.parked.set()
        return super().wait(timeout)


def _ticket(task_id="r0-c0-1", client_index=0, variables=None):
    task = LocalUpdateTask(
        client_index=client_index,
        client=ClientState(client_id=client_index, dataset=None, variables=variables),
        global_params=np.zeros(1),
        server_state={},
        config=LocalTrainingConfig(epochs=1, batch_size=None, learning_rate=0.1),
        round_index=0,
        rng=0,
    )
    return _Ticket(task_id=task_id, task=task)


def _parked_puller(board, wait=FOREVER):
    """Start ``board.pull(wait)`` on a thread; return once it is parked."""
    board._cond = condition = _ParkingCondition()
    pulled: list = []
    thread = threading.Thread(
        target=lambda: pulled.append(board.pull(wait=wait)), daemon=True
    )
    thread.start()
    assert condition.parked.wait(SOON), "puller never reached the wait"
    return thread, pulled


def _released(thread, pulled):
    thread.join(timeout=SOON)
    assert not thread.is_alive(), "puller is still parked"
    return pulled[0]


@pytest.mark.parametrize("lease_s", [float("nan"), float("inf"), 0.0, -1.0])
def test_a_lease_that_would_never_expire_or_is_already_over_is_refused(lease_s):
    # ``lease_s <= 0`` is false for NaN, and an infinite lease is never
    # reclaimed: a dead worker's task would stall its round forever.
    with pytest.raises(ConfigurationError, match="lease_s must be positive and finite"):
        TaskBoard(lease_s=lease_s)


def test_a_worker_refuses_a_negative_poll_interval_before_it_connects():
    with pytest.raises(ConfigurationError, match="poll_interval must be non-negative"):
        run_worker("http://127.0.0.1:1", poll_interval=-0.5)


def test_pull_returns_at_once_when_a_ticket_is_pending():
    board = TaskBoard(lease_s=FOREVER)
    board.publish([_ticket()])
    pulled: list = []
    thread = threading.Thread(
        target=lambda: pulled.append(board.pull(wait=FOREVER)), daemon=True
    )
    thread.start()
    assert _released(thread, pulled).task_id == "r0-c0-1"


def test_pull_without_wait_does_not_park():
    assert TaskBoard().pull() is None


def test_parked_puller_is_released_by_publish():
    board = TaskBoard(lease_s=FOREVER)
    thread, pulled = _parked_puller(board)
    board.publish([_ticket()])
    ticket = _released(thread, pulled)
    assert ticket.task_id == "r0-c0-1" and ticket.state == "leased"


def test_parked_puller_is_released_by_close():
    board = TaskBoard(lease_s=FOREVER)
    thread, pulled = _parked_puller(board)
    board.close()
    assert _released(thread, pulled) is None
    # A closed board never parks again: late askers learn "done" at once.
    assert board.pull(wait=FOREVER) is None


def test_parked_puller_is_released_by_abort():
    board = TaskBoard(lease_s=FOREVER)
    thread, pulled = _parked_puller(board)
    board.abort()
    assert _released(thread, pulled) is None
    with pytest.raises(_Aborted):
        board.wait([])


def test_lease_expiring_under_a_parked_puller_is_handed_to_it():
    board = TaskBoard(lease_s=0.2)
    board.publish([_ticket()])
    assert board.pull().state == "leased"  # a worker that then goes silent
    thread, pulled = _parked_puller(board)
    ticket = _released(thread, pulled)
    assert ticket.task_id == "r0-c0-1"
    assert board.reclaimed == 1


def test_pull_leases_the_task_whose_variables_the_puller_holds_first(monkeypatch):
    board = TaskBoard(lease_s=FOREVER)
    tickets = [
        _ticket(f"r0-c{index}-{index}", index, {"w": np.full(3, float(index))})
        for index in range(4)
    ]
    rows = {index: {"w": protocol.blob_digest(np.full(3, float(index)))} for index in range(4)}
    # Merges wrote the rows of clients 1 and 2: the board knows their digests.
    board.digests.update({index: rows[index] for index in (1, 2)})
    board.publish(tickets)
    assert [ticket.digests["var.w"] for ticket in tickets] == [
        None,
        rows[1]["w"],
        rows[2]["w"],
        None,
    ]
    held = {rows[2]["w"]}
    stale = {protocol.blob_digest(np.zeros(3))}
    # Client 3's digest is right, but no merge wrote its row: the board
    # does not know it, so holding it is a miss.
    unknown = {rows[3]["w"]}

    def never(array):
        raise AssertionError("leasing hashed an array")

    monkeypatch.setattr(protocol, "blob_digest", never)
    assert board.pull(held=held) is tickets[2]
    # Held with another digest (stale), or not pending: the head, at once.
    assert board.pull(held=stale) is tickets[0]
    assert board.pull(held=unknown) is tickets[1]
    assert board.pull() is tickets[3]
    assert board.pull(held=held) is None


def test_stale_digests_name_no_pending_model_and_no_row():
    """What a worker may forget: neither the model of a task still to be
    done nor any client's row — the row an accepted submit's variables
    replace included, before its round ends."""
    board = TaskBoard(lease_s=FOREVER)
    tickets = [_ticket(f"r0-c{index}-{index}", index, {"w": np.zeros(3)}) for index in (0, 1)]
    for ticket in tickets:
        ticket.digests["params"] = "model-1"
    board.digests.update({0: {"w": "row-0"}, 1: {"w": "row-1"}})
    board.publish(tickets)
    held = {"model-0", "model-1", "row-0", "row-1", "row-0-next", "unknown"}
    assert board.stale(held) == ["model-0", "row-0-next", "unknown"]

    board.pull()
    assert board.resolve("r0-c0-0", None, {"w": "row-0-next"}) == "ok"
    assert board.digests[0] == {"w": "row-0-next"}
    assert board.stale(held) == ["model-0", "row-0", "unknown"]
    board.pull()
    board.resolve("r0-c1-1", None, {"w": "row-1-next"})
    # Every task is done: its model is no longer current.
    assert board.stale(held) == ["model-0", "model-1", "row-0", "row-1", "unknown"]


def test_the_shared_initial_row_stays_live_until_every_client_is_trained():
    """Untrained clients share one row (w = θ⁰, y = 0), so one pair of
    digests names all of them: a worker may forget it only once the last
    untrained client's submit is accepted."""
    board = TaskBoard(lease_s=FOREVER)
    row = {"w": np.zeros(3), "y": np.zeros(3)}
    tickets = [_ticket(f"r0-c{index}-{index}", index, row) for index in (0, 1)]
    board.digests.update({index: {"w": "theta-0", "y": "zeros"} for index in (0, 1)})
    board.publish(tickets)
    held = {"theta-0", "zeros"}
    board.pull()
    board.resolve("r0-c0-0", None, {"w": "w-0", "y": "y-0"})
    assert board.stale(held) == []
    board.pull()
    board.resolve("r0-c1-1", None, {"w": "w-1", "y": "y-1"})
    assert board.stale(held) == ["theta-0", "zeros"]


# --------------------------------------------------------------------------- #
# (b') Affinity: a trained row's task waits for the live worker that holds it
# --------------------------------------------------------------------------- #
def _filed(board, index, row, held=frozenset()):
    """File ``row`` (key → digest) as client ``index``'s, as the accepted
    submit of a finished round does; ``held`` is the lessee's lease."""
    board.publish([_ticket(f"r0-c{index}-filed", index, {"w": np.zeros(3)})])
    ticket = board.pull(held=held)
    assert ticket.task_id == f"r0-c{index}-filed"
    assert board.resolve(ticket.task_id, None, row) == "ok"
    board.wait([ticket.task_id])


@pytest.fixture
def live_holders(monkeypatch):
    """Holders that never lapse: every confirmed row stays reserved."""
    monkeypatch.setattr(serve_server, "RESERVE_S", FOREVER)


def test_a_row_a_lease_listed_is_not_leased_to_another_puller_which_parks(live_holders):
    board = TaskBoard(lease_s=FOREVER)
    _filed(board, 0, {"w": "w-0"})
    assert board.pull(held={"w-0", "theta"}) is None  # the holder's lease lists it
    reserved = _ticket("r1-c0-1", 0, {"w": np.ones(3)})
    board.publish([reserved])
    assert board.pull() is None and board.pull(held={"theta"}) is None
    thread, pulled = _parked_puller(board)  # parks with a task pending
    assert board.pending == 1
    assert board.pull(held={"w-0"}) is reserved
    # Publish and resolve wake the parked puller; it takes what it may.
    board._cond.parked.clear()
    assert board.resolve("r1-c0-1", None, {"w": "w-0-next"}) == "ok"
    assert board._cond.parked.wait(SOON), "resolve did not wake the puller"
    assert thread.is_alive()
    free = _ticket("r1-c1-2", 1, {"w": np.ones(3)})
    board.publish([free])
    assert _released(thread, pulled) is free


def test_a_holder_that_leaves_between_tasks_frees_its_rows_after_reserve_s():
    """The default 30 s lease is not the clock: a holder that stops asking
    frees its rows ``RESERVE_S`` after its last lease."""
    board = TaskBoard()
    _filed(board, 0, {"w": "w-0"})
    assert board.pull(held={"w-0"}) is None  # then the holder goes silent
    reserved = _ticket("r1-c0-1", 0, {"w": np.ones(3)})
    board.publish([reserved])
    asked = time.monotonic()
    assert board.pull(wait=SOON) is reserved
    assert time.monotonic() - asked < serve_server.RESERVE_S + 1.0
    assert board.reclaimed == 0


def test_a_busy_holder_keeps_its_rows_until_its_submit_and_reserve_s_after(monkeypatch):
    monkeypatch.setattr(serve_server, "RESERVE_S", 0.2)
    board = TaskBoard(lease_s=FOREVER)
    _filed(board, 0, {"w": "w-0"})
    board.publish([_ticket("r1-c1-1", 1, {"w": np.ones(3)})])
    busy = board.pull(held={"w-0"})  # lists row 0 and takes client 1's task
    reserved = _ticket("r1-c0-2", 0, {"w": np.ones(3)})
    board.publish([reserved])
    time.sleep(0.3)  # past RESERVE_S since the lease, but the task is out
    assert board.pull() is None
    assert board.resolve(busy.task_id, None, {"w": "w-1"}) == "ok"
    assert board.pull() is None  # the submit confirmed row 0 again
    assert board.pull(wait=SOON) is reserved


def test_rows_only_the_naming_pass_named_are_free_and_a_filed_row_lapses(monkeypatch):
    """The initial row the naming pass named reserves nothing though a lease
    lists it.  A row an accepted submit wrote is reserved from its filing,
    and a worker that lacks it (a submitter whose reply was lost) takes its
    client's task once ``RESERVE_S`` passes with no lease listing it."""
    monkeypatch.setattr(serve_server, "RESERVE_S", 0.2)
    board = TaskBoard(lease_s=FOREVER)
    board.digests[0] = {"w": "theta-0"}
    _filed(board, 1, {"w": "w-1"})
    assert board.pull(held={"theta-0"}) is None
    tickets = [_ticket(f"r1-c{index}-{index}", index, {"w": np.ones(3)}) for index in (0, 1)]
    board.publish(tickets)
    assert board.pull() is tickets[0]
    assert board.pull(wait=SOON) is tickets[1]


def test_a_filed_row_waits_for_the_submitters_next_lease(live_holders):
    """A round's last submit is filed while another worker is parked: that
    client's next task waits for the submitter's lease, which lists the
    row — not for the parked puller, nor for a lease that lands between."""
    board = TaskBoard(lease_s=FOREVER)
    board.publish([_ticket("r0-c0-0", 0, {"w": np.zeros(3)})])
    submitted = board.pull()
    thread, pulled = _parked_puller(board)
    assert board.resolve(submitted.task_id, None, {"w": "w-0"}) == "ok"
    board.wait([submitted.task_id])
    board._cond.parked.clear()
    following = _ticket("r1-c0-1", 0, {"w": np.ones(3)})
    board.publish([following])
    assert board._cond.parked.wait(SOON), "publish did not wake the puller"
    assert thread.is_alive()  # it woke and left the task
    assert board.pull() is None
    assert board.pull(held={"w-0"}) is following
    board.close()
    assert _released(thread, pulled) is None


def test_the_holder_record_keeps_one_entry_per_trained_client(live_holders):
    board = TaskBoard(lease_s=FOREVER)
    _filed(board, 0, {"w": "w-0"})
    board.pull(held={"w-0"})
    _filed(board, 0, {"w": "w-0-next"}, held={"w-0"})
    _filed(board, 1, {"w": "w-1"})
    assert sorted(board._rows) == [0, 1]
    # A lease listing the row client 0 had before does not confirm its new one.
    confirmed = board._rows[0]
    board.pull(held={"w-0"})
    assert board._rows[0] == confirmed


def test_a_holder_that_stops_between_rounds_stalls_no_round_for_long():
    """A worker stopped by ``max_tasks`` leaves while it holds rows a later
    round samples; under the default 30 s lease the other worker takes
    those tasks ``RESERVE_S`` after the leaver's last submit."""
    config = preset_config("serve", client_fraction=0.5)
    spec = AlgorithmSpec("fedadmm")
    server = FederationServer(config, spec, num_rounds=ROUNDS + 1)
    server.start()
    delay = joining(WORKERS)
    threads = [
        threading.Thread(
            target=run_worker,
            kwargs=dict(url=server.url, max_tasks=tasks, delay_fn=delay),
            daemon=True,
        )
        for tasks in (2, None)
    ]
    for thread in threads:
        thread.start()
    try:
        result = server.wait(timeout=120)
    finally:
        server.stop()
    for thread in threads:
        thread.join(timeout=SOON)
    assert_bit_identical(result, reference_run(config, spec, rounds=ROUNDS + 1))
    counters = server.status_snapshot()["counters"]
    assert server.board.reclaimed == 0
    # Rows the leaver trained crossed to the other worker.
    assert counters["serve.client_state_frames"] > WORKERS
    assert max(server.round_latencies) < serve_server.RESERVE_S + 2.0


@pytest.mark.parametrize("workers", [WORKERS, 4])
def test_each_worker_is_sent_client_state_once_a_run(workers):
    """Each worker's first frame hands it the initial row every untrained
    client shares; every later task of a client goes to the worker that
    trained it, so no trained row crosses: one client-state frame per
    worker, whatever the seed."""
    # Half the clients a round: a worker often holds none of a round's rows.
    config = preset_config("serve", client_fraction=0.5)
    spec = AlgorithmSpec("fedadmm")
    server, result = threaded_run(config, spec, workers=workers, delay_fn=joining(workers))
    assert_bit_identical(result, reference_run(config, spec))
    counters = server.status_snapshot()["counters"]
    assert server.board.reclaimed == 0 and server.board.duplicates == 0
    assert counters["serve.client_state_frames"] == workers
    assert counters["serve.requests.submit"] == ROUNDS * server.config.num_clients // 2


# --------------------------------------------------------------------------- #
# (c) A whole served run: no idle polling, waits visible, checkpoint binary
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("serve-wire-store")
    return served_run(store_dir=str(store_dir)), store_dir


def test_only_the_final_done_replies_are_empty(finished_run):
    server, _ = finished_run
    counters = server.metrics.snapshot()["counters"]
    # No duplicate was submitted, so every executed task is one submit.
    assert server.board.reclaimed == 0 and server.board.duplicates == 0
    executed = counters["serve.requests.submit"]
    assert executed > 0
    # Every task request is answered with a task except each worker's last
    # one ("done").  Sleep-polling an empty board would add one per poll.
    assert counters["serve.requests.task"] - executed <= WORKERS
    assert counters["serve.empty_task_replies"] <= WORKERS


def _blob_bytes(server):
    """Bytes a task frame spends on (model, client variables) blobs."""
    client = server.simulation.clients[0]
    state = server.simulation.state.algorithm_state.values()
    model = 8 * (server.model_dim + sum(np.size(value) for value in state))
    variables = 8 * sum(np.size(value) for value in client.variables.values())
    return model, variables


def test_the_model_crosses_the_wire_once_per_worker_per_round(finished_run):
    server, _ = finished_run
    counters = server.status_snapshot()["counters"]
    # Each round's θ reaches each worker that leases a task of it once.
    assert ROUNDS <= counters["serve.model_frames"] <= WORKERS * ROUNDS
    # A client's variables cross only to a worker that lacks them.
    tasks = counters["serve.requests.submit"]
    assert counters["serve.client_state_frames"] <= tasks
    # Beyond those blobs a reply is its header: well under a kilobyte.
    model, variables = _blob_bytes(server)
    assert counters["serve.download_payload_bytes"] < (
        counters["serve.model_frames"] * model
        + counters["serve.client_state_frames"] * variables
        + tasks * 1024
    )


def _client_state_crosses_once(monkeypatch, algorithm):
    """One served run on one worker process, bit-identical to the thread
    executor, every task reply recorded as the server encodes it: the first
    reply alone carries client state, the first of each round alone θ, and
    the bytes counter is the replies' exact sum."""
    encode = protocol.encode_task
    replies = []

    def recorded(task_id, task, digests=None, held=frozenset(), drop=()):
        frame = encode(task_id, task, digests, held, drop)
        carried = [
            name
            for name in protocol.task_arrays(task)
            if protocol.carries((digests or {}).get(name), held)
        ]
        model = "params" in carried
        variables = any(name.startswith("var.") for name in carried)
        replies.append((task.round_index, model, variables, len(frame)))
        return frame

    monkeypatch.setattr(protocol, "encode_task", recorded)
    config, spec = preset_config("serve"), AlgorithmSpec(algorithm)
    server, result = serve_run(config, spec, num_workers=1)
    assert_bit_identical(result, reference_run(config, spec))
    counters = server.status_snapshot()["counters"]

    assert len(replies) == counters["serve.requests.submit"] > 0
    rounds = set()
    for index, (round_index, model, variables, _) in enumerate(replies):
        assert model == (round_index not in rounds)
        assert variables == (index == 0)
        rounds.add(round_index)
    assert counters["serve.model_frames"] == ROUNDS
    assert counters["serve.client_state_frames"] == 1
    assert counters["serve.download_payload_bytes"] == sum(r[-1] for r in replies)


def test_one_worker_is_sent_each_client_state_once_and_the_bytes_are_pinned(
    monkeypatch,
):
    """With one worker the download is a function of the seed alone.

    The server names every client's row from the start, so the first task's
    frame hands the worker the initial row (w = θ⁰, y = 0) every untrained
    client shares, and each row the worker trains it holds from its own
    submit: client state crosses once a run, and each round's θ once.
    """
    _client_state_crosses_once(monkeypatch, "fedadmm")


@pytest.mark.parametrize("algorithm", ["fedpd", "scaffold"])
def test_one_worker_is_sent_client_state_once_per_run(monkeypatch, algorithm):
    """FedPD keeps FedADMM's (w, y), SCAFFOLD a control variate that starts
    at zero like its server control: the same rule holds."""
    _client_state_crosses_once(monkeypatch, algorithm)


def test_status_reports_the_waits(finished_run):
    server, _ = finished_run
    counters = server.status_snapshot()["counters"]
    metrics = server.metrics.snapshot()
    assert counters["serve.empty_task_replies"] <= WORKERS
    assert (
        counters["serve.lease_wait_seconds.count"]
        == metrics["counters"]["serve.requests.task"]
    )
    assert (
        counters["serve.lease_wait_seconds.sum"]
        == metrics["histograms"]["serve.lease_wait_seconds"]["sum"]
    )
    json.dumps(counters)  # /v1/status must stay JSON-serialisable


def test_stopped_server_keeps_its_results_readable(finished_run):
    server, _ = finished_run
    assert server.result.rounds_run == ROUNDS == len(server.round_latencies)
    assert server.simulation.state.rounds_run == ROUNDS
    assert server.board.pending == 0
    server.stop()  # idempotent


def test_result_json_holds_no_per_client_number_lists(finished_run):
    server, store_dir = finished_run
    key = server.store.key_for(server.run_spec)
    payload = json.loads((store_dir / "results" / f"{key}.json").read_text())
    assert "serve_checkpoint" not in payload["metadata"]
    assert "serve_checkpoint" not in server.result.metadata
    model_dim = server.model_dim

    def number_lists(node):
        if isinstance(node, dict):
            for value in node.values():
                yield from number_lists(value)
        elif isinstance(node, list):
            if len(node) >= model_dim and all(
                isinstance(item, (int, float)) for item in node
            ):
                yield node
            for item in node:
                yield from number_lists(item)

    # The only model-sized list in the file is final_params itself.
    assert list(number_lists(payload)) == [payload["final_params"]]

    # Client variables are one stacked (N, *shape) array per name, row i
    # for client i, beside the mask of the rows some client has set.
    arrays = server.store.load_arrays(key)
    assert int(arrays["rounds_run"]) == ROUNDS
    clients = server.simulation.clients
    for name in ("w", "y"):
        stacked, has = arrays[f"var.{name}"], arrays[f"has.{name}"]
        assert stacked.dtype == np.float64
        assert stacked.shape == (len(clients), model_dim)
        assert has.tolist() == [client.has(name) for client in clients]
    for row, client in enumerate(clients):
        for name, value in client.variables.items():
            assert arrays[f"var.{name}"][row].tobytes() == np.asarray(value).tobytes()


def test_checkpoint_from_another_round_is_refused(finished_run, tmp_path):
    import shutil

    server, store_dir = finished_run
    copy = tmp_path / "store"
    shutil.copytree(store_dir, copy)
    key = server.store.key_for(server.run_spec)
    sidecar = copy / "results" / f"{key}.npz"
    with np.load(sidecar) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["rounds_run"] = np.asarray(ROUNDS - 1)  # a crash between the renames
    np.savez(sidecar, **arrays)
    with pytest.raises(ConfigurationError, match="from round 2"):
        FederationServer(
            preset_config("serve"),
            AlgorithmSpec("fedadmm"),
            num_rounds=ROUNDS + 1,
            store_dir=str(copy),
            resume=True,
        )


# --------------------------------------------------------------------------- #
# (d) A stopped server is freed by reference counting
# --------------------------------------------------------------------------- #
def test_stopped_server_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        server = served_run(rounds=1, num_workers=1)
        freed = threading.Event()
        weakref.finalize(server.simulation, freed.set)
        del server
        # Handler threads of the workers' closed connections may take a
        # moment to unwind; nothing here runs the cycle collector.
        assert freed.wait(SOON), "a reference cycle keeps the simulation alive"
    finally:
        gc.enable()
