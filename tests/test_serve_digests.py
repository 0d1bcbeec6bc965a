"""The server is the only hasher, and a worker's cache stays bounded.

A worker holds every array its frames named and the variables of its
accepted submits so the server can name them instead of sending them
again.  The names are sha256 digests the server takes — of θ and the
server state once per executor call, of every client's row once when the
server is built, of a client's variables once per accepted submit, where
it decodes the submit, returned in the 200 reply; the worker files arrays
under them and never hashes.

* **Content, not trust, still decides** — for FedADMM, FedPD and SCAFFOLD
  submits of random shapes and values (−0.0 included), the digests in the
  reply are the :func:`~repro.serve.protocol.blob_digest` of each array of
  the row the round's merge writes, and the entry the board copies onto the
  client's next ticket; every row no submit wrote is named by its own
  bytes.
* **A duplicate names nothing** — its reply carries no digest, so the
  worker holds only what frames named, and a row it trained crosses again.
* **One hash per array per row at construction and per accepted submit, θ
  once per round** — over a whole served run, never on a worker, in
  ``decode_task`` or while the board leases.
* **The cache is bounded** — after each task frame a worker applies, its
  cache holds only the current model's arrays, the initial row every
  untrained client shares and at most one written row per client.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.runner import build_simulation
from repro.serve import protocol
from repro.serve.server import FederationServer, RemoteExecutor, TaskBoard
from repro.serve.worker import ServerClient, WorkerEnvironment, run_worker
from repro.systems.executor import execute_task

from test_serve_e2e import assert_bit_identical, reference_run

ROUNDS = 3
WORKERS = 2


def _config(hidden: int = 32, **overrides):
    return preset_config(
        "serve", model_kwargs={"input_dim": 32, "hidden_dims": (hidden,)}, **overrides
    )


@functools.lru_cache(maxsize=None)
def _environment(algorithm: str, hidden: int) -> WorkerEnvironment:
    return WorkerEnvironment(_config(hidden), {"name": algorithm})


def threaded_run(config, spec, rounds=ROUNDS, workers=WORKERS, **worker_kwargs):
    """A served run on in-process worker threads: (server, result).

    ``worker_kwargs`` go to every worker's :func:`run_worker`.
    """
    server = FederationServer(config, spec, num_rounds=rounds)
    server.start()
    threads = [
        threading.Thread(
            target=run_worker,
            kwargs=dict(url=server.url, worker_id=f"t{index}", **worker_kwargs),
            daemon=True,
        )
        for index in range(workers)
    ]
    for thread in threads:
        thread.start()
    try:
        result = server.wait(timeout=120)
    finally:
        server.stop()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return server, result


def joining(workers):
    """A ``delay_fn`` that holds each worker thread's first task until every
    one of ``workers`` has one, so all of them join the first round."""
    joined, first = threading.Barrier(workers), threading.local()

    def delay(task):
        if not getattr(first, "done", False):
            first.done = True
            joined.wait(timeout=60)
        return 0.0

    return delay


@given(
    algorithm=st.sampled_from(["fedadmm", "fedpd", "scaffold"]),
    hidden=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=15, deadline=None)
def test_the_reply_digest_names_the_row_the_merge_writes(algorithm, hidden, data):
    """Content, not trust, still decides: the server names what the merge
    writes, byte for byte, so a worker that files its submit under the
    reply's digest holds exactly the row a later frame leaves out."""
    env = _environment(algorithm, hidden)
    server = FederationServer(_config(hidden), AlgorithmSpec(algorithm), num_rounds=1)
    server.start()
    accepted = {}
    try:
        deadline = time.monotonic() + 60
        while not server.board.pending:  # the driver publishes the round
            assert time.monotonic() < deadline
            time.sleep(0.001)
        while server.board.pending:
            header, blobs = protocol.unpack_frame(server.handle_task())
            task_id, task = protocol.decode_task(header, blobs)
            task.client.dataset = env.clients[task.client_index].dataset
            outcome = execute_task(task, env.problems[task.client_index], env.algorithm)
            drawn = {}
            for key, value in outcome.client.variables.items():
                drawn[key] = data.draw(
                    arrays(np.float64, value.shape, elements=st.floats(-1e6, 1e6, width=64))
                )
                drawn[key].flat[0] = -0.0
            outcome.client.variables = drawn
            frame = protocol.encode_submit(task_id, outcome.message, outcome.client, env.codec)
            reply = server.handle_submit(frame)
            assert reply["status"] == "ok"
            accepted[task.client_index] = (reply["vars"], drawn)
        server.wait(timeout=60)
    finally:
        server.stop()

    assert accepted
    clients = server.simulation.clients
    for index, (digest, drawn) in accepted.items():
        row = clients[index].variables
        assert {key: value.tobytes() for key, value in row.items()} == {
            key: value.tobytes() for key, value in drawn.items()
        }
        assert digest == {key: protocol.blob_digest(value) for key, value in row.items()}
        assert server.board.digests[index] == digest
    # Every row no submit wrote is named by the naming pass, by its own bytes.
    assert server.board.digests == {
        index: {key: protocol.blob_digest(value) for key, value in client.variables.items()}
        for index, client in enumerate(clients)
    }
    assert server.metrics.counter("serve.vars_digests").value == len(clients) + len(accepted)


def test_a_duplicate_names_no_digest_and_the_worker_holds_nothing_new(monkeypatch):
    """Every submit is delivered twice and the worker sees the second reply:
    a duplicate (or, once its round is over, an unknown task).  Neither
    names a digest, so the worker holds only what its frames named — θ,
    the initial row, rows it was sent — and each task of a client it
    trained carries the row again; of the initial rows only the first
    frame's crosses."""
    post, encode_lease, decode = ServerClient.post, protocol.encode_lease, protocol.decode_task
    leases, replies, frames = [], [], []

    def twice(client, path, body):
        if path != "/v1/submit":
            return post(client, path, body)
        first, second = post(client, path, body), post(client, path, body)
        replies.append((json.loads(first[2]), json.loads(second[2])))
        return second

    def recorded(held):
        leases.append(set(held))
        return encode_lease(held)

    def applied(header, blobs, cache):
        task_id, task = decode(header, blobs, cache)
        frames.append((task.client_index, {digest for _, _, digest, _ in header["arrays"]}))
        return task_id, task

    monkeypatch.setattr(ServerClient, "post", twice)
    monkeypatch.setattr(protocol, "encode_lease", recorded)
    monkeypatch.setattr(protocol, "decode_task", applied)
    config, spec = _config(), AlgorithmSpec("fedadmm")
    server, networked = threaded_run(config, spec, workers=1)

    assert_bit_identical(networked, reference_run(config, spec))
    assert replies and all(first["status"] == "ok" and first["vars"] for first, _ in replies)
    assert all("vars" not in second for _, second in replies)
    assert {second.get("status", second.get("code")) for _, second in replies} <= {
        "duplicate",
        "unknown_task",
    }
    # One worker: lease k precedes frame k, and the last lease gets "done".
    # Each lease holds only digests the frames before it named.
    assert len(leases) == len(frames) + 1 == len(replies) + 1
    named = set()
    for held, (_, names) in zip(leases, frames + [(None, set())]):
        assert held <= named
        named |= names
    counters = server.metrics.snapshot()["counters"]
    # The first frame carries the initial row (w = θ⁰, y = 0), held from
    # then on for every untrained client; every later task of a trained
    # client carries its row, which the worker never held.
    served = {client_index for client_index, _ in frames}
    assert counters["serve.client_state_frames"] == 1 + len(replies) - len(served)
    assert counters["serve.vars_digests"] == len(server.simulation.clients) + len(replies)


@pytest.mark.parametrize("workers", [WORKERS, 4])
def test_the_server_hashes_once_per_accepted_submit_and_nowhere_else(monkeypatch, workers):
    """On a short switch interval, and with four workers on two cores, a lost
    or misplaced update of the board's digest map would leave an entry that
    is not its row's digest.  θ is hashed once per round and, when the
    server is built, the one initial row every client shares once, by the
    server."""
    digest, calls, misplaced = protocol.blob_digest, [], []
    forbidden = {TaskBoard.pull.__code__, run_worker.__code__, protocol.decode_task.__code__}
    hashers = {
        FederationServer.handle_submit.__code__: "submit",
        FederationServer._name_rows.__code__: "row",
        RemoteExecutor._run_batch.__code__: "model",
    }

    def counted(array):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in hashers:
            if frame.f_code in forbidden:
                misplaced.append(frame.f_code.co_name)
                raise AssertionError(f"blob_digest called inside {frame.f_code.co_name}")
            frame = frame.f_back
        calls.append(None if frame is None else hashers[frame.f_code])
        return digest(array)

    monkeypatch.setattr(protocol, "blob_digest", counted)
    # Every client every round: a worker is leased clients it holds.
    config, spec = _config(client_fraction=1.0), AlgorithmSpec("fedadmm")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        server, networked = threaded_run(config, spec, workers=workers)
    finally:
        sys.setswitchinterval(interval)

    assert_bit_identical(networked, reference_run(config, spec))
    counters = server.status_snapshot()["counters"]
    assert not misplaced
    assert server.board.duplicates == 0 and server.board.reclaimed == 0
    assert not [name for name in counters if name.startswith("serve.errors.")]
    submits = counters["serve.requests.submit"]
    clients = server.simulation.clients
    assert submits + len(clients) == counters["serve.vars_digests"]
    # w and y of the shared initial row once at construction and once per
    # accepted submit, θ once per round, nothing else.
    assert sorted(calls, key=str) == (
        ["model"] * ROUNDS + ["row"] * 2 + ["submit"] * int(2 * submits)
    )
    assert server.board.digests == {
        index: {key: digest(value) for key, value in client.variables.items()}
        for index, client in enumerate(clients)
    }
    # Workers still hold what they were told: some task left its variables out.
    assert counters["serve.client_state_frames"] < submits


def test_a_workers_cache_holds_the_current_model_and_one_row_per_client(monkeypatch):
    """After each task frame a worker applies, every digest in its cache
    names an array of the frame's model, of the initial row every untrained
    client shares (w = θ⁰, y = 0), or of one written row — one a frame
    named or an accepted submit's variables — and at most one written row
    per client."""
    decode, submitted = protocol.decode_task, protocol.submitted_vars
    config, spec = _config(), AlgorithmSpec("fedadmm")
    initial = frozenset(
        protocol.blob_digest(value)
        for value in build_simulation(config, spec).clients[0].variables.values()
    )
    lock = threading.Lock()
    last_client: dict[int, int] = {}  # worker thread → client of its last task
    owner: dict[str, tuple[int, frozenset]] = {}  # digest → (client, its row's digests)
    strays, doubled, dropped = [], [], []

    def applied(header, blobs, cache):
        task_id, task = decode(header, blobs, cache)
        model = {digest for name, _, digest, _ in header["arrays"] if not name.startswith("var.")}
        row = frozenset(d for name, _, d, _ in header["arrays"] if name.startswith("var."))
        with lock:
            last_client[threading.get_ident()] = task.client_index
            if row != initial:
                owner.update((digest, (task.client_index, row)) for digest in row)
            strays.extend(set(cache) - model - initial - set(owner))
            rows = [client for client, _ in {owner[d] for d in cache if d in owner}]
            doubled.extend(client for client in set(rows) if rows.count(client) > 1)
            dropped.extend(header["drop"])
        return task_id, task

    def filed(frame, digests):
        arrays = submitted(frame, digests)
        with lock:
            row = (last_client[threading.get_ident()], frozenset(arrays))
            owner.update((digest, row) for digest in arrays)
        return arrays

    monkeypatch.setattr(protocol, "decode_task", applied)
    monkeypatch.setattr(protocol, "submitted_vars", filed)
    server, networked = threaded_run(config, spec, rounds=4)

    assert_bit_identical(networked, reference_run(config, spec, rounds=4))
    assert not strays and not doubled
    counters = server.status_snapshot()["counters"]
    # The bound was exercised: old models and stale rows were dropped, and
    # some variables were held when their client came round again.
    assert dropped
    assert counters["serve.client_state_frames"] < counters["serve.requests.submit"]
