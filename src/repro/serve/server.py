"""The federation server: the simulation engine driven over real HTTP.

The server wires the existing composition root — :class:`ServerState` +
:class:`ClientWorkPipeline` + an :class:`ExecutionPlan` — to the network by
swapping in one component: a :class:`RemoteExecutor` that, instead of
running local updates in-process, publishes them to a :class:`TaskBoard`
that separate worker processes drain over HTTP.  Everything else (client
sampling, the systems model, codec round-trips, the ledger) runs unchanged
in the driver thread, so a networked run advances rounds *exactly* as the
in-process simulation does.

Determinism: :class:`RemoteExecutor` is *isolated* in the executor-seam
sense — every task carries an integer seed derived from a stable label —
so which worker computes an update, and in what order updates arrive, can
never change the result.  Networked histories are bit-identical to any
isolated in-process run (``executor="thread"``) of the same config and
seed.

Endpoints (all bodies are :mod:`repro.serve.protocol` frames unless noted):

- ``POST /v1/handshake`` — JSON in/out; refuses version mismatches (426)
  and returns the experiment config workers must rebuild.
- ``POST /v1/task`` — JSON ``{}`` or ``{"held": [digest, ...]}`` in,
  listing the arrays the worker holds; one task frame out, carrying the
  task's arrays but the held ones and dropping the held digests that are
  no longer current (see :mod:`repro.serve.protocol`).  The board leases
  the worker a task whose client variables it holds when one is pending,
  and otherwise one whose trained row no live worker holds: a task whose
  row a live worker holds waits for that worker (see :class:`TaskBoard`).
  With nothing it may lease the request is *parked* (a long poll, at most
  :data:`LEASE_WAIT_S`) until a task is published or a reservation
  lapses; JSON ``{"task": null, "done": ...}`` means the wait elapsed or
  the run ended.
- ``POST /v1/submit`` — a submit frame in; JSON ``{"status": "ok", "vars":
  {key: digest}}`` out, the :func:`~repro.serve.protocol.blob_digest` of
  each accepted client variable (absent when the algorithm keeps none).
  Duplicate submissions of a finished task are idempotent
  (``{"status": "duplicate"}``, no digests), malformed ones map onto
  400/404/413/426; an exception that is not a :class:`ProtocolError` is
  answered 500.
- ``GET /v1/status`` — JSON progress snapshot.
- ``POST /v1/shutdown`` — JSON; asks the driver to stop after the current
  round.

Only the server hashes; what it hashes, and what a worker keeps, is the
wire contract of ``docs/api/serve.md`` ("Task frames and the worker's
cache").
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Collection, Iterable

import numpy as np

from repro.exceptions import ConfigurationError, ProtocolError
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.experiments.orchestrator import RunSpec
from repro.experiments.runner import build_simulation
from repro.experiments.store import ExperimentStore
from repro.federated.engine import SimulationResult
from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.systems.compression import IdentityCodec, build_codec
from repro.systems.executor import ClientExecutor, LocalUpdateOutcome, LocalUpdateTask
from repro.systems.transport import Transport
from repro.utils.validation import check_positive


#: Longest a ``/v1/task`` request is parked on an empty board before it is
#: answered with an empty reply.  Far below ``ServerClient.timeout`` (60 s),
#: so a parked request can never look like a dead connection to its worker.
LEASE_WAIT_S = 1.0
#: Bucket bounds of ``serve.lease_wait_seconds``: sub-second, up to the bound.
LEASE_WAIT_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, LEASE_WAIT_S)
#: How long a trained client's row stays reserved for its holder after the
#: holder last confirmed it (see :class:`TaskBoard`): what a worker that
#: leaves between tasks costs a round.  A live worker's next lease follows
#: each reply within milliseconds, and a parked one confirms every
#: ``RESERVE_S / 2``.
RESERVE_S = 0.5


class _Aborted(Exception):
    """Internal: the board was torn down while a round was in flight."""


class WireAccountingTransport(Transport):
    """Transport for payloads that already crossed the codec on the wire.

    The worker encoded the upload and the server's submit handler decoded
    (and validated) it — exactly one codec application, same as simulation.
    Re-applying the codec in ``pipeline.compress`` would quantize twice, so
    this transport passes the values through untouched and only accounts
    the nominal wire bytes, keeping ledger totals and message metadata
    identical to the in-process run.
    """

    def compress_message(self, message, rng=None):
        wire_bytes = sum(
            self.codec.wire_bytes(int(np.asarray(vector).size))
            for vector in message.payload.values()
        )
        compressed = dataclasses.replace(
            message,
            metadata={
                **message.metadata,
                "codec": self.codec.name,
                "wire_bytes": wire_bytes,
            },
        )
        return compressed, wire_bytes


@dataclass
class _Ticket:
    """One published local-update task and its lifecycle on the board."""

    task_id: str
    task: LocalUpdateTask  #: as leased: what a submission is checked against
    #: Entry name → digest of the task's arrays: the model's, and the
    #: client's row's as the board knows it (``None`` only for a row the
    #: board was never told, which a server's naming pass rules out).
    digests: dict[str, str | None] = dataclasses.field(default_factory=dict)
    state: str = "pending"  # pending -> leased -> done
    lease_expires: float = 0.0
    outcome: LocalUpdateOutcome | None = None
    #: Client indices of the filed rows the lease that took the task listed.
    holds: frozenset[int] = frozenset()

    def held_by(self, held: Collection[str]) -> bool:
        """Whether ``held`` names every variable of the client's row."""
        row = [digest for name, digest in self.digests.items() if name.startswith("var.")]
        return bool(row) and all(digest in held for digest in row)


class TaskBoard:
    """Thread-safe exchange between the round driver and HTTP handlers.

    The driver publishes a round's tasks and blocks in :meth:`wait`;
    handler threads lease tasks with :meth:`pull` — parking on an empty
    board until :meth:`publish`, :meth:`close` or :meth:`abort` wakes them —
    and deliver results with :meth:`resolve`.  A leased task whose worker
    goes silent past its lease is reclaimed — put back on the queue for
    another worker — which is how a worker killed mid-round is absorbed
    without stalling the round (the serve-layer analogue of the semisync
    deadline).  Because tasks are seeded, a reclaimed task recomputed
    elsewhere yields the identical update; :meth:`resolve` keeps the first
    result and reports ``"duplicate"`` for any re-submission.

    ``digests`` names each client's row (by index) by the digests of its
    variables (by key): the server's naming pass fills it for every row,
    :meth:`resolve` files an accepted submit's, whose variables the round's
    merge writes into the row next, and :meth:`publish` copies them onto
    the tickets, so leasing compares strings and never hashes.

    A row :meth:`resolve` filed is *reserved* for the worker that holds
    it: its client's task waits for a puller that holds the row while the
    holder is live, that is, while it confirmed the row within
    :data:`RESERVE_S` (or ``lease_s``, when that is shorter) or is busy on
    a task it leased with the row listed.  A lease that lists the row, the
    submit of such a lease's task and the filing itself confirm it; a
    worker that leaves (killed, stopped, restarted) stops confirming, and
    its rows are free ``RESERVE_S`` after its last word — or once a leased
    task's reclaim ends its lease.  The filing counts because the
    submitter's next lease is the one that lists the row: without it, a
    worker whose lease lands between the two would take the row.  A
    submitter whose reply was lost never lists the row, and waits out the
    filing's ``RESERVE_S``.  Rows only the naming pass named (the initial
    row every untrained client shares, restored rows) are free to anyone.
    """

    def __init__(self, lease_s: float = 30.0):
        # NaN or inf would never expire: a dead worker's task would never
        # be reclaimed.
        self.lease_s = float(check_positive(lease_s, "lease_s"))
        self._cond = threading.Condition()
        self._tickets: dict[str, _Ticket] = {}
        self._queue: deque[str] = deque()
        self._seq = 0
        self._aborted = False
        self._closed = False
        self.reclaimed = 0
        self.duplicates = 0
        self.digests: dict[int, dict[str, str]] = {}
        #: Client index → when the holder of the row :meth:`resolve` filed
        #: last confirmed it: one entry per trained client.
        self._rows: dict[int, float] = {}

    def next_task_id(self, round_index: int, client_index: int) -> str:
        with self._cond:
            self._seq += 1
            return f"r{round_index}-c{client_index}-{self._seq}"

    def publish(self, tickets: list[_Ticket]) -> None:
        with self._cond:
            for ticket in tickets:
                row = self.digests.get(ticket.task.client_index, {})
                ticket.digests.update(
                    (f"var.{key}", row.get(key)) for key in ticket.task.client.variables
                )
                self._tickets[ticket.task_id] = ticket
                self._queue.append(ticket.task_id)
            self._cond.notify_all()

    def pull(
        self, wait: float = 0.0, held: Collection[str] = frozenset()
    ) -> _Ticket | None:
        """Lease a pending task, reclaiming expired leases first.

        ``held`` (digests) is the puller's lease: it confirms the puller as
        the holder of every filed row it names in full.  The first pending
        task whose client variables ``held`` all names is leased; with
        none, the first one that is not reserved for a live holder (see the
        class docstring).  Otherwise — the board is empty, or every pending
        task waits for its holder — the caller is parked for up to ``wait``
        seconds, confirming its rows as it wakes; ``None`` means the wait
        elapsed or the board was closed.
        """
        deadline = time.monotonic() + wait
        hold = min(RESERVE_S, self.lease_s)
        with self._cond:
            while True:
                self._reclaim_locked()
                now = time.monotonic()
                listed = frozenset(
                    index
                    for index in self._rows
                    if all(digest in held for digest in self.digests[index].values())
                )
                self._rows.update(dict.fromkeys(listed, now))
                busy = set().union(
                    *(t.holds for t in self._tickets.values() if t.state == "leased")
                )
                # Entries resolved after a reclaim, or forgotten, drop out here.
                queued = (self._tickets.get(task_id) for task_id in self._queue)
                pending = [t for t in queued if t is not None and t.state == "pending"]
                ticket = next((t for t in pending if t.held_by(held)), None) or next(
                    (t for t in pending if not self._reserved(t, now - hold, busy)), None
                )
                if ticket is not None:
                    self._queue = deque(t.task_id for t in pending if t is not ticket)
                    ticket.state = "leased"
                    ticket.lease_expires = now + self.lease_s
                    ticket.holds = listed
                    return ticket
                self._queue = deque(t.task_id for t in pending)
                remaining = deadline - now
                if self._closed or remaining <= 0:
                    return None
                # Wake periodically so a lease or a reservation that expires
                # while we are parked is handed to us, and a parked holder
                # keeps confirming its rows.
                self._cond.wait(timeout=min(remaining, self.lease_s / 4, hold / 2))

    def _reserved(self, ticket: _Ticket, since: float, busy: set[int]) -> bool:
        """Whether the ticket's row is filed and its holder confirmed it
        after ``since`` or is busy on a task it leased with the row listed."""
        index = ticket.task.client_index
        return index in self._rows and (self._rows[index] > since or index in busy)

    def stale(self, held: Iterable[str]) -> list[str]:
        """The digests in ``held`` that name neither a pending task's model
        nor any client's row: what a worker may forget."""
        with self._cond:
            live = {digest for row in self.digests.values() for digest in row.values()}
            live.update(
                digest
                for ticket in self._tickets.values()
                if ticket.state != "done"
                for digest in ticket.digests.values()
            )
        return sorted(set(held) - live)

    def client_of(self, task_id: str) -> _Ticket:
        with self._cond:
            ticket = self._tickets.get(task_id)
            if ticket is None:
                raise ProtocolError(
                    f"unknown task {task_id!r}", code="unknown_task"
                )
            return ticket

    def resolve(
        self, task_id: str, outcome: LocalUpdateOutcome, digests: dict | None = None
    ) -> str:
        """Record a task's first outcome; ``digests`` (by key) name its variables."""
        with self._cond:
            ticket = self._tickets.get(task_id)
            if ticket is None:
                raise ProtocolError(
                    f"unknown task {task_id!r}", code="unknown_task"
                )
            if ticket.state == "done":
                self.duplicates += 1
                return "duplicate"
            ticket.state = "done"
            ticket.outcome = outcome
            # The submitter is live: the rows its lease listed, and the one
            # it wrote, stay its own until its next lease lists them.
            now = time.monotonic()
            self._rows.update(dict.fromkeys(ticket.holds, now))
            if digests is not None:
                self.digests[ticket.task.client_index] = digests
                self._rows[ticket.task.client_index] = now
            self._cond.notify_all()
            return "ok"

    def wait(self, task_ids: list[str]) -> list[LocalUpdateOutcome]:
        """Block until every task is done; outcomes in ``task_ids`` order."""
        with self._cond:
            while True:
                if self._aborted:
                    raise _Aborted()
                self._reclaim_locked()
                if all(self._tickets[tid].state == "done" for tid in task_ids):
                    # The round is complete; forget its tickets so late
                    # duplicate submissions report unknown_task, and memory
                    # stays bounded by one round's cohort.
                    return [self._tickets.pop(tid).outcome for tid in task_ids]
                # Wake periodically so expired leases are reclaimed even
                # when no submit arrives to notify us.
                self._cond.wait(timeout=min(1.0, self.lease_s / 4))

    def close(self) -> None:
        """No more tasks will be published: release every parked puller."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def abort(self) -> None:
        """Tear down: :meth:`close`, and fail the driver's :meth:`wait`."""
        with self._cond:
            self._aborted = self._closed = True
            self._cond.notify_all()

    @property
    def pending(self) -> int:
        with self._cond:
            return sum(
                1 for t in self._tickets.values() if t.state != "done"
            )

    def _reclaim_locked(self) -> None:
        now = time.monotonic()
        for ticket in self._tickets.values():
            if ticket.state == "leased" and ticket.lease_expires <= now:
                ticket.state = "pending"
                ticket.holds = frozenset()
                self._queue.append(ticket.task_id)
                self.reclaimed += 1


class RemoteExecutor(ClientExecutor):
    """Executor seam implementation that farms tasks out over the board.

    ``isolated = True`` is the load-bearing bit: plans hand isolated
    executors per-task integer seeds (stable label hashes), so remote
    workers reproduce exactly the update an in-process isolated executor
    would compute, regardless of which worker runs it or when.
    """

    isolated = True

    def __init__(self, board: TaskBoard):
        self.board = board

    def _run_batch(self, tasks: list[LocalUpdateTask]) -> list[LocalUpdateOutcome]:
        models: dict[tuple[int, int], dict[str, str]] = {}
        tickets = []
        for task in tasks:
            # The tasks of one call share their θ and state objects.
            shared = (id(task.global_params), id(task.server_state))
            if shared not in models:
                models[shared] = {
                    name: protocol.blob_digest(array)
                    for name, array in protocol.task_arrays(task).items()
                    if not name.startswith("var.")
                }
            task_id = self.board.next_task_id(task.round_index, task.client_index)
            tickets.append(_Ticket(task_id, task, dict(models[shared])))
        # All at once: a worker woken by a first ticket would take it before
        # the task whose variables it holds is on the board.
        self.board.publish(tickets)
        return self.board.wait([ticket.task_id for ticket in tickets])


# --------------------------------------------------------------------------- #
# HTTP plumbing
# --------------------------------------------------------------------------- #
class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    app: "FederationServer"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # TCP_NODELAY on every accepted connection: a reply must never sit in
    # the kernel waiting for the ACK of an earlier small write (Nagle's
    # algorithm against the client's delayed ACK costs ~40 ms per reply).
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging goes through the metrics registry instead

    @property
    def app(self) -> "FederationServer":
        return self.server.app  # type: ignore[attr-defined]

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        # Header block and body leave in ONE write, so the reply is a single
        # segment even behind something that strips TCP_NODELAY;
        # send_response/end_headers would flush the headers on their own.
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _read_body(self) -> bytes:
        declared = (self.headers.get("Content-Length") or "0").strip()
        # Refusals below happen without reading the body; the stream is then
        # unsynchronised, so the connection must close after the error reply.
        if not (declared.isascii() and declared.isdigit()):
            # Signs, words, "1_000": int() would raise out of the handler
            # thread, and rfile.read(-n) would block until the peer closes.
            self.close_connection = True
            raise ProtocolError(
                f"Content-Length {declared!r} is not a non-negative integer"
            )
        length = int(declared)
        if length > self.app.max_frame_bytes:
            self.close_connection = True
            raise ProtocolError(
                f"request of {length} bytes exceeds the "
                f"{self.app.max_frame_bytes}-byte limit",
                code="too_large",
            )
        return self.rfile.read(length) if length else b""

    def do_GET(self) -> None:
        if self.path == "/v1/status":
            self.app.count_request("status")
            self._send_json(200, self.app.status_snapshot())
        else:
            self._send_json(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:
        route = self.path
        try:
            body = self._read_body()
            self.app.metrics.counter("serve.request_bytes").inc(len(body))
            if route == "/v1/handshake":
                self.app.count_request("handshake")
                self._send_json(200, self.app.handle_handshake(body))
            elif route == "/v1/task":
                self.app.count_request("task")
                frame = self.app.handle_task(body)
                if frame is None:
                    # The bounded wait elapsed (ask again) or the run ended.
                    self._send_json(200, {"task": None, "done": self.app.done})
                else:
                    self._send(200, frame, "application/octet-stream")
            elif route == "/v1/submit":
                self.app.count_request("submit")
                self._send_json(200, self.app.handle_submit(body))
            elif route == "/v1/shutdown":
                self.app.count_request("shutdown")
                self.app.request_stop()
                self._send_json(200, {"stopping": True})
            else:
                self._send_json(404, {"error": f"no route {route!r}"})
        except ProtocolError as exc:
            code = getattr(exc, "code", "malformed")
            self.app.metrics.counter(f"serve.errors.{code}").inc()
            self._send_json(
                protocol.http_status_for(exc), {"error": str(exc), "code": code}
            )
        except Exception as exc:  # a bug, not a bad request: answer, don't die
            traceback.print_exc()
            self.app.metrics.counter("serve.errors.internal").inc()
            self.close_connection = True
            self._send_json(500, {"error": repr(exc), "code": "internal"})


# --------------------------------------------------------------------------- #
# The server itself
# --------------------------------------------------------------------------- #
class FederationServer:
    """One federated run served over loopback (or any interface) HTTP.

    Builds the standard simulation from ``config`` — swapping the executor
    for a :class:`RemoteExecutor` — then drives ``plan.run_round`` in a
    background thread while HTTP handler threads feed the
    :class:`TaskBoard`.  With ``store_dir`` set, every completed round is
    checkpointed to an :class:`ExperimentStore`
    (:meth:`FederatedSimulation.checkpoint`); a restarted server with
    ``resume=True`` restores it, RNG streams included, so the continued run
    is byte-for-byte the run an uninterrupted server would have produced.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        algorithm: AlgorithmSpec,
        host: str = "127.0.0.1",
        port: int = 0,
        num_rounds: int | None = None,
        lease_s: float = 30.0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        store_dir: str | None = None,
        resume: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config
        self.spec = algorithm
        self.num_rounds = num_rounds if num_rounds is not None else config.num_rounds
        self.max_frame_bytes = int(max_frame_bytes)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.board = TaskBoard(lease_s=lease_s)
        self.simulation = build_simulation(
            config, algorithm, executor=RemoteExecutor(self.board)
        )
        #: What submit payloads are packed with ("raw" float64 without one).
        self.codec = build_codec(config.codec, **config.codec_kwargs)
        if config.codec is not None:
            # Uploads arrive codec-encoded over HTTP; the pipeline must
            # account their wire cost without re-quantizing them.
            self.simulation.pipeline.transport = WireAccountingTransport(self.codec)
        adversary = self.simulation.pipeline.adversary
        if adversary is not None:
            if adversary.poisons_data:
                raise ConfigurationError(
                    f"adversary {adversary.name!r} poisons client datasets, "
                    "but served workers rebuild clean ones from the config; "
                    "run it in-process instead"
                )
            if not isinstance(self.codec, IdentityCodec):
                raise ConfigurationError(
                    f"adversary {adversary.name!r} corrupts decoded uploads "
                    "when served but pre-encode ones in-process, which differs "
                    f"under the lossy codec {self.codec.name!r}; serve it with "
                    "codec None or 'identity'"
                )
        self.algorithm = self.simulation.algorithm
        self.model_dim = int(self.simulation.state.params.size)
        self.allowed_dims = set(
            int(d) for d in self.algorithm.upload_vector_dims(self.model_dim)
        )
        self.round_latencies: list[float] = []
        self.result: SimulationResult | None = None
        self.error: BaseException | None = None
        self.resumed_from_round = 0

        self.store = ExperimentStore(store_dir) if store_dir is not None else None
        self.run_spec = RunSpec(
            study="serve",
            key=(config.name, algorithm.label()),
            config=config,
            algorithm=algorithm,
            stop_at_target=False,
        )
        if resume:
            if self.store is None:
                raise ConfigurationError("resume=True needs a store_dir")
            self._restore_from_store()
        self._name_rows()

        self._host = host
        self._port = port
        self._httpd: _ServeHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._driver: threading.Thread | None = None
        self._stop = threading.Event()
        self._done = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._httpd = _ServeHTTPServer((self._host, self._port), _Handler)
        self._httpd.app = self
        self._port = self._httpd.server_address[1]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        self._http_thread.start()
        self._driver = threading.Thread(
            target=self._drive, name="serve-driver", daemon=True
        )
        self._driver.start()

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}"

    @property
    def port(self) -> int:
        return self._port

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def request_stop(self) -> None:
        """Finish the in-flight round (if any), checkpoint, then stop."""
        self._stop.set()

    def wait(self, timeout: float | None = None) -> SimulationResult:
        if not self._done.wait(timeout):
            raise TimeoutError(f"server did not finish within {timeout}s")
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result

    def stop(self) -> None:
        """Tear everything down, aborting any in-flight round."""
        self._stop.set()
        self.board.abort()
        if self._driver is not None:
            self._driver.join(timeout=10)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=10)
        # server -> _httpd -> app -> server is a reference cycle: holding it
        # would keep the simulation, every client's dataset and the tickets
        # alive until a gen-2 collection.  Dropped, a stopped server is freed
        # by reference counting alone.
        self._httpd = self._http_thread = self._driver = None

    # ------------------------------------------------------------------ #
    # The round driver
    # ------------------------------------------------------------------ #
    def _drive(self) -> None:
        sim = self.simulation
        try:
            while sim.state.rounds_run < self.num_rounds and not self._stop.is_set():
                started = time.perf_counter()
                sim.run_round()
                self.round_latencies.append(time.perf_counter() - started)
                self.metrics.histogram("serve.round_seconds").observe(
                    self.round_latencies[-1]
                )
                if self.store is not None:
                    self.store.save_result(
                        self.run_spec,
                        sim.result(),
                        arrays=sim.checkpoint(),
                    )
            self.result = sim.result()
        except _Aborted:
            # stop() tore down the board mid-round; report what completed.
            try:
                self.result = sim.result()
            except Exception:  # pragma: no cover - best-effort summary
                pass
        except BaseException as exc:
            self.error = exc
            self.board.abort()
        finally:
            sim.pipeline.close()
            self._done.set()
            # After _done, so a worker parked in /v1/task wakes to
            # ``done: true`` at once instead of after the wait bound.
            self.board.close()

    def _restore_from_store(self) -> None:
        """Restore the stored result and checkpoint, if any."""
        key = self.store.key_for(self.run_spec)
        if not self.store.has_result(key):
            return
        checkpoint = self.store.load_arrays(key)
        if checkpoint is None:
            raise ConfigurationError("stored result carries no serve checkpoint")
        sim = self.simulation
        sim.restore(checkpoint, self.store.load_result(key))
        self.resumed_from_round = sim.state.rounds_run

    def _name_rows(self) -> None:
        """Name every client's row, fresh or restored: a worker may already
        hold it (an untrained row is θ⁰ and zeros, a restored one what an
        earlier server accepted).  A key whose bytes equal the previous
        row's takes that row's digest, so a fresh server hashes one row."""
        named: dict[str, tuple[np.ndarray, str]] = {}  # key -> last hashed array, digest
        for index, client in enumerate(self.simulation.clients):
            if client.variables:
                for key, value in client.variables.items():
                    if key not in named or not protocol.same_blob(named[key][0], value):
                        named[key] = (value, protocol.blob_digest(value))
                self.board.digests[index] = {
                    key: named[key][1] for key in client.variables
                }
                self.metrics.counter("serve.vars_digests").inc()

    # ------------------------------------------------------------------ #
    # Request handling (called from HTTP handler threads)
    # ------------------------------------------------------------------ #
    def count_request(self, route: str) -> None:
        self.metrics.counter(f"serve.requests.{route}").inc()

    def handle_handshake(self, body: bytes) -> dict:
        version = protocol.json_object(body, "handshake").get("protocol_version")
        if version != protocol.PROTOCOL_VERSION:
            raise ProtocolError(
                f"worker speaks protocol version {version!r}, server speaks "
                f"{protocol.PROTOCOL_VERSION}",
                code="version_mismatch",
            )
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "config": dataclasses.asdict(self.config),
            "algorithm": {"name": self.spec.name, "kwargs": dict(self.spec.kwargs)},
            "codec": self.config.codec,
            "model_dim": self.model_dim,
            "num_rounds": self.num_rounds,
        }

    def handle_task(self, body: bytes = b"") -> bytes | None:
        """Lease a task; ``body`` lists the digests of the arrays the worker holds.

        The reply is encoded here: it carries the task's arrays but the held
        ones — so θ crosses at most once per worker per model, a client's
        variables only when the worker lacks them — and drops the held
        digests that are no longer current.  A bad body is refused before
        the request is parked.
        """
        held = protocol.decode_lease(body)
        asked = time.perf_counter()
        ticket = self.board.pull(wait=LEASE_WAIT_S, held=held)
        self.metrics.histogram(
            "serve.lease_wait_seconds", LEASE_WAIT_BUCKETS
        ).observe(time.perf_counter() - asked)
        self.metrics.gauge("serve.pending_tasks").set(self.board.pending)
        if ticket is None:
            self.metrics.counter("serve.empty_task_replies").inc()
            return None
        digests = ticket.digests
        # Never drop what the frame leaves out, even once the digest is stale.
        drop = self.board.stale(held.difference(digests.values()))
        # On a handler thread, and safe: the round (``_drive``) sits in
        # board.wait until this leased ticket is done, so the task's arrays
        # hold still (unless a first lessee already resolved it after a
        # reclaim — then this reply can only earn a discarded duplicate).
        frame = protocol.encode_task(ticket.task_id, ticket.task, digests, held, drop)
        carried = [name for name, digest in digests.items() if protocol.carries(digest, held)]
        if "params" in carried:
            self.metrics.counter("serve.model_frames").inc()
        if any(name.startswith("var.") for name in carried):
            self.metrics.counter("serve.client_state_frames").inc()
        self.metrics.counter("serve.download_payload_bytes").inc(len(frame))
        return frame

    def handle_submit(self, body: bytes) -> dict:
        header, blobs = protocol.unpack_frame(body, self.max_frame_bytes)
        if header.get("kind") != "submit":
            raise ProtocolError(
                f"expected a submit frame, got kind={header.get('kind')!r}"
            )
        task_id, outcome, payload_bytes = protocol.decode_submit(
            header, blobs, self.codec
        )
        ticket = self.board.client_of(task_id)
        leased = ticket.task.client
        if outcome.client.client_id != leased.client_id:
            raise ProtocolError(
                f"submit for task {task_id!r} names client "
                f"{outcome.client.client_id}, task belongs to {leased.client_id}"
            )
        for key, vector in outcome.message.payload.items():
            if vector.size not in self.allowed_dims:
                raise ProtocolError(
                    f"payload vector {key!r} has {vector.size} scalars; the "
                    f"model template allows {sorted(self.allowed_dims)}"
                )
            if not np.isfinite(vector).all():
                # It would be summed into θ: one NaN poisons every client.
                raise ProtocolError(f"payload vector {key!r} is not finite")
        # The variables replace the client's own after the round: they must
        # be the variables that were leased, updated — not a new schema.
        submitted = outcome.client.variables
        shapes = {key: value.shape for key, value in submitted.items()}
        own = {key: np.shape(value) for key, value in leased.variables.items()}
        if shapes != own or not all(
            np.isfinite(value).all() for value in submitted.values()
        ):
            raise ProtocolError(
                f"submitted variables {shapes} must be finite and shaped like "
                f"client {leased.client_id}'s own"
            )
        # Hashed once per accepted submit, outside the board lock: the merge
        # writes these bytes into the client's row, so the digests name the
        # row.  A task already done is not hashed (resolve decides, locked).
        digests = None
        if submitted and ticket.state != "done":
            digests = {key: protocol.blob_digest(value) for key, value in submitted.items()}
            self.metrics.counter("serve.vars_digests").inc()
        status = self.board.resolve(task_id, outcome, digests)
        reply = {"status": status, "task_id": task_id}
        if status == "ok":
            self.metrics.counter(f"serve.payload_bytes.{self.codec.name}").inc(
                payload_bytes
            )
            if digests is not None:
                reply["vars"] = digests
        return reply

    def status_snapshot(self) -> dict:
        sim = self.simulation
        snapshot = self.metrics.snapshot()
        counters = dict(snapshot["counters"])
        for name, histogram in snapshot["histograms"].items():
            counters[f"{name}.count"] = histogram["count"]
            counters[f"{name}.sum"] = histogram["sum"]
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "algorithm": self.spec.label(),
            "done": self.done,
            "error": None if self.error is None else str(self.error),
            "rounds_run": int(sim.state.rounds_run),
            "num_rounds": self.num_rounds,
            "resumed_from_round": self.resumed_from_round,
            "pending_tasks": self.board.pending,
            "reclaimed_tasks": self.board.reclaimed,
            "duplicate_submissions": self.board.duplicates,
            "simulated_seconds": sim.history.total_simulated_seconds(),
            "round_latencies_s": list(self.round_latencies),
            "codec": self.config.codec,
            "ledger": {
                "upload_wire_bytes": sim.ledger.upload_wire_bytes,
                "download_wire_bytes": sim.ledger.download_wire_bytes,
            },
            "counters": {
                name: value
                for name, value in counters.items()
                if name.startswith("serve.")
            },
        }
