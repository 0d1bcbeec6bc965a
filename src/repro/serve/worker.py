"""Federation worker: a separate process that computes local updates.

A worker needs no state of its own to serve a task.  It handshakes
(refusing protocol-version mismatches), rebuilds the *identical* client
environment from the experiment config — datasets, partition, and model
are all deterministic functions of ``config.seed`` — then loops: pull a
task frame (a long poll: the server parks the request until a task is
published), run the local update through the existing
:func:`~repro.systems.executor.execute_task` seam, codec-encode the result,
and push the submit frame.  Tasks carry integer seeds, so any worker (or a
re-pull after this worker dies mid-task) computes the identical update the
in-process simulation would have.

Between tasks a worker keeps what it would otherwise be sent again in one
read-only ``digest → array`` cache: every array its task frames name, and
the variables of its submits the server accepted (wᵢ, yᵢ for FedADMM),
each under the digest the server gave it.  The worker never hashes.  It
lists the cache's digests in every task request; the server leaves out of
the frame what the worker holds of the task and tells it which held
digests to drop (the wire contract: ``docs/api/serve.md``, "Task frames
and the worker's cache").

Workers are plain functions so tests can spawn them with
``multiprocessing.Process(target=run_worker, ...)`` and the CLI can run
them with ``repro worker --url``.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Callable
from urllib.parse import urlsplit

import numpy as np

from repro.algorithms import build_algorithm
from repro.exceptions import ProtocolError
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import build_model_template, prepare_environment
from repro.federated.local_problem import LocalProblem
from repro.serve import protocol
from repro.systems.compression import build_codec
from repro.systems.executor import LocalUpdateTask, execute_task
from repro.utils.validation import check_non_negative


class ServerClient:
    """Minimal stdlib HTTP client with reconnect-on-failure."""

    def __init__(self, url: str, timeout: float = 60.0):
        parts = urlsplit(url)
        try:
            port = parts.port or 80  # a port that is no number, or above 65535, raises
        except ValueError:
            port = None
        if parts.scheme != "http" or parts.hostname is None or port is None:
            raise ProtocolError(f"worker needs an http:// server URL, got {url!r}")
        self.host = parts.hostname
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def post(self, path: str, body: bytes) -> tuple[int, str, bytes]:
        """POST once, reconnecting once on a dropped keep-alive connection."""
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(
                    "POST",
                    path,
                    body=body,
                    headers={"Content-Type": "application/octet-stream"},
                )
                response = conn.getresponse()
                data = response.read()
                return (
                    response.status,
                    response.headers.get("Content-Type", ""),
                    data,
                )
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt == 1:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None


class WorkerEnvironment:
    """Everything a worker rebuilds locally from the handshake config."""

    def __init__(self, config: ExperimentConfig, algorithm_spec: dict[str, Any]):
        self.config = config
        self.algorithm = build_algorithm(
            algorithm_spec["name"], **algorithm_spec.get("kwargs", {})
        )
        _, self.clients, _ = prepare_environment(config)
        model, loss = build_model_template(config)
        # One shared model template, mutated serially per task — the same
        # discipline as the serial executor running its tasks in order.
        self.problems = [
            LocalProblem(model=model, loss=loss, dataset=client.dataset)
            for client in self.clients
        ]
        self.codec = build_codec(config.codec, **config.codec_kwargs)

    def execute(self, task_id: str, task: LocalUpdateTask) -> bytes:
        """Run one decoded task; return the submit frame."""
        index = task.client_index
        if not 0 <= index < len(self.clients):
            raise ProtocolError(
                f"task names client index {index}, population has "
                f"{len(self.clients)} clients"
            )
        task.client.dataset = self.clients[index].dataset
        outcome = execute_task(task, self.problems[index], self.algorithm)
        # The encode rng only matters for QSGD's stochastic rounding; keying
        # it on the task seed makes a re-computed duplicate byte-identical.
        return protocol.encode_submit(
            task_id,
            outcome.message,
            outcome.client,
            self.codec,
            rng=np.random.default_rng(task.rng),
        )


def handshake(client: ServerClient, worker_id: str | None = None) -> dict[str, Any]:
    """Version-check against the server; returns its experiment description."""
    body = json.dumps(
        {"protocol_version": protocol.PROTOCOL_VERSION, "worker": worker_id}
    ).encode("utf-8")
    status, _, data = client.post("/v1/handshake", body)
    if status == 426:
        raise ProtocolError(
            f"server refused the handshake: {data.decode('utf-8', 'replace')}",
            code="version_mismatch",
        )
    if status != 200:
        raise ProtocolError(
            f"handshake failed with HTTP {status}: "
            f"{data.decode('utf-8', 'replace')}"
        )
    return json.loads(data.decode("utf-8"))


def run_worker(
    url: str,
    max_tasks: int | None = None,
    poll_interval: float = 0.05,
    delay_fn: Callable[[LocalUpdateTask], float] | None = None,
    stop_check: Callable[[], bool] | None = None,
    max_failures: int = 50,
    worker_id: str | None = None,
) -> int:
    """Serve one federation server until it reports done; returns tasks done.

    A task is done when the server answers its submit with 200;
    ``max_failures`` bounds the requests that fail — a connection error, or
    a submit the server refuses — since the last one that was.

    ``delay_fn`` (decoded task → seconds) injects per-task latency —
    the load generator uses it to replay heterogeneous client compute/
    network profiles; fault tests use it to hold a task past its lease.
    ``stop_check`` lets an embedding thread ask the loop to exit early; it
    is read once per request, so it takes effect within the server's
    lease-wait bound.  ``poll_interval`` is only the back-off after a
    connection error: ``/v1/task`` blocks server-side until a task is
    pending, so an empty reply means "the wait elapsed, ask again".
    """
    check_non_negative(poll_interval, "poll_interval")
    client = ServerClient(url)
    try:
        info = handshake(client, worker_id=worker_id)
        env = WorkerEnvironment(
            ExperimentConfig.from_record(info["config"]), info["algorithm"]
        )
        # Read-only views of frames: an algorithm that wrote into a held θ
        # would otherwise corrupt every later task of the same model.
        cache: dict[str, np.ndarray] = {}
        completed = 0
        failures = 0
        while max_tasks is None or completed < max_tasks:
            if stop_check is not None and stop_check():
                break
            lease = protocol.encode_lease(cache)
            try:
                status, content_type, data = client.post("/v1/task", lease)
            except (http.client.HTTPException, OSError):
                failures += 1
                if failures >= max_failures:
                    break
                time.sleep(poll_interval)
                continue
            if content_type.startswith("application/json"):
                payload = json.loads(data.decode("utf-8"))
                if status != 200 or payload.get("done"):
                    break
                continue
            header, blobs = protocol.unpack_frame(data)
            task_id, task = protocol.decode_task(header, blobs, cache)
            if delay_fn is not None:
                time.sleep(max(0.0, delay_fn(task)))
            frame = env.execute(task_id, task)
            try:
                status, _, reply = client.post("/v1/submit", frame)
            except (http.client.HTTPException, OSError):
                status = None
            if status != 200:
                # Refused (400/404/500) or never delivered: the task is not
                # done, and a server that refuses every submit must not keep
                # this worker recomputing it forever.
                failures += 1
                if failures >= max_failures:
                    break
                continue
            failures = 0
            completed += 1
            # No digests (a duplicate, a stateless algorithm): nothing to hold.
            digests = json.loads(reply).get("vars")
            if digests:
                cache.update(protocol.submitted_vars(frame, digests))
        return completed
    finally:
        client.close()
