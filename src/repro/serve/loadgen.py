"""Load generator: replay heterogeneous client traffic against the server.

Drives a real :class:`~repro.serve.server.FederationServer` over loopback
HTTP with a fleet of worker clients whose per-task pacing replays the
simulation's own client system profiles — the lognormal compute/bandwidth
draws of :mod:`repro.systems.network` — scaled from simulated seconds to
real sleep time by ``time_scale``.  Slow-profile clients really do hold
their HTTP submissions back, so the server's round latencies are shaped by
the same straggler distribution the simulation models.

The run stops once the *simulated* clock passes ``simulated_budget_s`` (or
``max_rounds`` rounds complete), and the report compares real payload
bytes observed on the wire against the :class:`CommunicationLedger`'s
nominal totals — the serve layer's core claim, checked under load.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.serve.server import FederationServer
from repro.serve.worker import run_worker
from repro.systems.executor import LocalUpdateTask


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    algorithm: str
    codec: str
    workers: int
    rounds: int
    wall_seconds: float
    simulated_seconds: float
    rounds_per_sec: float
    mean_round_latency_seconds: float
    p99_round_latency_seconds: float
    real_upload_payload_bytes: int
    ledger_upload_wire_bytes: int
    expected_real_upload_bytes: int
    reclaimed_tasks: int
    duplicate_submissions: int
    #: ``/v1/task`` replies that carried no task: one final "done" per
    #: worker, plus one per lease wait that elapsed on an idle board.
    empty_task_replies: int

    def to_payload(self) -> dict[str, Any]:
        return asdict(self)


def expected_real_bytes(server: FederationServer) -> int:
    """Ledger-equivalent real payload bytes for the rounds the server ran.

    The ledger counts ``codec.wire_bytes(d)`` per uploaded vector; the HTTP
    body carries ``codec.packed_bytes(d)`` (identical for float16 and topk,
    float64-vs-float32 doubled for identity/raw, +4 bytes per vector for
    the qsgd/signsgd scalar side-channel).  Both are linear in the
    per-vector counts, so the exact expectation follows from the ledger's
    upload-float total without replaying the run.
    """
    sim = server.simulation
    dims = server.algorithm.upload_vector_dims(server.model_dim)
    floats_per_upload = sum(dims)
    if floats_per_upload == 0:
        return 0
    uploads, remainder = divmod(sim.ledger.upload_floats, floats_per_upload)
    if remainder:
        raise ConfigurationError(
            "ledger upload floats are not a whole number of uploads; "
            "cannot derive the expected real byte total"
        )
    return uploads * sum(server.codec.packed_bytes(dim) for dim in dims)


def run_load_test(
    config: ExperimentConfig,
    algorithm: AlgorithmSpec,
    num_workers: int = 2,
    simulated_budget_s: float | None = 10.0,
    max_rounds: int | None = None,
    time_scale: float = 0.01,
    lease_s: float = 30.0,
    poll_interval: float = 0.01,
) -> LoadReport:
    """Run one server + ``num_workers`` paced clients; return the report."""
    if num_workers <= 0:
        raise ConfigurationError(f"num_workers must be positive, got {num_workers}")
    if time_scale < 0:
        raise ConfigurationError(f"time_scale must be non-negative, got {time_scale}")
    server = FederationServer(
        config,
        algorithm,
        num_rounds=max_rounds if max_rounds is not None else config.num_rounds,
        lease_s=lease_s,
    )
    pipeline = server.simulation.pipeline

    def paced_delay(task: LocalUpdateTask) -> float:
        if pipeline.profiles is None:
            return 0.0
        simulated = pipeline.client_round_seconds(
            task.client_index, task.config.epochs
        )
        return simulated * time_scale

    started = time.perf_counter()
    server.start()
    threads = [
        threading.Thread(
            target=run_worker,
            kwargs=dict(
                url=server.url,
                delay_fn=paced_delay,
                poll_interval=poll_interval,
                worker_id=f"loadgen-{index}",
            ),
            name=f"loadgen-worker-{index}",
            daemon=True,
        )
        for index in range(num_workers)
    ]
    try:
        for thread in threads:
            thread.start()
        while not server.done:
            simulated = server.simulation.history.total_simulated_seconds()
            if simulated_budget_s is not None and simulated >= simulated_budget_s:
                server.request_stop()
            time.sleep(0.02)
        result = server.wait(timeout=60)
        wall = time.perf_counter() - started
        for thread in threads:
            thread.join(timeout=10)
    finally:
        server.stop()

    codec_name = server.codec.name
    counters = server.metrics.snapshot()["counters"]
    real_bytes = int(counters.get(f"serve.payload_bytes.{codec_name}", 0))
    latencies = np.asarray(server.round_latencies, dtype=np.float64)
    rounds = len(server.round_latencies)
    return LoadReport(
        algorithm=result.algorithm,
        codec=codec_name,
        workers=num_workers,
        rounds=rounds,
        wall_seconds=wall,
        simulated_seconds=result.history.total_simulated_seconds(),
        rounds_per_sec=rounds / wall if wall > 0 else 0.0,
        mean_round_latency_seconds=float(latencies.mean()) if rounds else 0.0,
        p99_round_latency_seconds=(
            float(np.percentile(latencies, 99)) if rounds else 0.0
        ),
        real_upload_payload_bytes=real_bytes,
        ledger_upload_wire_bytes=int(result.ledger.upload_wire_bytes),
        expected_real_upload_bytes=expected_real_bytes(server),
        reclaimed_tasks=server.board.reclaimed,
        duplicate_submissions=server.board.duplicates,
        empty_task_replies=int(counters.get("serve.empty_task_replies", 0)),
    )
