"""One repeat of a workload through the program's public API.

A repeat is set-up plus K rounds: ``prepare_environment`` ->
``build_simulation`` -> ``run_round()`` x K -> ``pipeline.close()`` for the
in-process shapes, ``FederationServer`` + two default ``run_worker`` threads
for the served shape.  The same code runs untraced (``probes=None``, the
end-to-end measurement) and traced (``probes`` wraps the layers' entry points
from outside, see ``probes.py``).
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms import build_algorithm
from repro.datasets.synthetic import make_blobs
from repro.experiments.runner import build_simulation, prepare_environment
from repro.federated.engine import FederatedSimulation, SimulationResult
from repro.federated.heterogeneity import UniformRandomEpochs
from repro.federated.plans import HierarchicalPlan
from repro.federated.population import ClientPopulation
from repro.federated.sampler import UniformFractionSampler
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import build_model
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import observe
from repro.serve.loadgen import expected_real_bytes
from repro.serve.server import FederationServer
from repro.serve.worker import run_worker
from repro.utils.rng import RngFactory

import calibrate
from workloads import HIER_TEMPLATE_SAMPLES, HIER_TEMPLATES, Workload

#: hier_stream's templates are a fixed part of the workload (as in
#: benchmarks/test_bench_scale.py); --seed drives init, sampling and SGD.
HIER_TASK_SEED = 0

#: Two worker threads / two connections: load never exceeds nproc = 2.
SERVED_WORKERS = 2


@dataclass
class Repeat:
    """Everything one repeat measured and produced.

    Timings are raw seconds; ``setup_speed`` and ``speed`` (one factor per
    timed round) are the machine-speed factors read around them, see
    ``calibrate``.
    """

    setup_s: float
    setup_speed: float
    round_s: list[float]
    round_cpu_s: list[float]  #: ``process_time`` per round, all threads
    speed: list[float]
    #: What the K timed rounds leave of the run: ``pipeline.close()``;
    #: served: the driver's time between rounds and after the last one.
    tail_s: float
    tail_cpu_s: float
    result: SimulationResult
    upload_bytes: int  #: ledger wire bytes; served: real submit payload bytes
    download_bytes: int  #: ledger wire bytes; served: real task-frame bytes
    updates_attempted: int
    updates_completed: int
    timed_updates: int  #: updates aggregated inside the K timed rounds
    #: Served only: non-200 replies, reclaimed leases, duplicate submissions.
    error_replies: int = 0
    reclaimed_tasks: int = 0
    duplicate_submissions: int = 0
    #: Named correctness failures found while the repeat's objects were live.
    failures: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    materialised_clients: int = 0

    @property
    def wire_failures(self) -> int:
        return self.error_replies + self.reclaimed_tasks + self.duplicate_submissions

    @property
    def fallback_tasks(self) -> int:
        """Tasks the vectorized executor handed back to the serial loop."""
        return int(
            sum(
                value
                for name, value in self.counters.items()
                if name.startswith("executor.fallback.")
            )
        )

    def digest(self) -> str:
        """SHA-256 over ``final_params`` and the accuracy series."""
        sha = hashlib.sha256()
        sha.update(np.ascontiguousarray(self.result.final_params).tobytes())
        sha.update(np.ascontiguousarray(self.result.history.accuracies).tobytes())
        return sha.hexdigest()


def _span(probes, name: str):
    return probes.span(name) if probes is not None else nullcontext()


def _observed(metrics):
    # The registry reaches the pipeline through the public observe() hook; no
    # tracer is installed with it, so the program's own spans stay off.
    return observe(metrics=metrics) if metrics is not None else nullcontext()


def _uploads_aggregated(simulation: FederatedSimulation) -> int:
    """Updates that reached aggregation, from the ledger's float total."""
    per_upload = simulation.algorithm.upload_floats(simulation.state.params.size)
    return simulation.ledger.upload_floats // per_upload


def _updates_attempted(history) -> int:
    # Simulated FaultInjector drops are inputs, not failed operations.
    return sum(record.num_aggregated for record in history.records)


def build_sim(workload: Workload, seed: int, probes=None, metrics=None):
    """Set-up of the flat in-process shapes."""
    config = workload.seeded(seed)
    with _span(probes, "runner.prepare_environment"):
        split, clients, _ = prepare_environment(config)
    with _span(probes, "runner.build_simulation"), _observed(metrics):
        return build_simulation(
            config, workload.algorithm, clients=clients, split=split
        )


def build_hier(workload: Workload, seed: int, probes=None, metrics=None):
    """Set-up of ``hier_stream``: a lazy population under 16 shards.

    ``build_simulation`` initialises every client eagerly, which would
    materialise the million-client population, so the simulation is
    composed directly (as ``benchmarks/test_bench_scale.py`` does) with
    ``eager_client_init=False``.
    """
    config = workload.seeded(seed)
    with _span(probes, "runner.prepare_environment"):
        # One task (one set of class centres) cut into template shards, so
        # the templates and the test set share a distribution.
        split = make_blobs(
            n_train=config.n_train,
            n_test=config.n_test,
            num_classes=config.model_kwargs["num_classes"],
            feature_dim=config.model_kwargs["input_dim"],
            rng=HIER_TASK_SEED,
        )
        templates = [
            split.train.subset(
                np.arange(index, config.n_train, HIER_TEMPLATES)[
                    :HIER_TEMPLATE_SAMPLES
                ]
            )
            for index in range(HIER_TEMPLATES)
        ]
        population = ClientPopulation(config.num_clients, templates)
    with _span(probes, "runner.build_simulation"):
        return FederatedSimulation(
            algorithm=build_algorithm(
                workload.algorithm.name, **workload.algorithm.kwargs
            ),
            model=build_model(
                config.model,
                rng=RngFactory(seed).make("model-init"),
                **config.model_kwargs,
            ),
            clients=population,
            test_dataset=split.test,
            loss=CrossEntropyLoss(),
            sampler=UniformFractionSampler(config.client_fraction),
            local_work=UniformRandomEpochs(max_epochs=config.local_epochs),
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            seed=seed,
            eval_every=config.eval_every,
            eager_client_init=False,
            plan=HierarchicalPlan(num_shards=config.num_shards),
            metrics=metrics,
        )


def run_sim_repeat(workload: Workload, seed: int, probes=None) -> Repeat:
    metrics = MetricsRegistry() if probes is not None else None
    build = build_hier if workload.shape == "hier" else build_sim
    before_setup = calibrate.sample()
    started = time.perf_counter()
    simulation = build(workload, seed, probes, metrics)
    setup_s = time.perf_counter() - started
    if probes is not None:
        probes.attach_simulation(simulation)

    # One calibration pass between every two rounds, outside the timed
    # regions: each round is scaled by the readings next to it.
    kernel = [calibrate.sample()]
    round_s, round_cpu_s = [], []
    for _ in range(workload.rounds):
        cpu_started = time.process_time()
        round_started = time.perf_counter()
        simulation.run_round()
        round_s.append(time.perf_counter() - round_started)
        round_cpu_s.append(time.process_time() - cpu_started)
        kernel.append(calibrate.kernel_seconds())
    cpu_started = time.process_time()
    close_started = time.perf_counter()
    simulation.pipeline.close()
    tail_s = time.perf_counter() - close_started
    tail_cpu_s = time.process_time() - cpu_started

    failures = []
    if getattr(simulation.executor, "vectorizes", True) is False:
        failures.append(
            "vectorized executor fell back to the serial loop: "
            f"{simulation.executor.fallback_reason}"
        )
    return Repeat(
        setup_s=setup_s,
        setup_speed=calibrate.speed(before_setup, kernel[0]),
        round_s=round_s,
        round_cpu_s=round_cpu_s,
        speed=calibrate.round_speeds(kernel),
        tail_s=tail_s,
        tail_cpu_s=tail_cpu_s,
        result=SimulationResult(
            algorithm=simulation.algorithm.name,
            history=simulation.history,
            final_params=np.array(simulation.state.params, copy=True),
            ledger=simulation.ledger,
            final_evaluation=simulation.state.last_evaluation,
            rounds_run=simulation.state.rounds_run,
        ),
        upload_bytes=simulation.ledger.upload_wire_bytes,
        download_bytes=simulation.ledger.download_wire_bytes,
        updates_attempted=_updates_attempted(simulation.history),
        updates_completed=_uploads_aggregated(simulation),
        timed_updates=_updates_attempted(simulation.history),
        failures=failures,
        counters=metrics.snapshot()["counters"] if metrics is not None else {},
        materialised_clients=getattr(simulation.clients, "materialised", 0),
    )


def run_served_repeat(workload: Workload, seed: int, probes=None) -> Repeat:
    """One served repeat: K + 1 rounds, the first belonging to set-up.

    ``run_worker`` handshakes and builds its ``WorkerEnvironment`` inside
    the pull loop's own call, while the server's driver is already blocked
    in round 1 waiting for it.  Set-up therefore ends when round 1
    completes, and the K rounds that follow are the timed ones.
    """
    metrics = MetricsRegistry() if probes is not None else None
    before = calibrate.sample()
    started = time.perf_counter()
    with _span(probes, "runner.build_simulation"), _observed(metrics):
        server = FederationServer(
            workload.seeded(seed),
            workload.algorithm,
            num_rounds=workload.rounds + 1,
            metrics=metrics,
        )
    if probes is not None:
        probes.attach_server(server)
    workers: list[threading.Thread] = []
    try:
        server.start()
        workers = [
            threading.Thread(
                target=run_worker,
                args=(server.url,),  # default arguments, as `repro worker` ships
                name=f"ledger-worker-{index}",
                daemon=True,
            )
            for index in range(SERVED_WORKERS)
        ]
        for worker in workers:
            worker.start()
        while not server.round_latencies and not server.done:
            time.sleep(0.002)
        setup_s = time.perf_counter() - started
        cpu_started = time.process_time()
        wall_started = time.perf_counter()
        result = server.wait(timeout=120)
        run_wall_s = time.perf_counter() - wall_started
        run_cpu_s = time.process_time() - cpu_started
        for worker in workers:
            worker.join(timeout=10)
        # The rounds run on the server's driver thread, so the machine's
        # speed is read around the whole repeat rather than between rounds.
        speed = calibrate.speed(before, calibrate.sample())
        failures = [
            f"worker thread {worker.name} still alive after the run"
            for worker in workers
            if worker.is_alive()
        ]
    finally:
        server.stop()

    counters = server.metrics.snapshot()["counters"]
    codec = result.metadata.get("codec") or "raw"
    upload_bytes = int(counters.get(f"serve.payload_bytes.{codec}", 0))
    if upload_bytes != expected_real_bytes(server):
        failures.append(
            f"real submit payload bytes {upload_bytes} != "
            f"expected_real_bytes {expected_real_bytes(server)}"
        )
    round_s = list(server.round_latencies[1:])
    return Repeat(
        setup_s=setup_s,
        setup_speed=speed,
        round_s=round_s,
        round_cpu_s=[run_cpu_s / len(round_s)] * len(round_s),
        speed=[speed] * len(round_s),
        tail_s=run_wall_s - sum(round_s),
        tail_cpu_s=0.0,
        result=result,
        upload_bytes=upload_bytes,
        download_bytes=int(counters.get("serve.download_payload_bytes", 0)),
        updates_attempted=_updates_attempted(result.history),
        updates_completed=_uploads_aggregated(server.simulation),
        timed_updates=sum(rec.num_aggregated for rec in result.history.records[1:]),
        error_replies=int(
            sum(v for k, v in counters.items() if k.startswith("serve.errors."))
        ),
        reclaimed_tasks=server.board.reclaimed,
        duplicate_submissions=server.board.duplicates,
        failures=failures,
        counters=counters,
    )


def run_repeat(workload: Workload, seed: int, probes=None) -> Repeat:
    if workload.shape == "served":
        return run_served_repeat(workload, seed, probes)
    return run_sim_repeat(workload, seed, probes)
