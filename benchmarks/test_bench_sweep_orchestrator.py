"""Sweep orchestrator: wall-clock speedup of --jobs 4 vs serial, and resume.

The sweep is the paper's four-algorithm comparison at a size where each
point costs real compute (~1s), so the process pool has something to
amortise its startup against.  Three properties are measured/checked:

* **speedup** — the same spec list executed with ``jobs=4`` vs serially;
  the measured ratio lands in ``BENCH_sweep_orchestrator.json`` so the
  perf trajectory is tracked across PRs.  The >1 assertion only fires
  when the machine actually has multiple cores (a single-core runner
  cannot win by multiprocessing).
* **bit-identity** — parallel results equal serial results exactly.
* **resume** — after an "interruption" that completed 2 of 4 points, the
  resumed sweep executes only the remaining 2 and stitches together the
  same histories as an uninterrupted run.
"""

import os
import time

import numpy as np
from bench_utils import BENCH_SEED, emit_summary, print_header, run_once, speedup_summary

from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.experiments.orchestrator import RunSpec, SweepOrchestrator
from repro.experiments.store import ExperimentStore
from repro.experiments.tables import format_table

JOBS = 4

CONFIG = ExperimentConfig(
    name="bench-orchestrator",
    dataset="blobs",
    n_train=4000,
    n_test=400,
    model="mlp",
    model_kwargs={"input_dim": 32, "hidden_dims": (64,)},
    num_clients=20,
    client_fraction=0.5,
    local_epochs=5,
    batch_size=20,
    num_rounds=15,
    target_accuracy=0.999,
    seed=BENCH_SEED,
)

ALGORITHMS = [
    AlgorithmSpec("fedadmm", {"rho": 0.3}),
    AlgorithmSpec("fedavg", {}),
    AlgorithmSpec("fedprox", {"rho": 0.1}),
    AlgorithmSpec("fedsgd", {"server_learning_rate": 0.5}),
]


def _specs():
    return [
        RunSpec("bench-orchestrator", (algorithm.label(),), CONFIG, algorithm,
                stop_at_target=False)
        for algorithm in ALGORITHMS
    ]


def _run(tmp_path):
    timings = {}

    started = time.perf_counter()
    serial = SweepOrchestrator(jobs=1).execute(_specs())
    timings["serial"] = time.perf_counter() - started

    started = time.perf_counter()
    parallel = SweepOrchestrator(jobs=JOBS).execute(_specs())
    timings["parallel"] = time.perf_counter() - started

    # Interrupted-then-resumed: 2 of 4 points are already in the store.
    store = ExperimentStore(tmp_path / "store")
    SweepOrchestrator(store=store).execute(_specs()[:2])
    resumer = SweepOrchestrator(store=store, resume=True)
    started = time.perf_counter()
    resumed = resumer.execute(_specs())
    timings["resume_remaining"] = time.perf_counter() - started

    return serial, parallel, resumed, resumer.last_report, timings


def test_sweep_orchestrator_speedup_and_resume(benchmark, tmp_path):
    serial, parallel, resumed, resume_report, timings = run_once(
        benchmark, lambda: _run(tmp_path)
    )

    # Parallel and resumed executions are bit-identical to the serial sweep.
    for variant in (parallel, resumed):
        assert set(variant) == set(serial)
        for key in serial:
            assert variant[key].history.records == serial[key].history.records
            np.testing.assert_array_equal(
                variant[key].final_params, serial[key].final_params
            )

    # The resume executed only the 2 uncached points.
    assert len(resume_report.skipped) == 2
    assert len(resume_report.executed) == 2

    summary = speedup_summary(timings["serial"], timings["parallel"], JOBS)
    summary["resume_skipped"] = len(resume_report.skipped)
    summary["resume_seconds_for_remaining"] = round(
        timings["resume_remaining"], 3
    )
    summary["sweep_points"] = len(_specs())
    summary["rounds_to_target"] = {
        "/".join(map(str, key)): result.rounds_to_target
        for key, result in serial.items()
    }

    print_header("Sweep orchestrator: --jobs 4 vs serial")
    print(format_table([{
        "jobs": summary["jobs"],
        "cpu_count": summary["cpu_count"],
        "serial_s": summary["serial_seconds"],
        "parallel_s": summary["parallel_seconds"],
        "speedup": summary["speedup"],
        "resume_skipped": summary["resume_skipped"],
    }]))
    emit_summary("sweep_orchestrator", summary, benchmark=benchmark)

    # A process pool can only beat the serial loop when there are cores to
    # spread over; on multi-core runners (CI has 4) demand a real win.
    if (os.cpu_count() or 1) >= 4:
        assert summary["speedup"] > 1.2, summary
