"""Parallel, resumable sweeps through the orchestrator and run store.

Builds a four-point FedADMM rho sweep as independent
:class:`~repro.experiments.orchestrator.RunSpec` s, executes it across a
process pool backed by a persistent
:class:`~repro.experiments.store.ExperimentStore`, then "interrupts" and
resumes it to show that cached points are served from the store while the
stitched-together histories stay bit-identical to a serial run.

This is the library-level face of the CLI's ``--jobs`` / ``--resume`` /
``--store-dir`` flags (and of ``repro runs list``).

Run with:  python examples/parallel_sweeps.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.experiments import (
    AlgorithmSpec,
    ExperimentStore,
    RunSpec,
    SweepOrchestrator,
)
from repro.experiments.configs import ExperimentConfig

CONFIG = ExperimentConfig(
    name="example-rho-sweep",
    dataset="blobs",
    n_train=2000,
    n_test=400,
    model="mlp",
    model_kwargs={"input_dim": 32, "hidden_dims": (32,)},
    num_clients=20,
    client_fraction=0.5,
    local_epochs=3,
    batch_size=20,
    num_rounds=10,
    target_accuracy=0.95,
)

SPECS = [
    RunSpec(
        study="example-rho-sweep",
        key=(f"rho={rho}",),
        config=CONFIG,
        algorithm=AlgorithmSpec("fedadmm", {"rho": rho}),
        stop_at_target=False,
    )
    for rho in (0.01, 0.1, 0.3, 1.0)
]


def progress(event) -> None:
    print(f"  [{event.index + 1}/{event.total}] {event.event:7s} {event.spec.label()}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store = ExperimentStore(Path(tmp) / "runs")

        print("parallel sweep (jobs=4) against a fresh store:")
        started = time.perf_counter()
        parallel = SweepOrchestrator(jobs=4, store=store, progress=progress).execute(
            SPECS
        )
        print(f"  ...done in {time.perf_counter() - started:.1f}s wall-clock")

        print("\nresumed sweep: every point is served from the store:")
        resumed = SweepOrchestrator(store=store, resume=True, progress=progress).execute(
            SPECS
        )

        print("\nserial re-run (no store) for the bit-identity check:")
        serial = SweepOrchestrator(progress=progress).execute(SPECS)

        print("\nrho     rounds-to-target  final-accuracy  identical(serial/parallel/resumed)")
        for spec in SPECS:
            key = spec.key
            identical = (
                serial[key].history.records == parallel[key].history.records
                == resumed[key].history.records
            )
            result = serial[key]
            print(
                f"{spec.algorithm.kwargs['rho']:<7} "
                f"{str(result.rounds_to_target):<17} "
                f"{result.history.final_accuracy():<15.4f} "
                f"{identical}"
            )


if __name__ == "__main__":
    main()
