"""Vectorized executor: wall-clock speedup over serial at 64 clients.

The vectorized executor runs a whole cohort's local updates as stacked
NumPy operations with a leading client axis (see ``repro.nn.batched``),
eliminating the per-client Python dispatch that dominates the serial hot
path.  Two properties are measured/checked:

* **speedup** — the same 64-client federated run executed with the
  ``vectorized`` executor vs ``serial``.  Unlike the process-pool
  benchmarks this does not need cores: the win is stacked kernels, so it
  holds on a 1-core runner.  FedAvg runs fixed local epochs (one cohort
  per round, the best case); FedADMM draws variable epochs per client
  (the paper's system-heterogeneity protocol), which fragments each round
  into ragged cohorts — the recorded ratio shows the speedup that
  survives fragmentation.  **The ratio's numerator is the per-client
  path** (``serial_seconds / vectorized_seconds``): when the serial step
  gets faster the ratio *falls* with the stacked path unchanged — the
  flat-buffer model took it from ~5.3x/5.1x to ~3.7x/3.0x
  (fedavg/fedadmm) on this tiny model.  Read a drop here against
  ``serial_seconds`` before calling it a regression, and re-anchor the
  baseline when the numerator moved.
* **parity** — the vectorized histories match serial within the
  documented ``atol=1e-8`` tolerance (evaluated accuracies must be
  identical; stacked matmuls only change reduction order).

The headline ratios land in ``BENCH_vectorized_clients.json``; the CI
regression gate compares them against ``benchmarks/baselines/``.
"""

import time

import numpy as np
from bench_utils import BENCH_SEED, emit_summary, print_header, run_once

from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.experiments.runner import build_simulation, prepare_environment
from repro.experiments.tables import format_table

NUM_CLIENTS = 64

CONFIG = ExperimentConfig(
    name="bench-vectorized",
    dataset="blobs",
    n_train=2048,  # 32 samples per client: the dispatch-bound regime
    n_test=256,
    model="mlp",
    model_kwargs={"input_dim": 32, "hidden_dims": (16,)},
    num_clients=NUM_CLIENTS,
    client_fraction=1.0,  # every client trains every round
    local_epochs=5,
    batch_size=8,
    learning_rate=0.1,
    num_rounds=8,
    target_accuracy=0.999,
    eval_every=1000,  # one mid-run evaluation; keep the hot path dominant
    seed=BENCH_SEED,
)

ALGORITHMS = {
    "fedavg": AlgorithmSpec("fedavg", {}),
    "fedadmm": AlgorithmSpec("fedadmm", {"rho": 0.3}),
}


def _timed_run(spec: AlgorithmSpec, executor: str, repeats: int = 2):
    """Best-of-``repeats`` wall clock: damps scheduler noise so the
    recorded speedup ratio is stable enough for the 20% baseline gate."""
    config = CONFIG.with_overrides(executor=executor)
    result, best = None, float("inf")
    for _ in range(repeats):
        split, clients, _ = prepare_environment(config)
        simulation = build_simulation(config, spec, clients=clients, split=split)
        started = time.perf_counter()
        result = simulation.run(config.num_rounds)
        best = min(best, time.perf_counter() - started)
    return result, best


def _measure():
    measurements = {}
    for label, spec in ALGORITHMS.items():
        serial, serial_s = _timed_run(spec, "serial")
        vectorized, vectorized_s = _timed_run(spec, "vectorized")
        measurements[label] = {
            "serial": serial,
            "vectorized": vectorized,
            "serial_seconds": serial_s,
            "vectorized_seconds": vectorized_s,
        }
    return measurements


def test_vectorized_speedup_and_parity(benchmark):
    measurements = run_once(benchmark, _measure)

    summary = {"num_clients": NUM_CLIENTS, "rounds": CONFIG.num_rounds}
    rows = []
    for label, m in measurements.items():
        serial, vectorized = m["serial"], m["vectorized"]

        # Parity: identical evaluated accuracies, parameters within the
        # documented tolerance (reduction order is the only difference).
        assert [r.test_accuracy for r in vectorized.history.records] == [
            r.test_accuracy for r in serial.history.records
        ]
        np.testing.assert_allclose(
            vectorized.final_params, serial.final_params, atol=1e-8, rtol=0
        )
        divergence = float(
            np.max(np.abs(vectorized.final_params - serial.final_params))
        )

        speedup = m["serial_seconds"] / m["vectorized_seconds"]
        summary[label] = {
            "serial_seconds": round(m["serial_seconds"], 3),
            "vectorized_seconds": round(m["vectorized_seconds"], 3),
            "speedup": round(speedup, 3),
            "final_accuracy": serial.history.final_accuracy(),
            "max_param_divergence": divergence,
        }
        rows.append({"algorithm": label, **summary[label]})

    print_header(f"Vectorized vs serial executor ({NUM_CLIENTS} clients)")
    print(format_table(rows))
    emit_summary("vectorized_clients", summary, benchmark=benchmark)

    # Parity above is unconditional.  The floors only catch the stacked
    # path losing its point; they sit at half the committed baselines
    # (3.5 / 2.7) or lower, whose 20% gate in check_regressions.py is what
    # guards the ratios.  FedADMM's ragged cohorts go through the thread
    # pool and have read as low as 1.2x while another tenant held the
    # second core, so their floor is "not slower than the per-client loop".
    assert summary["fedavg"]["speedup"] >= 1.75, summary["fedavg"]
    assert summary["fedadmm"]["speedup"] >= 1.0, summary["fedadmm"]
