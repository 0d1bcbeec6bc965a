"""Parallel-cohort vectorized executor: speedup over serial at 256 clients.

The PR-5 benchmark (``test_bench_vectorized_clients.py``) pins the
stacked kernels alone at 64 clients.  This benchmark pins
the next stage of the speed stack at 256 clients, where the per-client
Python dispatch the serial executor pays scales linearly while the
stacked path amortises it across the whole population:

* **speedup** — the same 256-client federated run under ``vectorized``
  (pooled per-cohort workspaces + parallel cohort dispatch) vs
  ``serial``, best of 3.  The fixed-epoch FedAvg cohort is
  the headline (~7x); FedADMM's variable epochs fragment rounds into
  ragged cohorts, exercising the parallel dispatch path, and its
  recorded ratio shows what survives fragmentation.  **The ratio's
  numerator is the per-client path** (``serial_seconds /
  vectorized_seconds``): a faster serial step lowers it with the stacked
  path unchanged — the flat-buffer model took the four ratios from
  12 / 6 / 8.5 / 6.5 to about 7 / 4.7 / 5.4 / 4.4.  Read a drop against
  ``serial_seconds`` before calling it a regression.  The in-test floors
  sit at half the committed baselines or lower: wall-clock ratios sag on
  a loaded 2-core box, and the 20% gate of ``check_regressions.py``
  against the baselines is what guards the ratio itself.
* **full coverage** — every algorithm measured, the timed pair and the
  newly batched SCAFFOLD and FedPD (stacked control variates / stacked
  duals), runs under ``vectorized`` with **zero** fallback counter
  increments, asserted against the labelled ``executor.fallback.*``
  metrics.
* **parity** — identical evaluated accuracies and final parameters within
  the documented ``atol=1e-8`` tolerance for every algorithm measured.

The ratios land in ``BENCH_backend_parallel.json``; the CI regression
gate compares them against ``benchmarks/baselines/``.
"""

import time

import numpy as np
from bench_utils import BENCH_SEED, emit_summary, print_header, run_once

from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.experiments.runner import build_simulation, prepare_environment
from repro.experiments.tables import format_table
from repro.obs import MetricsRegistry, observe

NUM_CLIENTS = 256

CONFIG = ExperimentConfig(
    name="bench-backend-parallel",
    dataset="blobs",
    n_train=1024,  # 4 samples per client: deep in the dispatch-bound regime
    n_test=256,
    model="mlp",
    model_kwargs={"input_dim": 32, "hidden_dims": (8,)},
    num_clients=NUM_CLIENTS,
    client_fraction=1.0,  # every client trains every round
    local_epochs=10,
    batch_size=None,  # full-batch: one stacked kernel call per epoch
    learning_rate=0.1,
    num_rounds=4,
    target_accuracy=0.999,
    eval_every=1000,  # one mid-run evaluation; keep the hot path dominant
    seed=BENCH_SEED,
)

#: The timed pair (serial vs vectorized, best of 3).
TIMED_ALGORITHMS = {
    "fedavg": AlgorithmSpec("fedavg", {}),
    "fedadmm": AlgorithmSpec("fedadmm", {"rho": 0.3}),
}

#: The newly batched pair: checked for parity and zero fallbacks (single
#: timed run each — their kernels are the same stacked SGD plus O(C·dim)
#: stacked state updates, so the headline ratio is the pair above).
COVERAGE_ALGORITHMS = {
    "scaffold": AlgorithmSpec("scaffold", {}),
    "fedpd": AlgorithmSpec("fedpd", {"rho": 0.3}),
}


def _timed_run(spec: AlgorithmSpec, executor: str, repeats: int = 3):
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
    for label, spec in TIMED_ALGORITHMS.items():
        serial, serial_s = _timed_run(spec, "serial")
        metrics = MetricsRegistry()
        with observe(metrics=metrics):
            vectorized, vectorized_s = _timed_run(spec, "vectorized")
        measurements[label] = {
            "serial": serial,
            "vectorized": vectorized,
            "serial_seconds": serial_s,
            "vectorized_seconds": vectorized_s,
            "counters": metrics.snapshot()["counters"],
        }

    coverage = {}
    for label, spec in COVERAGE_ALGORITHMS.items():
        serial, serial_s = _timed_run(spec, "serial", repeats=1)
        metrics = MetricsRegistry()
        with observe(metrics=metrics):
            vectorized, vectorized_s = _timed_run(spec, "vectorized", repeats=1)
        coverage[label] = {
            "serial": serial,
            "vectorized": vectorized,
            "serial_seconds": serial_s,
            "vectorized_seconds": vectorized_s,
            "counters": metrics.snapshot()["counters"],
        }
    return measurements, coverage


def _assert_parity(serial, vectorized):
    assert [r.test_accuracy for r in vectorized.history.records] == [
        r.test_accuracy for r in serial.history.records
    ]
    np.testing.assert_allclose(
        vectorized.final_params, serial.final_params, atol=1e-8, rtol=0
    )
    return float(np.max(np.abs(vectorized.final_params - serial.final_params)))


def _assert_no_fallbacks(counters):
    """Not a single task fell back to the serial per-task loop, for either
    labelled reason."""
    fallbacks = {
        name: value
        for name, value in counters.items()
        if name.startswith("executor.fallback.")
    }
    assert not fallbacks, fallbacks
    assert counters.get("executor.batched_tasks", 0) >= NUM_CLIENTS


def test_backend_parallel_speedup_parity_and_coverage(benchmark):
    measurements, coverage = run_once(benchmark, _measure)

    summary = {"num_clients": NUM_CLIENTS, "rounds": CONFIG.num_rounds}
    rows = []
    for label, m in measurements.items():
        divergence = _assert_parity(m["serial"], m["vectorized"])
        _assert_no_fallbacks(m["counters"])
        speedup = m["serial_seconds"] / m["vectorized_seconds"]
        summary[label] = {
            "serial_seconds": round(m["serial_seconds"], 3),
            "vectorized_seconds": round(m["vectorized_seconds"], 3),
            "speedup": round(speedup, 3),
            "final_accuracy": m["serial"].history.final_accuracy(),
            "max_param_divergence": divergence,
        }
        rows.append({"algorithm": label, **summary[label]})

    for label, m in coverage.items():
        divergence = _assert_parity(m["serial"], m["vectorized"])
        _assert_no_fallbacks(m["counters"])
        speedup = m["serial_seconds"] / m["vectorized_seconds"]
        summary[label] = {
            "serial_seconds": round(m["serial_seconds"], 3),
            "vectorized_seconds": round(m["vectorized_seconds"], 3),
            "speedup": round(speedup, 3),
            "fallback_tasks": 0,
            "max_param_divergence": divergence,
        }
        rows.append({"algorithm": label, **summary[label]})

    print_header(
        f"Pooled workspaces + parallel cohorts vs serial ({NUM_CLIENTS} clients)"
    )
    print(format_table(rows))
    emit_summary("backend_parallel", summary, benchmark=benchmark)

    # Parity and zero fallbacks above are unconditional.  The floors below
    # only catch the batched path losing its point; they sit at half the
    # committed baselines (6.5 / 4.2 / 5.0 / 4.0) or lower, whose 20% gate
    # in check_regressions.py is what guards the ratios.
    assert summary["fedavg"]["speedup"] >= 3.0, summary["fedavg"]
    # Variable local work fragments rounds into ragged cohorts on the
    # thread pool (FedADMM, FedPD); they have read 2.0x while another
    # tenant held the second core.  Batching must still win clearly.
    assert summary["fedadmm"]["speedup"] >= 1.5, summary["fedadmm"]
    # The newly batched algorithms must win too, not merely not fall back.
    assert summary["scaffold"]["speedup"] >= 2.5, summary["scaffold"]
    assert summary["fedpd"]["speedup"] >= 1.5, summary["fedpd"]
