"""Observability overhead: tracing off must stay free, tracing on cheap.

The observability subsystem (``repro.obs``) threads a tracer and a
metrics registry through the engine, pipeline, executors, and plans.
The disabled path is a shared null tracer plus ``is not None`` checks,
so a run with observability off must cost the same as the PR-5
vectorized baseline; a fully instrumented run (tracer + metrics, with a
span per stacked kernel call) pays per-span bookkeeping but must stay
within a small constant factor.  Three wall clocks are measured at 64 clients:

* ``serial`` / observability off — the dispatch-bound reference point;
* ``vectorized`` / observability off — re-measures the stacked-kernel
  speedup with the obs hooks merged (``vectorized_speedup`` gates it).
  That ratio's numerator is the per-client path (``serial_off_seconds /
  vectorized_off_seconds``), so a faster serial step lowers it with the
  stacked path unchanged (the flat-buffer model: ~4.8x to ~2.9x); read a
  drop against ``serial_off_seconds`` before calling it a regression;
* ``vectorized`` / observability on — every sink active, spans recorded
  for every round/task/phase and kernel call (``tracing_off_speedup`` = on/off gates the
  disabled path staying free relative to the instrumented one).

The traced run is also reconciled against its own accounting: round
spans match ``rounds_run``, ``client_task`` spans match the
``tasks_executed`` counter, and the metrics snapshot agrees with the
training history.  The headline ratios land in
``BENCH_obs_overhead.json``; the CI regression gate compares them
against ``benchmarks/baselines/``.
"""

import time

from bench_utils import BENCH_SEED, emit_summary, print_header, run_once

from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.experiments.runner import build_simulation, prepare_environment
from repro.experiments.tables import format_table
from repro.obs import MetricsRegistry, Tracer, observe

NUM_CLIENTS = 64

CONFIG = ExperimentConfig(
    name="bench-obs-overhead",
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

SPEC = AlgorithmSpec("fedadmm", {"rho": 0.3})


def _timed_run(executor: str, instrumented: bool, repeats: int = 2):
    """Best-of-``repeats`` wall clock (same damping as the vectorized
    bench), plus the winning run's tracer/metrics when instrumented."""
    config = CONFIG.with_overrides(executor=executor)
    best = float("inf")
    result = tracer = metrics = None
    for _ in range(repeats):
        run_tracer = Tracer() if instrumented else None
        run_metrics = MetricsRegistry() if instrumented else None
        split, clients, _ = prepare_environment(config)
        with observe(tracer=run_tracer, metrics=run_metrics):
            simulation = build_simulation(config, SPEC, clients=clients, split=split)
            started = time.perf_counter()
            run_result = simulation.run(config.num_rounds)
            elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            result, tracer, metrics = run_result, run_tracer, run_metrics
    return result, best, tracer, metrics


def _measure():
    serial_off, serial_off_s, _, _ = _timed_run("serial", instrumented=False)
    vec_off, vec_off_s, _, _ = _timed_run("vectorized", instrumented=False)
    vec_on, vec_on_s, tracer, metrics = _timed_run("vectorized", instrumented=True)
    return {
        "serial_off": (serial_off, serial_off_s),
        "vectorized_off": (vec_off, vec_off_s),
        "vectorized_on": (vec_on, vec_on_s),
        "tracer": tracer,
        "metrics": metrics,
    }


def test_observability_overhead(benchmark):
    measurements = run_once(benchmark, _measure)
    serial_off, serial_off_s = measurements["serial_off"]
    vec_off, vec_off_s = measurements["vectorized_off"]
    vec_on, vec_on_s = measurements["vectorized_on"]
    tracer: Tracer = measurements["tracer"]
    metrics: MetricsRegistry = measurements["metrics"]

    # Observability must not change the training: identical evaluated
    # accuracies off vs on (same executor, same seeds, same cohorts).
    assert [r.test_accuracy for r in vec_on.history.records] == [
        r.test_accuracy for r in vec_off.history.records
    ]

    # Span accounting reconciles exactly with the run's own history and
    # the metrics registry's counters.
    records = tracer.sorted_records()
    by_name = {}
    for record in records:
        by_name.setdefault(record.name, []).append(record)
    snapshot = metrics.snapshot()
    assert len(by_name["round"]) == vec_on.rounds_run
    assert snapshot["counters"]["rounds_completed"] == vec_on.rounds_run
    assert len(by_name["client_task"]) == snapshot["counters"]["tasks_executed"]
    assert len(by_name["local_sgd"]) == len(by_name["client_task"])
    assert len(by_name["compress"]) == vec_on.rounds_run
    assert any(name.startswith("kernel.") for name in by_name)

    speedup = serial_off_s / vec_off_s
    off_vs_on = vec_on_s / vec_off_s
    summary = {
        "num_clients": NUM_CLIENTS,
        "rounds": CONFIG.num_rounds,
        "serial_off_seconds": round(serial_off_s, 3),
        "vectorized_off_seconds": round(vec_off_s, 3),
        "vectorized_on_seconds": round(vec_on_s, 3),
        # Gated (higher is better): the vectorized win must survive the
        # obs hooks on the disabled path.
        "vectorized_speedup": round(speedup, 3),
        # Gated (higher is better): instrumented-over-disabled wall
        # ratio.  If the disabled path grows per-span work, this drops.
        "tracing_off_speedup": round(off_vs_on, 3),
        "final_accuracy": vec_off.history.final_accuracy(),
        "spans_recorded": len(records),
        "tasks_executed": snapshot["counters"]["tasks_executed"],
    }

    print_header(f"Observability overhead ({NUM_CLIENTS} clients, vectorized)")
    print(
        format_table(
            [
                {
                    "mode": "serial / obs off",
                    "seconds": round(serial_off_s, 3),
                },
                {"mode": "vectorized / obs off", "seconds": round(vec_off_s, 3)},
                {"mode": "vectorized / obs on", "seconds": round(vec_on_s, 3)},
            ]
        )
    )
    print(
        f"vectorized speedup {speedup:.2f}x, "
        f"instrumented/disabled ratio {off_vs_on:.2f}x, "
        f"{len(records)} spans"
    )
    emit_summary("obs_overhead", summary, benchmark=benchmark)

    # Stacked kernels must still beat the per-client loop with the obs
    # hooks merged.  The committed baseline (2.5, 20% gate) guards the
    # ratio; fedadmm's ragged cohorts have read 1.1x while another tenant
    # held the second core, so the floor is only "not slower".
    assert speedup >= 1.0, summary
    # Full instrumentation may at most double the run even at this tiny,
    # span-dense scale (512 tasks over well under a second of work).
    assert vec_on_s <= vec_off_s * 2.0, summary
