"""Turn repeats into the ledger's named metrics.

``end_to_end`` reads untraced repeats only.  ``layer_metrics`` reads a traced
repeat: its span list is folded (``probes.fold``) into per-layer self times.
Layer times are per-round means in raw seconds, counts are totals over the K
rounds of one traced repeat, set-up metrics are totals over one set-up.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.experiments.orchestrator import RunSpec
from repro.experiments.store import ExperimentStore
from repro.federated.messages import BYTES_PER_FLOAT

from harness import SERVED_WORKERS, Repeat, run_repeat
from probes import Probes, SpanStat, fold
from workloads import Workload

#: Rounds of the ``tracemalloc`` pass (it slows allocation-heavy code 3-5x).
MEMORY_PASS_ROUNDS = 5

#: metric -> (span name, SpanStat field, scope); "round" = per-round mean,
#: "count" = total over the traced repeat's K rounds, "setup" = set-up total,
#: "p50" = median duration of the calls inside the K rounds.
SPAN_METRICS = {
    "runner.prepare_environment_s": ("runner.prepare_environment", "total_s", "setup"),
    "runner.build_simulation_s": ("runner.build_simulation", "total_s", "setup"),
    "datasets.load_s": ("datasets.load", "total_s", "setup"),
    "partition.partition_s": ("partition.partition", "total_s", "setup"),
    "executor.prime_s": ("executor.prime", "total_s", "setup"),
    "executor.run_tasks_s": ("executor.run_tasks", "total_s", "round"),
    "executor.run_tasks_self_s": ("executor.run_tasks", "self_s", "round"),
    "executor.cohorts": ("algorithms.batched_local_update", "calls", "count"),
    "algorithms.local_update_s": ("algorithms.local_update", "total_s", "round"),
    "algorithms.local_update_self_s": ("algorithms.local_update", "self_s", "round"),
    "algorithms.batched_local_update_s": (
        "algorithms.batched_local_update", "total_s", "round"),
    "algorithms.batched_local_update_self_s": (
        "algorithms.batched_local_update", "self_s", "round"),
    "algorithms.aggregate_s": ("algorithms.aggregate", "total_s", "round"),
    "algorithms.accumulate_s": ("algorithms.accumulate", "total_s", "round"),
    "algorithms.merge_s": ("algorithms.merge", "total_s", "round"),
    "algorithms.finalise_s": ("algorithms.finalise", "total_s", "round"),
    "nn.loss_and_grad_s": ("nn.loss_and_grad", "total_s", "round"),
    "nn.loss_and_grad_calls": ("nn.loss_and_grad", "calls", "count"),
    "nn.batched_loss_and_grad_s": ("nn.batched_loss_and_grad", "total_s", "round"),
    "nn.batched_loss_and_grad_calls": ("nn.batched_loss_and_grad", "calls", "count"),
    "plans.round_self_s": ("plans.round", "self_s", "round"),
    "sampler.sample_s": ("sampler.sample", "total_s", "round"),
    "sampler.calls": ("sampler.sample", "calls", "count"),
    "pipeline.local_updates_self_s": ("pipeline.local_updates", "self_s", "round"),
    "pipeline.local_updates_calls": ("pipeline.local_updates", "calls", "count"),
    "pipeline.compress_s": ("pipeline.compress", "total_s", "round"),
    "pipeline.simulate_systems_s": ("pipeline.simulate_systems", "total_s", "round"),
    "transport.compress_message_s": ("transport.compress_message", "total_s", "round"),
    "transport.calls": ("transport.compress_message", "calls", "count"),
    "codec.encode_s": ("codec.encode", "total_s", "round"),
    "codec.decode_s": ("codec.decode", "total_s", "round"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "total_s", "round"),
    "evaluation.calls": ("evaluation.evaluate", "calls", "count"),
    "protocol.encode_task_s": ("protocol.encode_task", "total_s", "round"),
    "protocol.decode_task_s": ("protocol.decode_task", "total_s", "round"),
    "protocol.encode_submit_s": ("protocol.encode_submit", "total_s", "round"),
    "protocol.decode_submit_s": ("protocol.decode_submit", "total_s", "round"),
    "server.board_wait_s": ("server.board_wait", "total_s", "round"),
    "server.handle_task_s": ("server.handle_task", "total_s", "round"),
    "server.handle_submit_s": ("server.handle_submit", "total_s", "round"),
    "worker.task_request_s_p50": ("worker.task_request", "p50_s", "p50"),
    "worker.submit_request_s_p50": ("worker.submit_request", "p50_s", "p50"),
    "worker.execute_s": ("worker.execute", "total_s", "round"),
    # The traced rounds' own wall: the denominator of every layer's share.
    "trace.round_s": ("round", "total_s", "round"),
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# --------------------------------------------------------------------------- #
# End to end
# --------------------------------------------------------------------------- #
def scaled(workload: Workload, repeat: Repeat) -> tuple[np.ndarray, float, float]:
    """One repeat's round walls, run wall and run CPU time in quiet-box seconds.

    ``served_wire``'s round wall is timers and socket waits, which do not
    slow down with the CPU, so it stays raw; its CPU time is scaled.
    """
    speed = np.asarray(repeat.speed)
    wall_speed = np.ones_like(speed) if workload.shape == "served" else speed
    rounds = np.asarray(repeat.round_s) * wall_speed
    wall = float(rounds.sum() + repeat.tail_s * wall_speed[-1])
    cpu = float(np.dot(repeat.round_cpu_s, speed) + repeat.tail_cpu_s * speed[-1])
    return rounds, wall, cpu


def end_to_end(workload: Workload, repeats: list[Repeat]) -> dict[str, dict]:
    """The end-to-end metrics of one run's repeats.

    Every CPU-bound timing is first scaled by the machine-speed factor read
    next to it (``calibrate``): set-up by its repeat's, each round and its CPU
    time by its own (``scaled``).  A timing metric is then the median over
    the repeats, the round percentiles are taken over the pooled rounds of all
    repeats, and ``q1``/``q3`` are the quartiles of the per-repeat values.
    ``peak_rss_mb`` is read by the caller right after the timed repeats and
    added there.
    """
    first = repeats[0]
    history = first.result.history
    reached = history.rounds_to_accuracy(workload.config.target_accuracy)
    rounds, walls, cpus = zip(*(scaled(workload, repeat) for repeat in repeats))
    pooled = np.concatenate(rounds)

    def median_of(values: list[float]) -> dict:
        q1, median, q3 = quartiles(values)
        return {"value": median, "q1": q1, "q3": q3, "n": len(values)}

    def pooled_percentile(percent: float) -> dict:
        per_repeat = median_of(
            [float(np.percentile(rounds_, percent)) for rounds_ in rounds]
        )
        return {**per_repeat, "value": float(np.percentile(pooled, percent))}

    return {
        "setup_s": median_of([r.setup_s * r.setup_speed for r in repeats]),
        "client_updates_per_s": median_of(
            [r.timed_updates / wall for r, wall in zip(repeats, walls)]
        ),
        "round_s_p50": pooled_percentile(50),
        "round_s_p90": pooled_percentile(90),
        "cpu_s_per_round": median_of([cpu / workload.rounds for cpu in cpus]),
        "upload_bytes_per_round": {
            "value": first.upload_bytes / first.result.rounds_run
        },
        "download_bytes_per_round": {
            "value": first.download_bytes / first.result.rounds_run
        },
        "rounds_to_target": {
            "value": float(
                reached if reached is not None else first.result.rounds_run + 1
            )
        },
        "final_accuracy": {"value": history.final_accuracy()},
    }


def peak_rss_mb() -> float:
    """The process's ``ru_maxrss`` high-water mark (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Per layer
# --------------------------------------------------------------------------- #
def traced_repeat(workload: Workload, seed: int) -> tuple[Repeat, Probes]:
    """One repeat with the probes installed; the probes keep the spans."""
    probes = Probes()
    probes.attach_setup(workload.shape)
    try:
        with probes.span("run", workload=workload.name) as root:
            probes.root_id = root.record.span_id
            repeat = run_repeat(workload, seed, probes)
    finally:
        probes.restore()
    return repeat, probes


def layer_metrics(workload: Workload, repeat: Repeat, probes: Probes) -> dict[str, float]:
    """Every span-derived layer metric of one traced repeat."""
    records = probes.tracer.records
    rounds = workload.rounds
    # The last K ``round`` spans are the timed rounds; what starts before
    # them is set-up (served: including round 1, see ``run_served_repeat``).
    timed_from = sorted(r.start_s for r in records if r.name == "round")[-rounds]
    setup = fold(records, until=timed_from)
    run = fold(records, since=timed_from)
    none = SpanStat()

    metrics = {}
    for name, (span, attr, scope) in SPAN_METRICS.items():
        value = getattr((setup if scope == "setup" else run).get(span, none), attr)
        metrics[name] = value / rounds if scope == "round" else float(value)

    run_tasks = run.get("executor.run_tasks", none)
    cohorts = run.get("algorithms.batched_local_update", none)
    round_spans = run.get("round", none)
    history, ledger = repeat.result.history, repeat.result.ledger
    selected = sum(record.num_selected for record in history.records)
    metrics.update(
        {
            "executor.tasks": float(sum(run_tasks.sizes)),
            "executor.cohort_size_p50": (
                float(statistics.median(cohorts.sizes)) if cohorts.sizes else 0.0
            ),
            "executor.fallback_tasks": float(repeat.fallback_tasks),
            "algorithms.aggregate_calls": float(
                run.get("algorithms.aggregate", none).calls
                + run.get("algorithms.finalise", none).calls
            ),
            "population.materialised_clients": float(repeat.materialised_clients),
            "pipeline.dropped_share": history.total_dropped() / selected,
            "codec.wire_ratio": ledger.upload_wire_bytes
            / (ledger.upload_floats * BYTES_PER_FLOAT),
            "protocol.frames": float(
                run.get("protocol.encode_task", none).calls
                + run.get("protocol.encode_submit", none).calls
            ),
            "server.reclaimed_tasks": float(repeat.reclaimed_tasks),
            "server.duplicate_submissions": float(repeat.duplicate_submissions),
            "server.error_replies": float(repeat.error_replies),
            "worker.empty_polls": float(
                run.get("worker.task_request", none).calls
                - run.get("worker.execute", none).calls
            ),
            "worker.wire_overhead_share": (
                1.0
                - run.get("worker.execute", none).total_s
                / (SERVED_WORKERS * sum(repeat.round_s))
                if workload.shape == "served"
                else 0.0
            ),
            "trace.unattributed_share": (
                round_spans.self_s / round_spans.total_s if round_spans.total_s else 0.0
            ),
        }
    )
    return metrics


def memory_pass(workload: Workload, seed: int) -> float:
    """Peak ``tracemalloc`` KiB over a short untraced repeat."""
    tracemalloc.start()
    try:
        run_repeat(workload.shrunk(min(workload.rounds, MEMORY_PASS_ROUNDS)), seed)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def store_pass(workload: Workload, seed: int, repeat: Repeat, scratch: Path) -> dict:
    """Save and reload the finished result in a throw-away store."""
    root = scratch / f"store-{workload.name}"
    shutil.rmtree(root, ignore_errors=True)
    store = ExperimentStore(root)
    spec = RunSpec(
        study="ledger",
        key=(workload.name,),
        config=workload.seeded(seed),
        algorithm=workload.algorithm,
        stop_at_target=False,
    )
    try:
        started = time.perf_counter()
        store.save_result(spec, repeat.result)
        saved = time.perf_counter()
        store.load_result(store.key_for(spec))
        loaded = time.perf_counter()
        size = sum(
            path.stat().st_size
            for path in (root / store.RESULTS_DIR).iterdir()
            if path.is_file()
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "store.save_result_s": saved - started,
        "store.load_result_s": loaded - saved,
        "store.result_bytes": float(size),
    }
