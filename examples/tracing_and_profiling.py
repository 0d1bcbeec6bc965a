"""Tracing, metrics, and profiling a federated run end to end.

Runs the same asynchronous FedADMM simulation twice — client work on the
calling thread's serial executor, then on a thread pool — with the full
observability stack attached (tracer + metrics registry), and
shows that the recorded span tree is identical in shape either way:
worker threads return plain span records that the pipeline adopts
back under the correct ``round`` span, so the trace reconciles with the
training history no matter where the work physically ran.

Writes ``traces/async-serial.trace.json`` and
``traces/async-thread.trace.json`` (Chrome ``trace_event`` JSON — open
them in chrome://tracing or https://ui.perfetto.dev), prints each run's
span-tree summary, the metrics snapshot, and the hot-spot table folded
from the thread-executor run's spans.

This is the library-level face of the CLI's ``--trace`` / ``--metrics``
flags and of ``repro profile <study>``.

Run with:  python examples/tracing_and_profiling.py
"""

from __future__ import annotations

from pathlib import Path

from repro import (
    ShardPartitioner,
    UniformFractionSampler,
    build_algorithm,
    build_clients,
    build_network,
    make_blobs,
)
from repro.federated import AsyncPlan, FederatedSimulation
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP
from repro.obs import MetricsRegistry, Tracer, hotspot_table, observe
from repro.obs.trace import span_tree
from repro.systems.executor import build_executor

ROUNDS = 10
NUM_CLIENTS = 20
OUT_DIR = Path("traces")


def build(executor_name: str) -> FederatedSimulation:
    split = make_blobs(n_train=1200, n_test=400, rng=0)
    partition = ShardPartitioner(shards_per_client=2).partition(
        split.train, num_clients=NUM_CLIENTS, rng=0
    )
    clients = build_clients(split.train, partition)
    model = MLP(input_dim=split.train.feature_dim, hidden_dims=(32,), rng=0)
    return FederatedSimulation(
        algorithm=build_algorithm("fedadmm", rho=0.5),
        model=model,
        clients=clients,
        test_dataset=split.test,
        loss=CrossEntropyLoss(),
        sampler=UniformFractionSampler(0.2),
        batch_size=32,
        learning_rate=0.1,
        seed=0,
        network=build_network("lognormal"),
        executor=build_executor(executor_name, max_workers=2),
        plan=AsyncPlan(buffer_size=4, max_concurrency=8),
    )


def traced_run(executor_name: str):
    """One fully instrumented run; returns (result, tracer, metrics)."""
    tracer, metrics = Tracer(), MetricsRegistry()
    with observe(tracer=tracer, metrics=metrics):
        simulation = build(executor_name)
        result = simulation.run(ROUNDS)
    return result, tracer, metrics


def describe(label: str, result, tracer: Tracer) -> dict[str, int]:
    """Print one run's span-tree summary and return its name → count map."""
    records = tracer.sorted_records()
    counts: dict[str, int] = {}
    for record in records:
        counts[record.name] = counts.get(record.name, 0) + 1
    spans = {record.span_id: record for record in records}
    depth_of = {}

    def depth(record) -> int:
        if record.span_id not in depth_of:
            parent = spans.get(record.parent_id)
            depth_of[record.span_id] = 0 if parent is None else 1 + depth(parent)
        return depth_of[record.span_id]

    tree = span_tree(records)
    print(f"\n=== {label}: {len(records)} spans, {result.rounds_run} rounds ===")
    for name in ("run", "round", "client_task", "local_sgd", "aggregate"):
        print(f"  {name:12s} x{counts.get(name, 0)}")
    # Render the first round's subtree as an indented outline.
    first_round = next(r for r in records if r.name == "round")
    stack = [first_round]
    while stack:
        record = stack.pop()
        indent = "  " * (1 + depth(record))
        virtual = (
            "" if record.virtual_end_s is None
            else f"  [virtual {record.virtual_start_s:.2f}s → "
                 f"{record.virtual_end_s:.2f}s]"
        )
        print(f"{indent}{record.name}{virtual}")
        stack.extend(reversed(tree.get(record.span_id, [])))
    return counts


def main() -> None:
    serial_result, serial_tracer, _ = traced_run("serial")
    thread_result, thread_tracer, metrics = traced_run("thread")

    serial_counts = describe("serial executor", serial_result, serial_tracer)
    thread_counts = describe("thread executor", thread_result, thread_tracer)

    assert serial_counts == thread_counts, (
        "the span tree must not depend on where the client work ran"
    )
    print(
        "\nSpan trees are identical across executors: worker threads "
        "return plain\nspan records that Tracer.adopt re-parents "
        "under the round that dispatched them."
    )

    OUT_DIR.mkdir(exist_ok=True)
    for name, tracer in (
        ("async-serial", serial_tracer), ("async-thread", thread_tracer)
    ):
        path = tracer.write_chrome_trace(OUT_DIR / f"{name}.trace.json")
        print(f"wrote {path} ({len(tracer.records)} spans)")

    print("\n=== metrics (thread-executor run) ===")
    print(metrics.render_text())
    print("\n=== hot spots (thread-executor run) ===")
    print(hotspot_table(thread_tracer.records, top=8))


if __name__ == "__main__":
    main()
