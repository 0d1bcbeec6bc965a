"""Serve-layer load benchmark: sustained rounds/sec and wire-byte fidelity.

Drives a real :class:`~repro.serve.server.FederationServer` over loopback
HTTP with paced worker clients replaying the scenario's lognormal system
profiles (see :mod:`repro.serve.loadgen`), then records:

* ``rounds_per_sec`` — sustained round throughput (gated: must not drop);
* ``mean/p99_round_latency_seconds`` — wall-clock per round including all
  HTTP hops (gated: must not grow);
* ``real_upload_payload_bytes`` vs ``ledger_upload_wire_bytes`` — the
  serve layer's core fidelity claim.  With the float16 codec the bytes in
  the HTTP bodies must equal the ledger's nominal accounting *exactly*;
  the in-test assertion is the acceptance criterion, the summary fields
  are informational.
* ``empty_task_replies`` — ``/v1/task`` replies that carried no task.
  Workers long-poll, so the count is bounded by the worker count (each
  one's final ``done``); the in-test assertion fails if idle polling or a
  per-reply stall comes back, whatever the machine's speed.

The committed baseline (``benchmarks/baselines/BENCH_serve_load.json``)
carries deliberately conservative latency/throughput bounds so the gate
trips on order-of-magnitude serve-layer regressions, not on CI jitter;
exactness is enforced here, not by the 20% tolerance.
"""

from __future__ import annotations

from bench_utils import emit_summary, print_header

from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.serve.loadgen import run_load_test

#: Cap rounds as well as simulated time: the bench scenario simulates a
#: couple hundred milliseconds per round, so the simulated-seconds budget
#: alone would run far more rounds than a smoke gate needs.
MAX_ROUNDS = 6
SIMULATED_BUDGET_S = 10.0
NUM_WORKERS = 2
TIME_SCALE = 0.002


def test_bench_serve_load():
    print_header("serve load: paced workers vs ledger accounting")
    report = run_load_test(
        preset_config("serve"),
        AlgorithmSpec("fedavg"),
        num_workers=NUM_WORKERS,
        simulated_budget_s=SIMULATED_BUDGET_S,
        max_rounds=MAX_ROUNDS,
        time_scale=TIME_SCALE,
    )
    payload = report.to_payload()
    for key, value in payload.items():
        print(f"  {key}: {value}")

    # Acceptance criteria, exact — not subject to the gate's tolerance.
    assert report.rounds > 0
    assert report.codec == "float16"
    assert (
        report.real_upload_payload_bytes
        == report.ledger_upload_wire_bytes
        == report.expected_real_upload_bytes
    )
    assert report.duplicate_submissions == 0
    # The waiting is gone by construction, not by a latency ceiling: task
    # requests block server-side, so only each worker's final "done" reply
    # is empty.  Idle polling would add one empty reply per poll.
    assert report.empty_task_replies <= NUM_WORKERS

    emit_summary("serve_load", payload)
