"""Correctness checks on the outputs of the benchmarked runs.

Every check returns named failure lines; any failure makes the command exit
non-zero and counts in ``failed`` (hence in ``failed_ops_share``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from harness import Repeat, build_sim
from workloads import Workload

#: The vectorized executor's documented tolerance against the serial loop
#: (docs/tutorials/fast-sweeps.md); accuracies must match exactly.
VECTORIZED_ATOL = 1e-8
PARITY_ROUNDS = 2


def check_repeats(workload: Workload, repeats: list[Repeat]) -> list[str]:
    """Checks on every repeat of one workload, and across them."""
    failures = []
    expected_rounds = workload.rounds + (1 if workload.shape == "served" else 0)
    for index, repeat in enumerate(repeats):
        where = f"{workload.name} repeat {index}"
        failures += [f"{where}: {line}" for line in repeat.failures]
        history, ledger = repeat.result.history, repeat.result.ledger
        if repeat.result.rounds_run != expected_rounds:
            failures.append(
                f"{where}: ran {repeat.result.rounds_run} rounds, "
                f"expected {expected_rounds}"
            )
        if not np.all(np.isfinite(history.train_losses)):
            failures.append(f"{where}: non-finite train_loss")
        recorded = sum(record.upload_wire_bytes for record in history.records)
        if recorded != ledger.upload_wire_bytes:
            failures.append(
                f"{where}: round records carry {recorded} upload wire bytes, "
                f"ledger {ledger.upload_wire_bytes}"
            )
        if repeat.updates_completed != repeat.updates_attempted:
            failures.append(
                f"{where}: {repeat.updates_attempted} updates attempted, "
                f"{repeat.updates_completed} aggregated"
            )
        if repeat.wire_failures:
            failures.append(
                f"{where}: {repeat.error_replies} non-200 replies, "
                f"{repeat.reclaimed_tasks} reclaimed tasks, "
                f"{repeat.duplicate_submissions} duplicate submissions"
            )
        if repeat.fallback_tasks:
            failures.append(f"{where}: {repeat.fallback_tasks} executor fallback tasks")
    digests = {repeat.digest() for repeat in repeats}
    if len(digests) > 1:
        failures.append(
            f"{workload.name}: {len(digests)} distinct final_params/accuracy "
            f"digests across {len(repeats)} repeats of one seed"
        )
    return failures


def _run_in_process(workload: Workload, seed: int, rounds: int, **overrides):
    variant = replace(
        workload,
        shape="sim",
        rounds=rounds,
        config=replace(workload.config, **overrides),
    )
    simulation = build_sim(variant, seed)
    for _ in range(rounds):
        simulation.run_round()
    simulation.pipeline.close()
    return simulation


def check_vectorized_parity(workload: Workload, seed: int) -> list[str]:
    """``vec_*``: two rounds match a serial run of the same config."""
    batched = _run_in_process(workload, seed, PARITY_ROUNDS)
    serial = _run_in_process(workload, seed, PARITY_ROUNDS, executor="serial")
    failures = []
    if not np.allclose(
        batched.state.params, serial.state.params, rtol=0.0, atol=VECTORIZED_ATOL
    ):
        worst = float(np.max(np.abs(batched.state.params - serial.state.params)))
        failures.append(
            f"{workload.name}: vectorized params differ from serial by {worst:.3e} "
            f"after {PARITY_ROUNDS} rounds (atol {VECTORIZED_ATOL})"
        )
    if not np.array_equal(
        batched.history.accuracies, serial.history.accuracies, equal_nan=True
    ):
        failures.append(f"{workload.name}: vectorized accuracies differ from serial")
    return failures


def check_served_identity(workload: Workload, seed: int, served: Repeat) -> list[str]:
    """``served_wire``: history equals the in-process thread-executor run."""
    local = _run_in_process(workload, seed, served.result.rounds_run, executor="thread")
    remote = served.result
    same = (
        np.array_equal(local.state.params, remote.final_params)
        and np.array_equal(
            local.history.accuracies, remote.history.accuracies, equal_nan=True
        )
        and np.array_equal(
            local.history.train_losses, remote.history.train_losses, equal_nan=True
        )
        and local.ledger.upload_wire_bytes == remote.ledger.upload_wire_bytes
    )
    if same:
        return []
    return [f"{workload.name}: served history is not bit-identical to in-process"]


def check_workload(workload: Workload, seed: int, repeats: list[Repeat]) -> list[str]:
    """All checks for one workload's measured repeats."""
    failures = check_repeats(workload, repeats)
    if workload.config.executor == "vectorized":
        failures += check_vectorized_parity(workload, seed)
    if workload.shape == "served":
        failures += check_served_identity(workload, seed, repeats[0])
    return failures

