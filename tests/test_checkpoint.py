"""The simulation's own checkpoint: ``checkpoint()`` then ``restore()``.

A run stopped after k rounds, checkpointed, restored into a freshly built
simulation and finished must be the uninterrupted run bit for bit — history,
final parameters and ledger — under every lock-step plan and executor, for
algorithms with client variables (FedADMM, SCAFFOLD), server state
(SCAFFOLD) and a private server-side coin (FedPD at p = 0.5).  The checkpoint
goes through ``np.savez`` / ``np.load`` (no pickling) on the way, as it does
through an :class:`~repro.experiments.store.ExperimentStore`.
"""

from __future__ import annotations

import dataclasses
import io

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.runner import build_simulation

ROUNDS = 3

ALGORITHMS = {
    "fedavg": AlgorithmSpec("fedavg"),
    "fedadmm": AlgorithmSpec("fedadmm"),
    "scaffold": AlgorithmSpec("scaffold"),
    "fedpd-p0.5": AlgorithmSpec("fedpd", {"communication_probability": 0.5}),
}
PLANS = {"flat": {}, "hier2": {"plan": "hierarchical", "num_shards": 2}}


def _config(plan: str, executor: str, **overrides):
    # Dropout puts the fault stream to work; the serve preset already draws
    # random local epochs and client samples every round.
    return preset_config(
        "serve", executor=executor, dropout=0.2, **PLANS[plan], **overrides
    )


def _through_npz(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    buffer.seek(0)
    with np.load(buffer) as archive:  # allow_pickle=False
        return {name: archive[name] for name in archive.files}


def _states(simulation) -> dict:
    return {
        label: generator.bit_generator.state
        for label, generator in simulation.rng_streams().items()
    }


def _assert_same_run(resumed, reference) -> None:
    assert [dataclasses.asdict(r) for r in resumed.history.records] == [
        dataclasses.asdict(r) for r in reference.history.records
    ]
    assert resumed.final_params.tobytes() == reference.final_params.tobytes()
    assert dataclasses.asdict(resumed.ledger) == dataclasses.asdict(reference.ledger)


@pytest.mark.parametrize("stop_after", [1, 2])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("executor", ["serial", "thread", "vectorized"])
@pytest.mark.parametrize("plan", PLANS)
def test_restored_run_is_the_uninterrupted_run(plan, executor, algorithm, stop_after):
    config, spec = _config(plan, executor), ALGORITHMS[algorithm]
    reference = build_simulation(config, spec).run(ROUNDS, target_accuracy=None)

    first = build_simulation(config, spec)
    first.run(stop_after, target_accuracy=None)
    saved = _states(first)
    checkpoint = _through_npz(first.checkpoint())

    second = build_simulation(config, spec)
    second.restore(checkpoint, first.result())
    assert _states(second) == saved
    assert [
        (c.client_id, c.rounds_participated, c.local_work_done, c.variables.keys())
        for c in second.clients
    ] == [
        (c.client_id, c.rounds_participated, c.local_work_done, c.variables.keys())
        for c in first.clients
    ]
    resumed = second.run(ROUNDS - stop_after, target_accuracy=None)
    _assert_same_run(resumed, reference)


def test_the_checkpoint_names_every_stream_the_plan_draws_from():
    flat = build_simulation(_config("flat", "serial"), ALGORITHMS["fedpd-p0.5"])
    assert sorted(flat.checkpoint()["rng_labels"]) == [
        "client-sampling", "faults", "fedpd-communication", "local-training",
        "local-work", "transport",
    ]
    sharded = build_simulation(_config("hier2", "serial"), ALGORITHMS["fedavg"])
    labels = set(sharded.checkpoint()["rng_labels"])
    assert {"client-sampling/shard-0", "client-sampling/shard-1",
            "local-work/shard-0", "local-work/shard-1"} <= labels


def test_only_rows_a_client_set_are_restored():
    config = _config("flat", "serial")
    first = build_simulation(config, ALGORITHMS["scaffold"])
    for client in first.clients:  # as if built without eager client init
        client.variables = {}
    first.run(1, target_accuracy=None)
    checkpoint = first.checkpoint()
    has = checkpoint["has.control"]
    assert 0 < has.sum() < len(first.clients)  # only the round's cohort
    assert not checkpoint["var.control"][~has].any()

    second = build_simulation(config, ALGORITHMS["scaffold"])
    second.restore(checkpoint, first.result())
    assert [c.has("control") for c in second.clients] == has.tolist()


def test_a_mismatched_pair_is_refused_before_anything_moves():
    config, spec = _config("flat", "serial"), ALGORITHMS["fedadmm"]
    first = build_simulation(config, spec)
    first.run(2, target_accuracy=None)
    checkpoint, result = first.checkpoint(), first.result()
    checkpoint["rounds_run"] = np.asarray(1)
    second = build_simulation(config, spec)
    untouched = _states(second)
    with pytest.raises(ConfigurationError, match="from round 1 but the result from round 2"):
        second.restore(checkpoint, result)
    assert _states(second) == untouched


def test_restore_refuses_buffered_plans():
    config = preset_config("serve", mode="semisync")
    first = build_simulation(config, ALGORITHMS["fedavg"])
    first.run(1, target_accuracy=None)
    second = build_simulation(config, ALGORITHMS["fedavg"])
    with pytest.raises(ConfigurationError, match="in-flight updates") as caught:
        second.restore(first.checkpoint(), first.result())
    assert "\n" not in str(caught.value)


def test_restore_refuses_a_checkpoint_from_another_plan():
    spec = ALGORITHMS["fedavg"]
    flat = build_simulation(_config("flat", "serial"), spec)
    flat.run(1, target_accuracy=None)
    sharded = build_simulation(_config("hier2", "serial"), spec)
    with pytest.raises(ConfigurationError, match="streams"):
        sharded.restore(flat.checkpoint(), flat.result())
