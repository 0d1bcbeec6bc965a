"""End-to-end networked federation: server + worker *processes* on loopback.

The serve layer's central claim, checked for real: spawn a
:class:`~repro.serve.server.FederationServer` plus separate worker
processes, run every registered algorithm (and FedADMM on the 2-shard
hierarchical plan) for a few rounds over actual HTTP, and
the :class:`TrainingHistory` is **bit-identical** to the in-process
simulation with the same seeds — not approximately equal, byte-for-byte
the same floats.  Tasks flow through the isolated-executor seam (integer
seeds derived from round/client labels), so which worker computes which
update, and in what order, cannot matter.

The second claim: the ledger's nominal wire accounting corresponds to real
bytes in the HTTP bodies.  For float16 the packed payload equals the
nominal ``codec.wire_bytes`` exactly; for identity the real float64 body
is exactly twice the nominal float32 accounting.  Both relations are
asserted against the server's byte counters, which measure the actual
submit-frame payload blobs — and every other registered codec (and no
codec at all) crosses the socket too, its real bytes equal to
``expected_real_bytes`` and, where encoding is deterministic, its history
bit-identical to the in-process run.

The served × adversary cells are decided the same way: an
update-corrupting adversary on an exact codec is pinned served ≡
in-process; the cells the serve layer cannot reproduce (poisoned datasets,
corruption under a lossy codec) are refused at construction.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.algorithms import ALGORITHM_REGISTRY
from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.runner import build_simulation
from repro.serve.loadgen import expected_real_bytes
from repro.serve.server import FederationServer
from repro.serve.worker import run_worker

ROUNDS = 3
WORKERS = 2


def serve_run(config, spec, rounds=ROUNDS, num_workers=WORKERS, **server_kwargs):
    """One networked run: returns (server, SimulationResult)."""
    server = FederationServer(config, spec, num_rounds=rounds, **server_kwargs)
    server.start()
    processes = [
        multiprocessing.Process(
            target=run_worker,
            kwargs=dict(url=server.url, worker_id=f"e2e-{index}"),
            daemon=True,
        )
        for index in range(num_workers)
    ]
    for process in processes:
        process.start()
    try:
        result = server.wait(timeout=300)
    finally:
        server.stop()
        for process in processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - cleanup only
                process.terminate()
    return server, result


def reference_run(config, spec, rounds=ROUNDS):
    """The in-process ground truth: same config, isolated thread executor.

    The serve layer hands every task an integer seed through the isolated
    executor seam, so its ground truth is the isolated in-process executor
    (``executor="thread"``), not the shared-rng serial default.
    """
    sim = build_simulation(config.with_overrides(executor="thread"), spec)
    return sim.run(rounds, target_accuracy=None)


def assert_bit_identical(networked, reference):
    """Histories, final params, and ledgers must match exactly."""
    assert networked.algorithm == reference.algorithm
    assert len(networked.history.records) == len(reference.history.records)
    for served, simulated in zip(
        networked.history.records, reference.history.records
    ):
        assert dataclasses.asdict(served) == dataclasses.asdict(simulated)
    assert np.array_equal(networked.final_params, reference.final_params)
    networked_ledger = dataclasses.asdict(networked.ledger)
    reference_ledger = dataclasses.asdict(reference.ledger)
    assert networked_ledger == reference_ledger


@pytest.mark.parametrize(
    "algorithm, overrides",
    [pytest.param(name, {}, id=name) for name in sorted(ALGORITHM_REGISTRY)]
    + [
        pytest.param(
            "fedadmm", {"plan": "hierarchical", "num_shards": 2}, id="fedadmm-hierarchical"
        )
    ],
)
def test_networked_history_bit_identical_to_simulation(algorithm, overrides):
    """One worker, so every task of a round is a lean frame on the held model
    but the first — server state (SCAFFOLD) and the per-shard dispatches of
    the hierarchical plan included."""
    config = preset_config("serve", **overrides)
    spec = AlgorithmSpec(algorithm)
    server, networked = serve_run(config, spec, num_workers=1)
    reference = reference_run(config, spec)
    assert_bit_identical(networked, reference)
    assert server.metrics.counter("serve.model_frames").value == ROUNDS

    # Real bytes on the wire: float16's packed payload equals the ledger's
    # nominal wire accounting exactly, per codec design.
    counters = server.metrics.snapshot()["counters"]
    real_bytes = int(counters["serve.payload_bytes.float16"])
    assert real_bytes == networked.ledger.upload_wire_bytes
    assert real_bytes == expected_real_bytes(server)
    assert server.board.reclaimed == 0
    assert server.board.duplicates == 0


@pytest.mark.parametrize("algorithm", ["fedadmm", "fedpd", "scaffold"])
def test_client_state_held_by_two_workers_keeps_the_history(algorithm):
    """Each worker keeps the variables of the clients it served and is sent
    them again only on a miss; which worker holds what cannot matter."""
    config = preset_config("serve")
    spec = AlgorithmSpec(algorithm)
    server, networked = serve_run(config, spec)
    assert_bit_identical(networked, reference_run(config, spec))
    counters = server.metrics.snapshot()["counters"]
    assert 0 < counters["serve.client_state_frames"] <= counters["serve.requests.submit"]
    assert not [name for name in counters if name.startswith("serve.errors.")]


def test_identity_codec_real_bytes_are_double_the_nominal():
    """identity ships float64 on the wire against float32 nominal accounting."""
    config = preset_config("serve", codec="identity")
    spec = AlgorithmSpec("fedavg")
    server, networked = serve_run(config, spec)
    reference = reference_run(config, spec)
    assert_bit_identical(networked, reference)

    counters = server.metrics.snapshot()["counters"]
    real_bytes = int(counters["serve.payload_bytes.identity"])
    assert real_bytes == 2 * networked.ledger.upload_wire_bytes
    assert real_bytes == expected_real_bytes(server)


@pytest.mark.parametrize("codec", ["topk", "qsgd", "signsgd", None])
def test_every_other_codec_crosses_the_socket(codec):
    """Real submit bytes are the codec's ``packed_bytes``, per upload."""
    config = preset_config("serve", codec=codec)
    spec = AlgorithmSpec("fedadmm")
    server, networked = serve_run(config, spec, rounds=2)
    reference = reference_run(config, spec, rounds=2)

    counters = server.metrics.snapshot()["counters"]
    real_bytes = int(counters[f"serve.payload_bytes.{codec or 'raw'}"])
    assert real_bytes == expected_real_bytes(server) > 0
    assert networked.metadata["codec"] == codec
    assert dataclasses.asdict(networked.ledger) == dataclasses.asdict(reference.ledger)
    assert server.metrics.counter("serve.errors.malformed").value == 0
    if codec == "qsgd":
        # Stochastic rounding: the worker draws from the task seed, the
        # in-process transport from its own stream.  Same cost, other bits.
        assert len(networked.history.records) == len(reference.history.records)
    else:
        assert_bit_identical(networked, reference)


def test_networked_run_with_more_workers_than_tasks_is_identical():
    """Worker count is a scheduling detail; four processes, same bits."""
    config = preset_config("serve")
    spec = AlgorithmSpec("fedadmm")
    _, networked = serve_run(config, spec, rounds=2, num_workers=4)
    reference = reference_run(config, spec, rounds=2)
    assert_bit_identical(networked, reference)


def test_served_sign_flip_on_the_raw_codec_is_the_in_process_run():
    """The server corrupts decoded uploads; exact decode, so the same bits."""
    config = preset_config(
        "serve", codec=None, adversary="sign_flip", adversary_fraction=0.5
    )
    spec = AlgorithmSpec("fedadmm")
    _, networked = serve_run(config, spec)
    reference = reference_run(config, spec)
    assert_bit_identical(networked, reference)
    clean = reference_run(config.with_overrides(adversary=None), spec)
    assert not np.array_equal(networked.final_params, clean.final_params)


@pytest.mark.parametrize("overrides, reason", [
    # Workers rebuild their datasets from the config: the flipped labels
    # would stay on the server and the run would train clean.
    ({"adversary": "label_flip", "codec": None}, "poisons client datasets"),
    # Served corruption happens after decode, in-process before encode.
    ({"adversary": "sign_flip", "codec": "float16"}, "lossy codec 'float16'"),
    ({"adversary": "gaussian_noise", "codec": "topk"}, "lossy codec 'topk'"),
], ids=["label_flip-raw", "sign_flip-float16", "gaussian_noise-topk"])
def test_adversary_cells_the_wire_cannot_reproduce_are_refused(overrides, reason):
    config = preset_config("serve", adversary_fraction=0.5, **overrides)
    with pytest.raises(ConfigurationError, match=reason):
        FederationServer(config, AlgorithmSpec("fedavg"))
