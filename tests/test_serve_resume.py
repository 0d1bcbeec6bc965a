"""Served resume through the simulation's checkpoint.

A server stopped after some rounds and restarted with ``resume=True``
restores its :class:`ExperimentStore` sidecar through
``FederatedSimulation.restore`` and finishes the run an uninterrupted
in-process simulation would have produced — for the hierarchical plan too,
and for FedPD, whose communication coin is a stream of its own.  A sidecar
in the old per-client format and a buffered plan are refused, each with
one line.  A fresh server and a resumed one name every client's row
through the same pass.
"""

from __future__ import annotations

import inspect
import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.runner import build_simulation
from repro.serve import protocol
from repro.serve.server import FederationServer
from repro.serve.worker import run_worker

from test_serve_e2e import assert_bit_identical, reference_run


def _serve(config, spec, rounds, store_dir, resume=False):
    server = FederationServer(
        config, spec, num_rounds=rounds, store_dir=store_dir, resume=resume
    )
    server.start()
    worker = threading.Thread(
        target=run_worker, kwargs=dict(url=server.url), daemon=True
    )
    worker.start()
    try:
        result = server.wait(timeout=120)
    finally:
        server.stop()
    worker.join(timeout=30)
    return server, result


@pytest.mark.parametrize(
    "spec, overrides, stop_after, rounds",
    [
        pytest.param(
            AlgorithmSpec("fedpd", {"communication_probability": 0.5}), {}, 3, 8,
            id="fedpd-p0.5",
        ),
        pytest.param(
            AlgorithmSpec("fedadmm"), {"plan": "hierarchical", "num_shards": 2}, 2, 4,
            id="fedadmm-hierarchical-2",
        ),
    ],
)
def test_resumed_run_is_the_uninterrupted_run(tmp_path, spec, overrides, stop_after, rounds):
    config = preset_config("serve", **overrides)
    store_dir = str(tmp_path / "store")
    _serve(config, spec, stop_after, store_dir)
    second, resumed = _serve(config, spec, rounds, store_dir, resume=True)
    assert second.resumed_from_round == stop_after
    assert_bit_identical(resumed, reference_run(config, spec, rounds=rounds))


def _store_one_round(config, spec, store_dir, arrays=None):
    """Put a one-round result and its sidecar where a server would."""
    simulation = build_simulation(config, spec)
    simulation.run(1, target_accuracy=None)
    holder = FederationServer(config, spec, num_rounds=2, store_dir=store_dir)
    holder.store.save_result(
        holder.run_spec,
        simulation.result(),
        arrays=simulation.checkpoint() if arrays is None else arrays(simulation),
    )


def _old_format(simulation):
    state = simulation.state
    arrays = {
        "rounds_run": np.asarray(state.rounds_run),
        "model_version": np.asarray(state.model_version),
        "last_aggregation_time": np.asarray(state.last_aggregation_time),
        "client_counters": np.array(
            [(c.client_id, c.rounds_participated, c.local_work_done)
             for c in simulation.clients],
            dtype=np.int64,
        ),
    }
    for client in simulation.clients:
        for key, value in client.variables.items():
            arrays[f"client.{client.client_id}.{key}"] = value
    return arrays


def test_an_old_per_client_sidecar_is_refused(tmp_path):
    config, spec = preset_config("serve"), AlgorithmSpec("fedadmm")
    store_dir = str(tmp_path / "store")
    _store_one_round(config, spec, store_dir, arrays=_old_format)
    with pytest.raises(ConfigurationError, match=r"'client\.<id>\.<key>' format") as caught:
        FederationServer(config, spec, num_rounds=2, store_dir=store_dir, resume=True)
    assert "\n" not in str(caught.value)


def test_resume_under_a_buffered_plan_is_refused(tmp_path):
    config, spec = preset_config("serve", mode="semisync"), AlgorithmSpec("fedavg")
    store_dir = str(tmp_path / "store")
    _store_one_round(config, spec, store_dir)
    with pytest.raises(ConfigurationError, match="'semisync' plan") as caught:
        FederationServer(config, spec, num_rounds=2, store_dir=store_dir, resume=True)
    assert "\n" not in str(caught.value)


def test_a_fresh_and_a_resumed_server_name_rows_through_one_pass(tmp_path, monkeypatch):
    """Building a server names each client's variables in ``_name_rows``
    and hashes a row only where its bytes differ from the row before: the
    one initial row a fresh server's clients share, each row the
    checkpoint wrote on a resumed one.  Restoring hashes nothing of its
    own."""
    config, spec = preset_config("serve"), AlgorithmSpec("fedadmm")
    store_dir = str(tmp_path / "store")
    _store_one_round(config, spec, store_dir)
    digest, callers = protocol.blob_digest, []
    methods = {
        member.__code__: name
        for name, member in vars(FederationServer).items()
        if inspect.isfunction(member)
    }

    def counted(array):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in methods:
            frame = frame.f_back
        callers.append(None if frame is None else methods[frame.f_code])
        return digest(array)

    monkeypatch.setattr(protocol, "blob_digest", counted)
    named, hashed = {}, {}
    for resume in (False, True):
        callers.clear()
        server = FederationServer(
            config, spec, num_rounds=2, store_dir=store_dir, resume=resume
        )
        clients = server.simulation.clients
        assert server.resumed_from_round == int(resume)
        assert set(callers) == {"_name_rows"}
        hashed[resume] = len(callers)
        assert server.metrics.counter("serve.vars_digests").value == len(clients)
        named[resume] = server.board.digests
        assert named[resume] == {
            index: {key: digest(value) for key, value in client.variables.items()}
            for index, client in enumerate(clients)
        }
    # Round 1 wrote some rows and left the others at θ⁰ and zeros.
    written = [index for index in named[False] if named[False][index] != named[True][index]]
    assert 0 < len(written) < len(named[False])
    # A fresh server hashes its one shared (w, y) row; a resumed one hashes
    # every written row, each of which keeps a digest of its own.
    assert hashed[False] == 2
    assert hashed[True] >= 2 * len(written)
    for key in ("w", "y"):
        assert len({named[True][index][key] for index in written}) == len(written)
