"""Tests for the event-driven asynchronous plan and its scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.exceptions import ConfigurationError, SimulationError
from repro.federated.engine import FederatedSimulation
from repro.federated.messages import ClientMessage
from repro.federated.plans import AsyncPlan
from repro.federated.scheduler import AsyncScheduler, EventQueue
from repro.federated.staleness import (
    ConstantStaleness,
    PolynomialStaleness,
    build_staleness,
    rebase,
)
from repro.systems.faults import FaultInjector
from repro.systems.network import (
    ClientSystemProfile,
    LogNormalNetwork,
)

from conftest import make_model


PLAN_KNOBS = ("buffer_size", "max_concurrency", "staleness", "staleness_exponent")


def make_async_sim(algorithm_name, clients, test_dataset, *, seed=0, **kwargs):
    kwargs.setdefault("network", LogNormalNetwork())
    plan = AsyncPlan(**{k: kwargs.pop(k) for k in PLAN_KNOBS if k in kwargs})
    algo_kwargs = {"rho": 0.3} if algorithm_name in ("fedadmm", "fedprox") else {}
    return FederatedSimulation(
        algorithm=build_algorithm(algorithm_name, **algo_kwargs),
        model=make_model(seed=0),
        clients=clients,
        test_dataset=test_dataset,
        batch_size=16,
        learning_rate=0.1,
        seed=seed,
        plan=plan,
        **kwargs,
    )


def message_of(client_id, num_samples=10, **payload):
    return ClientMessage(client_id=client_id, payload=payload,
                         num_samples=num_samples, local_epochs=1, train_loss=0.0)


def rebased_aggregate(algorithm, params, arrivals):
    """The buffered plans' tail: rebase each arrival, then the one reduction.

    ``arrivals`` are ``(message, base_params, weight)`` triples.
    """
    return algorithm.aggregate(
        params, {},
        [rebase(message, base, weight, params) for message, base, weight in arrivals],
        num_clients=4, round_index=0,
    )


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(3.0, 0)
        queue.push(1.0, 1)
        queue.push(2.0, 2)
        assert [queue.pop().client_id for _ in range(3)] == [1, 2, 0]

    def test_fifo_tie_break(self):
        queue = EventQueue()
        for client_id in (5, 3, 9):
            queue.push(1.0, client_id)
        assert [queue.pop().client_id for _ in range(3)] == [5, 3, 9]

    def test_empty_pop_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            EventQueue().push(-1.0, 0)


class TestAsyncScheduler:
    def test_clock_advances_to_completions(self):
        scheduler = AsyncScheduler(4)
        scheduler.dispatch(0, 5.0, payload="slow")
        scheduler.dispatch(1, 1.0, payload="fast")
        event = scheduler.next_completion()
        assert (event.client_id, event.payload) == (1, "fast")
        assert scheduler.now == 1.0
        assert scheduler.next_completion().client_id == 0
        assert scheduler.now == 5.0

    def test_dispatch_from_now_not_zero(self):
        scheduler = AsyncScheduler(2)
        scheduler.dispatch(0, 2.0)
        scheduler.next_completion()
        scheduler.dispatch(1, 1.0)
        assert scheduler.next_completion().time == 3.0

    def test_in_flight_bookkeeping(self):
        scheduler = AsyncScheduler(3)
        scheduler.dispatch(1, 1.0)
        assert not scheduler.is_idle(1)
        assert list(scheduler.idle_clients()) == [0, 2]
        with pytest.raises(SimulationError):
            scheduler.dispatch(1, 1.0)
        scheduler.next_completion()
        assert scheduler.is_idle(1)

    def test_bad_ids_and_durations(self):
        scheduler = AsyncScheduler(2)
        with pytest.raises(ConfigurationError):
            scheduler.dispatch(2, 1.0)
        with pytest.raises(ConfigurationError):
            scheduler.dispatch(0, -1.0)
        with pytest.raises(ConfigurationError):
            AsyncScheduler(0)


class TestStalenessPolicies:
    def test_constant(self):
        policy = ConstantStaleness()
        assert policy.weight(0) == policy.weight(100) == 1.0

    def test_polynomial_decay(self):
        policy = PolynomialStaleness(exponent=0.5)
        assert policy.weight(0) == 1.0
        assert policy.weight(3) == pytest.approx(0.5)
        assert policy.weight(1) > policy.weight(2)

    def test_polynomial_validation(self):
        with pytest.raises(ConfigurationError):
            PolynomialStaleness(exponent=-1.0)
        with pytest.raises(ConfigurationError):
            PolynomialStaleness().weight(-1)

    def test_registry(self):
        assert isinstance(build_staleness("constant"), ConstantStaleness)
        built = build_staleness("polynomial", exponent=2.0)
        assert built.exponent == 2.0
        with pytest.raises(ConfigurationError):
            build_staleness("exponential")


class TestAsyncEngine:
    def test_staleness_fields_recorded(self, iid_clients, blobs_split):
        sim = make_async_sim(
            "fedadmm", iid_clients, blobs_split.test,
            buffer_size=2, max_concurrency=5,
        )
        result = sim.run(6)
        assert result.rounds_run == 6
        assert sim.state.model_version == 6
        for record in result.history.records:
            assert record.model_version == record.round_index
            assert record.mean_staleness >= 0.0
            assert record.max_staleness >= 0
        # With concurrency above the buffer size some updates must be stale.
        assert result.history.max_staleness() > 0
        assert result.metadata["mode"] == "async"
        assert result.simulated_seconds > 0

    def test_deterministic_across_runs(self, blobs_split, iid_partition):
        from repro.federated.client import build_clients

        histories = []
        for _ in range(2):
            clients = build_clients(blobs_split.train, iid_partition)
            sim = make_async_sim(
                "fedavg", clients, blobs_split.test, seed=3,
                buffer_size=2, max_concurrency=4,
            )
            histories.append(sim.run(5).history)
        first, second = histories
        assert [r.test_accuracy for r in first.records] == [
            r.test_accuracy for r in second.records
        ]
        assert [r.simulated_seconds for r in first.records] == [
            r.simulated_seconds for r in second.records
        ]

    def test_fresh_buffered_fedavg_matches_sync_aggregate(self):
        """With zero staleness the rebased mix is the sync uniform mean."""
        algorithm = build_algorithm("fedavg")
        base = np.zeros(4)
        messages = [
            message_of(i, params=m)
            for i, m in enumerate([np.full(4, 1.0), np.full(4, 3.0)])
        ]
        sync = algorithm.aggregate(base, {}, messages, num_clients=4, round_index=0)
        asynchronous = rebased_aggregate(
            algorithm, base, [(msg, base, 1.0) for msg in messages]
        )
        np.testing.assert_allclose(asynchronous, sync)

    def test_staleness_damping_shrinks_fedavg_updates(self):
        algorithm = build_algorithm("fedavg")
        base = np.zeros(4)
        message = message_of(0, params=np.full(4, 2.0))
        full = rebased_aggregate(algorithm, base, [(message, base, 1.0)])
        damped = rebased_aggregate(algorithm, base, [(message, base, 0.5)])
        np.testing.assert_allclose(damped, 0.5 * full)

    def test_fedadmm_uses_raw_deltas_scaled_by_trust(self):
        """FedADMM never differences against a stale base: the dual-corrected
        delta passes straight into the tracking update, scaled only by the
        staleness trust weight (eta = 1 here)."""
        algorithm = build_algorithm("fedadmm", rho=0.3)
        base = np.full(4, 7.0)  # a base the delta must NOT be differenced with
        delta = np.full(4, 1.0)
        message = message_of(0, delta=delta)
        mixed = rebased_aggregate(algorithm, np.zeros(4), [(message, base, 0.1)])
        np.testing.assert_allclose(mixed, 0.1 * delta)
        np.testing.assert_allclose(
            rebased_aggregate(algorithm, np.zeros(4), [(message, base, 1.0)]),
            delta,
        )

    def test_sample_weighting_survives_buffering(self):
        """``weighting="samples"`` goes through the one reduction, so the
        buffered mix is volume-weighted exactly as the lock-step round is
        (the pre-PR-16 buffered default silently averaged uniformly)."""
        theta = np.zeros(4)
        small = message_of(0, num_samples=10, params=np.full(4, 1.0))
        large = message_of(1, num_samples=30, params=np.full(4, 5.0))
        arrivals = [(small, theta, 1.0), (large, theta, 0.5)]
        for name, kwargs in (("fedavg", {}), ("fedprox", {"rho": 0.1})):
            weighted = build_algorithm(name, weighting="samples", **kwargs)
            # (10·1 + 30·(0.5·5)) / 40 vs the uniform (1 + 2.5) / 2.
            np.testing.assert_allclose(
                rebased_aggregate(weighted, theta, arrivals), np.full(4, 2.125)
            )
            uniform = build_algorithm(name, **kwargs)
            np.testing.assert_allclose(
                rebased_aggregate(uniform, theta, arrivals), np.full(4, 1.75)
            )

    def test_unsupported_algorithms_rejected(self, iid_clients, blobs_split):
        for name in ("scaffold", "fedpd"):
            with pytest.raises(ConfigurationError):
                make_async_sim(name, iid_clients, blobs_split.test)

    def test_fault_configs_that_never_deliver_rejected(
        self, iid_clients, blobs_split
    ):
        """An instant deadline or certain dropout can never fill the buffer;
        the sync engine models those as abandoned rounds, the async engine
        refuses them up front."""
        with pytest.raises(ConfigurationError):
            make_async_sim(
                "fedavg", iid_clients, blobs_split.test,
                faults=FaultInjector(deadline_s=0.0),
            )
        with pytest.raises(ConfigurationError):
            make_async_sim(
                "fedavg", iid_clients, blobs_split.test,
                faults=FaultInjector(dropout_rate=1.0),
            )

    def test_buffer_size_validation(self, iid_clients, blobs_split):
        with pytest.raises(ConfigurationError):
            make_async_sim("fedavg", iid_clients, blobs_split.test, buffer_size=0)
        with pytest.raises(ConfigurationError):
            make_async_sim(
                "fedavg", iid_clients, blobs_split.test,
                buffer_size=len(iid_clients) + 1,
            )
        with pytest.raises(ConfigurationError):
            make_async_sim(
                "fedavg", iid_clients, blobs_split.test, max_concurrency=0
            )

    def test_faults_charge_downloads_but_not_uploads(self, iid_clients, blobs_split):
        sim = make_async_sim(
            "fedavg", iid_clients, blobs_split.test,
            buffer_size=2, max_concurrency=4,
            faults=FaultInjector(dropout_rate=0.5),
        )
        result = sim.run(4)
        dropped = result.history.total_dropped()
        assert dropped > 0
        dim = result.final_params.size
        # Every dispatch (delivered or crashed) downloaded the model.
        assert result.ledger.download_floats >= (
            result.ledger.upload_floats // dim + dropped
        ) * dim

    def test_deadline_discards_slow_updates(self, iid_clients, blobs_split):
        slow = ClientSystemProfile(seconds_per_sample_epoch=1.0)
        sim = make_async_sim(
            "fedavg", iid_clients, blobs_split.test,
            network=LogNormalNetwork(base=slow, compute_sigma=2.0),
            buffer_size=1, max_concurrency=4,
            faults=FaultInjector(deadline_s=60.0),
        )
        result = sim.run(3)
        assert result.rounds_run == 3  # fast clients still fill the buffer

    def test_sync_records_report_zero_staleness(self, iid_clients, blobs_split):
        sim = FederatedSimulation(
            algorithm=build_algorithm("fedavg"),
            model=make_model(seed=0),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            batch_size=16,
            seed=0,
        )
        record = sim.run_round()
        assert record.model_version == record.round_index
        assert record.mean_staleness == 0.0
        assert record.max_staleness == 0

    def test_seconds_to_accuracy(self, iid_clients, blobs_split):
        sim = make_async_sim("fedadmm", iid_clients, blobs_split.test,
                             buffer_size=2, max_concurrency=4)
        result = sim.run(8)
        history = result.history
        best = history.best_accuracy()
        seconds = history.seconds_to_accuracy(best)
        assert seconds is not None
        assert 0 < seconds <= history.total_simulated_seconds() + 1e-12
        assert history.seconds_to_accuracy(1.1) is None
