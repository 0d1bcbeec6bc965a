"""Tests for the decomposed server runtime: state, pipeline, and plans.

The synchronous and asynchronous plans are pinned bit-for-bit by
``test_regression_sync_golden.py``; this module covers the pieces the
goldens cannot see — the explicit state objects, the shared client-work
pipeline, and the semi-synchronous plan's deadline/weighting edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.exceptions import ConfigurationError
from repro.federated import (
    AsyncPlan,
    BufferedPlan,
    ExecutionPlan,
    FederatedSimulation,
    PLAN_REGISTRY,
    RoundContext,
    SemiSyncPlan,
    ServerState,
    HierarchicalPlan,
)
from repro.federated.staleness import ConstantStaleness, PolynomialStaleness
from repro.systems.network import (
    ClientSystemProfile,
    HomogeneousNetwork,
    LogNormalNetwork,
)

from conftest import make_model


def make_semisync_sim(algorithm_name, clients, test_dataset, *, seed=0, **kwargs):
    plan = SemiSyncPlan(
        round_deadline_s=kwargs.pop("round_deadline_s", None),
        deadline_factor=kwargs.pop("deadline_factor", 1.0),
        staleness=kwargs.pop("staleness", None),
    )
    kwargs.setdefault("network", LogNormalNetwork())
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


class TestServerState:
    def test_defaults(self):
        state = ServerState(params=np.zeros(4))
        assert state.model_version == 0
        assert state.rounds_run == 0
        assert state.algorithm_state == {}
        assert not state.evaluation_is_current()

    def test_engine_exposes_state_through_compat_properties(
        self, iid_clients, blobs_split
    ):
        sim = FederatedSimulation(
            algorithm=build_algorithm("fedavg"),
            model=make_model(seed=0),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            batch_size=16,
            seed=0,
        )
        assert sim.global_params is sim.state.params
        assert sim.server_state is sim.state.algorithm_state
        sim.run_round()
        assert sim.state.rounds_run == 1
        assert sim.state.model_version == 1
        assert sim.state.evaluation_is_current()


class TestRoundContext:
    def test_num_selected_counts_survivors_and_dropped(self):
        ctx = RoundContext(
            round_index=0, selected=(1, 2, 3), survivors=[1], dropped=[2, 3]
        )
        assert ctx.num_selected == 3


class TestPlanRegistry:
    def test_all_plans_registered(self):
        assert set(PLAN_REGISTRY) == {"sync", "hierarchical", "semisync", "async"}
        for plan_cls in PLAN_REGISTRY.values():
            assert issubclass(plan_cls, ExecutionPlan)

    def test_engine_defaults_to_sync_plan(self, iid_clients, blobs_split):
        sim = FederatedSimulation(
            algorithm=build_algorithm("fedavg"),
            model=make_model(seed=0),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            seed=0,
        )
        # The default is the one-shard lock-step plan, reported as "sync".
        assert isinstance(sim.plan, HierarchicalPlan)
        assert (sim.plan.name, sim.plan.num_shards) == ("sync", 1)

    def test_buffered_plans_bind_to_the_one_engine(self, iid_clients, blobs_split):
        sim = FederatedSimulation(
            algorithm=build_algorithm("fedavg"),
            model=make_model(seed=0),
            clients=iid_clients,
            test_dataset=blobs_split.test,
            seed=0,
            plan=AsyncPlan(buffer_size=2),
            network=HomogeneousNetwork(),
        )
        assert isinstance(sim.plan, BufferedPlan)
        assert (sim.plan.name, sim.plan.buffer_size) == ("async", 2)
        assert issubclass(SemiSyncPlan, BufferedPlan)


class TestSemiSyncValidation:
    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ConfigurationError):
            SemiSyncPlan(round_deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            SemiSyncPlan(deadline_factor=-1.0)

    @pytest.mark.parametrize(
        "plan", [AsyncPlan(buffer_size=2), SemiSyncPlan(round_deadline_s=1.0)],
        ids=["async", "semisync"],
    )
    def test_requires_network_model(self, plan, iid_clients, blobs_split):
        """Both buffered plans refuse at bind, with the same line (the async
        plan used to die on its first round with a ``TypeError``)."""
        with pytest.raises(
            ConfigurationError,
            match=f"the '{plan.name}' plan needs a network model",
        ):
            FederatedSimulation(
                algorithm=build_algorithm("fedavg"),
                model=make_model(seed=0),
                clients=iid_clients,
                test_dataset=blobs_split.test,
                seed=0,
                plan=plan,
            )

    @pytest.mark.parametrize("plan_cls", [AsyncPlan, SemiSyncPlan])
    @pytest.mark.parametrize("name", ["scaffold", "fedpd"])
    def test_rejects_lockstep_algorithms(
        self, name, plan_cls, iid_clients, blobs_split
    ):
        """The refusal names the algorithm and the plan being bound."""
        with pytest.raises(
            ConfigurationError,
            match=f"'{name}' cannot run under the '{plan_cls.name}' plan",
        ):
            FederatedSimulation(
                algorithm=build_algorithm(name),
                model=make_model(seed=0),
                clients=iid_clients,
                test_dataset=blobs_split.test,
                seed=0,
                plan=plan_cls(),
                network=HomogeneousNetwork(),
            )

    def test_plan_instances_are_single_use(self, iid_clients, blobs_split):
        """Plans carry per-run state (schedulers, derived deadlines), so
        rebinding an already-bound instance must be rejected."""

        def build(plan):
            return FederatedSimulation(
                algorithm=build_algorithm("fedavg"),
                model=make_model(seed=0),
                clients=iid_clients,
                test_dataset=blobs_split.test,
                seed=0,
                network=HomogeneousNetwork(),
                plan=plan,
            )

        plan = SemiSyncPlan()
        build(plan)
        with pytest.raises(ConfigurationError):
            build(plan)
        with pytest.raises(ConfigurationError):
            used_sync = build(HierarchicalPlan()).plan
            build(used_sync)

    def test_default_deadline_derived_from_median_duration(
        self, iid_clients, blobs_split
    ):
        sim = make_semisync_sim(
            "fedavg", iid_clients, blobs_split.test,
            network=HomogeneousNetwork(), deadline_factor=2.0,
        )
        times = [
            sim.pipeline.client_round_seconds(cid, sim.local_work.max_epochs)
            for cid in range(len(iid_clients))
        ]
        assert sim.plan.round_deadline_s == pytest.approx(
            2.0 * float(np.median(times))
        )


class TestSemiSyncRounds:
    def test_records_deadline_and_staleness_metadata(
        self, iid_clients, blobs_split
    ):
        sim = make_semisync_sim("fedadmm", iid_clients, blobs_split.test)
        result = sim.run(6)
        assert result.metadata["mode"] == "semisync"
        assert result.metadata["round_deadline_s"] > 0
        assert "late_arrivals" in result.metadata
        for record in result.history.records:
            assert record.deadline_s == pytest.approx(
                result.metadata["round_deadline_s"]
            )
            assert record.mean_staleness >= 0.0

    def test_deterministic_across_runs(self, blobs_split, iid_partition):
        from repro.federated.client import build_clients

        histories = []
        for _ in range(2):
            clients = build_clients(blobs_split.train, iid_partition)
            sim = make_semisync_sim("fedavg", clients, blobs_split.test, seed=3)
            histories.append(sim.run(5).history)
        first, second = histories
        assert [r.test_accuracy for r in first.records] == [
            r.test_accuracy for r in second.records
        ]
        assert [r.simulated_seconds for r in first.records] == [
            r.simulated_seconds for r in second.records
        ]

    def test_tight_deadline_abandons_round_then_collects_late(
        self, iid_clients, blobs_split
    ):
        """A deadline below every client's duration leaves round 1 empty;
        the dispatched updates land in later rounds as stale arrivals."""
        slow = ClientSystemProfile(seconds_per_sample_epoch=1.0)
        sim = make_semisync_sim(
            "fedavg", iid_clients, blobs_split.test,
            network=HomogeneousNetwork(profile=slow),
            round_deadline_s=1.0,
        )
        first = sim.run_round()
        # Nothing can arrive within one second: abandoned round.
        assert np.isnan(first.train_loss)
        assert first.model_version == 0
        assert first.num_selected == 0  # nothing resolved in the window
        assert sim.state.model_version == 0
        # Keep running: the in-flight updates eventually arrive, late.
        records = [sim.run_round() for _ in range(80)]
        delivered = [r for r in records if not np.isnan(r.train_loss)]
        assert delivered, "late arrivals never delivered"
        assert max(r.max_staleness for r in delivered) > 0
        assert sim.state.model_version > 0
        # Late arrivals are counted by dispatch round, not staleness, so
        # deliveries into abandoned-round stretches (version unchanged,
        # staleness 0) still register.
        assert sim.plan.late_arrivals > 0

    def test_every_round_advances_clock_by_at_most_deadline(
        self, iid_clients, blobs_split
    ):
        sim = make_semisync_sim(
            "fedavg", iid_clients, blobs_split.test, round_deadline_s=2.5
        )
        result = sim.run(5)
        for record in result.history.records:
            assert 0.0 <= record.simulated_seconds <= 2.5 + 1e-12

    def test_late_arrivals_weighted_by_staleness_policy(
        self, iid_clients, blobs_split
    ):
        """Polynomial weighting damps a late FedAvg update; constant does
        not.  Compare the same seeded run under both policies: once any
        update arrives late, the trajectories must diverge."""
        slow = ClientSystemProfile(seconds_per_sample_epoch=0.05)
        histories = {}
        for policy in ("constant", "polynomial"):
            clients = [
                type(c)(client_id=c.client_id, dataset=c.dataset)
                for c in iid_clients
            ]
            sim = make_semisync_sim(
                "fedavg", clients, blobs_split.test,
                network=LogNormalNetwork(base=slow, compute_sigma=2.0),
                staleness=policy, seed=5,
            )
            result = sim.run(10)
            histories[policy] = result
        late = sum(
            r.max_staleness > 0
            for r in histories["polynomial"].history.records
        )
        assert late > 0, "scenario produced no late arrivals"
        constant_params = histories["constant"].final_params
        polynomial_params = histories["polynomial"].final_params
        assert not np.allclose(constant_params, polynomial_params)

    def test_fault_deadline_voids_slow_uploads(self, iid_clients, blobs_split):
        """faults.deadline_s applies under semi-sync exactly as in the
        other plans: a dispatch slower than the fault deadline still pays
        its download but its upload is discarded on arrival."""
        from repro.systems.faults import FaultInjector

        slow = ClientSystemProfile(seconds_per_sample_epoch=1.0)
        sim = make_semisync_sim(
            "fedavg", iid_clients, blobs_split.test,
            network=HomogeneousNetwork(profile=slow),
            round_deadline_s=1e6,  # the round waits; the *fault* deadline bites
            faults=FaultInjector(deadline_s=1.0),
        )
        result = sim.run(3)
        assert result.history.total_dropped() > 0
        assert all(np.isnan(r.train_loss) for r in result.history.records)
        assert result.ledger.download_floats > 0
        assert result.ledger.upload_floats == 0

    def test_staleness_policies_resolve(self, iid_clients, blobs_split):
        sim = make_semisync_sim(
            "fedavg", iid_clients, blobs_split.test, staleness="constant"
        )
        assert isinstance(sim.plan.staleness_policy, ConstantStaleness)
        default = make_semisync_sim("fedavg", iid_clients, blobs_split.test)
        assert isinstance(default.plan.staleness_policy, PolynomialStaleness)
