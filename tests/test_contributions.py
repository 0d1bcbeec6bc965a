"""Client contribution valuation: coalition specs, LOO, Shapley, store reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.contributions import compute_contributions
from repro.experiments.orchestrator import RunSpec, SweepOrchestrator
from repro.experiments.runner import build_simulation, prepare_environment
from repro.experiments.store import ExperimentStore
from repro.federated.population import ClientPopulation

SPEC = AlgorithmSpec("fedavg", {})


def tiny_cfg(num_clients=4, num_rounds=2, seed=0):
    return preset_config(
        "robustness", "blobs", non_iid=True, seed=seed, adversary=None,
        adversary_fraction=0.0,
    ).with_overrides(
        name="contrib-test",
        num_clients=num_clients,
        n_train=240,
        n_test=80,
        num_rounds=num_rounds,
        client_fraction=1.0,
    )


class TestCoalitionConfig:
    @pytest.mark.parametrize("overrides, match", [
        *(({"coalition": coalition}, "coalition must list")
          for coalition in [(99,), (-1, 0), (1, 1), (2, 0), ()]),
        ({"coalition": (0, 1), "plan": "hierarchical", "num_shards": 3},
         "num_shards 3 exceeds the coalition of 2 clients"),
    ])
    def test_malformed_coalitions_are_refused_in_one_line(self, overrides, match):
        with pytest.raises(ConfigurationError, match=match) as error:
            tiny_cfg().with_overrides(**overrides)
        assert len(str(error.value).splitlines()) == 1

    def test_coalition_keeps_the_listed_clients_renumbered(self):
        _, everyone, _ = prepare_environment(tiny_cfg())
        _, kept, stats = prepare_environment(tiny_cfg().with_overrides(coalition=(1, 3)))
        assert [client.client_id for client in kept] == [0, 1]
        for client, index in zip(kept, (1, 3)):
            assert client.dataset.name == everyone[index].dataset.name
            np.testing.assert_array_equal(client.dataset.labels, everyone[index].dataset.labels)
        assert stats.num_clients == 4  # the partition is the population's

    def test_coalition_with_a_lazy_population_is_refused(self):
        config = tiny_cfg().with_overrides(coalition=(0, 1))
        split, clients, _ = prepare_environment(tiny_cfg())
        population = ClientPopulation(4, [client.dataset for client in clients])
        with pytest.raises(ConfigurationError, match="lazy population") as error:
            build_simulation(config, SPEC, clients=population, split=split)
        assert len(str(error.value).splitlines()) == 1

    def test_store_key_names_the_coalition_only_when_set(self, tmp_path):
        store = ExperimentStore(tmp_path)
        keys = {
            store.key_for(RunSpec("contributions", (), config, SPEC))
            for config in (
                tiny_cfg(),
                tiny_cfg().with_overrides(coalition=(0, 1)),
                tiny_cfg().with_overrides(coalition=(0, 2)),
            )
        }
        assert len(keys) == 3


class TestMethods:
    def test_leave_one_out_scores_every_client(self):
        report = compute_contributions(tiny_cfg(), SPEC, method="loo")
        assert report.method == "loo"
        assert sorted(report.scores) == [0, 1, 2, 3]
        # n singleton-complement runs + full + empty
        assert report.runs_executed == 6
        assert report.runs_reused == 0
        # Training on everyone must beat the untrained model on blobs.
        assert 0.0 <= report.utility_empty < report.utility_full

    def test_shapley_is_seed_deterministic_and_memoised(self):
        def shapley():
            return compute_contributions(
                tiny_cfg(), SPEC, method="shapley", permutations=2, tolerance=0.0
            )

        a, b = shapley(), shapley()
        assert a.scores == b.scores
        assert a.permutations == 2
        # Full + empty, then one lookup per prefix.  Each untruncated walk
        # ends on the full coalition, a memo hit; every coalition runs once.
        assert a.runs_executed + a.runs_reused == 2 + 2 * 4
        assert a.runs_reused >= 2

    def test_shapley_efficiency_without_truncation(self):
        # With tolerance 0 no walk truncates, so each permutation's
        # marginals telescope: scores sum to U(N) - U(empty) exactly.
        report = compute_contributions(
            tiny_cfg(), SPEC, method="shapley", permutations=2, tolerance=0.0
        )
        assert report.metadata["truncated_walks"] == 0
        assert sum(report.scores.values()) == pytest.approx(
            report.utility_full - report.utility_empty
        )

    def test_store_reuse_across_invocations_and_methods(self, tmp_path):
        def resumed():
            return SweepOrchestrator(store=ExperimentStore(tmp_path), resume=True)

        first = compute_contributions(tiny_cfg(), SPEC, method="loo", orchestrator=resumed())
        assert first.runs_executed == 6
        again = compute_contributions(tiny_cfg(), SPEC, method="loo", orchestrator=resumed())
        assert (again.runs_executed, again.runs_reused) == (0, 6)
        assert again.to_payload()["scores"] == first.to_payload()["scores"]
        shapley = compute_contributions(
            tiny_cfg(), SPEC, method="shapley", permutations=2, orchestrator=resumed()
        )
        fresh = compute_contributions(tiny_cfg(), SPEC, method="shapley", permutations=2)
        assert shapley.scores == fresh.scores
        assert shapley.runs_executed < fresh.runs_executed

    def test_unknown_method_fails(self):
        with pytest.raises(ConfigurationError, match="unknown contribution"):
            compute_contributions(tiny_cfg(), SPEC, method="banzhaf")
        with pytest.raises(ConfigurationError, match="permutations"):
            compute_contributions(tiny_cfg(), SPEC, method="shapley", permutations=0)

    def test_report_payload_roundtrips(self):
        report = compute_contributions(tiny_cfg(), SPEC, method="loo")
        payload = report.to_payload()
        assert payload["method"] == "loo"
        assert set(payload["scores"]) == {"0", "1", "2", "3"}
        ranked = report.ranked()
        assert ranked[0][1] == max(report.scores.values())
