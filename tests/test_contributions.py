"""Client contribution valuation: subset utilities, LOO, Shapley, caching."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.contributions import (
    ContributionValuer,
    UtilityCache,
    compute_contributions,
    subset_key,
)

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


class TestSubsetKey:
    def test_sorted_deduplicated(self):
        assert subset_key([3, 1, 2, 1]) == "1,2,3"
        assert subset_key([]) == "-"


class TestUtilityCache:
    def test_persists_and_reloads(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = UtilityCache(path)
        cache.put("0,1", 0.5)
        reloaded = UtilityCache(path)
        assert reloaded.get("0,1") == 0.5
        assert reloaded.hits == 1
        assert json.loads(path.read_text()) == {"0,1": 0.5}

    def test_memory_only_without_path(self):
        cache = UtilityCache()
        assert cache.get("0") is None
        cache.put("0", 0.1)
        assert cache.get("0") == 0.1


class TestValuer:
    def test_utility_is_deterministic_and_cached(self):
        valuer = ContributionValuer(tiny_cfg(), SPEC)
        first = valuer.utility([0, 1])
        second = valuer.utility([1, 0])
        assert first == second
        assert valuer.cache.hits == 1
        assert valuer.cache.misses == 1

    def test_empty_coalition_is_the_untrained_model(self):
        valuer = ContributionValuer(tiny_cfg(), SPEC)
        empty = valuer.utility([])
        assert 0.0 <= empty <= 1.0
        # Training on everyone must beat an untrained model on blobs.
        assert valuer.utility(range(valuer.num_clients)) > empty

    def test_out_of_range_subsets_fail(self):
        valuer = ContributionValuer(tiny_cfg(), SPEC)
        with pytest.raises(ConfigurationError, match="out of range"):
            valuer.utility([99])

    def test_coalition_runs_do_not_leak_state(self):
        # Valuing must not mutate the shared client templates: two
        # identical valuations see identical utilities.
        valuer = ContributionValuer(tiny_cfg(), SPEC)
        a = valuer.utility([0, 2])
        fresh = ContributionValuer(tiny_cfg(), SPEC)
        assert fresh.utility([0, 2]) == a


class TestMethods:
    def test_leave_one_out_scores_every_client(self):
        report = compute_contributions(tiny_cfg(), SPEC, method="loo")
        assert report.method == "loo"
        assert sorted(report.scores) == [0, 1, 2, 3]
        # n singleton-complement runs + full + empty
        assert report.runs_executed == 6
        assert report.runs_reused == 0

    def test_shapley_is_seed_deterministic(self):
        a = compute_contributions(
            tiny_cfg(), SPEC, method="shapley", permutations=2
        )
        b = compute_contributions(
            tiny_cfg(), SPEC, method="shapley", permutations=2
        )
        assert a.scores == b.scores
        assert a.permutations == 2

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

    def test_cache_reuse_across_methods(self, tmp_path):
        cache = UtilityCache(tmp_path / "utilities.json")
        first = compute_contributions(tiny_cfg(), SPEC, method="loo", cache=cache)
        assert first.runs_executed == 6
        again = compute_contributions(tiny_cfg(), SPEC, method="loo", cache=cache)
        assert again.runs_executed == 0
        assert again.runs_reused == 6
        assert again.scores == first.scores

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
