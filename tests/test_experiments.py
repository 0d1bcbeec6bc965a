"""Tests for the experiment harness: configs, runner studies, tables, figures."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.core.rho import PiecewiseRho
from repro.experiments import configs
from repro.experiments.configs import (
    PRESETS,
    AlgorithmSpec,
    ExperimentConfig,
    default_algorithms,
    preset_config,
)
from repro.experiments.figures import accuracy_series, final_accuracies, series_to_text
from repro.experiments.runner import (
    build_simulation,
    prepare_environment,
    rounds_summary,
    run_comparison,
    run_single,
)
from repro.experiments.studies import STUDIES
from repro.experiments.tables import comparison_to_rows, format_table, table3_text

# A deliberately tiny configuration so every study smoke-tests in seconds.
TINY = ExperimentConfig(
    name="tiny",
    dataset="blobs",
    n_train=300,
    n_test=120,
    model="mlp",
    model_kwargs={"input_dim": 32, "hidden_dims": (16,)},
    num_clients=10,
    partition="iid",
    client_fraction=0.3,
    local_epochs=2,
    batch_size=16,
    learning_rate=0.2,
    num_rounds=4,
    target_accuracy=0.5,
    seed=0,
)

TINY_NON_IID = TINY.with_overrides(
    name="tiny-noniid", partition="shard", partition_kwargs={"shards_per_client": 2}
)


class TestConfigs:
    def test_all_presets_construct_at_bench_scale(self):
        for name, row in PRESETS.items():
            preset = preset_config(name)
            assert preset.dataset == row.dataset  # the paper's own
            assert preset.num_clients == row.clients
            assert 0 < preset.target_accuracy <= 1
        assert preset_config("table3", "cifar10", non_iid=True).partition == "shard"

    def test_table6_uses_imbalanced_partition(self):
        config = preset_config("table6")
        assert config.partition == "imbalanced"
        assert config.partition_kwargs == {"num_groups": 20}
        # num_groups follows the population (used to be hard-coded, so any
        # --clients died inside the partitioner); odd ones are refused.
        assert preset_config("table6", num_clients=8).partition_kwargs == {
            "num_groups": 4
        }
        with pytest.raises(ConfigurationError, match="must be even"):
            preset_config("table6", num_clients=7)

    def test_table4_disables_system_heterogeneity(self):
        assert preset_config("table4").system_heterogeneity is False

    def test_unknown_preset_or_dataset_rejected(self):
        with pytest.raises(ConfigurationError, match="preset"):
            preset_config("table2")
        with pytest.raises(ConfigurationError, match="dataset"):
            preset_config("table3", "svhn")

    def test_overrides_apply_last_and_population_only_names_table3_and_5(self):
        config = preset_config("serve", codec="identity", mode="semisync")
        assert (config.codec, config.mode, config.num_clients) == (
            "identity", "semisync", 12
        )
        assert preset_config("table5", num_clients=8).name == "table5-fmnist-8clients"
        assert preset_config("fig6", num_clients=8).name == "fig6-mnist-noniid"

    def test_surface_is_one_preset_function(self):
        import inspect

        public = [
            name for name, obj in vars(configs).items()
            if inspect.isfunction(obj) and obj.__module__ == configs.__name__
            and not name.startswith("_")
        ]
        assert sorted(public) == ["default_algorithms", "preset_config"]

    def test_with_overrides(self):
        assert TINY.with_overrides(num_rounds=9).num_rounds == 9
        with pytest.raises(ConfigurationError):
            TINY.with_overrides(client_fraction=0.0)

    @pytest.mark.parametrize("executor", ["serial", "thread", "vectorized"])
    @pytest.mark.parametrize("max_workers", [0, -3])
    def test_non_positive_max_workers_is_refused(self, executor, max_workers):
        # Used to run a round under the serial executor, which ignores it.
        with pytest.raises(ConfigurationError, match="max_workers must be positive"):
            preset_config("serve", executor=executor, max_workers=max_workers)
        assert TINY.with_overrides(executor=executor, max_workers=1).max_workers == 1

    def test_flat_plan_with_shards_is_refused(self):
        # Used to be accepted and silently run unsharded.
        with pytest.raises(ConfigurationError, match='plan="hierarchical"'):
            TINY.with_overrides(num_shards=2)
        with pytest.raises(ConfigurationError, match='plan="hierarchical"'):
            TINY.with_overrides(plan="flat", num_shards=TINY.num_clients)
        sharded = TINY.with_overrides(plan="hierarchical", num_shards=2)
        assert (sharded.plan, sharded.num_shards) == ("hierarchical", 2)
        assert TINY.with_overrides(plan="hierarchical").num_shards == 1

    def test_default_algorithms_labels(self):
        labels = [spec.label() for spec in default_algorithms()]
        assert any(label.startswith("fedadmm") for label in labels)
        assert any(label.startswith("fedsgd") for label in labels)
        assert AlgorithmSpec("fedprox", {"rho": 0.1}).label() == "fedprox(rho=0.1)"


class TestRunnerBasics:
    def test_prepare_environment(self):
        split, clients, stats = prepare_environment(TINY)
        assert len(clients) == 10
        assert stats.total_samples == TINY.n_train
        assert split.test.feature_dim == 32

    def test_build_simulation_uses_config(self):
        sim = build_simulation(TINY, AlgorithmSpec("fedavg", {}))
        assert len(sim.clients) == TINY.num_clients
        assert sim.learning_rate == TINY.learning_rate

    def test_run_single_stops_at_target(self):
        result = run_single(TINY, AlgorithmSpec("fedavg", {}), stop_at_target=True)
        assert result.rounds_run <= TINY.num_rounds

    def test_run_comparison_shares_data_and_isolates_state(self):
        comparison = run_comparison(
            TINY, [AlgorithmSpec("fedadmm", {"rho": 0.3}), AlgorithmSpec("fedavg", {})]
        )
        assert set(comparison.rounds_table()) == {"fedadmm(rho=0.3)", "fedavg"}
        assert comparison.partition_stats.total_samples == TINY.n_train

    def test_rounds_summary_and_reduction(self):
        comparison = run_comparison(
            TINY,
            [
                AlgorithmSpec("fedsgd", {"server_learning_rate": 0.5}),
                AlgorithmSpec("fedadmm", {"rho": 0.3}),
                AlgorithmSpec("fedavg", {}),
            ],
        )
        summary = rounds_summary(comparison)
        assert set(summary) == set(comparison.results)
        for info in summary.values():
            assert "rounds" in info and "formatted" in info
        # reduction_of returns None or a float < 1
        reduction = comparison.reduction_of("fedadmm(rho=0.3)")
        assert reduction is None or reduction < 1.0

    def test_empty_algorithm_list_rejected(self):
        with pytest.raises(ConfigurationError):
            run_comparison(TINY, [])


class TestStudies:
    """The generic sweep (``STUDIES.sweep``) with explicit axis values."""

    def test_scale_sweep(self):
        sweeps = STUDIES.sweep(
            "fig3", TINY, populations=[6, 12], algorithms=[AlgorithmSpec("fedavg", {})]
        )
        assert set(sweeps) == {6, 12}
        assert sweeps[6].config.num_clients == 6
        assert sweeps[12].config.name == "tiny-m12"

    def test_server_stepsize_study_includes_switch(self):
        results = STUDIES.sweep("fig6", TINY_NON_IID, etas=(0.5, 1.0))
        assert list(results) == ["eta=0.5", "eta=1.0", "eta=1.0->0.5@2"]
        for result in results.values():
            assert result.rounds_run == TINY_NON_IID.num_rounds

    def test_local_epochs_study(self):
        results = STUDIES.sweep("table4", TINY, epochs=(1, 2))
        assert set(results) == {1, 2}

    def test_local_init_study_labels(self):
        results = STUDIES.sweep("fig8", TINY_NON_IID, etas=(1.0,))
        assert set(results) == {"I-warm-eta=1.0", "II-restart-eta=1.0"}

    def test_rho_sensitivity_table(self):
        table = STUDIES.sweep("table5", TINY_NON_IID, prox_rhos=(0.1,))
        labels = set(table["tiny-noniid"].results)
        assert labels == {"fedadmm(rho=0.3)", "fedprox(rho=0.1)"}

    def test_rho_schedule_study(self):
        schedule = PiecewiseRho(values=[0.3, 1.0], boundaries=[2])
        results = STUDIES.sweep("fig9", TINY_NON_IID, rhos=[0.3, schedule])
        assert list(results) == ["rho=0.3", "rho=0.3->1@2"]

    def test_heterogeneity_comparison_sweeps_the_preset_pair(self):
        outcome = STUDIES.sweep(
            "fig5", TINY, algorithms=[AlgorithmSpec("fedavg", {})]
        )
        assert set(outcome) == {"iid", "non_iid"}
        assert outcome["iid"].config.partition == "iid"
        assert outcome["non_iid"].config.partition == "shard"
        assert outcome["non_iid"].config.name == "fig5-blobs-noniid"

    def test_async_config_preset(self):
        config = preset_config("async", "blobs", non_iid=True)
        assert config.mode == "async"
        assert config.network == "lognormal"
        assert config.staleness == "polynomial"

    def test_build_simulation_dispatches_on_async_mode(self):
        from repro.federated.plans import AsyncPlan
        from repro.systems.network import HomogeneousNetwork

        config = TINY.with_overrides(
            mode="async", buffer_size=2, max_concurrency=3
        )
        simulation = build_simulation(config, AlgorithmSpec("fedavg", {}))
        assert isinstance(simulation.plan, AsyncPlan)
        assert simulation.plan.buffer_size == 2
        assert simulation.plan.max_concurrency == 3
        # No network configured: the homogeneous default drives the clock.
        assert isinstance(simulation.network, HomogeneousNetwork)
        sync = build_simulation(TINY, AlgorithmSpec("fedavg", {}))
        assert not isinstance(sync.plan, AsyncPlan)
        assert sync.network is None

    def test_async_buffer_defaults_to_sync_cohort(self):
        config = TINY.with_overrides(mode="async")
        simulation = build_simulation(config, AlgorithmSpec("fedavg", {}))
        # client_fraction 0.3 of 10 clients -> 3-client cohort.
        assert simulation.plan.buffer_size == 3

    def test_run_async_study_runs_both_modes(self):
        config = TINY.with_overrides(
            mode="async", num_rounds=2, buffer_size=2, network="lognormal"
        )
        studies = STUDIES.sweep(
            "async", config, algorithms=[AlgorithmSpec("fedavg", {})]
        )
        assert set(studies) == {"sync", "async"}
        sync_result = next(iter(studies["sync"].results.values()))
        async_result = next(iter(studies["async"].results.values()))
        assert sync_result.history.max_staleness() == 0
        assert async_result.metadata["mode"] == "async"
        assert async_result.simulated_seconds > 0

    def test_run_async_study_rejects_sync_config(self):
        with pytest.raises(ConfigurationError, match="mode='async'"):
            STUDIES.sweep("async", TINY, algorithms=[AlgorithmSpec("fedavg", {})])

    def test_mode_is_the_only_plan_spelling(self):
        assert TINY.with_overrides(mode="async").mode == "async"
        with pytest.raises(TypeError):
            TINY.with_overrides(async_mode=True)
        with pytest.raises(ConfigurationError):
            TINY.with_overrides(mode="lockstep")

    def test_build_simulation_dispatches_on_semisync_mode(self):
        from repro.federated.plans import SemiSyncPlan
        from repro.systems.network import HomogeneousNetwork

        config = TINY.with_overrides(mode="semisync", round_deadline_s=5.0)
        simulation = build_simulation(config, AlgorithmSpec("fedavg", {}))
        assert isinstance(simulation.plan, SemiSyncPlan)
        assert simulation.plan.round_deadline_s == 5.0
        # No network configured: the homogeneous default drives the clock.
        assert isinstance(simulation.network, HomogeneousNetwork)

    def test_semisync_config_preset(self):
        config = preset_config("semisync", "blobs", non_iid=True)
        assert config.mode == "semisync"
        assert config.network == "lognormal"

    def test_run_semisync_study_runs_both_modes(self):
        config = TINY.with_overrides(
            mode="semisync", num_rounds=3, network="lognormal"
        )
        studies = STUDIES.sweep(
            "semisync", config, algorithms=[AlgorithmSpec("fedavg", {})]
        )
        assert set(studies) == {"sync", "semisync"}
        semi_result = next(iter(studies["semisync"].results.values()))
        assert semi_result.metadata["mode"] == "semisync"
        assert semi_result.metadata["round_deadline_s"] > 0
        deadlines = [r.deadline_s for r in semi_result.history.records]
        assert all(d is not None and d > 0 for d in deadlines)

    def test_run_semisync_study_rejects_sync_config(self):
        with pytest.raises(ConfigurationError, match="mode='semisync'"):
            STUDIES.sweep("semisync", TINY, algorithms=[AlgorithmSpec("fedavg", {})])

    def test_imbalanced_study_requires_imbalanced_partition(self):
        with pytest.raises(ConfigurationError, match="partition='imbalanced'"):
            STUDIES.sweep("table6", TINY, algorithms=[AlgorithmSpec("fedavg", {})])

    def test_imbalanced_study_runs(self):
        config = TINY.with_overrides(
            name="tiny-imbalanced",
            partition="imbalanced",
            partition_kwargs={"num_groups": 5},
            num_clients=10,
        )
        comparison = STUDIES.sweep(
            "table6", config, algorithms=[AlgorithmSpec("fedavg", {})]
        )
        assert comparison.config == config
        assert comparison.results["fedavg"].rounds_run == config.num_rounds

    def test_sweep_matches_run_comparison_bit_for_bit(self):
        # run_comparison's shared-data loop is the reference the spec
        # decomposition is pinned against.
        algorithms = [AlgorithmSpec("fedadmm", {"rho": 0.3}), AlgorithmSpec("fedavg", {})]
        swept = STUDIES.sweep("fig3", TINY, populations=[6], algorithms=algorithms)[6]
        reference = run_comparison(swept.config, algorithms)
        assert list(swept.results) == list(reference.results)
        for label, result in reference.results.items():
            assert swept.results[label].history.records == result.history.records
            np.testing.assert_array_equal(
                swept.results[label].final_params, result.final_params
            )


class TestTablesAndFigures:
    def _comparison(self):
        return run_comparison(
            TINY,
            [
                AlgorithmSpec("fedsgd", {"server_learning_rate": 0.5}),
                AlgorithmSpec("fedadmm", {"rho": 0.3}),
            ],
        )

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": None}, {"a": 20, "b": 0.5}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "-" in lines[1]

    def test_format_empty_table(self):
        assert format_table([]) == "(empty table)"

    def test_comparison_to_rows(self):
        rows = comparison_to_rows(self._comparison())
        assert len(rows) == 2
        assert {"method", "rounds", "speedup_vs_fedsgd"} <= set(rows[0])

    def test_table3_text_contains_reduction_row(self):
        text = table3_text({"tiny": self._comparison()})
        assert "reduction" in text

    def test_accuracy_series_and_text(self):
        comparison = self._comparison()
        series = {
            label: accuracy_series(result) for label, result in comparison.results.items()
        }
        text = series_to_text(series, max_points=3)
        assert all(label in text for label in series)
        finals = final_accuracies(comparison.results)
        assert all(0.0 <= value <= 1.0 for value in finals.values())
