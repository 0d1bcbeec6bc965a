"""Tests for the declarative study registry and its CLI-facing resolution."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import studies as studies_module
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig
from repro.experiments.registry import (
    Axis,
    Study,
    StudyFlag,
    StudyRegistry,
    StudyRequest,
    expand,
    field_axis,
    gather,
)
from repro.experiments.store import ExperimentStore
from repro.experiments.studies import STUDIES


TINY = ExperimentConfig(
    name="tiny-registry",
    dataset="blobs",
    n_train=200,
    n_test=80,
    model="mlp",
    model_kwargs={"input_dim": 32, "hidden_dims": (8,)},
    num_clients=6,
    client_fraction=0.5,
    local_epochs=1,
    batch_size=16,
    num_rounds=2,
    target_accuracy=0.5,
)


def make_study(name="demo", **kwargs) -> Study:
    defaults = dict(
        name=name,
        description="a demo study",
        preset="table3",
        algorithms=lambda request: [AlgorithmSpec("fedavg", {})],
        report=lambda raw, request: {"ok": True, "raw": raw},
    )
    defaults.update(kwargs)
    return Study(**defaults)


class TestStudyRegistryResolution:
    def test_add_get_and_order(self):
        registry = StudyRegistry()
        registry.add(make_study("b"))
        registry.add(make_study("a"))
        assert registry.names() == ["b", "a"]  # registration order
        assert registry.get("a").name == "a"
        assert "a" in registry and "missing" not in registry
        assert len(registry) == 2

    def test_duplicate_names_rejected(self):
        registry = StudyRegistry()
        registry.add(make_study("x"))
        with pytest.raises(ConfigurationError):
            registry.add(make_study("x"))

    def test_unknown_name_raises_value_error_with_choices(self):
        registry = StudyRegistry()
        registry.add(make_study("known"))
        with pytest.raises(ValueError, match="known"):
            registry.get("unknown")

    def test_run_applies_overrides_before_sweep(self):
        registry = StudyRegistry()
        registry.add(make_study())
        request = StudyRequest(
            dataset="blobs", clients=6, rounds=2, seed=3, overrides={"dropout": 0.25}
        )
        payload = registry.run("demo", request)
        swept = payload["raw"].config  # the gathered comparison's config
        assert swept.num_rounds == 2
        assert swept.seed == 3
        assert swept.dropout == 0.25
        assert swept.name == "table3-blobs-6clients-iid"

    def test_run_skips_overrides_for_configless_studies(self):
        registry = StudyRegistry()
        registry.add(
            make_study("closed-form", preset=None, algorithms=lambda request: ())
        )
        request = StudyRequest(overrides={"dropout": 0.25})
        assert registry.get("closed-form").config(request) is None
        # No preset and no algorithms: zero run specs, the report gets {}.
        assert registry.run("closed-form", request) == {"ok": True, "raw": {}}

    def test_default_dataset_is_the_presets_own(self):
        # CLI, StudyRequest and the preset rows used to disagree (mnist /
        # blobs / the paper's); None now means the PRESETS row everywhere.
        assert StudyRequest().dataset is None
        assert STUDIES.get("fig5").config(StudyRequest()).dataset == "fmnist"
        assert STUDIES.get("table3").config(StudyRequest()).dataset == "mnist"
        assert STUDIES.get("fig5").config(StudyRequest(dataset="blobs")).dataset == "blobs"


class TestExpandAndGather:
    """The one spec expansion and the one gather, on a two-axis demo study."""

    STUDY = make_study(
        "grid",
        axes=(
            field_axis("epochs", "local_epochs", "E", (1, 2)),
            Axis(
                "etas",
                lambda config, request: (0.5, config.learning_rate * 10),
                lambda config, eta: (f"eta={eta}", {}, {"server_step_size": eta}),
            ),
        ),
        algorithms=lambda request: [
            AlgorithmSpec("fedadmm", {"rho": request.rho}), AlgorithmSpec("fedavg", {}),
        ],
        stop_at_target=False,
    )

    def test_expand_is_the_product_of_axes_and_algorithms(self):
        specs = expand(self.STUDY, TINY, StudyRequest(rho=0.7))
        assert [spec.key for spec in specs][:4] == [
            (1, "eta=0.5", "fedadmm(rho=0.7)"), (1, "eta=0.5", "fedavg"),
            (1, "eta=1.0", "fedadmm(rho=0.7)"), (1, "eta=1.0", "fedavg"),
        ]
        assert len(specs) == 8
        last = specs[-1]
        assert last.config.local_epochs == 2
        assert last.config.name == "tiny-registry-E2"
        assert last.algorithm == AlgorithmSpec("fedavg", {"server_step_size": 1.0})
        assert not last.stop_at_target and last.study == "grid"

    def test_request_options_replace_axis_values_and_algorithms(self):
        request = StudyRequest(options={
            "epochs": [3, 3],  # duplicates collapse
            "etas": [0.1],
            "algorithms": [AlgorithmSpec("fedprox", {"rho": 0.2})],
        })
        specs = expand(self.STUDY, TINY, request)
        assert [spec.key for spec in specs] == [(3, "eta=0.1", "fedprox(rho=0.2)")]
        assert specs[0].algorithm.kwargs == {"rho": 0.2, "server_step_size": 0.1}

    def test_buffered_modes_drop_lock_step_algorithms(self, capsys):
        request = StudyRequest(options={
            "algorithms": [AlgorithmSpec("scaffold", {}), AlgorithmSpec("fedavg", {})],
        })
        specs = expand(make_study(), TINY.with_overrides(mode="async"), request)
        assert [spec.key for spec in specs] == [("fedavg",)]
        assert "skips scaffold" in capsys.readouterr().out

    def test_required_config_fields_are_enforced(self):
        study = make_study(requires={"partition": "imbalanced"})
        with pytest.raises(ConfigurationError, match="partition='imbalanced'"):
            expand(study, TINY, StudyRequest())

    def test_gather_nests_by_key_and_groups_comparisons(self):
        specs = expand(self.STUDY, TINY, StudyRequest())
        results = {spec.key: object() for spec in specs}
        nested = gather(specs, results)
        assert list(nested) == [1, 2] and list(nested[1]) == ["eta=0.5", "eta=1.0"]
        cell = nested[2]["eta=1.0"]
        assert cell.config == specs[-1].config
        assert cell.results == {
            "fedadmm(rho=0.3)": results[(2, "eta=1.0", "fedadmm(rho=0.3)")],
            "fedavg": results[(2, "eta=1.0", "fedavg")],
        }

    def test_gather_without_comparison_keeps_bare_results(self):
        single = dataclasses.replace(self.STUDY, compare=False)
        specs = expand(single, TINY, StudyRequest(options={
            "algorithms": [AlgorithmSpec("fedavg", {})]}))
        assert [spec.key for spec in specs][0] == (1, "eta=0.5")
        results = {spec.key: object() for spec in specs}
        nested = gather(specs, results, compare=False)
        assert nested[2]["eta=1.0"] is results[(2, "eta=1.0")]

    def test_no_axes_gathers_to_one_comparison_and_no_specs_to_nothing(self):
        specs = expand(make_study(), TINY, StudyRequest())
        only = gather(specs, {spec.key: "result" for spec in specs})
        assert only.config == TINY and only.results == {"fedavg": "result"}
        assert gather([], {}) == {}


#: One override variant per study: its own axis flag(s) on a tiny request.
PIN_AXIS_VARIANTS = {
    "table3": {},
    "table4": {"epochs": [1, 2]},
    "table5": {"prox_rhos": [0.05, 0.5]},
    "table6": {},
    "fig3": {"populations": [6, 12]},
    "fig5": {},
    "fig6": {"etas": [0.25, 1.0]},
    "fig8": {"etas": [0.75]},
    "fig9": {},
    "systems": {"dropout_rates": [0.0, 0.3]},
    "robustness": {
        "adversary_fractions": [0.0, 0.1, 0.3],
        "defenses": ["none", "trimmed_mean"],
    },
    "async": {},
    "semisync": {},
}


def pin_requests():
    """``(ident, study, StudyRequest kwargs)`` of the content-key pin grid."""
    for study in PIN_AXIS_VARIANTS:
        for dataset in ("mnist", "fmnist", "cifar10", "blobs"):
            for non_iid in (False, True):
                yield (
                    f"{study}|{dataset}|{'noniid' if non_iid else 'iid'}|bench",
                    study,
                    dict(dataset=dataset, non_iid=non_iid),
                )
        # table6's --clients was a crash when the pin was recorded (fixed
        # since, which changes num_groups): it keeps the preset population.
        clients = None if study == "table6" else 8
        yield (
            f"{study}|tiny",
            study,
            dict(dataset="blobs", clients=clients, rounds=2,
                 options=PIN_AXIS_VARIANTS[study]),
        )
        yield (
            f"{study}|rho-seed-systems",
            study,
            dict(dataset="blobs", non_iid=True, rho=0.05, seed=3, rounds=3,
                 overrides={"codec": "qsgd", "network": "lognormal",
                            "executor": "thread"}),
        )
    yield ("table3|async", "table3",
           dict(dataset="blobs", clients=10, overrides={"mode": "async"}))
    yield ("systems|semisync", "systems",
           dict(dataset="blobs", overrides={"mode": "semisync",
                                            "round_deadline_s": 2.0}))
    yield ("fig3|hierarchical", "fig3",
           dict(dataset="blobs", clients=16,
                overrides={"plan": "hierarchical", "num_shards": 4}))
    yield ("robustness|defended", "robustness",
           dict(dataset="blobs", overrides={"adversary": "scale",
                                            "adversary_fraction": 0.3,
                                            "defense": "norm_clip"}))


class TestContentKeyPin:
    """Every study expands to the runs it expanded to before PR 15.

    ``spec_key_pin.json`` was recorded on commit 477c4cd (the last one with
    per-study ``*_config`` builders and ``_specs``/``_collect`` pairs) by
    walking :func:`pin_requests` through that commit's
    ``study.specs(request.apply_overrides(study.build_config(request)),
    request)`` and folding each request's ordered ``label<TAB>key_for``
    lines into one sha256 (store version ``"pin"``; fig9's labels
    %g-formatted, as they have been since).  Equal digests mean a run store
    written before the refactor is a 100% ``--resume`` hit after it.
    Never refresh the pin to make a failing build pass: a mismatch means
    the expansion now trains different runs.
    """

    PIN = json.loads(
        (Path(__file__).parent / "spec_key_pin.json").read_text(encoding="utf-8")
    )

    def test_grid_covers_every_training_study(self):
        assert set(PIN_AXIS_VARIANTS) == set(STUDIES.names()) - {"table1"}
        idents = [ident for ident, _, _ in pin_requests()]
        assert sorted(idents) == sorted(self.PIN)
        grid = [ident for ident in idents if ident.count("|") == 3]
        assert len(grid) == 104
        assert sum(self.PIN[ident]["specs"] for ident in grid) == 504

    def test_every_expansion_matches_the_pin(self, tmp_path):
        store = ExperimentStore(tmp_path, version="pin")
        mismatched = []
        for ident, name, kwargs in pin_requests():
            study = STUDIES.get(name)
            request = StudyRequest(**kwargs)
            specs = expand(study, study.config(request), request)
            lines = [f"{spec.label()}\t{store.key_for(spec)}" for spec in specs]
            digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
            if {"specs": len(specs), "digest": digest} != self.PIN[ident]:
                mismatched.append(ident)
        assert mismatched == []


class TestCollapsedSurface:
    """Studies are records; there is one expansion and one execution path."""

    def test_study_has_no_per_study_code_hooks(self):
        fields = {f.name for f in dataclasses.fields(Study)}
        assert not fields & {"sweep", "specs", "collect", "build_config", "summarise"}
        assert not hasattr(Study, "orchestrable")

    def test_studies_module_defines_no_sweep_functions(self):
        defined = [
            name for name, obj in vars(studies_module).items()
            if inspect.isfunction(obj) and obj.__module__ == studies_module.__name__
        ]
        assert [name for name in defined if name.startswith("run_")] == ["run_study"]
        assert not [name for name in defined if "specs" in name or "collect" in name]

    def test_experiment_config_fields_are_untouched(self):
        # _canonical(spec.config) feeds every store key.  PR 16 removed
        # ``async_mode`` and PR 20 ``backend`` (key_for re-emits both;
        # spec_key_pin.json is the oracle).  ``coalition`` came last, and
        # key_for leaves it out while it is None.
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "name", "dataset", "n_train", "n_test", "model", "model_kwargs",
            "num_clients", "partition", "partition_kwargs", "client_fraction",
            "local_epochs", "system_heterogeneity", "batch_size", "learning_rate",
            "num_rounds", "target_accuracy", "eval_every", "seed", "codec",
            "codec_kwargs", "dropout", "deadline_s", "network", "executor",
            "max_workers", "mode", "buffer_size",
            "max_concurrency", "staleness", "staleness_exponent",
            "round_deadline_s", "plan", "num_shards", "adversary",
            "adversary_fraction", "defense", "coalition",
        ]


class TestStudyRequest:
    def test_from_args_with_sparse_namespace(self):
        class Args:
            dataset = "blobs"
            rho = 0.7

        request = StudyRequest.from_args(Args())
        assert request.dataset == "blobs"
        assert request.rho == 0.7
        assert request.overrides == {}

    def test_from_args_collects_overrides_and_options(self):
        class Args:
            dataset = "mnist"
            codec = "topk"
            mode = "semisync"
            round_deadline_s = 4.0
            etas = [0.5, 1.0]

        request = StudyRequest.from_args(Args(), option_names=("etas",))
        assert request.overrides["codec"] == "topk"
        assert request.overrides["mode"] == "semisync"
        assert request.overrides["round_deadline_s"] == 4.0
        assert request.option("etas") == [0.5, 1.0]
        assert request.option("missing", "fallback") == "fallback"

    def test_legacy_async_flag_maps_to_mode(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["table3", "--async"])
        assert not hasattr(args, "async_mode")
        assert StudyRequest.from_args(args).overrides["mode"] == "async"

    def test_flag_dest_derivation(self):
        flag = StudyFlag("--dropout-rates", {"nargs": "+", "type": float})
        assert flag.dest == "dropout_rates"


class TestDefaultRegistryContents:
    def test_every_paper_study_is_registered(self):
        expected = {
            "table1", "table3", "table4", "table5", "table6",
            "fig3", "fig5", "fig6", "fig8", "fig9",
            "systems", "robustness", "async", "semisync",
        }
        assert expected == set(STUDIES.names())

    def test_descriptions_cover_every_study(self):
        descriptions = STUDIES.descriptions()
        assert set(descriptions) == set(STUDIES.names())
        assert all(descriptions.values())

    def test_table1_runs_without_training(self, capsys):
        payload = STUDIES.run("table1")
        assert payload["rows"]
        assert "fedadmm" in capsys.readouterr().out

    def test_cli_exposes_registry_subcommands(self):
        from repro.cli import EXPERIMENTS, _build_parser

        assert set(EXPERIMENTS) == set(STUDIES.names())
        parser = _build_parser()
        args = parser.parse_args(
            ["fig6", "--dataset", "blobs", "--etas", "0.5", "1.0"]
        )
        assert args.experiment == "fig6"
        assert args.etas == [0.5, 1.0]
        args = parser.parse_args(
            ["semisync", "--round-deadline", "2.0", "--mode", "semisync"]
        )
        assert args.round_deadline_s == 2.0


class TestSupportedModesAndExecutors:
    """Studies surface their supported plans/executors and fail fast."""

    def test_declared_universes_match_the_live_registries(self):
        from repro.experiments.registry import ALL_EXECUTORS, ALL_MODES
        from repro.federated.plans import PLAN_REGISTRY
        from repro.systems import EXECUTOR_REGISTRY

        # The hierarchical plan is a topology variant of the synchronous
        # round selected via --plan/--shards, not a --mode of its own.
        assert set(ALL_MODES) | {"hierarchical"} == set(PLAN_REGISTRY)
        assert set(ALL_EXECUTORS) == set(EXECUTOR_REGISTRY)

    def test_every_study_surfaces_modes_and_executors(self):
        for study in STUDIES:
            assert isinstance(study.modes, tuple)
            assert isinstance(study.executors, tuple)

    def test_closed_form_study_supports_nothing(self):
        table1 = STUDIES.get("table1")
        assert table1.modes == ()
        assert table1.executors == ()

    def test_mode_locked_studies(self):
        assert STUDIES.get("async").modes == ("async",)
        assert STUDIES.get("semisync").modes == ("semisync",)

    def test_unsupported_mode_fails_fast(self):
        from repro.exceptions import ConfigurationError

        request = StudyRequest(overrides={"mode": "sync"})
        with pytest.raises(ConfigurationError, match="does not support --mode"):
            STUDIES.run("async", request)

    def test_unsupported_executor_on_closed_form_fails_fast(self):
        from repro.exceptions import ConfigurationError

        request = StudyRequest(overrides={"executor": "vectorized"})
        with pytest.raises(
            ConfigurationError, match="does not support --executor"
        ):
            STUDIES.run("table1", request)

    def test_supported_executor_is_accepted(self, capsys):
        # Sanity: validation does not reject combinations a study allows.
        study = STUDIES.get("fig5")
        assert "vectorized" in study.executors
        study.check_request(StudyRequest(overrides={"executor": "vectorized"}))

    def test_unknown_declared_mode_is_rejected_at_definition(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown mode"):
            make_study(name="bad-mode", modes=("warp",))

    def test_cli_listing_shows_support(self, capsys):
        from repro.cli import _print_listing

        _print_listing()
        out = capsys.readouterr().out
        assert "executors: serial|thread|vectorized" in out
        assert "closed form (no training" in out

    def test_cli_fails_fast_with_clear_error(self, capsys):
        from repro.cli import main

        code = main(["async", "--dataset", "blobs", "--mode", "sync"])
        assert code == 2
        assert "does not support --mode sync" in capsys.readouterr().err
