"""The paper's studies, declared as records against the :class:`StudyRegistry`.

Three layers live here:

* **Axes and algorithm sets** — the handful of swept dimensions (local
  epochs, population, ρ, η, IID vs non-IID, dropout, adversary fraction,
  defense, plan) as :class:`~repro.experiments.registry.Axis` records.
* **Reporters** — print a study's human-readable report and return its
  JSON payload from :func:`~repro.experiments.registry.gather`'s output.
* **Registry entries** — one :class:`~repro.experiments.registry.Study`
  record per table/figure naming its preset row, axes, algorithm set and
  reporter.  ``cli.py`` walks :data:`STUDIES` to expose one subcommand per
  entry; nothing is hand-wired, and no study carries loop code: the one
  :func:`~repro.experiments.registry.expand` turns every record into run
  specs for the :class:`~repro.experiments.orchestrator.SweepOrchestrator`.

Adding a new study is one :data:`~repro.experiments.configs.PRESETS` row
plus one ``STUDIES.add(Study(...))`` record.  :func:`run_study` runs a
registered study from a request; ``STUDIES.sweep`` runs its expansion over
a config of your own with explicit axis values and algorithms.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.rho import PiecewiseRho
from repro.core.stepsize import PiecewiseStepSize
from repro.experiments.configs import (
    AlgorithmSpec,
    ExperimentConfig,
    default_algorithms,
    preset_config,
)
from repro.experiments.figures import accuracy_series, series_to_text
from repro.experiments.orchestrator import SweepOrchestrator
from repro.experiments.registry import (
    Axis,
    Study,
    StudyFlag,
    StudyRegistry,
    StudyRequest,
    field_axis,
)
from repro.experiments.runner import (
    ComparisonResult,
    prepare_environment,
    rounds_summary,
)
from repro.experiments.tables import format_table, table3_text
from repro.federated.engine import SimulationResult


# --------------------------------------------------------------------------- #
# Algorithm sets
# --------------------------------------------------------------------------- #
def _paper_set(*names: str):
    """The named members of the paper's comparison set, FedADMM at ``--rho``."""

    def algorithms(request: StudyRequest) -> list[AlgorithmSpec]:
        specs = {spec.name: spec for spec in default_algorithms(admm_rho=request.rho)}
        return [specs[name] for name in names]

    return algorithms


def _table5_algorithms(request: StudyRequest) -> list[AlgorithmSpec]:
    return _paper_set("fedadmm")(request) + [
        AlgorithmSpec("fedprox", {"rho": rho})
        for rho in request.option("prox_rhos", (0.01, 0.1, 1.0))
    ]


# --------------------------------------------------------------------------- #
# Swept axes
# --------------------------------------------------------------------------- #
def _schedule_label(value: Any, fmt=str) -> str:
    """``0.5``, or ``1.0->0.5@20`` for a piecewise schedule switching at round 20."""
    if hasattr(value, "boundaries"):
        return f"{'->'.join(map(fmt, value.values))}@{value.boundaries[0]}"
    return fmt(value)


#: Fig. 6: constant server step sizes (``--etas``) plus a mid-run decrease
#: (the paper adjusts at round 60 of 100; the presets at half their budget).
STEP_SIZES = Axis(
    "step_sizes",
    lambda config, request: [
        *request.option("etas", (0.5, 1.0, 1.5)),
        PiecewiseStepSize(values=[1.0, 0.5], boundaries=[config.num_rounds // 2]),
    ],
    lambda config, eta: (f"eta={_schedule_label(eta)}", {}, {"server_step_size": eta}),
)

def _local_init_point(config: ExperimentConfig, init: tuple[str, bool, float]):
    label, warm_start, eta = init
    return (
        f"{label}-eta={eta}", {}, {"server_step_size": eta, "warm_start": warm_start}
    )


#: Fig. 8: warm start (init I, from w_i) vs restart (init II, from θ), per η.
LOCAL_INITS = Axis(
    "local_inits",
    lambda config, request: [
        (label, warm_start, eta)
        for eta in request.option("etas", (1.0, 0.5))
        for warm_start, label in ((True, "I-warm"), (False, "II-restart"))
    ],
    _local_init_point,
)

#: Fig. 9: a small and the requested ρ, constant, then small → requested.
RHO_SCHEDULES = Axis(
    "rhos",
    lambda config, request: [
        request.rho / 3,
        request.rho,
        PiecewiseRho(
            values=[request.rho / 3, request.rho], boundaries=[config.num_rounds // 2]
        ),
    ],
    lambda config, rho: (f"rho={_schedule_label(rho, '{:g}'.format)}", {}, {"rho": rho}),
)


def _distribution_point(config: ExperimentConfig, setting: str):
    # The IID / non-IID preset pair: partition, its kwargs and the config
    # name all follow the distribution.
    twin = preset_config("fig5", config.dataset, non_iid=setting == "non_iid")
    return (
        setting,
        {"partition": twin.partition, "partition_kwargs": twin.partition_kwargs,
         "name": twin.name},
        {},
    )


def _adversary_fraction_point(config: ExperimentConfig, fraction: float):
    fraction = float(fraction)
    overrides: dict[str, Any] = {
        "adversary_fraction": fraction,
        "name": f"{config.name}-adv{fraction}",
    }
    if fraction == 0:
        # The clean reference cell: no adversary at all.
        overrides["adversary"] = None
    return fraction, overrides, {}


# --------------------------------------------------------------------------- #
# Reporters (print a report, return the JSON payload)
# --------------------------------------------------------------------------- #
def _print_rows(rows: list[dict]) -> dict:
    print(format_table(rows))
    return {"rows": rows}


def _table1_report(raw: dict, request: StudyRequest) -> dict:
    from repro.core.convergence import COMPLEXITY_TABLE, round_complexity

    return _print_rows([
        {
            "epsilon": epsilon,
            "method": method,
            "predicted_rounds": round_complexity(
                method, epsilon, num_clients=1000, num_selected=100,
                dissimilarity_b=3.0, gradient_bound_g=3.0,
            ),
        }
        for epsilon in (1e-2, 1e-3, 1e-4)
        for method in COMPLEXITY_TABLE
    ])


def _comparison_report(
    comparison: ComparisonResult, request: StudyRequest | None = None
) -> dict:
    print(table3_text({comparison.config.name: comparison}))
    return {
        "config": comparison.config.name,
        "summary": rounds_summary(comparison),
    }


def _comparison_columns(
    table: dict[Any, ComparisonResult], request: StudyRequest
) -> dict:
    return {
        str(column): _comparison_report(comparison)
        for column, comparison in table.items()
    }


def _series_report(results: dict[str, SimulationResult], request: StudyRequest) -> dict:
    series = {label: accuracy_series(result) for label, result in results.items()}
    print(series_to_text(series, max_points=15))
    return {"series": series}


def _table4_report(results: dict[int, SimulationResult], request: StudyRequest) -> dict:
    return _print_rows([
        {"E": epochs, "rounds_to_target": result.rounds_to_target,
         "final_accuracy": result.history.final_accuracy()}
        for epochs, result in results.items()
    ])


def _table6_report(comparison: ComparisonResult, request: StudyRequest) -> dict:
    # The partition statistics are a pure function of the config.
    stats = prepare_environment(comparison.config)[2]
    print(format_table([stats.as_table_row()]))
    return _comparison_report(comparison)


def _systems_report(studies: dict[float, ComparisonResult], request: StudyRequest) -> dict:
    return _print_rows([
        {
            "dropout": rate,
            "algorithm": label,
            "final_accuracy": result.history.final_accuracy(),
            "raw_upload_MB": result.ledger.upload_bytes / 1e6,
            "wire_upload_MB": result.ledger.upload_wire_bytes / 1e6,
            "sim_minutes": result.simulated_seconds / 60.0,
            "clients_dropped": result.history.total_dropped(),
        }
        for rate, comparison in studies.items()
        for label, result in comparison.results.items()
    ])


def _robustness_report(
    studies: "dict[float, dict[str, ComparisonResult]]", request: StudyRequest
) -> dict:
    rows = []
    clean: dict[str, float | None] = {}
    for fraction, by_defense in studies.items():
        for defense, comparison in by_defense.items():
            for label, result in comparison.results.items():
                accuracy = result.history.final_accuracy()
                if fraction == 0 and label not in clean:
                    clean[label] = accuracy
                reference = clean.get(label)
                rows.append(
                    {
                        "adversary": (
                            comparison.config.adversary if fraction else "none"
                        ),
                        "fraction": fraction,
                        "defense": defense,
                        "algorithm": label,
                        "final_accuracy": accuracy,
                        "degradation_vs_clean": (
                            None
                            if reference is None or accuracy is None
                            else reference - accuracy
                        ),
                    }
                )
    return _print_rows(rows)


def _plan_comparison_report(
    studies: dict[str, ComparisonResult], request: StudyRequest
) -> dict:
    # Identical data, model initialisation and network under both plans, so
    # seconds_to_accuracy isolates what the buffered plan buys: it stops
    # paying for the slowest client of every round.
    rows = []
    for mode, comparison in studies.items():
        for label, result in comparison.results.items():
            history = result.history
            seconds = history.seconds_to_accuracy(comparison.config.target_accuracy)
            rows.append({
                "mode": mode,
                "algorithm": label,
                "rounds_to_target": result.rounds_to_target,
                "seconds_to_target": None if seconds is None else round(seconds, 1),
                "final_accuracy": round(history.final_accuracy(), 4),
                "mean_staleness": round(
                    float(np.nanmean(history.stalenesses)) if len(history) else 0.0, 2
                ),
                "max_staleness": history.max_staleness(),
            })
    return _print_rows(rows)


def _semisync_report(studies: dict[str, ComparisonResult], request: StudyRequest) -> dict:
    payload = _plan_comparison_report(studies, request)
    semi = studies.get("semisync")
    if semi is not None:
        payload["late_arrivals"] = {
            label: result.metadata.get("late_arrivals", 0)
            for label, result in semi.results.items()
        }
        payload["round_deadline_s"] = {
            label: result.metadata.get("round_deadline_s")
            for label, result in semi.results.items()
        }
    return payload


# --------------------------------------------------------------------------- #
# Registry entries
# --------------------------------------------------------------------------- #
STUDIES = StudyRegistry()

_ETAS_FLAG = StudyFlag("--etas", {"nargs": "+", "type": float,
                                  "help": "server step sizes to sweep"})

STUDIES.add(Study(
    name="table1",
    description="Table I   — round-complexity predictors (closed form, no training)",
    report=_table1_report,
    # Closed form: no federated training, so no plan, executor, or
    # adversary applies.
    modes=(),
    executors=(),
    adversaries=(),
))

STUDIES.add(Study(
    name="table3",
    description="Table III — rounds to target accuracy for all algorithms",
    preset="table3",
    algorithms=_paper_set("fedsgd", "fedadmm", "fedavg", "fedprox", "scaffold"),
    report=_comparison_report,
))

STUDIES.add(Study(
    name="table4",
    description="Table IV / Fig. 7 — FedADMM vs local epoch count E",
    preset="table4",
    axes=(field_axis("epochs", "local_epochs", "E", (1, 5, 10)),),
    algorithms=_paper_set("fedadmm"),
    compare=False,
    report=_table4_report,
    flags=(StudyFlag("--epochs", {"nargs": "+", "type": int,
                                  "help": "local epoch counts E to sweep"}),),
))

STUDIES.add(Study(
    name="table5",
    description="Table V   — rho sensitivity of FedProx vs fixed-rho FedADMM",
    preset="table5",
    fixed_distribution=True,
    # One column per (dataset, population): the config's own name.
    axes=(Axis("columns", lambda config, request: (config.name,),
               lambda config, column: (column, {}, {})),),
    algorithms=_table5_algorithms,
    report=_comparison_columns,
    flags=(StudyFlag("--prox-rhos", {"nargs": "+", "type": float,
                                     "help": "FedProx rho values to sweep"}),),
))

STUDIES.add(Study(
    name="table6",
    description="Table VI / Fig. 10 — imbalanced data volumes",
    preset="table6",
    fixed_distribution=True,
    requires={"partition": "imbalanced"},
    algorithms=_paper_set("fedadmm", "fedavg", "fedprox", "scaffold"),
    stop_at_target=False,
    report=_table6_report,
))

STUDIES.add(Study(
    name="fig3",
    description="Fig. 3/4  — scaling the client population",
    preset="fig3",
    # Hyperparameters stay fixed across populations, exactly as in the
    # paper's protocol (tuned once at the smallest population, then reused).
    axes=(field_axis(
        "populations", "num_clients", "m",
        lambda config, request: (config.num_clients, config.num_clients * 2),
    ),),
    algorithms=_paper_set("fedadmm", "fedavg"),
    report=_comparison_columns,
    flags=(StudyFlag("--populations", {"nargs": "+", "type": int,
                                       "help": "client populations to sweep"}),),
))

STUDIES.add(Study(
    name="fig5",
    description="Fig. 5    — IID vs non-IID adaptability",
    preset="fig5",
    fixed_distribution=True,
    axes=(Axis("distributions", ("iid", "non_iid"), _distribution_point),),
    algorithms=_paper_set("fedadmm", "fedavg", "fedprox", "scaffold"),
    report=_comparison_columns,
))

STUDIES.add(Study(
    name="fig6",
    description="Fig. 6    — server step size study",
    preset="fig6",
    axes=(STEP_SIZES,),
    algorithms=_paper_set("fedadmm"),
    compare=False,
    stop_at_target=False,
    report=_series_report,
    flags=(_ETAS_FLAG,),
))

STUDIES.add(Study(
    name="fig8",
    description="Fig. 8    — local initialisation (warm start vs restart)",
    preset="fig6",
    fixed_distribution=True,
    axes=(LOCAL_INITS,),
    algorithms=_paper_set("fedadmm"),
    compare=False,
    stop_at_target=False,
    report=_series_report,
    flags=(_ETAS_FLAG,),
))

STUDIES.add(Study(
    name="fig9",
    description="Fig. 9    — dynamic rho schedule",
    preset="fig6",
    fixed_distribution=True,
    axes=(RHO_SCHEDULES,),
    algorithms=_paper_set("fedadmm"),
    compare=False,
    stop_at_target=False,
    report=_series_report,
))

STUDIES.add(Study(
    name="systems",
    description="Systems   — dropout/straggler robustness under the client-systems model",
    preset="systems",
    # Every other systems knob (codec, network model, executor) comes from
    # the config; runs do not stop at the target so that final accuracies
    # are comparable across rates.
    axes=(field_axis(
        "dropout_rates", "dropout", "dropout",
        lambda config, request: (
            (0.0, config.dropout) if config.dropout > 0 else (0.0,)
        ),
    ),),
    algorithms=_paper_set("fedadmm", "fedavg", "scaffold"),
    stop_at_target=False,
    report=_systems_report,
    flags=(StudyFlag("--dropout-rates", {"nargs": "+", "type": float,
                                         "help": "dropout rates to sweep"}),),
))

STUDIES.add(Study(
    name="robustness",
    description="Robust    — byzantine/poisoning adversaries vs robust aggregation defenses",
    preset="robustness",
    axes=(
        Axis(
            "adversary_fractions",
            lambda config, request: (0.0, config.adversary_fraction or 0.2),
            _adversary_fraction_point,
        ),
        Axis(
            "defenses",
            lambda config, request: ("none", config.defense or "median"),
            lambda config, defense: (
                defense,
                {"defense": None if defense == "none" else defense,
                 "name": f"{config.name}-{defense}"},
                {},
            ),
        ),
    ),
    algorithms=_paper_set("fedadmm", "fedavg"),
    stop_at_target=False,
    report=_robustness_report,
    flags=(
        StudyFlag("--adversary-fractions", {
            "nargs": "+", "type": float,
            "help": "adversarial population fractions to sweep "
                    "(default: 0.0 and the preset fraction)"}),
        StudyFlag("--defenses", {
            "nargs": "+",
            "help": "defenses to sweep ('none', 'median', 'trimmed_mean', "
                    "'norm_clip'; default: none and median)"}),
    ),
    # Defenses rank one lock-step cohort's updates against each other, so
    # the attacked-vs-defended comparison only exists under sync rounds.
    modes=("sync",),
))

STUDIES.add(Study(
    name="async",
    description="Async     — sync vs event-driven async time-to-target under stragglers",
    preset="async",
    # The study *is* the sync-vs-async pair on identical data, model and
    # network; overriding the mode would break the comparison, so only the
    # preset's own mode is accepted.
    requires={"mode": "async"},
    modes=("async",),
    axes=(field_axis("plans", "mode", "", ("sync", "async")),),
    algorithms=_paper_set("fedadmm", "fedavg", "fedprox"),
    report=_plan_comparison_report,
))

STUDIES.add(Study(
    name="semisync",
    description="Semisync  — sync vs deadline-bounded semi-sync rounds with late arrivals",
    preset="semisync",
    # Like the async study: the sync-vs-semisync pair is the experiment.
    requires={"mode": "semisync"},
    modes=("semisync",),
    axes=(field_axis("plans", "mode", "", ("sync", "semisync")),),
    algorithms=_paper_set("fedadmm", "fedavg"),
    report=_semisync_report,
))


def run_study(
    name: str,
    request: StudyRequest | None = None,
    orchestrator: SweepOrchestrator | None = None,
) -> dict:
    """Execute one registered study end to end (the library entry point).

    Pass a configured :class:`SweepOrchestrator` to run the study's sweep
    points in parallel (``jobs=N``) and/or resumably against a persistent
    :class:`~repro.experiments.store.ExperimentStore`; with ``None`` the
    sweep runs serially in-process.
    """
    return STUDIES.run(name, request, orchestrator=orchestrator)

