"""Experiment harness: presets, core runner, and the declarative study registry.

Each table and figure of the paper's Section V maps to

* a row of the preset table in :mod:`repro.experiments.configs`
  (:data:`PRESETS`, read by :func:`preset_config`),
* a registered :class:`Study` record in :mod:`repro.experiments.studies`
  (the :data:`STUDIES` registry), and
* a case of ``tests/test_paper_claims.py`` that runs the study's sweep
  (``STUDIES.sweep``) and checks the claims it supports;
  ``repro <study>`` prints the regenerated rows/series.

:mod:`repro.experiments.runner` holds the reusable core
(``build_simulation``, ``run_single``, ``run_comparison``); the CLI
exposes every registry entry as a subcommand automatically.
:mod:`repro.experiments.orchestrator` executes a study's sweep points
serially or across a process pool, and
:mod:`repro.experiments.store` persists every finished run in a
content-addressed store so sweeps are resumable (``--jobs``,
``--resume``, ``--store-dir``).

Every preset is sized for a laptop CPU: small synthetic datasets, tens of
clients and MLP models.
"""

from repro.experiments.configs import (
    PRESETS,
    ExperimentConfig,
    AlgorithmSpec,
    default_algorithms,
    preset_config,
)
from repro.experiments.runner import (
    ComparisonResult,
    build_simulation,
    prepare_environment,
    rounds_summary,
    run_comparison,
    run_single,
)
from repro.experiments.orchestrator import (
    RunSpec,
    SpecEvent,
    SweepOrchestrator,
    execute_spec,
)
from repro.experiments.registry import (
    Axis,
    Study,
    StudyFlag,
    StudyRegistry,
    StudyRequest,
    expand,
    filter_plan_compatible,
    gather,
)
from repro.experiments.store import (
    ExperimentStore,
    RunRecord,
    RunStatus,
)
from repro.experiments.studies import STUDIES, run_study
from repro.experiments.tables import format_table, comparison_to_rows
from repro.experiments.figures import accuracy_series, series_to_text

__all__ = [
    # Presets
    "ExperimentConfig",
    "AlgorithmSpec",
    "default_algorithms",
    "PRESETS",
    "preset_config",
    # Core runner
    "ComparisonResult",
    "build_simulation",
    "prepare_environment",
    "rounds_summary",
    "run_comparison",
    "run_single",
    # Registry
    "Axis",
    "Study",
    "StudyFlag",
    "StudyRegistry",
    "StudyRequest",
    "STUDIES",
    "run_study",
    "expand",
    "gather",
    "filter_plan_compatible",
    # Orchestration + persistent store
    "RunSpec",
    "SpecEvent",
    "SweepOrchestrator",
    "execute_spec",
    "ExperimentStore",
    "RunRecord",
    "RunStatus",
    # Formatting
    "format_table",
    "comparison_to_rows",
    "accuracy_series",
    "series_to_text",
]
