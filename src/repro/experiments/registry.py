"""Declarative study registry: preset → sweep axes → runs → report.

A :class:`Study` is a record: which :data:`~repro.experiments.configs.PRESETS`
row configures it, which :class:`Axis` es it sweeps, which algorithms it
compares, whether runs stop at the target accuracy, and which reporter
prints its result.  Two generic functions execute every study the same
way: :func:`expand` turns (study, config, request) into independent
:class:`~repro.experiments.orchestrator.RunSpec` s — the product of the
axes' values times the algorithm set — and :func:`gather` nests the
per-spec results back by spec key.  The
:class:`~repro.experiments.orchestrator.SweepOrchestrator` in between runs
the specs serially, in parallel (``--jobs``) or resumably (``--resume``).

The CLI walks the registry to expose one subcommand per study — including
each study's extra flags — so adding a study is one ``PRESETS`` row plus
one :meth:`StudyRegistry.add` call, with no runner or CLI edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.algorithms import ALGORITHM_REGISTRY
from repro.exceptions import ConfigurationError
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig, preset_config
from repro.experiments.orchestrator import RunSpec, SweepOrchestrator
from repro.experiments.runner import ComparisonResult
from repro.federated.engine import SimulationResult

#: Every execution-plan mode / client executor the runtime ships.  Studies
#: default to supporting all of them; a test pins these against the live
#: ``PLAN_REGISTRY`` / ``EXECUTOR_REGISTRY`` so the registry cannot drift.
ALL_MODES = ("sync", "semisync", "async")
ALL_EXECUTORS = ("serial", "thread", "vectorized")

#: Every adversarial client behaviour the runtime ships (pinned against the
#: live ``ADVERSARY_REGISTRY`` by a test, like the modes/executors above).
#: Studies whose sweeps run federated training accept ``--adversary`` for
#: any of these by default; closed-form and mode-locked studies opt out.
ALL_ADVERSARIES = ("sign_flip", "gaussian_noise", "scale", "label_flip")

#: Config fields the shared CLI flags override after the preset is built;
#: ``None`` values mean "flag not given, keep the preset's value".
OVERRIDE_FIELDS = (
    "codec",
    "dropout",
    "deadline_s",
    "network",
    "executor",
    "mode",
    "plan",
    "num_shards",
    "buffer_size",
    "max_concurrency",
    "staleness",
    "round_deadline_s",
    "adversary",
    "adversary_fraction",
    "defense",
)


@dataclass(frozen=True)
class StudyRequest:
    """Everything a study needs from the caller (CLI or library user)."""

    #: ``None`` selects the study's own preset dataset (the paper's).
    dataset: str | None = None
    non_iid: bool = False
    clients: int | None = None
    rounds: int | None = None
    rho: float = 0.3
    seed: int = 0
    #: Generic :class:`ExperimentConfig` field overrides (systems/plan flags).
    overrides: dict[str, Any] = field(default_factory=dict)
    #: What feeds the sweep expansion besides the config: the study's own
    #: extra flags keyed by argparse dest, explicit values per axis name,
    #: and ``"algorithms"`` to replace the study's algorithm set.
    options: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_args(cls, args: Any, option_names: tuple[str, ...] = ()) -> "StudyRequest":
        """Build a request from an argparse-style namespace.

        Missing attributes fall back to the field defaults, so plain
        objects with only a few attributes work (handy in tests).
        """
        overrides = {
            name: getattr(args, name, None)
            for name in OVERRIDE_FIELDS
            if getattr(args, name, None) is not None
        }
        if "num_shards" in overrides and "plan" not in overrides:
            # --shards N alone means the sharded synchronous topology.
            overrides["plan"] = "hierarchical"
        return cls(
            dataset=getattr(args, "dataset", cls.dataset),
            non_iid=getattr(args, "non_iid", cls.non_iid),
            clients=getattr(args, "clients", None),
            rounds=getattr(args, "rounds", None),
            rho=getattr(args, "rho", cls.rho),
            seed=getattr(args, "seed", cls.seed),
            overrides=overrides,
            options={
                name: getattr(args, name)
                for name in option_names
                if getattr(args, name, None) is not None
            },
        )

    def option(self, name: str, default: Any = None) -> Any:
        """One of the study's extra-flag values, or ``default``."""
        return self.options.get(name, default)

    def config(self, preset: str, fixed_distribution: bool = False) -> ExperimentConfig:
        """``preset``'s row under this request's dataset, distribution (unless
        the caller fixes it), seed, population, rounds and overrides."""
        overrides = dict(self.overrides)
        if self.rounds is not None:
            overrides["num_rounds"] = self.rounds
        if self.clients is not None:
            overrides["num_clients"] = self.clients
        return preset_config(
            preset, self.dataset, None if fixed_distribution else self.non_iid,
            seed=self.seed, **overrides,
        )


@dataclass(frozen=True)
class StudyFlag:
    """One extra argparse flag a study contributes to its subcommand."""

    name: str  # e.g. "--etas"
    kwargs: dict[str, Any] = field(default_factory=dict)

    @property
    def dest(self) -> str:
        """The argparse destination attribute for this flag."""
        return self.kwargs.get("dest", self.name.lstrip("-").replace("-", "_"))


@dataclass(frozen=True)
class Axis:
    """One swept dimension of a study.

    ``request.options[name]``, when present, replaces the default values
    (that is how a CLI flag whose dest equals the axis name, or a library
    caller's explicit values, reach the expansion).
    """

    name: str
    #: Default values: a sequence, or a callable of ``(config, request)``
    #: for defaults derived from the post-override config.
    values: Sequence | Callable[[ExperimentConfig, StudyRequest], Sequence]
    #: One value → ``(key part, config overrides, algorithm-kwarg
    #: overrides)``, given the config as left by the axes before this one.
    point: Callable[[ExperimentConfig, Any], tuple[Any, dict, dict]]

    def defaults(self, config: ExperimentConfig, request: StudyRequest) -> Sequence:
        """The values swept when the request names none for this axis."""
        return self.values(config, request) if callable(self.values) else self.values


def field_axis(name: str, config_field: str, tag: str, values) -> Axis:
    """An axis that sets one config field and tags the config name."""
    return Axis(
        name,
        values,
        lambda config, value: (
            value,
            {config_field: value, "name": f"{config.name}-{tag}{value}"},
            {},
        ),
    )


@dataclass(frozen=True)
class Study:
    """One declaratively registered experiment (a record, not code).

    Every study executes the same way: its preset row gives the config,
    :func:`expand` the run specs, the orchestrator the results,
    :func:`gather` the nested raw output and ``report`` the payload.  A
    study with no algorithms (the closed-form ``table1``) is simply one
    with zero run specs.
    """

    name: str
    description: str
    #: Print the human-readable report and return the JSON payload, given
    #: :func:`gather`'s nested output and the request.
    report: Callable[[Any, StudyRequest], dict]
    #: The :data:`~repro.experiments.configs.PRESETS` row configuring the
    #: study; ``None`` for studies that train nothing.
    preset: str | None = None
    #: Whether the study's comparison fixes the data distribution itself
    #: (the preset row's, or an axis) instead of honouring ``--non-iid``.
    fixed_distribution: bool = False
    #: Config field values the sweep's comparison depends on; a config
    #: that differs is refused.
    requires: dict[str, Any] = field(default_factory=dict)
    #: The swept dimensions, outermost first.
    axes: tuple[Axis, ...] = ()
    #: The algorithm set, from the request (``--rho`` and extra flags).
    algorithms: Callable[[StudyRequest], Sequence[AlgorithmSpec]] = lambda request: ()
    #: True: several algorithms per sweep point, gathered into one
    #: :class:`ComparisonResult` keyed by algorithm label.  False: one
    #: algorithm whose kwargs the axes vary; points hold the bare result.
    compare: bool = True
    stop_at_target: bool = True
    #: Extra CLI flags exposed on this study's subcommand.
    flags: tuple[StudyFlag, ...] = ()
    #: Execution-plan modes a request may select for this study via
    #: ``--mode``.  An empty tuple means the study runs no federated
    #: training at all (closed-form tables) and any plan/executor flag is
    #: rejected up front.
    modes: tuple[str, ...] = ALL_MODES
    #: Client executors a request may select via ``--executor``.
    executors: tuple[str, ...] = ALL_EXECUTORS
    #: Adversarial behaviours a request may inject via ``--adversary``.
    #: Empty for closed-form studies and for studies whose comparison a
    #: hostile population would invalidate.
    adversaries: tuple[str, ...] = ALL_ADVERSARIES

    def _supported(self):
        """(flag/field, plural, declared values, universe, text when empty)."""
        closed = "none (closed form, no training)"
        return (
            ("mode", "modes", self.modes, ALL_MODES, closed),
            ("adversary", "adversaries", self.adversaries, ALL_ADVERSARIES, "none"),
            ("executor", "executors", self.executors, ALL_EXECUTORS, closed),
        )

    def __post_init__(self) -> None:
        for kind, _, declared, universe, _ in self._supported():
            for value in declared:
                if value not in universe:
                    raise ConfigurationError(
                        f"study {self.name!r} declares unknown {kind} {value!r}"
                    )

    def check_request(self, request: StudyRequest) -> None:
        """Fail fast on plan/executor flags this study cannot honour.

        Raises :class:`ConfigurationError` before any dataset is built or
        round runs, so ``repro <study> --mode ...`` with an unsupported
        combination dies with one clear line instead of deep in the
        pipeline (or, worse, silently reconfiguring the sweep).
        """
        for kind, plural, declared, _, empty in self._supported():
            requested = request.overrides.get(kind)
            if requested is not None and requested not in declared:
                raise ConfigurationError(
                    f"study {self.name!r} does not support --{kind} {requested}; "
                    f"supported {plural}: {', '.join(declared) or empty}"
                )
        # The hierarchical plan is a sharded *synchronous* round: the study
        # must run lock-step rounds, and must not also ask for a buffered
        # mode.
        if request.overrides.get("plan") == "hierarchical" and (
            "sync" not in self.modes
            or request.overrides.get("mode") in ("semisync", "async")
        ):
            raise ConfigurationError(
                f"study {self.name!r} cannot run --plan hierarchical: "
                "it requires synchronous lock-step rounds"
            )

    def option_names(self) -> tuple[str, ...]:
        """The argparse dests of this study's extra flags."""
        return tuple(flag.dest for flag in self.flags)

    def config(self, request: StudyRequest) -> ExperimentConfig | None:
        """The study's preset config under the request's knobs, if it trains."""
        if self.preset is None:
            return None
        return request.config(self.preset, fixed_distribution=self.fixed_distribution)


def filter_plan_compatible(
    specs: Sequence[AlgorithmSpec], mode: str
) -> list[AlgorithmSpec]:
    """Drop algorithms that opt out of buffered aggregation plans.

    Lock-step methods (SCAFFOLD, FedPD) cannot run under the async or
    semi-sync plans; a note is printed for any skipped entry.
    """
    kept = [s for s in specs if ALGORITHM_REGISTRY[s.name].supports_plan(mode)]
    if len(kept) < len(specs):
        skipped = ", ".join(s.name for s in specs if s not in kept)
        print(f"note: mode={mode} skips {skipped} "
              f"(lock-step server state; no buffered-plan support)")
    return kept


def expand(
    study: Study, config: ExperimentConfig | None, request: StudyRequest
) -> list[RunSpec]:
    """The study's sweep as independent run specs.

    The product of the axes' values (outermost first, duplicates dropped)
    times the plan-compatible algorithm set.  Each spec re-derives its
    dataset/partition/model deterministically from its config's seed, so
    executing them independently (any order, any process) reproduces
    ``run_comparison`` bit for bit.
    """
    algorithms = request.option("algorithms")
    if algorithms is None:
        algorithms = study.algorithms(request)
    if config is not None:
        for name, value in study.requires.items():
            if getattr(config, name) != value:
                raise ConfigurationError(
                    f"study {study.name!r} expects a config with {name}={value!r}, "
                    f"got {getattr(config, name)!r}"
                )
        algorithms = filter_plan_compatible(algorithms, config.mode)
    points: list[tuple[tuple, ExperimentConfig | None, dict]] = [((), config, {})]
    for axis in study.axes:
        chosen = request.option(axis.name)
        grown = []
        for key, point_config, kwargs in points:
            values = chosen if chosen is not None else axis.defaults(point_config, request)
            for value in dict.fromkeys(values):
                part, overrides, extra = axis.point(point_config, value)
                grown.append((
                    key + (part,),
                    point_config.with_overrides(**overrides),
                    {**kwargs, **extra},
                ))
        points = grown
    return [
        RunSpec(
            study=study.name,
            key=key + ((algorithm.label(),) if study.compare else ()),
            config=point_config,
            algorithm=AlgorithmSpec(algorithm.name, {**algorithm.kwargs, **kwargs}),
            stop_at_target=study.stop_at_target,
        )
        for key, point_config, kwargs in points
        for algorithm in algorithms
    ]


def gather(
    specs: Sequence[RunSpec],
    results: dict[tuple, SimulationResult],
    compare: bool = True,
) -> Any:
    """Nest ``{spec.key: result}`` by key part, in spec order.

    Axis key parts become nested dict levels.  With ``compare`` the last
    part is an algorithm label: the runs sharing the parts before it form
    one :class:`ComparisonResult` under their shared config.  Without, the
    last part is itself an axis value holding the bare result.  A study
    with no axes gathers to a single comparison; one with no specs to
    ``{}``.
    """
    root: dict = {}
    for spec in specs:
        *path, parent, last = (None, *spec.key)
        node = root
        for part in path:
            node = node.setdefault(part, {})
        if parent not in node:
            node[parent] = ComparisonResult(config=spec.config) if compare else {}
        leaf = node[parent].results if compare else node[parent]
        leaf[last] = results[spec.key]
    return root.get(None, {})


class StudyRegistry:
    """Ordered name → :class:`Study` mapping with generic execution."""

    def __init__(self) -> None:
        self._studies: dict[str, Study] = {}

    def add(self, study: Study) -> Study:
        """Register a study (names must be unique)."""
        if study.name in self._studies:
            raise ConfigurationError(f"study {study.name!r} already registered")
        self._studies[study.name] = study
        return study

    def get(self, name: str) -> Study:
        """Look up one study; unknown names raise ``ValueError``."""
        try:
            return self._studies[name]
        except KeyError:
            raise ValueError(
                f"unknown experiment {name!r}; available: {sorted(self._studies)}"
            ) from None

    def names(self) -> list[str]:
        """Registered study names in registration order."""
        return list(self._studies)

    def descriptions(self) -> dict[str, str]:
        """Name → one-line description for listings."""
        return {name: study.description for name, study in self._studies.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._studies

    def __iter__(self):
        return iter(self._studies.values())

    def __len__(self) -> int:
        return len(self._studies)

    def sweep(
        self,
        name: str,
        config: ExperimentConfig | None,
        request: StudyRequest | None = None,
        orchestrator: SweepOrchestrator | None = None,
        **options: Any,
    ) -> Any:
        """Expand, execute and gather one study's sweep over ``config``.

        The single execution path — the CLI's, and a library caller's with
        a config of their own: each keyword adds one ``request.options``
        entry, so ``sweep("fig3", config, populations=[20, 40],
        algorithms=[...])`` runs the same expansion with explicit axis
        values and algorithms.  Runs through ``orchestrator``, or a fresh
        serial, storeless :class:`SweepOrchestrator`; returns
        :func:`gather`'s nested output, nothing is printed.
        """
        study = self.get(name)
        request = request if request is not None else StudyRequest()
        if options:
            request = replace(request, options={**request.options, **options})
        specs = expand(study, config, request)
        runner = orchestrator if orchestrator is not None else SweepOrchestrator()
        return gather(specs, runner.execute(specs), study.compare)

    def run(
        self,
        name: str,
        request: StudyRequest | None = None,
        orchestrator: SweepOrchestrator | None = None,
    ) -> dict:
        """Execute one study end to end and return its JSON payload."""
        study = self.get(name)
        request = request if request is not None else StudyRequest()
        study.check_request(request)
        raw = self.sweep(name, study.config(request), request, orchestrator)
        return study.report(raw, request)
