"""Experiment configurations and the per-table/figure preset table.

The paper's Section V is one protocol — hyperparameters fixed once — so
the presets are data: :data:`SCALES` (``"bench"`` — small synthetic
datasets, tens of clients, MLP models, the whole suite regenerates on a
laptop CPU in minutes; ``"paper"`` — the paper's client populations
(100–1000), sample counts and CNN architectures, expect long runtimes),
:data:`DATASETS` (model and target per dataset) and :data:`PRESETS` (one
row per table/figure), all read by :func:`preset_config`.

Absolute round counts at ``"bench"`` scale differ from the paper (smaller
models, synthetic data); the *orderings and ratios* between algorithms are
what the reproduction checks: the cases of ``tests/test_paper_claims.py``
state them, and ``repro <study>`` prints the regenerated rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class AlgorithmSpec:
    """An algorithm name plus constructor keyword arguments."""

    name: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        """Short label for table rows (e.g. ``fedprox(rho=0.1)``)."""
        if not self.kwargs:
            return self.name
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.kwargs.items()))
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one federated training run (minus the algorithm)."""

    name: str
    dataset: str = "blobs"
    n_train: int = 2000
    n_test: int = 500
    model: str = "mlp"
    model_kwargs: dict[str, Any] = field(default_factory=dict)
    num_clients: int = 30
    partition: str = "iid"
    partition_kwargs: dict[str, Any] = field(default_factory=dict)
    client_fraction: float = 0.1
    local_epochs: int = 5
    system_heterogeneity: bool = True
    batch_size: int | None = 20
    learning_rate: float = 0.1
    num_rounds: int = 40
    target_accuracy: float = 0.80
    eval_every: int = 1
    seed: int = 0
    # Client-systems layer (see repro.systems); the defaults reproduce the
    # idealised synchronous engine with no compression, faults, or clock.
    codec: str | None = None
    codec_kwargs: dict[str, Any] = field(default_factory=dict)
    dropout: float = 0.0
    deadline_s: float | None = None
    network: str | None = None
    executor: str = "serial"
    max_workers: int | None = None
    # Execution plan (see repro.federated.plans): "sync" is the bit-identical
    # lock-step round loop, "semisync" the deadline-bounded plan with
    # FedBuff-weighted late arrivals, "async" the event-driven buffered plan.
    mode: str = "sync"
    buffer_size: int | None = None
    max_concurrency: int | None = None
    staleness: str = "polynomial"
    staleness_exponent: float = 0.5
    # Semi-synchronous plan only: the per-round aggregation deadline in
    # simulated seconds (None derives it from the network model's median
    # predicted client duration).
    round_deadline_s: float | None = None
    # Topology of the synchronous round: "flat" is the single-server
    # round, "hierarchical" shards the population across num_shards edge
    # aggregators that each pre-reduce their cohort
    # (repro.federated.plans.HierarchicalPlan).  Only meaningful with
    # mode="sync"; flat is the one-shard case of the same round loop.
    plan: str = "flat"
    num_shards: int = 1
    # Adversarial federation (see repro.systems.adversaries): a behaviour
    # from ADVERSARY_REGISTRY exhibited by round(adversary_fraction * m)
    # clients, and an optional robust-aggregation defense from
    # DEFENSE_REGISTRY wrapped around the algorithm's server-side
    # combination.  Defenses rank one synchronous cohort's updates against
    # each other, so defense requires mode="sync".
    adversary: str | None = None
    adversary_fraction: float = 0.0
    defense: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("sync", "semisync", "async"):
            raise ConfigurationError(
                f"mode must be one of ('sync', 'semisync', 'async'), "
                f"got {self.mode!r}"
            )
        if self.round_deadline_s is not None and self.round_deadline_s <= 0:
            raise ConfigurationError("round_deadline_s must be positive")
        if self.num_clients <= 0:
            raise ConfigurationError("num_clients must be positive")
        if not 0 < self.client_fraction <= 1:
            raise ConfigurationError("client_fraction must lie in (0, 1]")
        if self.local_epochs <= 0:
            raise ConfigurationError("local_epochs must be positive")
        if self.num_rounds <= 0:
            raise ConfigurationError("num_rounds must be positive")
        if not 0 < self.target_accuracy <= 1:
            raise ConfigurationError("target_accuracy must lie in (0, 1]")
        if not 0 <= self.dropout <= 1:
            raise ConfigurationError("dropout must lie in [0, 1]")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ConfigurationError("deadline_s must be non-negative")
        if self.buffer_size is not None and self.buffer_size <= 0:
            raise ConfigurationError("buffer_size must be positive")
        if self.max_concurrency is not None and self.max_concurrency <= 0:
            raise ConfigurationError("max_concurrency must be positive")
        if self.max_workers is not None and self.max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        if self.staleness_exponent < 0:
            raise ConfigurationError("staleness_exponent must be non-negative")
        if self.plan not in ("flat", "hierarchical"):
            raise ConfigurationError(
                f"plan must be 'flat' or 'hierarchical', got {self.plan!r}"
            )
        if self.num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if self.num_shards > self.num_clients:
            raise ConfigurationError(
                f"num_shards {self.num_shards} exceeds num_clients "
                f"{self.num_clients}"
            )
        if self.plan == "flat" and self.num_shards > 1:
            raise ConfigurationError(
                f"num_shards={self.num_shards} needs plan=\"hierarchical\"; "
                "the flat plan has a single server"
            )
        if self.plan == "hierarchical" and self.mode != "sync":
            raise ConfigurationError(
                "the hierarchical plan is a sharded synchronous round; "
                f"it cannot be combined with mode={self.mode!r}"
            )
        if not 0 <= self.adversary_fraction <= 1:
            raise ConfigurationError("adversary_fraction must lie in [0, 1]")
        if self.adversary is not None or self.defense is not None:
            from repro.systems.adversaries import (
                ADVERSARY_REGISTRY,
                DEFENSE_REGISTRY,
            )

            if self.adversary is not None:
                if self.adversary not in ADVERSARY_REGISTRY:
                    raise ConfigurationError(
                        f"unknown adversary {self.adversary!r}; "
                        f"available: {sorted(ADVERSARY_REGISTRY)}"
                    )
                if self.adversary_fraction <= 0:
                    raise ConfigurationError(
                        "an adversary needs adversary_fraction > 0 "
                        "(the fraction of clients that misbehave)"
                    )
            if self.defense is not None:
                if self.defense not in DEFENSE_REGISTRY:
                    raise ConfigurationError(
                        f"unknown defense {self.defense!r}; "
                        f"available: {sorted(DEFENSE_REGISTRY)}"
                    )
                if self.mode != "sync":
                    raise ConfigurationError(
                        "robust aggregation defenses rank one synchronous "
                        "cohort's updates against each other; they cannot "
                        f"be combined with mode={self.mode!r}"
                    )

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ExperimentConfig":
        """Rebuild a config from a stored or served ``asdict`` record."""
        record = dict(record)
        # Older records carry the boolean twin ``mode`` once had (it always
        # equalled ``mode == "async"``) and the array backend of the stacked
        # kernels (only ever NumPy); both are simply dropped.
        record.pop("async_mode", None)
        record.pop("backend", None)
        return cls(**record)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def default_algorithms(
    admm_rho: float = 0.01,
    prox_rho: float = 0.1,
    include_fedsgd: bool = True,
    include_scaffold: bool = True,
) -> list[AlgorithmSpec]:
    """The paper's comparison set: FedSGD, FedADMM, FedAvg, FedProx, SCAFFOLD."""
    specs: list[AlgorithmSpec] = []
    if include_fedsgd:
        specs.append(AlgorithmSpec("fedsgd", {"server_learning_rate": 0.5}))
    specs.append(AlgorithmSpec("fedadmm", {"rho": admm_rho}))
    specs.append(AlgorithmSpec("fedavg", {}))
    specs.append(AlgorithmSpec("fedprox", {"rho": prox_rho}))
    if include_scaffold:
        specs.append(AlgorithmSpec("scaffold", {}))
    return specs


# --------------------------------------------------------------------------- #
# Scales and presets: the paper's one protocol as data
# --------------------------------------------------------------------------- #
#: The two scales as :class:`ExperimentConfig` field values.  Everything the
#: table does not name (10% cohorts, E=5, B=20, lr 0.1, ...) is the
#: dataclass default: the paper fixes its hyperparameters once.
SCALES: dict[str, dict[str, Any]] = {
    "bench": {"n_train": 2000, "n_test": 600, "num_rounds": 40},
    "paper": {"n_train": 60000, "n_test": 10000, "num_rounds": 100},
}

#: Per-dataset fields at each scale.  Bench: small MLPs on flattened
#: synthetic images, with targets that play the role of the paper's
#: 97% / 80% / 45% — reachable by every algorithm within the round budget,
#: but only after meaningful training.  Paper: the paper's CNNs and targets.
DATASETS: dict[str, dict[str, dict[str, Any]]] = {
    "bench": {
        "mnist": {"model_kwargs": {"input_dim": 784, "hidden_dims": (32,)},
                  "target_accuracy": 0.85},
        "fmnist": {"model_kwargs": {"input_dim": 784, "hidden_dims": (32,)},
                   "target_accuracy": 0.75},
        "cifar10": {"model_kwargs": {"input_dim": 3072, "hidden_dims": (32,)},
                    "target_accuracy": 0.65},
        "blobs": {"model_kwargs": {"input_dim": 32, "hidden_dims": (32,)},
                  "target_accuracy": 0.80},
    },
    "paper": {
        "mnist": {"model": "cnn1", "target_accuracy": 0.97},
        "fmnist": {"model": "cnn1", "target_accuracy": 0.80},
        "cifar10": {"model": "cnn2", "n_train": 50000, "target_accuracy": 0.45},
        "blobs": {"model_kwargs": {"input_dim": 32, "hidden_dims": (64,)},
                  "n_train": 50000, "target_accuracy": 0.90},
    },
}


@dataclass(frozen=True)
class Preset:
    """One row of :data:`PRESETS`: how an artefact instantiates the protocol.

    Field values may be callables of ``(num_clients, non_iid)`` for the
    few settings the paper derives from the population.
    """

    #: Config-name template over ``{dataset}``, ``{dist}`` and ``{clients}``.
    name: str
    #: The paper's dataset for this table/figure.
    dataset: str
    #: Client population at (bench, paper) scale.
    clients: tuple[int, int]
    #: The artefact's data distribution when the caller does not choose.
    non_iid: bool = True
    #: :class:`ExperimentConfig` overrides at both scales ...
    fields: dict[str, Any] = field(default_factory=dict)
    #: ... and at one scale only, keyed by scale name.
    per_scale: dict[str, dict[str, Any]] = field(default_factory=dict)


def _imbalanced_groups(num_clients: int, non_iid: bool) -> dict[str, int]:
    # Two clients per volume group at both of the paper's scales (20 / 100).
    if num_clients % 2:
        raise ConfigurationError(
            "the imbalanced-volume preset pairs clients into num_clients // 2 "
            f"groups; num_clients must be even, got {num_clients}"
        )
    return {"num_groups": num_clients // 2}


_STRAGGLERS = {"client_fraction": 0.2, "network": "lognormal"}
_LONG_LOCAL_WORK = {"paper": {"local_epochs": 10, "batch_size": 50}}

#: Table/figure → preset.  ``fig8``/``fig9`` reuse the ``fig6`` row.
PRESETS: dict[str, Preset] = {
    # Table III: 100 clients (MNIST) and 1,000 (all datasets) in the paper;
    # the 1,000-client columns run E=20 with B=10 (non-IID) or full batch.
    "table3": Preset(
        "table3-{dataset}-{clients}clients-{dist}", "mnist", (30, 100), non_iid=False,
        per_scale={"paper": {
            "local_epochs": lambda m, non_iid: 20 if m >= 1000 else 5,
            "batch_size": lambda m, non_iid: (
                20 if m < 1000 else 10 if non_iid else None
            ),
        }},
    ),
    # Table IV / Fig. 7: the uniform 1..E draw is disabled so the realised
    # local epochs equal E exactly.
    "table4": Preset(
        "table4-{dataset}-{dist}", "mnist", (30, 100), non_iid=False,
        fields={"system_heterogeneity": False},
    ),
    "table5": Preset("table5-{dataset}-{clients}clients", "fmnist", (40, 200)),
    # Table VI / Fig. 10: group-indexed shard counts; E=10, B=50 in the paper.
    "table6": Preset(
        "table6-{dataset}-imbalanced", "fmnist", (40, 200),
        fields={"partition": "imbalanced", "partition_kwargs": _imbalanced_groups},
        per_scale=_LONG_LOCAL_WORK,
    ),
    "fig3": Preset("fig3-{dataset}-30clients", "fmnist", (30, 30)),
    # Fig. 5: m=200, E=10, B=50 in the paper.
    "fig5": Preset("fig5-{dataset}-{dist}", "fmnist", (40, 200),
                   per_scale=_LONG_LOCAL_WORK),
    "fig6": Preset("fig6-{dataset}-{dist}", "mnist", (30, 100)),
    # Not tables from the paper but the regimes its robustness claims
    # target: a heavy-tailed log-normal network makes lock-step rounds
    # straggler-dominated (async/semisync), uploads are compressed and
    # clients drop mid-round (systems), a fifth of the population misbehaves
    # in a cohort large enough for an honest majority (robustness).
    "async": Preset("async-{dataset}-{dist}", "blobs", (30, 100),
                    fields={**_STRAGGLERS, "mode": "async"}),
    "semisync": Preset("semisync-{dataset}-{dist}", "blobs", (30, 100),
                       fields={**_STRAGGLERS, "mode": "semisync"}),
    "systems": Preset("systems-{dataset}-{dist}", "blobs", (30, 100),
                      fields={**_STRAGGLERS, "codec": "topk", "dropout": 0.2}),
    "robustness": Preset(
        "robustness-{dataset}-{dist}", "blobs", (30, 100),
        fields={"client_fraction": 0.4, "adversary": "sign_flip",
                "adversary_fraction": 0.2},
    ),
    # The repro.serve scenario: a population a couple of worker processes
    # serve at interactive speed; float16 because its packed bytes equal
    # the ledger's nominal wire bytes exactly.
    "serve": Preset(
        "serve-{dataset}-{dist}", "blobs", (12, 100),
        fields={"client_fraction": 0.25, "local_epochs": 2, "num_rounds": 10,
                "codec": "float16", "network": "lognormal"},
        per_scale={"bench": {"n_train": 600, "n_test": 200}},
    ),
}


def _choice(kind: str, value: str, options) -> None:
    if value not in options:
        raise ConfigurationError(
            f"{kind} must be one of {tuple(options)}, got {value!r}"
        )


def preset_config(
    study: str,
    dataset: str | None = None,
    non_iid: bool | None = None,
    scale: str = "bench",
    seed: int = 0,
    num_clients: int | None = None,
    **overrides: Any,
) -> ExperimentConfig:
    """The configuration of one :data:`PRESETS` row at one scale.

    ``scale`` selects between ``"bench"`` (small synthetic datasets, tens
    of clients, MLPs; what ``tests/test_paper_claims.py`` runs) and
    ``"paper"`` (the paper's populations, sample counts and CNNs; expect
    long runtimes).
    ``dataset`` / ``non_iid`` / ``num_clients`` default to the row's own
    (the paper's setting for that artefact); ``overrides`` are
    :class:`ExperimentConfig` fields applied last.
    """
    _choice("preset", study, PRESETS)
    _choice("scale", scale, SCALES)
    row = PRESETS[study]
    dataset = row.dataset if dataset is None else dataset
    _choice("dataset", dataset, DATASETS[scale])
    non_iid = row.non_iid if non_iid is None else non_iid
    if num_clients is None:
        num_clients = row.clients[list(SCALES).index(scale)]
    fields = {
        **SCALES[scale],
        **DATASETS[scale][dataset],
        "partition": "shard" if non_iid else "iid",
        "partition_kwargs": {"shards_per_client": 2} if non_iid else {},
        **row.fields,
        **row.per_scale.get(scale, {}),
    }
    config = ExperimentConfig(
        name=row.name.format(
            dataset=dataset, clients=num_clients, dist="noniid" if non_iid else "iid"
        ),
        dataset=dataset,
        num_clients=num_clients,
        seed=seed,
        **{
            key: value(num_clients, non_iid) if callable(value)
            else dict(value) if isinstance(value, dict) else value
            for key, value in fields.items()
        },
    )
    return config.with_overrides(**overrides) if overrides else config
