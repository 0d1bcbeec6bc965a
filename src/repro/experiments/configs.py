"""Experiment configurations and per-table/figure presets.

The ``scale`` argument of every preset selects between

* ``"bench"`` — small synthetic datasets, tens of clients, MLP models; the
  whole suite regenerates on a laptop CPU in minutes.  This is what the
  ``benchmarks/`` directory runs.
* ``"paper"`` — the paper's client populations (100–1000), sample counts, and
  CNN architectures; provided for completeness, expect long runtimes.

Absolute round counts at ``"bench"`` scale differ from the paper (smaller
models, synthetic data); the *orderings and ratios* between algorithms are
what the reproduction checks, as recorded in EXPERIMENTS.md.
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
    # Array backend for the vectorized executor's stacked kernels (see
    # repro.nn.backend).  None defers to the REPRO_BACKEND environment
    # variable and then the "numpy" default; per-task executors always run
    # the serial NumPy model code and ignore this field.
    backend: str | None = None
    # Execution plan (see repro.federated.plans): "sync" is the bit-identical
    # lock-step round loop, "semisync" the deadline-bounded plan with
    # FedBuff-weighted late arrivals, "async" the event-driven buffered plan.
    # ``async_mode`` is the legacy boolean spelling of mode="async"; the two
    # fields are kept consistent automatically.
    mode: str = "sync"
    async_mode: bool = False
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
        # Normalise the two plan spellings: async_mode=True is shorthand for
        # mode="async", and mode is always the authoritative field.
        if self.async_mode and self.mode == "sync":
            object.__setattr__(self, "mode", "async")
        object.__setattr__(self, "async_mode", self.mode == "async")
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
        if self.backend is not None:
            from repro.nn.backend import BACKEND_REGISTRY

            if self.backend not in BACKEND_REGISTRY:
                raise ConfigurationError(
                    f"unknown backend {self.backend!r}; "
                    f"available: {sorted(BACKEND_REGISTRY)}"
                )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given fields replaced.

        Overriding either plan spelling (``mode`` or the legacy
        ``async_mode``) updates the other, so ``async_mode=False`` really
        does return a synchronous config.
        """
        if "async_mode" in kwargs and "mode" not in kwargs:
            kwargs["mode"] = "async" if kwargs["async_mode"] else "sync"
        if "mode" in kwargs and "async_mode" not in kwargs:
            kwargs["async_mode"] = kwargs["mode"] == "async"
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
# Scale handling
# --------------------------------------------------------------------------- #
_SCALES = ("bench", "paper")

# Target accuracies on the synthetic stand-ins at bench scale.  They play the
# role of the paper's 97% / 80% / 45% targets: reachable by every algorithm
# within the round budget, but only after meaningful training.
_BENCH_TARGETS = {"mnist": 0.85, "fmnist": 0.75, "cifar10": 0.65, "blobs": 0.80}
_PAPER_TARGETS = {"mnist": 0.97, "fmnist": 0.80, "cifar10": 0.45, "blobs": 0.90}


def _check_scale(scale: str) -> None:
    if scale not in _SCALES:
        raise ConfigurationError(f"scale must be one of {_SCALES}, got {scale!r}")


def _model_for(dataset: str, scale: str) -> tuple[str, dict[str, Any]]:
    if scale == "paper":
        if dataset in ("mnist", "fmnist"):
            return "cnn1", {}
        if dataset == "cifar10":
            return "cnn2", {}
        return "mlp", {"input_dim": 32, "hidden_dims": (64,)}
    # Bench scale: small MLPs on flattened synthetic images.
    dims = {"mnist": 784, "fmnist": 784, "cifar10": 3072, "blobs": 32}
    return "mlp", {"input_dim": dims[dataset], "hidden_dims": (32,)}


def _base_config(
    name: str,
    dataset: str,
    num_clients: int,
    non_iid: bool,
    scale: str,
    seed: int,
) -> ExperimentConfig:
    _check_scale(scale)
    model, model_kwargs = _model_for(dataset, scale)
    if scale == "paper":
        n_train = 60000 if dataset in ("mnist", "fmnist") else 50000
        n_test = 10000
        num_rounds = 100
        target = _PAPER_TARGETS[dataset]
    else:
        n_train = 2000
        n_test = 600
        num_rounds = 40
        target = _BENCH_TARGETS[dataset]
    return ExperimentConfig(
        name=name,
        dataset=dataset,
        n_train=n_train,
        n_test=n_test,
        model=model,
        model_kwargs=model_kwargs,
        num_clients=num_clients,
        partition="shard" if non_iid else "iid",
        partition_kwargs={"shards_per_client": 2} if non_iid else {},
        client_fraction=0.1,
        local_epochs=5,
        system_heterogeneity=True,
        batch_size=20,
        learning_rate=0.1,
        num_rounds=num_rounds,
        target_accuracy=target,
        eval_every=1,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# Per-table / per-figure presets
# --------------------------------------------------------------------------- #
def table3_config(
    dataset: str = "mnist",
    num_clients: int | None = None,
    non_iid: bool = False,
    scale: str = "bench",
    seed: int = 0,
) -> ExperimentConfig:
    """Table III: rounds to target accuracy per dataset / population / distribution.

    At paper scale the populations are 100 (MNIST) and 1,000 (all datasets)
    with E=5, B=200 (100 clients) or E=20, B=10 / full-batch (1,000 clients);
    at bench scale the populations default to 30 (stand-in for 100) and the
    local work is E=5, B=20.
    """
    _check_scale(scale)
    if num_clients is None:
        num_clients = 100 if scale == "paper" else 30
    config = _base_config(
        name=f"table3-{dataset}-{num_clients}clients-{'noniid' if non_iid else 'iid'}",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )
    if scale == "paper" and num_clients >= 1000:
        config = config.with_overrides(
            local_epochs=20, batch_size=10 if non_iid else None
        )
    return config


def fig3_config(
    dataset: str = "fmnist",
    num_clients: int = 30,
    non_iid: bool = True,
    scale: str = "bench",
    seed: int = 0,
) -> ExperimentConfig:
    """Fig. 3 / Fig. 4: convergence paths and rounds-to-target vs population."""
    config = _base_config(
        name=f"fig3-{dataset}-{num_clients}clients",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )
    return config


def fig5_config(
    dataset: str = "fmnist",
    non_iid: bool = True,
    scale: str = "bench",
    seed: int = 0,
) -> ExperimentConfig:
    """Fig. 5: adaptability to heterogeneous data (m=200, E=10, B=50 in the paper)."""
    _check_scale(scale)
    num_clients = 200 if scale == "paper" else 40
    config = _base_config(
        name=f"fig5-{dataset}-{'noniid' if non_iid else 'iid'}",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )
    return config.with_overrides(
        local_epochs=10 if scale == "paper" else 5,
        batch_size=50 if scale == "paper" else 20,
    )


def fig6_config(
    dataset: str = "mnist", non_iid: bool = True, scale: str = "bench", seed: int = 0
) -> ExperimentConfig:
    """Fig. 6: server step-size study in a 100-client system (30 at bench scale)."""
    _check_scale(scale)
    num_clients = 100 if scale == "paper" else 30
    return _base_config(
        name=f"fig6-{dataset}-{'noniid' if non_iid else 'iid'}",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )


def table4_config(
    dataset: str = "mnist", non_iid: bool = False, scale: str = "bench", seed: int = 0
) -> ExperimentConfig:
    """Table IV / Fig. 7: effect of the local epoch number E on FedADMM."""
    _check_scale(scale)
    num_clients = 100 if scale == "paper" else 30
    config = _base_config(
        name=f"table4-{dataset}-{'noniid' if non_iid else 'iid'}",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )
    # The local-work study disables the uniform 1..E draw so the realised
    # epochs equal E exactly.
    return config.with_overrides(system_heterogeneity=False)


def fig8_config(
    dataset: str = "mnist", non_iid: bool = True, scale: str = "bench", seed: int = 0
) -> ExperimentConfig:
    """Fig. 8: local-training initialisation (warm start vs restart from θ)."""
    return fig6_config(dataset=dataset, non_iid=non_iid, scale=scale, seed=seed)


def table5_config(
    dataset: str = "fmnist",
    num_clients: int | None = None,
    non_iid: bool = True,
    scale: str = "bench",
    seed: int = 0,
) -> ExperimentConfig:
    """Table V: ρ sensitivity of FedProx vs fixed-ρ FedADMM (200/500 clients)."""
    _check_scale(scale)
    if num_clients is None:
        num_clients = 200 if scale == "paper" else 40
    return _base_config(
        name=f"table5-{dataset}-{num_clients}clients",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )


def fig9_config(
    dataset: str = "mnist", non_iid: bool = True, scale: str = "bench", seed: int = 0
) -> ExperimentConfig:
    """Fig. 9: dynamic ρ adaptation for FedADMM."""
    return fig6_config(dataset=dataset, non_iid=non_iid, scale=scale, seed=seed)


def table6_config(
    dataset: str = "fmnist", scale: str = "bench", seed: int = 0
) -> ExperimentConfig:
    """Table VI / Fig. 10: imbalanced data volumes across 200 clients (40 at bench).

    The imbalanced partitioner assigns group-indexed shard counts; E=10, B=50
    in the paper.
    """
    _check_scale(scale)
    num_clients = 200 if scale == "paper" else 40
    num_groups = 100 if scale == "paper" else 20
    config = _base_config(
        name=f"table6-{dataset}-imbalanced",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=False,
        scale=scale,
        seed=seed,
    )
    return config.with_overrides(
        partition="imbalanced",
        partition_kwargs={"num_groups": num_groups},
        local_epochs=10 if scale == "paper" else 5,
        batch_size=50 if scale == "paper" else 20,
    )


def async_config(
    dataset: str = "blobs",
    non_iid: bool = True,
    scale: str = "bench",
    seed: int = 0,
    buffer_size: int | None = None,
    max_concurrency: int | None = None,
    staleness: str = "polynomial",
) -> ExperimentConfig:
    """Asynchronous-federation scenario: sync vs async under stragglers.

    A heavy-tailed log-normal network makes synchronous rounds
    straggler-dominated; the async engine's buffered aggregation should
    reach the same accuracy in less simulated wall-clock.  ``buffer_size``
    defaults to the synchronous per-round cohort (fraction x population) so
    each aggregation consumes the same number of uploads in both modes.
    """
    _check_scale(scale)
    num_clients = 100 if scale == "paper" else 30
    config = _base_config(
        name=f"async-{dataset}-{'noniid' if non_iid else 'iid'}",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )
    return config.with_overrides(
        client_fraction=0.2,
        network="lognormal",
        async_mode=True,
        buffer_size=buffer_size,
        max_concurrency=max_concurrency,
        staleness=staleness,
    )


def semisync_config(
    dataset: str = "blobs",
    non_iid: bool = True,
    scale: str = "bench",
    seed: int = 0,
    round_deadline_s: float | None = None,
    staleness: str = "polynomial",
) -> ExperimentConfig:
    """Semi-synchronous scenario: deadline-bounded rounds under stragglers.

    The same heavy-tailed log-normal network as :func:`async_config`, but
    driven by the deadline-bounded semi-synchronous plan: each round closes
    at its deadline (derived from the median predicted client duration when
    ``round_deadline_s`` is None) and stragglers deliver into later rounds
    as staleness-weighted late arrivals.
    """
    _check_scale(scale)
    num_clients = 100 if scale == "paper" else 30
    config = _base_config(
        name=f"semisync-{dataset}-{'noniid' if non_iid else 'iid'}",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )
    return config.with_overrides(
        client_fraction=0.2,
        network="lognormal",
        mode="semisync",
        round_deadline_s=round_deadline_s,
        staleness=staleness,
    )


def serve_config(
    dataset: str = "blobs",
    non_iid: bool = True,
    scale: str = "bench",
    seed: int = 0,
    codec: str | None = "float16",
    network: str | None = "lognormal",
    mode: str = "sync",
) -> ExperimentConfig:
    """Networked-serving scenario for the :mod:`repro.serve` runtime.

    A small population that a couple of worker processes can serve at
    interactive speed, with a heavy-tailed log-normal network so the load
    generator replays realistic straggler traffic.  ``codec="float16"``
    by default because its real packed bytes equal the ledger's nominal
    wire bytes exactly (see :func:`repro.serve.protocol.payload_wire_bytes`).
    """
    _check_scale(scale)
    num_clients = 100 if scale == "paper" else 12
    config = _base_config(
        name=f"serve-{dataset}-{'noniid' if non_iid else 'iid'}",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )
    return config.with_overrides(
        n_train=600 if scale == "bench" else config.n_train,
        n_test=200 if scale == "bench" else config.n_test,
        client_fraction=0.25,
        local_epochs=2,
        num_rounds=10,
        codec=codec,
        network=network,
        mode=mode,
    )


def robustness_config(
    dataset: str = "blobs",
    non_iid: bool = True,
    scale: str = "bench",
    seed: int = 0,
    adversary: str | None = "sign_flip",
    adversary_fraction: float = 0.2,
    defense: str | None = None,
) -> ExperimentConfig:
    """Adversarial-federation scenario: byzantine/poisoning clients.

    The regime behind the paper's hostile-participation robustness claims:
    a fifth of the population misbehaves (sign-flipped updates by default)
    and the server optionally screens each cohort with a robust
    aggregation defense.  A larger cohort than the paper presets
    (``client_fraction=0.4``) so the honest majority is statistically
    meaningful per round.
    """
    _check_scale(scale)
    num_clients = 100 if scale == "paper" else 30
    config = _base_config(
        name=f"robustness-{dataset}-{'noniid' if non_iid else 'iid'}",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )
    return config.with_overrides(
        client_fraction=0.4,
        adversary=adversary,
        adversary_fraction=adversary_fraction,
        defense=defense,
    )


def systems_config(
    dataset: str = "blobs",
    non_iid: bool = True,
    scale: str = "bench",
    seed: int = 0,
    codec: str | None = "topk",
    dropout: float = 0.2,
    executor: str = "serial",
) -> ExperimentConfig:
    """System-heterogeneity scenario: compression, faults, and a clock.

    Not a table from the paper but the regime its robustness claims target:
    clients drop mid-round, uploads are compressed on the wire, and a
    heavy-tailed network model yields straggler-dominated round times.
    """
    _check_scale(scale)
    num_clients = 100 if scale == "paper" else 30
    config = _base_config(
        name=f"systems-{dataset}-{'noniid' if non_iid else 'iid'}",
        dataset=dataset,
        num_clients=num_clients,
        non_iid=non_iid,
        scale=scale,
        seed=seed,
    )
    return config.with_overrides(
        client_fraction=0.2,
        codec=codec,
        dropout=dropout,
        network="lognormal",
        executor=executor,
    )
