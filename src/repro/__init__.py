"""FedADMM reproduction library.

Reproduces "FedADMM: A Robust Federated Deep Learning Framework with
Adaptivity to System Heterogeneity" (Gong, Li, Freris — ICDE 2022) as a
self-contained Python library: a NumPy neural-network substrate, a federated
simulation runtime, FedADMM and the paper's baselines (FedSGD, FedAvg,
FedProx, SCAFFOLD, FedPD), data partitioners for the paper's IID / non-IID /
imbalanced settings, convergence-theory helpers, and an experiment harness
that regenerates every table and figure of the evaluation section.

Quickstart
----------
>>> from repro import quick_federated_run
>>> result = quick_federated_run(algorithm="fedadmm", num_rounds=5, seed=0)
>>> 0.0 <= result.final_evaluation.accuracy <= 1.0
True
"""

from repro.version import __version__
from repro.algorithms import (
    FedADMM,
    FedAvg,
    FedProx,
    FedSGD,
    FedPD,
    Scaffold,
    build_algorithm,
    ALGORITHM_REGISTRY,
)
from repro.federated import (
    AsyncPlan,
    FederatedSimulation,
    SimulationResult,
    UniformFractionSampler,
    FixedEpochs,
    UniformRandomEpochs,
    build_clients,
    build_staleness,
)
from repro.datasets import load_dataset, make_blobs, make_synthetic_images
from repro.partition import (
    IidPartitioner,
    ShardPartitioner,
    ImbalancedPartitioner,
    DirichletPartitioner,
    build_partitioner,
)
from repro.nn import build_model, MLP
from repro.systems import (
    FaultInjector,
    Transport,
    build_codec,
    build_executor,
    build_network,
)

__all__ = [
    "__version__",
    "FedADMM",
    "FedAvg",
    "FedProx",
    "FedSGD",
    "FedPD",
    "Scaffold",
    "build_algorithm",
    "ALGORITHM_REGISTRY",
    "FederatedSimulation",
    "AsyncPlan",
    "SimulationResult",
    "UniformFractionSampler",
    "build_staleness",
    "FixedEpochs",
    "UniformRandomEpochs",
    "build_clients",
    "load_dataset",
    "make_blobs",
    "make_synthetic_images",
    "IidPartitioner",
    "ShardPartitioner",
    "ImbalancedPartitioner",
    "DirichletPartitioner",
    "build_partitioner",
    "build_model",
    "MLP",
    "Transport",
    "FaultInjector",
    "build_codec",
    "build_executor",
    "build_network",
    "quick_federated_run",
]


def quick_federated_run(
    algorithm: str = "fedadmm",
    num_clients: int = 20,
    num_rounds: int = 10,
    non_iid: bool = False,
    seed: int = 0,
    **algorithm_kwargs,
) -> SimulationResult:
    """Run a small end-to-end federated experiment on the blobs dataset.

    A convenience entry point for the README quickstart and smoke tests; the
    full experiment harness lives in :mod:`repro.experiments`.
    """
    from repro.nn.losses import CrossEntropyLoss

    split = make_blobs(n_train=1200, n_test=400, rng=seed)
    partitioner = ShardPartitioner() if non_iid else IidPartitioner()
    partition = partitioner.partition(split.train, num_clients, rng=seed)
    clients = build_clients(split.train, partition)
    model = MLP(input_dim=split.train.feature_dim, hidden_dims=(32,), rng=seed)
    simulation = FederatedSimulation(
        algorithm=build_algorithm(algorithm, **algorithm_kwargs),
        model=model,
        clients=clients,
        test_dataset=split.test,
        loss=CrossEntropyLoss(),
        sampler=UniformFractionSampler(0.25),
        local_work=FixedEpochs(2),
        batch_size=32,
        learning_rate=0.1,
        seed=seed,
    )
    return simulation.run(num_rounds)
