"""Extending the framework: plug a custom federated algorithm into the runtime.

Implements "FedAvgM" (FedAvg with server momentum) as a third-party algorithm
by subclassing :class:`repro.algorithms.base.FederatedAlgorithm`, then runs it
head-to-head against FedADMM and FedAvg on the same partitioned data.  The
point of the example is the integration surface: a new algorithm only has to
define its one client update over a client axis (``batched_local_update``),
its server step on the summed uploads, and (optionally) persistent state —
the simulation engine, samplers, heterogeneity policies, metrics,
communication accounting and every executor come for free: the per-client
executors run the body on a cohort of one, the vectorized executor on a whole
stacked cohort, as the last run below shows.

Run with:  python examples/custom_algorithm.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import FedADMM, FedAvg
from repro.algorithms.base import (
    FederatedAlgorithm,
    LocalTrainingConfig,
    UpdateAccumulator,
)
from repro.datasets.registry import load_dataset
from repro.federated import (
    FederatedSimulation,
    UniformFractionSampler,
    build_clients,
)
from repro.federated.client import ClientState
from repro.federated.heterogeneity import FixedEpochs
from repro.federated.messages import ClientMessage
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP
from repro.partition import ShardPartitioner
from repro.systems.executor import VectorizedExecutor

SEED = 0
NUM_ROUNDS = 15


class FedAvgM(FederatedAlgorithm):
    """FedAvg with heavy-ball momentum applied to the server update."""

    name = "fedavgm"

    def __init__(self, momentum: float = 0.9):
        self.momentum = momentum

    def init_server_state(self, initial_params, num_clients):
        return {"velocity": np.zeros_like(initial_params)}

    def batched_local_update(
        self,
        cohort,
        clients: list[ClientState],
        global_params: np.ndarray,
        server_state: dict,
        config: LocalTrainingConfig,
        round_index: int = 0,
    ) -> list[ClientMessage]:
        # One row per cohort member: every client starts from the global
        # model, and uploads how far its local SGD moved.
        start = np.broadcast_to(global_params, (len(clients), global_params.size))
        params, train_losses = cohort.run_sgd(start, config)
        return self.build_cohort_messages(
            clients, cohort, cohort.epochs, train_losses,
            {"delta": params - global_params},
        )

    def server_step(self, sums: UpdateAccumulator) -> np.ndarray:
        # The runtime has already summed the round's uploads; the algorithm
        # only states the closed-form update on those sums.
        state = sums.server_state
        state["velocity"] = self.momentum * state["velocity"] + sums.mean("delta")
        return sums.global_params + state["velocity"]


def run(algorithm, clients, split, executor=None) -> float:
    model = MLP(input_dim=split.train.feature_dim, hidden_dims=(32,), rng=SEED)
    simulation = FederatedSimulation(
        algorithm=algorithm,
        model=model,
        clients=clients,
        test_dataset=split.test,
        loss=CrossEntropyLoss(),
        sampler=UniformFractionSampler(0.2),
        local_work=FixedEpochs(3),
        batch_size=32,
        learning_rate=0.1,
        seed=SEED,
        executor=executor,
    )
    result = simulation.run(NUM_ROUNDS)
    return result.final_evaluation.accuracy


def main() -> None:
    split = load_dataset("mnist", n_train=1500, n_test=500, rng=SEED)
    partition = ShardPartitioner(2).partition(split.train, num_clients=30, rng=SEED)

    print(f"Non-IID synthetic MNIST, 30 clients, {NUM_ROUNDS} rounds\n")
    for algorithm in (FedADMM(rho=0.3), FedAvg(), FedAvgM(momentum=0.9)):
        clients = build_clients(split.train, partition)
        accuracy = run(algorithm, clients, split)
        print(f"{algorithm.name:10s} final test accuracy: {accuracy:.3f}")

    # The same class, untouched, as stacked cohorts: nothing to opt into.
    executor = VectorizedExecutor()
    accuracy = run(
        FedAvgM(momentum=0.9), build_clients(split.train, partition), split, executor
    )
    assert executor.fallback_reason is None
    print(f"{'fedavgm':10s} final test accuracy: {accuracy:.3f}  (vectorized)")


if __name__ == "__main__":
    main()
