"""Extending the framework: plug a custom federated algorithm into the runtime.

Implements "FedAvgM" (FedAvg with server momentum) as a third-party algorithm
by subclassing :class:`repro.algorithms.base.FederatedAlgorithm`, then runs it
head-to-head against FedADMM and FedAvg on the same partitioned data.  The
point of the example is the integration surface: a new algorithm only has to
define its local update, its server step on the summed uploads, and
(optionally) persistent state — the simulation engine, samplers, heterogeneity
policies, metrics, and communication accounting all come for free.

Run with:  python examples/custom_algorithm.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import FedADMM, FedAvg
from repro.algorithms.base import (
    FederatedAlgorithm,
    LocalTrainingConfig,
    UpdateAccumulator,
    run_local_sgd,
)
from repro.datasets.registry import load_dataset
from repro.federated import (
    FederatedSimulation,
    UniformFractionSampler,
    build_clients,
)
from repro.federated.client import ClientState
from repro.federated.heterogeneity import FixedEpochs
from repro.federated.local_problem import LocalProblem
from repro.federated.messages import ClientMessage
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP
from repro.partition import ShardPartitioner
from repro.utils.rng import SeedLike

SEED = 0
NUM_ROUNDS = 15


class FedAvgM(FederatedAlgorithm):
    """FedAvg with heavy-ball momentum applied to the server update."""

    name = "fedavgm"

    def __init__(self, momentum: float = 0.9):
        self.momentum = momentum

    def init_server_state(self, initial_params, num_clients):
        return {"velocity": np.zeros_like(initial_params)}

    def local_update(
        self,
        problem: LocalProblem,
        client: ClientState,
        global_params: np.ndarray,
        server_state: dict,
        config: LocalTrainingConfig,
        round_index: int = 0,
        rng: SeedLike = None,
    ) -> ClientMessage:
        params, train_loss = run_local_sgd(problem, global_params, config, rng=rng)
        client.record_participation(config.epochs)
        return ClientMessage(
            client_id=client.client_id,
            payload={"delta": params - global_params},
            num_samples=problem.num_samples,
            local_epochs=config.epochs,
            train_loss=train_loss,
        )

    def server_step(self, sums: UpdateAccumulator) -> np.ndarray:
        # The runtime has already summed the round's uploads; the algorithm
        # only states the closed-form update on those sums.
        state = sums.server_state
        state["velocity"] = self.momentum * state["velocity"] + sums.mean("delta")
        return sums.global_params + state["velocity"]


def run(algorithm, clients, split) -> float:
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


if __name__ == "__main__":
    main()
