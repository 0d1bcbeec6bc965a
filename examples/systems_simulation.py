"""Client-systems simulation: compression, faults, stragglers, and a clock.

Runs FedADMM and FedAvg through the systems layer of :mod:`repro.systems`:
top-k-compressed uploads, 20% mid-round client dropout, a heavy-tailed
(log-normal) network model, and a thread-pool executor for the local
updates.  Prints, per algorithm, the final accuracy, raw vs on-the-wire
upload volume, simulated wall-clock time, and how many client participations
were lost to faults.

Run with:  python examples/systems_simulation.py
"""

from __future__ import annotations

from repro import (
    FaultInjector,
    FederatedSimulation,
    ShardPartitioner,
    Transport,
    UniformFractionSampler,
    build_algorithm,
    build_clients,
    build_codec,
    build_executor,
    build_network,
    make_blobs,
)
from repro.federated.heterogeneity import UniformRandomEpochs
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP

NUM_ROUNDS = 15
SEED = 0


def run_algorithm(name: str, **kwargs):
    """Run one algorithm through the full client-systems stack."""
    split = make_blobs(n_train=1500, n_test=500, rng=SEED)
    partition = ShardPartitioner(shards_per_client=2).partition(
        split.train, num_clients=30, rng=SEED
    )
    clients = build_clients(split.train, partition)
    model = MLP(input_dim=split.train.feature_dim, hidden_dims=(32,), rng=SEED)

    simulation = FederatedSimulation(
        algorithm=build_algorithm(name, **kwargs),
        model=model,
        clients=clients,
        test_dataset=split.test,
        loss=CrossEntropyLoss(),
        sampler=UniformFractionSampler(0.2),
        local_work=UniformRandomEpochs(max_epochs=5),
        batch_size=32,
        learning_rate=0.1,
        seed=SEED,
        transport=Transport(build_codec("topk", fraction=0.25)),
        network=build_network("lognormal"),
        faults=FaultInjector(dropout_rate=0.2),
        executor=build_executor("thread", max_workers=4),
    )
    return simulation.run(NUM_ROUNDS)


def main() -> None:
    print("FedADMM vs FedAvg under compression + dropout + stragglers\n")
    for name, kwargs in [("fedadmm", {"rho": 0.3}), ("fedavg", {})]:
        result = run_algorithm(name, **kwargs)
        ledger = result.ledger
        print(f"{name:8s}  final accuracy: {result.final_evaluation.accuracy:.3f}")
        print(f"          uploads: {ledger.upload_bytes / 1e6:.2f} MB raw -> "
              f"{ledger.upload_wire_bytes / 1e6:.2f} MB on the wire "
              f"({ledger.upload_compression_ratio:.1f}x compression)")
        print(f"          simulated time: {result.simulated_seconds / 60:.1f} min "
              f"over {result.rounds_run} rounds; "
              f"{result.history.total_dropped()} client drops\n")


if __name__ == "__main__":
    main()
