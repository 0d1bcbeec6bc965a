"""Event-driven asynchronous federation: sync vs async under stragglers.

Runs FedADMM on the same non-IID task twice — once under the lock-step
synchronous plan and once under the event-driven ``AsyncPlan`` (buffered,
staleness-weighted aggregation on a virtual clock) — with an identical
heavy-tailed log-normal network model, and prints the simulated wall-clock
each needed to reach the target accuracy.  Both are the same
``FederatedSimulation``; only the ``plan=`` differs.

Run with:  python examples/async_federation.py
"""

from __future__ import annotations

from repro import (
    AsyncPlan,
    FederatedSimulation,
    ShardPartitioner,
    UniformFractionSampler,
    build_algorithm,
    build_clients,
    build_network,
    make_blobs,
)
from repro.federated.heterogeneity import UniformRandomEpochs
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP

TARGET = 0.80
ROUNDS = 25
NUM_CLIENTS = 30


def build(plan=None):
    split = make_blobs(n_train=1500, n_test=500, rng=0)
    partition = ShardPartitioner(shards_per_client=2).partition(
        split.train, num_clients=NUM_CLIENTS, rng=0
    )
    clients = build_clients(split.train, partition)
    model = MLP(input_dim=split.train.feature_dim, hidden_dims=(32,), rng=0)
    return FederatedSimulation(
        algorithm=build_algorithm("fedadmm", rho=0.5),
        model=model,
        clients=clients,
        test_dataset=split.test,
        loss=CrossEntropyLoss(),
        sampler=UniformFractionSampler(0.2),
        local_work=UniformRandomEpochs(max_epochs=5),
        batch_size=32,
        learning_rate=0.1,
        seed=0,
        network=build_network("lognormal"),  # drives the virtual clock
        plan=plan,  # None: the lock-step round
    )


def main() -> None:
    sync = build().run(ROUNDS, target_accuracy=TARGET, stop_at_target=True)

    plan = AsyncPlan(
        buffer_size=6,           # == the sync cohort: 20% of 30 clients
        max_concurrency=12,      # clients training at any simulated instant
        staleness="polynomial",  # weight = (1 + staleness)^-0.5
    )
    asynchronous = build(plan).run(
        ROUNDS, target_accuracy=TARGET, stop_at_target=True
    )

    print(f"target accuracy: {TARGET:.0%}\n")
    for label, result in (("sync", sync), ("async", asynchronous)):
        seconds = result.history.seconds_to_accuracy(TARGET)
        print(
            f"{label:5s}  rounds-to-target: {result.rounds_to_target}  "
            f"simulated-seconds-to-target: "
            f"{'not reached' if seconds is None else f'{seconds:.2f}'}  "
            f"max staleness: {result.history.max_staleness()}"
        )
    print(
        "\nThe async plan aggregates its buffer as soon as the fastest "
        "clients fill it,\nso it stops paying for the slowest client of "
        "every synchronous round."
    )


if __name__ == "__main__":
    main()
