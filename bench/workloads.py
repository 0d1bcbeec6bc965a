"""The six deployment-shape workloads of the perf ledger.

Every config is a literal ``ExperimentConfig(...)`` value rather than a
preset call, so a refactor of ``repro.experiments.configs`` cannot silently
change the benchmark's inputs.  ``--seed`` replaces ``ExperimentConfig.seed``
(data, partition, model init, sampling, local SGD order); the program sees
only the inputs generated from it.

``rounds`` is K, the rounds of one repeat.  ``target_accuracy`` is chosen so
that the run crosses it roughly half-way through the K rounds, in the steep
part of the accuracy curve where the crossing round varies least by seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.configs import AlgorithmSpec, ExperimentConfig


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs, shape and the reason it exists."""

    name: str
    why: str
    #: "sim" = prepare_environment -> build_simulation -> run_round() x K;
    #: "hier" = the same loop over a lazy million-client population;
    #: "served" = FederationServer + run_worker threads over loopback HTTP.
    shape: str
    config: ExperimentConfig
    algorithm: AlgorithmSpec
    rounds: int

    def seeded(self, seed: int) -> ExperimentConfig:
        return replace(self.config, seed=seed)

    def shrunk(self, rounds: int) -> "Workload":
        """The same workload with K cut down (``--smoke``)."""
        return replace(
            self, rounds=rounds, config=replace(self.config, num_rounds=rounds)
        )


#: hier_stream's virtual population: 4 template datasets shared by a million
#: lazy clients (client i reads template i % 4), as benchmarks/test_bench_scale.
HIER_TEMPLATES = 4
HIER_TEMPLATE_SAMPLES = 48

_FEDADMM = AlgorithmSpec("fedadmm", {"rho": 0.3})

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="serial_sgd",
        why="paper protocol on the per-client path: nn forward/backward "
        "and the FedADMM local step do the work; a kernel or "
        "local-SGD win must show here",
        shape="sim",
        config=ExperimentConfig(
            name="ledger-serial-sgd",
            dataset="fmnist",
            n_train=4000,
            n_test=1000,
            model="mlp",
            model_kwargs={"input_dim": 784, "hidden_dims": (32,)},
            num_clients=100,
            partition="shard",
            partition_kwargs={"shards_per_client": 2},
            client_fraction=0.2,
            local_epochs=5,
            system_heterogeneity=True,
            batch_size=20,
            learning_rate=0.05,
            num_rounds=40,
            target_accuracy=0.95,
            eval_every=20,
            executor="serial",
        ),
        algorithm=_FEDADMM,
        rounds=40,
    ),
    Workload(
        name="vec_uniform",
        why="fixed local work: one 256-client cohort per round, so "
        "stacked nn.batched kernels dominate and cohort "
        "grouping/dispatch is one call",
        shape="sim",
        config=ExperimentConfig(
            name="ledger-vec-uniform",
            dataset="blobs",
            n_train=4096,
            n_test=512,
            model="mlp",
            model_kwargs={"input_dim": 32, "hidden_dims": (32,)},
            num_clients=256,
            partition="iid",
            client_fraction=1.0,
            local_epochs=5,
            system_heterogeneity=False,
            batch_size=None,
            learning_rate=0.01,
            num_rounds=40,
            target_accuracy=0.95,
            eval_every=5,
            executor="vectorized",
        ),
        algorithm=_FEDADMM,
        rounds=40,
    ),
    Workload(
        name="vec_ragged",
        why="same population, variable local work (1..5 epochs): each "
        "round splits into five ~51-client cohorts on the thread pool, so "
        "per-cohort and per-call overheads weigh as much as the kernels",
        shape="sim",
        config=ExperimentConfig(
            name="ledger-vec-ragged",
            dataset="blobs",
            n_train=4096,
            n_test=512,
            model="mlp",
            model_kwargs={"input_dim": 32, "hidden_dims": (32,)},
            num_clients=256,
            partition="iid",
            client_fraction=1.0,
            local_epochs=5,
            system_heterogeneity=True,
            batch_size=None,
            learning_rate=0.01,
            num_rounds=40,
            target_accuracy=0.95,
            eval_every=5,
            executor="vectorized",
        ),
        algorithm=_FEDADMM,
        rounds=40,
    ),
    Workload(
        name="hier_stream",
        why="16-shard plan over a lazy million-client population, 64 tiny "
        "client updates a round: the only workload on the plan, "
        "population and streaming-accumulator path; guards O(shards) memory",
        shape="hier",
        config=ExperimentConfig(
            name="ledger-hier-stream",
            dataset="blobs",
            n_train=HIER_TEMPLATES * HIER_TEMPLATE_SAMPLES,
            n_test=1024,
            model="mlp",
            model_kwargs={"input_dim": 12, "hidden_dims": (16,), "num_classes": 4},
            num_clients=1_000_000,
            partition="iid",
            client_fraction=6.4e-5,
            local_epochs=5,
            system_heterogeneity=True,
            batch_size=16,
            learning_rate=0.004,
            num_rounds=30,
            target_accuracy=0.80,
            eval_every=15,
            executor="serial",
            plan="hierarchical",
            num_shards=16,
        ),
        algorithm=_FEDADMM,
        rounds=30,
    ),
    Workload(
        name="systems_eval",
        why="small local work under a 98k-parameter vector, qsgd codec, "
        "lognormal network, dropout: codec encode/decode is a third of the "
        "round; the only workload whose upload bytes are below raw",
        shape="sim",
        config=ExperimentConfig(
            name="ledger-systems-eval",
            dataset="cifar10",
            n_train=960,
            n_test=1000,
            model="mlp",
            model_kwargs={"input_dim": 3072, "hidden_dims": (32,)},
            num_clients=12,
            partition="iid",
            client_fraction=1.0,
            local_epochs=1,
            system_heterogeneity=False,
            batch_size=None,
            learning_rate=0.05,
            num_rounds=30,
            target_accuracy=0.98,
            eval_every=10,
            codec="qsgd",
            codec_kwargs={"levels": 256},
            network="lognormal",
            dropout=0.1,
            executor="serial",
        ),
        algorithm=_FEDADMM,
        rounds=30,
    ),
    Workload(
        name="served_wire",
        why="same math as the in-process thread executor, but every task "
        "crosses serve.protocol framing, stdlib HTTP, the lease board "
        "and two default 0.05 s pull loops: wire and waiting are over "
        "90 % of the round",
        shape="served",
        config=ExperimentConfig(
            name="ledger-served-wire",
            dataset="fmnist",
            n_train=960,
            n_test=400,
            model="mlp",
            model_kwargs={"input_dim": 784, "hidden_dims": (32,)},
            num_clients=24,
            partition="iid",
            client_fraction=0.5,
            local_epochs=2,
            system_heterogeneity=False,
            batch_size=20,
            learning_rate=0.1,
            num_rounds=8,
            target_accuracy=0.80,
            eval_every=1,
            codec="float16",
            executor="thread",
        ),
        algorithm=_FEDADMM,
        rounds=8,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
