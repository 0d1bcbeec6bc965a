"""Bit-identical regression guard for the default synchronous path.

The asynchronous engine was layered on top of the synchronous one
(shared evaluation helper, new ``RoundRecord`` fields, algorithm-level
async hooks).  This test pins the *exact* values the seed synchronous
engine produced before that refactor — parameter hash, every evaluated
accuracy, every mean train loss — so any PR that perturbs the default
path (no transport, no network, no faults, serial executor) fails loudly
rather than drifting silently.

The golden values were generated on the pre-async engine (commit
``fe497a2``) with the recipe below; they are a property of the seeded
RNG streams and must never be "refreshed" to make a failing build pass
without understanding why the stream moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.datasets.synthetic import make_blobs
from repro.federated.client import build_clients
from repro.federated.engine import FederatedSimulation
from repro.federated.heterogeneity import UniformRandomEpochs
from repro.federated.plans import AsyncPlan, SemiSyncPlan
from repro.federated.sampler import UniformFractionSampler
from repro.nn.layers import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    Sequential,
    Tanh,
)
from repro.nn.models import MLP, _ImageReshape
from repro.partition.imbalanced import ImbalancedPartitioner
from repro.partition.shard import ShardPartitioner
from repro.systems import (
    DefendedAlgorithm,
    build_adversary,
    build_defense,
    build_executor,
)

GOLDEN_PARAMS_SHA256 = (
    "39c66b4c135cc30eee756747f6254ce1770ad87ec98bc71f14dbdf5a8ca4b28e"
)
GOLDEN_ACCURACIES = [0.6125, 0.6625, 0.5375, 0.75, 0.64375, 0.84375]
GOLDEN_TRAIN_LOSSES = [
    0.9052403120652177,
    0.250090993383959,
    0.09299182963031986,
    0.7705001961900039,
    0.40308204715337426,
    0.022957810578853995,
]
GOLDEN_FINAL_ACCURACY = 0.84375
GOLDEN_FINAL_LOSS = 0.36626625769519
GOLDEN_UPLOAD_FLOATS = 1656
GOLDEN_DOWNLOAD_FLOATS = 1656


def run_seed_recipe(executor=None) -> "FederatedSimulation":
    """The exact run the golden values were generated from.

    ``executor=None`` is the seed serial path; passing another executor
    reruns the identical recipe through it (used by the vectorized parity
    guard below).
    """
    split = make_blobs(
        n_train=480, n_test=160, num_classes=4, feature_dim=12,
        separation=2.5, noise_std=0.8, rng=0,
    )
    partition = ShardPartitioner(shards_per_client=2).partition(
        split.train, num_clients=8, rng=0
    )
    clients = build_clients(split.train, partition)
    model = MLP(
        input_dim=12, hidden_dims=(16,), num_classes=4,
        rng=np.random.default_rng(7),
    )
    simulation = FederatedSimulation(
        algorithm=build_algorithm("fedadmm", rho=0.3),
        model=model,
        clients=clients,
        test_dataset=split.test,
        batch_size=16,
        learning_rate=0.1,
        seed=11,
        eval_every=1,
        executor=executor,
    )
    return simulation.run(6, target_accuracy=None)


@pytest.fixture(scope="module")
def seed_result():
    return run_seed_recipe()


class TestSyncPathBitIdentity:
    def test_final_parameters_hash(self, seed_result):
        digest = hashlib.sha256(seed_result.final_params.tobytes()).hexdigest()
        assert digest == GOLDEN_PARAMS_SHA256

    def test_accuracy_trajectory_exact(self, seed_result):
        accuracies = [rec.test_accuracy for rec in seed_result.history.records]
        assert accuracies == GOLDEN_ACCURACIES

    def test_train_loss_trajectory_exact(self, seed_result):
        losses = [rec.train_loss for rec in seed_result.history.records]
        assert losses == GOLDEN_TRAIN_LOSSES

    def test_final_evaluation_exact(self, seed_result):
        assert seed_result.final_evaluation.accuracy == GOLDEN_FINAL_ACCURACY
        assert seed_result.final_evaluation.loss == GOLDEN_FINAL_LOSS

    def test_communication_totals_exact(self, seed_result):
        assert seed_result.ledger.upload_floats == GOLDEN_UPLOAD_FLOATS
        assert seed_result.ledger.download_floats == GOLDEN_DOWNLOAD_FLOATS
        # No transport configured: wire bytes are the raw float32 bytes.
        assert seed_result.ledger.upload_wire_bytes == GOLDEN_UPLOAD_FLOATS * 4

    def test_systems_fields_stay_inert(self, seed_result):
        """Without systems components the new fields keep their defaults."""
        for record in seed_result.history.records:
            assert record.simulated_seconds == 0.0
            assert record.dropped_clients == ()
            assert record.mean_staleness == 0.0
            assert record.max_staleness == 0
            assert record.model_version == record.round_index


# --------------------------------------------------------------------------- #
# Asynchronous golden path
# --------------------------------------------------------------------------- #
# Generated on the pre-decomposition AsyncFederatedSimulation (commit
# ``888d5c3``, before the engine was split into state/rounds/plans) with the
# recipe below.  Like the synchronous goldens above, these pin the exact RNG
# stream consumption of the event-driven path — dispatch order, per-dispatch
# seeds, staleness accounting — and must never be refreshed to make a failing
# build pass without understanding why the stream moved.
GOLDEN_ASYNC_PARAMS_SHA256 = (
    "08af74602483b0e11efdffdde80ec8da7c0086b09858045a8481fc2bf6c3600e"
)
GOLDEN_ASYNC_ACCURACIES = [0.71875, 0.90625, 0.96875, 0.98125, 0.98125, 0.9375]
GOLDEN_ASYNC_TRAIN_LOSSES = [
    0.49846802227805065,
    0.5969267964862257,
    0.6425320914162252,
    0.11209958993949908,
    0.0719943123865061,
    0.12926361639893003,
]
GOLDEN_ASYNC_STALENESS = [
    (0.0, 0),
    (1.0, 1),
    (2.0, 2),
    (2.5, 3),
    (2.5, 3),
    (2.0, 2),
]
GOLDEN_ASYNC_UPLOAD_FLOATS = 3312
GOLDEN_ASYNC_DOWNLOAD_FLOATS = 4692


def run_buffered_seed_recipe(algorithm, plan, num_rounds):
    """The exact buffered-plan run the golden values were generated from."""
    from repro.systems.network import LogNormalNetwork

    split = make_blobs(
        n_train=480, n_test=160, num_classes=4, feature_dim=12,
        separation=2.5, noise_std=0.8, rng=0,
    )
    partition = ShardPartitioner(shards_per_client=2).partition(
        split.train, num_clients=8, rng=0
    )
    clients = build_clients(split.train, partition)
    model = MLP(
        input_dim=12, hidden_dims=(16,), num_classes=4,
        rng=np.random.default_rng(7),
    )
    simulation = FederatedSimulation(
        algorithm=algorithm,
        model=model,
        clients=clients,
        test_dataset=split.test,
        batch_size=16,
        learning_rate=0.1,
        seed=11,
        eval_every=1,
        plan=plan,
        network=LogNormalNetwork(),
    )
    return simulation.run(num_rounds, target_accuracy=None)


def run_async_seed_recipe():
    """The exact async run the golden values were generated from."""
    return run_buffered_seed_recipe(
        build_algorithm("fedadmm", rho=0.3),
        AsyncPlan(buffer_size=2, max_concurrency=5),
        6,
    )


@pytest.fixture(scope="module")
def async_seed_result():
    return run_async_seed_recipe()


class TestAsyncPathBitIdentity:
    def test_final_parameters_hash(self, async_seed_result):
        digest = hashlib.sha256(
            async_seed_result.final_params.tobytes()
        ).hexdigest()
        assert digest == GOLDEN_ASYNC_PARAMS_SHA256

    def test_accuracy_trajectory_exact(self, async_seed_result):
        accuracies = [rec.test_accuracy for rec in async_seed_result.history.records]
        assert accuracies == GOLDEN_ASYNC_ACCURACIES

    def test_train_loss_trajectory_exact(self, async_seed_result):
        losses = [rec.train_loss for rec in async_seed_result.history.records]
        assert losses == GOLDEN_ASYNC_TRAIN_LOSSES

    def test_staleness_trajectory_exact(self, async_seed_result):
        staleness = [
            (rec.mean_staleness, rec.max_staleness)
            for rec in async_seed_result.history.records
        ]
        assert staleness == GOLDEN_ASYNC_STALENESS

    def test_communication_totals_exact(self, async_seed_result):
        assert async_seed_result.ledger.upload_floats == GOLDEN_ASYNC_UPLOAD_FLOATS
        assert (
            async_seed_result.ledger.download_floats
            == GOLDEN_ASYNC_DOWNLOAD_FLOATS
        )

    def test_model_versions_advance_per_aggregation(self, async_seed_result):
        versions = [rec.model_version for rec in async_seed_result.history.records]
        assert versions == [1, 2, 3, 4, 5, 6]
        assert all(
            rec.simulated_seconds > 0
            for rec in async_seed_result.history.records
        )


# --------------------------------------------------------------------------- #
# Semi-synchronous golden path, and the buffered baselines
# --------------------------------------------------------------------------- #
# Recorded on ``9798c77`` — the last commit whose buffered plans aggregated
# through ``aggregate_async`` — with the recipe above and the default
# (median-duration) round deadline: eight rounds, two of them abandoned,
# three late arrivals.  The rebase-then-reduce form that replaced it must
# reproduce FedADMM bit for bit; never refresh these.
GOLDEN_SEMISYNC_PARAMS_SHA256 = (
    "2a59e845a76d74664b7f11bdbe51b287851e4fa8e1a64156e790ae6912af2a33"
)
GOLDEN_SEMISYNC_TRAIN_LOSSES = [
    0.876416598174037,
    float("nan"),
    0.0853970647550828,
    0.3038563017700035,
    0.5779428499096537,
    float("nan"),
    0.008474765404449745,
    0.11430257602348745,
]
GOLDEN_SEMISYNC_STALENESS = [
    (0.0, 0),
    (0.0, 0),
    (0.0, 0),
    (1.0, 1),
    (0.5, 1),
    (0.0, 0),
    (0.0, 0),
    (0.5, 1),
]
GOLDEN_SEMISYNC_VERSIONS = [1, 1, 2, 3, 4, 4, 5, 6]
GOLDEN_SEMISYNC_LATE_ARRIVALS = 3
GOLDEN_SEMISYNC_UPLOAD_FLOATS = 2208
GOLDEN_SEMISYNC_DOWNLOAD_FLOATS = 2208


class TestSemiSyncPathBitIdentity:
    @pytest.fixture(scope="class")
    def result(self):
        return run_buffered_seed_recipe(
            build_algorithm("fedadmm", rho=0.3), SemiSyncPlan(), 8
        )

    def test_final_parameters_hash(self, result):
        digest = hashlib.sha256(result.final_params.tobytes()).hexdigest()
        assert digest == GOLDEN_SEMISYNC_PARAMS_SHA256

    def test_train_loss_and_staleness_trajectories_exact(self, result):
        records = result.history.records
        # assert_array_equal: NaN (an abandoned round) equals NaN.
        np.testing.assert_array_equal(
            [rec.train_loss for rec in records], GOLDEN_SEMISYNC_TRAIN_LOSSES
        )
        assert [
            (rec.mean_staleness, rec.max_staleness) for rec in records
        ] == GOLDEN_SEMISYNC_STALENESS
        assert [rec.model_version for rec in records] == GOLDEN_SEMISYNC_VERSIONS

    def test_accounting_exact(self, result):
        assert result.metadata["late_arrivals"] == GOLDEN_SEMISYNC_LATE_ARRIVALS
        assert result.ledger.upload_floats == GOLDEN_SEMISYNC_UPLOAD_FLOATS
        assert result.ledger.download_floats == GOLDEN_SEMISYNC_DOWNLOAD_FLOATS


class TestAsyncFedAvgParentParity:
    """FedAvg under the async plan against the parent's ``aggregate_async``.

    Whole-model uploads go through ``θ + s·(p − θ_base)`` and the ordinary
    mean instead of ``θ + Σ s·(p − θ_base) / n``: a re-association, so the
    parameters are pinned at ``atol=1e-12`` and everything discrete exactly
    (``tests/golden_async_fedavg.json``, recorded on ``9798c77``).
    """

    @pytest.fixture(scope="class")
    def golden(self):
        path = Path(__file__).with_name("golden_async_fedavg.json")
        return json.loads(path.read_text(encoding="utf-8"))

    @pytest.fixture(scope="class")
    def result(self):
        return run_buffered_seed_recipe(
            build_algorithm("fedavg"),
            AsyncPlan(buffer_size=2, max_concurrency=5),
            8,
        )

    def test_final_parameters_within_reassociation_bound(self, result, golden):
        np.testing.assert_allclose(
            result.final_params, golden["final_params"], atol=1e-12, rtol=0
        )

    def test_trajectories_exact(self, result, golden):
        records = result.history.records
        assert [rec.test_accuracy for rec in records] == golden["accuracies"]
        assert [
            [rec.mean_staleness, rec.max_staleness] for rec in records
        ] == golden["staleness"]
        assert [
            rec.simulated_seconds for rec in records
        ] == golden["simulated_seconds"]
        np.testing.assert_allclose(
            [rec.train_loss for rec in records], golden["train_losses"],
            atol=1e-12, rtol=0,
        )

    def test_ledger_exact(self, result, golden):
        ledger = result.ledger
        assert {
            "upload_floats": ledger.upload_floats,
            "download_floats": ledger.download_floats,
            "upload_wire_bytes": ledger.upload_wire_bytes,
            "download_wire_bytes": ledger.download_wire_bytes,
        } == golden["ledger"]


# --------------------------------------------------------------------------- #
# Vectorized executor parity with the pinned serial goldens
# --------------------------------------------------------------------------- #
# The vectorized executor's tolerance contract (see docs/tutorials/
# fast-sweeps.md): stacked matmuls change only the reduction order, so the
# pinned serial goldens must be reproduced within atol=1e-8 — and the
# evaluated accuracies, being threshold counts, must be *identical*.
class TestVectorizedGoldenParity:
    @pytest.fixture(scope="class")
    def vectorized_result(self):
        from repro.systems.executor import VectorizedExecutor

        return run_seed_recipe(executor=VectorizedExecutor())

    def test_accuracy_trajectory_identical(self, vectorized_result):
        accuracies = [rec.test_accuracy for rec in vectorized_result.history.records]
        assert accuracies == GOLDEN_ACCURACIES

    def test_train_losses_within_tolerance(self, vectorized_result):
        losses = [rec.train_loss for rec in vectorized_result.history.records]
        np.testing.assert_allclose(
            losses, GOLDEN_TRAIN_LOSSES, atol=1e-8, rtol=0
        )

    def test_final_params_within_tolerance(self, vectorized_result, seed_result):
        np.testing.assert_allclose(
            vectorized_result.final_params, seed_result.final_params,
            atol=1e-8, rtol=0,
        )

    def test_final_evaluation_matches_golden(self, vectorized_result):
        assert vectorized_result.final_evaluation.accuracy == GOLDEN_FINAL_ACCURACY
        assert abs(vectorized_result.final_evaluation.loss - GOLDEN_FINAL_LOSS) < 1e-8

    def test_communication_totals_exact(self, vectorized_result):
        # Accounting is integer bookkeeping: no tolerance applies.
        assert vectorized_result.ledger.upload_floats == GOLDEN_UPLOAD_FLOATS
        assert vectorized_result.ledger.download_floats == GOLDEN_DOWNLOAD_FLOATS


# --------------------------------------------------------------------------- #
# SCAFFOLD / FedPD goldens (pinned when they gained batched kernels)
# --------------------------------------------------------------------------- #
# The same recipe as run_seed_recipe with the algorithm swapped; the values
# were generated on the serial executor at the commit that introduced
# batched_local_update for these algorithms, so any later change to either
# the serial or the stacked path fails against the same pin.
SCAFFOLD_GOLDEN_ACCURACIES = [0.68125, 0.9375, 0.93125, 1.0, 1.0, 0.94375]
SCAFFOLD_GOLDEN_FINAL_LOSS = 0.15881199907710095
SCAFFOLD_GOLDEN_PARAMS_SHA256 = (
    "6acd6ca90ec0f26611663db186e9a8519b0bb1f06cd1cf06bf1e80e4915e00b5"
)
SCAFFOLD_GOLDEN_UPLOAD_FLOATS = 3312  # double upload: params + control deltas
FEDPD_GOLDEN_ACCURACIES = [0.6125, 0.50625, 0.725, 0.75, 0.525, 0.55]
FEDPD_GOLDEN_FINAL_LOSS = 1.858001347728465
FEDPD_GOLDEN_PARAMS_SHA256 = (
    "9c0d94bac8f24c6f66f8059d5d0bc90bd7e656eb94d0767e3586f048813b81d6"
)
FEDPD_GOLDEN_UPLOAD_FLOATS = 1656

ALGORITHM_GOLDENS = {
    "scaffold": (
        {}, SCAFFOLD_GOLDEN_ACCURACIES, SCAFFOLD_GOLDEN_FINAL_LOSS,
        SCAFFOLD_GOLDEN_PARAMS_SHA256, SCAFFOLD_GOLDEN_UPLOAD_FLOATS,
    ),
    "fedpd": (
        {"rho": 0.3}, FEDPD_GOLDEN_ACCURACIES, FEDPD_GOLDEN_FINAL_LOSS,
        FEDPD_GOLDEN_PARAMS_SHA256, FEDPD_GOLDEN_UPLOAD_FLOATS,
    ),
}


def run_algorithm_recipe(algorithm_name, executor=None):
    """run_seed_recipe with the algorithm swapped (same data/model/seeds)."""
    kwargs = ALGORITHM_GOLDENS[algorithm_name][0]
    split = make_blobs(
        n_train=480, n_test=160, num_classes=4, feature_dim=12,
        separation=2.5, noise_std=0.8, rng=0,
    )
    partition = ShardPartitioner(shards_per_client=2).partition(
        split.train, num_clients=8, rng=0
    )
    clients = build_clients(split.train, partition)
    model = MLP(
        input_dim=12, hidden_dims=(16,), num_classes=4,
        rng=np.random.default_rng(7),
    )
    simulation = FederatedSimulation(
        algorithm=build_algorithm(algorithm_name, **kwargs),
        model=model,
        clients=clients,
        test_dataset=split.test,
        batch_size=16,
        learning_rate=0.1,
        seed=11,
        eval_every=1,
        executor=executor,
    )
    return simulation.run(6, target_accuracy=None)


class TestScaffoldFedPDGoldens:
    """Serial pins and vectorized atol=1e-8 parity for the new batched pair."""

    @pytest.fixture(scope="class", params=["scaffold", "fedpd"])
    def algorithm_runs(self, request):
        from repro.systems.executor import VectorizedExecutor

        name = request.param
        serial = run_algorithm_recipe(name)
        vectorized = run_algorithm_recipe(name, executor=VectorizedExecutor())
        return name, serial, vectorized

    def test_serial_matches_pinned_goldens(self, algorithm_runs):
        name, serial, _ = algorithm_runs
        _, accuracies, final_loss, sha, upload = ALGORITHM_GOLDENS[name]
        assert [r.test_accuracy for r in serial.history.records] == accuracies
        assert abs(serial.final_evaluation.loss - final_loss) < 1e-8
        digest = hashlib.sha256(serial.final_params.tobytes()).hexdigest()
        assert digest == sha
        assert serial.ledger.upload_floats == upload

    def test_vectorized_accuracies_identical(self, algorithm_runs):
        name, _, vectorized = algorithm_runs
        _, accuracies, _, _, _ = ALGORITHM_GOLDENS[name]
        assert [
            r.test_accuracy for r in vectorized.history.records
        ] == accuracies

    def test_vectorized_history_and_params_within_tolerance(self, algorithm_runs):
        _, serial, vectorized = algorithm_runs
        np.testing.assert_allclose(
            np.array([r.train_loss for r in vectorized.history.records]),
            np.array([r.train_loss for r in serial.history.records]),
            atol=1e-8, rtol=0,
        )
        np.testing.assert_allclose(
            vectorized.final_params, serial.final_params, atol=1e-8, rtol=0
        )
        assert abs(
            vectorized.final_evaluation.loss - serial.final_evaluation.loss
        ) < 1e-8

    def test_communication_totals_exact(self, algorithm_runs):
        name, serial, vectorized = algorithm_runs
        _, _, _, _, upload = ALGORITHM_GOLDENS[name]
        assert vectorized.ledger.upload_floats == upload
        assert vectorized.ledger.download_floats == serial.ledger.download_floats


# --------------------------------------------------------------------------- #
# Flat lock-step pins for every remaining aggregation rule
# --------------------------------------------------------------------------- #
# Recorded on commit ``f091116`` — the last one with a dedicated ``SyncPlan``
# and a hand-written batch ``aggregate`` per algorithm — just before both were
# folded into the sharded plan's one round loop and the one streaming
# reduction.  Until then the only flat-path reference for these rules was
# "a 1-shard hierarchy equals SyncPlan"; with one code path left, that
# comparison is a tautology, so the values themselves are pinned.  Volumes are
# imbalanced so ``weighting="samples"`` is a different average than uniform;
# isolated executors (thread, process) share one history, serial has its own.
FLAT_CASES = {
    # case: (algorithm, kwargs, defense, adversary)
    "fedadmm": ("fedadmm", {"rho": 0.3}, None, None),
    "fedavg": ("fedavg", {}, None, None),
    "fedavg-samples": ("fedavg", {"weighting": "samples"}, None, None),
    "fedprox": ("fedprox", {"rho": 0.3}, None, None),
    "fedsgd": ("fedsgd", {}, None, None),
    "fedadmm-median": ("fedadmm", {"rho": 0.3}, "median", "sign_flip"),
}


def conv_model():
    rng = np.random.default_rng(7)
    return Sequential(
        _ImageReshape(3, 2, 2),
        Conv2D(3, 4, kernel_size=3, padding=1, rng=rng),
        Tanh(),
        MaxPool2D(2),
        Flatten(),
        Linear(4, 4, rng=rng),
    )


# The stacked kernels the default MLP never reaches (im2col convolution,
# pooling, tanh), pinned on the vectorized executor only.
VECTORIZED_MODELS = {"conv": conv_model}


def run_flat_recipe(case, executor="serial", plan=None, model=None):
    """Three lock-step rounds of one ``FLAT_CASES`` entry (``plan=None``: flat)."""
    name, kwargs, defense, adversary = FLAT_CASES[case]
    split = make_blobs(
        n_train=480, n_test=160, num_classes=4, feature_dim=12,
        separation=2.5, noise_std=0.8, rng=0,
    )
    partition = ImbalancedPartitioner(num_groups=4).partition(
        split.train, num_clients=8, rng=0
    )
    algorithm = build_algorithm(name, **kwargs)
    if defense is not None:
        algorithm = DefendedAlgorithm(algorithm, build_defense(defense))
    simulation = FederatedSimulation(
        algorithm=algorithm,
        model=model or MLP(
            input_dim=12, hidden_dims=(16,), num_classes=4,
            rng=np.random.default_rng(7),
        ),
        clients=build_clients(split.train, partition),
        test_dataset=split.test,
        sampler=UniformFractionSampler(0.5),
        local_work=UniformRandomEpochs(max_epochs=3),
        batch_size=16,
        learning_rate=0.1,
        seed=11,
        adversary=(
            build_adversary(adversary, fraction=0.25) if adversary else None
        ),
        executor=build_executor(executor),
        plan=plan,
    )
    return simulation.run(3)


def flat_fingerprint(result):
    """What a flat pin records: params hash, accuracies, losses, float totals."""
    return (
        hashlib.sha256(result.final_params.tobytes()).hexdigest(),
        [record.test_accuracy for record in result.history.records],
        [record.train_loss for record in result.history.records],
        result.ledger.upload_floats,
        result.ledger.download_floats,
    )


FLAT_GOLDENS = {
    ("fedadmm", "serial"): (
        "c3fdf9a6ff661c5a4d64c4ab54e4614c7d8dc4d94f0d347088fa99bf73370b40",
        [0.96875, 0.94375, 0.96875],
        [0.5092572231834789, 0.11500729488544516, 0.25141302770052604],
        3312, 3312,
    ),
    ("fedadmm", "thread"): (
        "812d9f76108cbcc5369c112682b83a1775b714c11432e519363565cf6215e81d",
        [0.975, 0.94375, 0.96875],
        [0.4815111359165921, 0.1162658952261206, 0.25078013516641134],
        3312, 3312,
    ),
    ("fedavg", "serial"): (
        "808be8b6c5e14867e61357a0eb5c32d8d9f7a3b019ba833e3090cb95c116d1ea",
        [0.81875, 0.9625, 1.0],
        [0.49974890627471374, 0.08272019732589161, 0.10167609304028699],
        3312, 3312,
    ),
    ("fedavg", "thread"): (
        "45df9839a9b6c507ce8cf78ea7b1253cfc70707952dfbb4b83ead38502caa8d7",
        [0.825, 0.96875, 1.0],
        [0.47193002298174236, 0.08216820413446965, 0.10159126668094375],
        3312, 3312,
    ),
    ("fedavg-samples", "serial"): (
        "46ce6252e637859afa7a8d99b8b66993f70014ba3fd4bd0cd06771cbdef01717",
        [0.875, 0.99375, 1.0],
        [0.49974890627471374, 0.07275520790246237, 0.05982858250935457],
        3312, 3312,
    ),
    ("fedavg-samples", "thread"): (
        "0bbf991d90401c7753dacaecb19c99aa945ff13b4e0afa08955263ab839efcf8",
        [0.89375, 0.99375, 1.0],
        [0.47193002298174236, 0.07247110625316837, 0.05956897349723829],
        3312, 3312,
    ),
    ("fedprox", "serial"): (
        "2850c44b3057e73fe4a1a489608b5bcf12c79c4c0e468b77114677e9f5368f20",
        [0.80625, 0.93125, 1.0],
        [0.5092572231834789, 0.09647400227996172, 0.12404509120045036],
        3312, 3312,
    ),
    ("fedprox", "thread"): (
        "c106f13fa64478ce1312aee2da0df94ddc8ec9ff5b0834c8872747b45bce3317",
        [0.79375, 0.94375, 1.0],
        [0.4815111359165921, 0.09566993646190002, 0.1234044209103345],
        3312, 3312,
    ),
    ("fedsgd", "serial"): (
        "e389e5de358fe35b0288d1437b25ded1857e49e9b8a27176c3e72d223fe14c58",
        [0.71875, 0.7375, 0.83125],
        [1.525800589408235, 0.4575468396678144, 0.9693635227821499],
        3312, 3312,
    ),
    ("fedsgd", "thread"): (
        "e389e5de358fe35b0288d1437b25ded1857e49e9b8a27176c3e72d223fe14c58",
        [0.71875, 0.7375, 0.83125],
        [1.525800589408235, 0.4575468396678144, 0.9693635227821499],
        3312, 3312,
    ),
    ("fedadmm-median", "serial"): (
        "56d97026c73ff40376305d3b239e82e436dd44f8fdfb5459f0445cb5cde48918",
        [0.4375, 0.425, 0.73125],
        [0.5092572231834789, 0.16437252483095827, 0.29875464069536745],
        3312, 3312,
    ),
    ("fedadmm-median", "thread"): (
        "46ee0e1d5a0c3aee2c7ab113ea09d5e1d1df3dc6e8fcf5d7d2886bdba76aa69f",
        [0.39375, 0.41875, 0.7125],
        [0.4815111359165921, 0.16494956474620137, 0.2963759020449524],
        3312, 3312,
    ),
    # The vectorized leg, recorded on ``46cbbf4`` — the last commit whose
    # stacked kernels reached NumPy through ``repro.nn.backend`` — so "same
    # NumPy calls, same bits" is checked, not asserted.  On these shapes the
    # parameters are serial's to the bit; a few losses differ in the last ulp.
    ("fedadmm", "vectorized"): (
        "c3fdf9a6ff661c5a4d64c4ab54e4614c7d8dc4d94f0d347088fa99bf73370b40",
        [0.96875, 0.94375, 0.96875],
        [0.5092572231834789, 0.11500729488544517, 0.25141302770052604],
        3312, 3312,
    ),
    ("fedavg", "vectorized"): (
        "808be8b6c5e14867e61357a0eb5c32d8d9f7a3b019ba833e3090cb95c116d1ea",
        [0.81875, 0.9625, 1.0],
        [0.49974890627471374, 0.0827201973258916, 0.10167609304028699],
        3312, 3312,
    ),
    ("fedavg-samples", "vectorized"): (
        "46ce6252e637859afa7a8d99b8b66993f70014ba3fd4bd0cd06771cbdef01717",
        [0.875, 0.99375, 1.0],
        [0.49974890627471374, 0.07275520790246237, 0.05982858250935457],
        3312, 3312,
    ),
    ("fedprox", "vectorized"): (
        "2850c44b3057e73fe4a1a489608b5bcf12c79c4c0e468b77114677e9f5368f20",
        [0.80625, 0.93125, 1.0],
        [0.5092572231834789, 0.09647400227996174, 0.12404509120045036],
        3312, 3312,
    ),
    ("fedsgd", "vectorized"): (
        "e389e5de358fe35b0288d1437b25ded1857e49e9b8a27176c3e72d223fe14c58",
        [0.71875, 0.7375, 0.83125],
        [1.525800589408235, 0.4575468396678144, 0.9693635227821499],
        3312, 3312,
    ),
    ("fedadmm-median", "vectorized"): (
        "56d97026c73ff40376305d3b239e82e436dd44f8fdfb5459f0445cb5cde48918",
        [0.4375, 0.425, 0.73125],
        [0.5092572231834789, 0.16437252483095827, 0.29875464069536745],
        3312, 3312,
    ),
    ("fedadmm+conv", "vectorized"): (
        "31404cf820d410caf95d690b63c4ef768872e1b4f9fd2c23ec4289c3f1484f30",
        [0.725, 0.5, 0.8],
        [1.0826296301149971, 1.1099415210007164, 0.6948093963969219],
        1584, 1584,
    ),
}


class TestFlatPathPins:
    """Every flat aggregation rule reproduces its pre-collapse values exactly."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "vectorized"])
    @pytest.mark.parametrize("case", sorted(FLAT_CASES))
    def test_flat_run_matches_pin(self, case, executor):
        result = run_flat_recipe(case, executor)
        assert flat_fingerprint(result) == FLAT_GOLDENS[case, executor]

    @pytest.mark.parametrize("name", sorted(VECTORIZED_MODELS))
    def test_vectorized_model_run_matches_pin(self, name):
        result = run_flat_recipe(
            "fedadmm", "vectorized", model=VECTORIZED_MODELS[name]()
        )
        assert flat_fingerprint(result) == FLAT_GOLDENS[
            f"fedadmm+{name}", "vectorized"
        ]
