"""Shared fixtures: small, fast datasets, partitions, and models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.base import LocalTrainingConfig
from repro.datasets.synthetic import make_blobs
from repro.federated.client import build_clients
from repro.federated.local_problem import LocalProblem
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP
from repro.partition.iid import IidPartitioner
from repro.partition.shard import ShardPartitioner

NUM_CLASSES = 4
FEATURE_DIM = 12


@pytest.fixture(scope="session")
def blobs_split():
    """A small, well-separated 4-class Gaussian-mixture train/test split."""
    return make_blobs(
        n_train=480,
        n_test=160,
        num_classes=NUM_CLASSES,
        feature_dim=FEATURE_DIM,
        separation=2.5,
        noise_std=0.8,
        rng=0,
    )


@pytest.fixture(scope="session")
def iid_partition(blobs_split):
    """IID partition of the blobs training set across 8 clients."""
    return IidPartitioner().partition(blobs_split.train, num_clients=8, rng=0)


@pytest.fixture(scope="session")
def shard_partition(blobs_split):
    """Two-shard non-IID partition of the blobs training set across 8 clients."""
    return ShardPartitioner(shards_per_client=2).partition(
        blobs_split.train, num_clients=8, rng=0
    )


@pytest.fixture()
def iid_clients(blobs_split, iid_partition):
    """Fresh client states (no persisted variables) for the IID partition."""
    return build_clients(blobs_split.train, iid_partition)


@pytest.fixture()
def shard_clients(blobs_split, shard_partition):
    """Fresh client states for the shard (non-IID) partition."""
    return build_clients(blobs_split.train, shard_partition)


def make_model(seed: int = 0) -> MLP:
    """A small MLP matched to the blobs fixture."""
    return MLP(
        input_dim=FEATURE_DIM,
        hidden_dims=(16,),
        num_classes=NUM_CLASSES,
        rng=np.random.default_rng(seed),
    )


@pytest.fixture()
def small_model():
    """Fresh small MLP per test."""
    return make_model(seed=0)


@pytest.fixture()
def local_problem(blobs_split, iid_partition, small_model):
    """A LocalProblem for client 0 of the IID partition."""
    dataset = iid_partition.client_dataset(blobs_split.train, 0)
    return LocalProblem(model=small_model, loss=CrossEntropyLoss(), dataset=dataset)


@pytest.fixture()
def training_config():
    """A small local-training configuration shared by algorithm tests."""
    return LocalTrainingConfig(epochs=2, batch_size=16, learning_rate=0.1)
