"""Dataset containers and batching helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.exceptions import ShapeError
from repro.utils.rng import SeedLike, as_rng


@dataclass
class Dataset:
    """An in-memory supervised dataset.

    Attributes
    ----------
    features:
        Array of shape ``(n, d)`` (flattened) or ``(n, c, h, w)``.
    labels:
        Integer class labels of shape ``(n,)``.
    name:
        Human-readable identifier used in logs and tables.
    """

    features: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"features and labels disagree on sample count: "
                f"{self.features.shape[0]} vs {self.labels.shape[0]}"
            )
        if self.labels.ndim != 1:
            raise ShapeError(f"labels must be 1-D, got shape {self.labels.shape}")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_classes(self) -> int:
        """Number of distinct classes (assumes labels are 0..K-1)."""
        if len(self) == 0:
            return 0
        return int(self.labels.max()) + 1

    @property
    def feature_dim(self) -> int:
        """Flattened feature dimensionality per sample."""
        return int(np.prod(self.features.shape[1:]))

    def subset(self, indices: np.ndarray, name: str | None = None) -> "Dataset":
        """Return a new :class:`Dataset` restricted to ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            name=name if name is not None else self.name,
        )

    def shuffled(self, rng: SeedLike = None) -> "Dataset":
        """Return a shuffled copy."""
        rng = as_rng(rng)
        order = rng.permutation(len(self))
        return self.subset(order)

    def label_counts(self) -> np.ndarray:
        """Per-class sample counts of shape ``(num_classes,)``."""
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass
class TrainTestSplit:
    """A train/test pair produced by the dataset registry."""

    train: Dataset
    test: Dataset
    name: str = "split"

    @property
    def num_classes(self) -> int:
        """Number of classes in the training split."""
        return self.train.num_classes


def iterate_minibatches(
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int | None,
    rng: SeedLike = None,
    shuffle: bool = True,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield mini-batches ``(x, y)``; ``batch_size=None`` yields one full batch.

    Batches are views — of the inputs themselves when ``shuffle`` is off or
    the batch is full, of this epoch's shuffled copy otherwise — to be read,
    not written.

    The paper's IID 1,000-client runs use full-batch local training
    (``B = inf``), which corresponds to ``batch_size=None`` here.
    """
    n = features.shape[0]
    if n == 0:
        return
    if batch_size is None or batch_size >= n:
        yield features, labels
        return
    if batch_size <= 0:
        raise ShapeError(f"batch_size must be positive or None, got {batch_size}")
    if shuffle:
        # One gather per epoch; every batch is then a contiguous slice.
        order = as_rng(rng).permutation(n)
        features, labels = features[order], labels[order]
    for start in range(0, n, batch_size):
        stop = start + batch_size
        yield features[start:stop], labels[start:stop]


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, rng: SeedLike = None
) -> TrainTestSplit:
    """Randomly split a dataset into train/test parts."""
    if not 0 < test_fraction < 1:
        raise ShapeError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = as_rng(rng)
    order = rng.permutation(len(dataset))
    n_test = max(1, int(round(test_fraction * len(dataset))))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return TrainTestSplit(
        train=dataset.subset(train_idx, name=f"{dataset.name}-train"),
        test=dataset.subset(test_idx, name=f"{dataset.name}-test"),
        name=dataset.name,
    )
