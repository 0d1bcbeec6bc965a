"""Training history: per-round records and rounds-to-target queries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RoundRecord:
    """Everything recorded about one communication round.

    The systems-layer fields default to the idealised setting: wire bytes of
    zero mean "no transport layer recorded them" (the engine always fills
    them in), zero simulated seconds mean no network model was configured,
    and an empty ``dropped_clients`` tuple means every selected client
    reported back.
    """

    round_index: int
    test_accuracy: float | None
    test_loss: float | None
    train_loss: float
    num_selected: int  # |S_t|: clients sampled, whether or not they survived
    upload_floats: int
    download_floats: int
    mean_local_epochs: float
    upload_wire_bytes: int = 0
    download_wire_bytes: int = 0
    simulated_seconds: float = 0.0
    dropped_clients: tuple[int, ...] = ()
    # Buffered-plan fields (see repro.federated.plans).  In the synchronous
    # plan the model version equals the round index and every aggregated
    # update is fresh, so the defaults below mean "synchronous".
    model_version: int = 0
    mean_staleness: float = 0.0
    max_staleness: int = 0
    # Semi-synchronous plan: the round's aggregation deadline in simulated
    # seconds (None for plans without a per-round deadline).
    deadline_s: float | None = None

    @property
    def num_dropped(self) -> int:
        """Selected clients that crashed or missed the round deadline."""
        return len(self.dropped_clients)

    @property
    def num_aggregated(self) -> int:
        """Clients whose uploads reached aggregation (selected minus dropped)."""
        return self.num_selected - self.num_dropped


@dataclass
class TrainingHistory:
    """Sequence of :class:`RoundRecord` plus convenience accessors."""

    algorithm: str = ""
    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        """Add a completed round."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ #
    # Series accessors
    # ------------------------------------------------------------------ #
    @property
    def rounds(self) -> np.ndarray:
        """Round indices (1-based: round r means r aggregations done)."""
        return np.array([rec.round_index for rec in self.records], dtype=np.int64)

    @property
    def accuracies(self) -> np.ndarray:
        """Test accuracies per round (NaN where evaluation was skipped)."""
        return np.array(
            [np.nan if rec.test_accuracy is None else rec.test_accuracy for rec in self.records],
            dtype=np.float64,
        )

    @property
    def test_losses(self) -> np.ndarray:
        """Test losses per round (NaN where evaluation was skipped)."""
        return np.array(
            [np.nan if rec.test_loss is None else rec.test_loss for rec in self.records],
            dtype=np.float64,
        )

    @property
    def train_losses(self) -> np.ndarray:
        """Mean selected-client training losses per round."""
        return np.array([rec.train_loss for rec in self.records], dtype=np.float64)

    @property
    def simulated_seconds(self) -> np.ndarray:
        """Simulated wall-clock duration of each round."""
        return np.array(
            [rec.simulated_seconds for rec in self.records], dtype=np.float64
        )

    @property
    def stalenesses(self) -> np.ndarray:
        """Mean update staleness per aggregation (all zeros for sync runs)."""
        return np.array(
            [rec.mean_staleness for rec in self.records], dtype=np.float64
        )

    # ------------------------------------------------------------------ #
    # Summary queries
    # ------------------------------------------------------------------ #
    def best_accuracy(self) -> float:
        """Best test accuracy observed so far (NaN-safe)."""
        accs = self.accuracies
        valid = accs[~np.isnan(accs)]
        return float(valid.max()) if valid.size else float("nan")

    def final_accuracy(self) -> float:
        """Last evaluated test accuracy."""
        accs = self.accuracies
        valid = accs[~np.isnan(accs)]
        return float(valid[-1]) if valid.size else float("nan")

    def rounds_to_accuracy(self, target: float) -> int | None:
        """First round index at which test accuracy reached ``target``.

        Returns ``None`` if the target was never reached — the paper reports
        this as "100+".
        """
        for record in self.records:
            if record.test_accuracy is not None and record.test_accuracy >= target:
                return record.round_index
        return None

    def total_upload_floats(self) -> int:
        """Total floats uploaded across all recorded rounds."""
        return int(sum(rec.upload_floats for rec in self.records))

    def total_upload_wire_bytes(self) -> int:
        """Total post-compression uploaded bytes across all recorded rounds."""
        return int(sum(rec.upload_wire_bytes for rec in self.records))

    def total_simulated_seconds(self) -> float:
        """Total simulated wall-clock time across all recorded rounds."""
        return float(sum(rec.simulated_seconds for rec in self.records))

    def total_dropped(self) -> int:
        """Total client drops (crashes + stragglers) across all rounds."""
        return int(sum(rec.num_dropped for rec in self.records))

    def max_staleness(self) -> int:
        """Largest staleness any aggregated update carried (0 for sync runs)."""
        return int(max((rec.max_staleness for rec in self.records), default=0))

    def seconds_to_accuracy(self, target: float) -> float | None:
        """Cumulative simulated seconds at which ``target`` was first reached.

        The async plan trades per-round freshness for wall-clock speed, so
        time-to-target (not rounds-to-target) is its headline metric.
        Returns ``None`` if the target was never reached.
        """
        elapsed = 0.0
        for record in self.records:
            elapsed += record.simulated_seconds
            if record.test_accuracy is not None and record.test_accuracy >= target:
                return elapsed
        return None

    def accuracy_series(self) -> list[tuple[int, float]]:
        """(round, accuracy) pairs for rounds where evaluation ran."""
        return [
            (rec.round_index, rec.test_accuracy)
            for rec in self.records
            if rec.test_accuracy is not None
        ]
