"""Population sharding: the edge tier of the hierarchical execution plan.

A shard is one contiguous slice of the client population, owned by one
simulated edge aggregator.  Shards are deliberately contiguous so that
processing them in shard order visits clients in globally sorted order —
the order a single-shard (flat) round uses — which is what makes
flat-vs-sharded parity testable.

Determinism follows the existing :class:`~repro.utils.rng.RngFactory`
label scheme: each shard's sampling and local-work streams come from
labels derived by :func:`shard_label`; a single shard *is* the flat round
and uses the engine's own ``"client-sampling"`` / ``"local-work"`` streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.federated.sampler import ClientSampler
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, stop)`` of the client population."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of clients owned by this shard."""
        return self.stop - self.start

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Map shard-local client indices to global population ids."""
        local_ids = np.asarray(local_ids, dtype=np.int64)
        if local_ids.size and (local_ids.min() < 0 or local_ids.max() >= self.size):
            raise ConfigurationError(
                f"shard {self.index} sampler produced local id outside "
                f"[0, {self.size}): {local_ids}"
            )
        return local_ids + self.start


def shard_population(num_clients: int, num_shards: int) -> list[Shard]:
    """Split ``num_clients`` into ``num_shards`` contiguous, near-equal shards.

    The first ``num_clients % num_shards`` shards take one extra client, so
    sizes differ by at most one and concatenating the shards in index order
    reproduces ``range(num_clients)`` exactly.
    """
    if num_shards <= 0:
        raise ConfigurationError(f"num_shards must be positive, got {num_shards}")
    if num_shards > num_clients:
        raise ConfigurationError(
            f"num_shards {num_shards} exceeds the population of "
            f"{num_clients} clients"
        )
    base, extra = divmod(num_clients, num_shards)
    shards: list[Shard] = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        shards.append(Shard(index=index, start=start, stop=start + size))
        start += size
    return shards


def shard_label(base_label: str, shard_index: int, num_shards: int) -> str:
    """RNG-stream label for one shard's copy of a flat stream.

    With one shard the flat label is returned unchanged: the single shard
    of a flat round draws from the flat streams.
    """
    if num_shards == 1:
        return base_label
    return f"{base_label}/shard-{shard_index}"


class ShardSampler:
    """Adapt a population-level sampler to one shard's local index space.

    The base sampler is invoked with the shard's population size, so a
    fraction-based sampler selects its fraction *of the shard*; returned
    shard-local indices are mapped to global ids via the shard offset.
    """

    def __init__(self, base: ClientSampler, shard: Shard):
        self.base = base
        self.shard = shard

    def sample(self, round_index: int, rng: SeedLike = None) -> np.ndarray:
        """Global ids of this shard's cohort for round ``round_index``."""
        local = self.base.sample(round_index, self.shard.size, rng)
        return self.shard.to_global(local)

    def min_participation_probability(self) -> float:
        """Lower bound on any shard member's per-round activation probability."""
        return self.base.min_participation_probability(self.shard.size)
