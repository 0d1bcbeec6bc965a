"""Deterministic random-number management.

Every stochastic component in the library (data synthesis, partitioning,
client sampling, SGD batching, weight initialisation) receives an explicit
``numpy.random.Generator``.  This module centralises how those generators are
created so that a single integer seed reproduces a full experiment.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` produces a non-deterministic generator, an ``int`` produces a
    seeded one, and an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = np.random.SeedSequence(seed if isinstance(seed, int) else None)
    return [np.random.default_rng(child) for child in root.spawn(count)]


class RngFactory:
    """Produces named, reproducible random generators from a root seed.

    The factory derives a child seed from the root seed and a string label so
    that adding a new consumer of randomness does not perturb the streams of
    existing consumers.

    Example
    -------
    >>> factory = RngFactory(seed=7)
    >>> rng_a = factory.make("client-sampling")
    >>> rng_b = factory.make("client-sampling")
    >>> float(rng_a.random()) == float(rng_b.random())
    True
    """

    def __init__(self, seed: int | None = 0):
        self._seed = seed
        #: The long-lived generators handed out by :meth:`stream`, by label.
        self.streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int | None:
        """The root seed this factory derives every stream from."""
        return self._seed

    def make(self, label: str) -> np.random.Generator:
        """Return a generator uniquely determined by ``(seed, label)``."""
        entropy = [self._seed if self._seed is not None else 0]
        entropy.extend(ord(ch) for ch in label)
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def stream(self, label: str) -> np.random.Generator:
        """The one long-lived generator for ``label``, made on first ask.

        Every caller naming the same label shares it, so a label names one
        position in one sequence — what a checkpoint saves and restores
        (:attr:`streams`).  Use :meth:`make` for a throwaway generator.
        """
        generator = self.streams.get(label)
        if generator is None:
            generator = self.streams[label] = self.make(label)
        return generator

    def make_many(self, label: str, count: int) -> list[np.random.Generator]:
        """Return ``count`` independent generators for the stream ``label``."""
        entropy = [self._seed if self._seed is not None else 0]
        entropy.extend(ord(ch) for ch in label)
        seq = np.random.SeedSequence(entropy)
        return [np.random.default_rng(child) for child in seq.spawn(count)]

    def child(self, label: str) -> "RngFactory":
        """Derive a sub-factory, useful for per-run seeding in sweeps."""
        derived = int(self.make(label).integers(0, 2**31 - 1))
        return RngFactory(seed=derived)


def state_words(generator: np.random.Generator) -> np.ndarray:
    """A PCG64 generator's state as six uint64 words, exact without pickling.

    The 128-bit ``state`` and ``inc`` are each split high word first.
    """
    state = generator.bit_generator.state
    inner = state["state"]
    return np.array(
        [*divmod(inner["state"], 1 << 64), *divmod(inner["inc"], 1 << 64),
         state["has_uint32"], state["uinteger"]],
        dtype=np.uint64,
    )


def load_state_words(generator: np.random.Generator, words: np.ndarray) -> None:
    """Put ``generator`` back at the state :func:`state_words` saved."""
    high, low, inc_high, inc_low, has_uint32, uinteger = (int(w) for w in words)
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": high << 64 | low, "inc": inc_high << 64 | inc_low},
        "has_uint32": has_uint32, "uinteger": uinteger,
    }


def permutation_chunks(
    rng: np.random.Generator, n_items: int, n_chunks: int
) -> list[np.ndarray]:
    """Randomly permute ``range(n_items)`` and split into ``n_chunks`` chunks.

    The chunk sizes differ by at most one; every index appears exactly once.
    """
    if n_chunks <= 0:
        raise ValueError(f"n_chunks must be positive, got {n_chunks}")
    order = rng.permutation(n_items)
    return [np.sort(part) for part in np.array_split(order, n_chunks)]
