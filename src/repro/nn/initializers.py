"""Weight initialisation schemes.

The paper uses random initialisation for the global model; He-normal
weights and zero biases sit behind a small functional API so model
constructors stay readable and deterministic given a generator.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_rng


def he_normal(shape: tuple[int, ...], fan_in: int, rng: SeedLike = None) -> np.ndarray:
    """He (Kaiming) normal initialisation, suited to ReLU networks."""
    rng = as_rng(rng)
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initialisation (biases)."""
    return np.zeros(shape, dtype=np.float64)

