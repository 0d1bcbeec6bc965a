"""Small argument-validation helpers used across the library.

They raise :class:`repro.exceptions.ConfigurationError` (or ``ShapeError``)
with informative messages so that a bad experiment configuration fails fast
rather than deep inside a training loop.
"""

from __future__ import annotations

import math
from typing import Sized

from repro.exceptions import ConfigurationError, ShapeError


def check_positive(value: float, name: str) -> float:
    """Ensure ``value`` is finite and ``> 0``; return it for chaining.

    ``x <= 0`` is false for NaN, so a bare comparison would let it through.
    """
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Ensure ``value`` is finite and ``>= 0``; return it for chaining."""
    if not (math.isfinite(value) and value >= 0):
        raise ConfigurationError(
            f"{name} must be non-negative and finite, got {value!r}"
        )
    return value


def check_fraction(value: float, name: str) -> float:
    """Ensure ``0 < value <= 1``; return it for chaining."""
    if not 0 < value <= 1:
        raise ConfigurationError(f"{name} must lie in (0, 1], got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Ensure ``0 <= value <= 1``; return it for chaining."""
    if not 0 <= value <= 1:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_same_length(a: Sized, b: Sized, name_a: str, name_b: str) -> None:
    """Ensure two sized collections have equal lengths."""
    if len(a) != len(b):
        raise ShapeError(
            f"{name_a} and {name_b} must have the same length, "
            f"got {len(a)} and {len(b)}"
        )
