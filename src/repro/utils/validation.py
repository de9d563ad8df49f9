"""Argument-validation helpers raising uniform, informative errors."""

from __future__ import annotations

import math
import numbers
from typing import Optional, Sequence, Tuple, Union

import numpy as np


def check_positive(name: str, value: Union[int, float], *, strict: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` is positive (or >= 0 when not strict)."""
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def check_int(
    name: str, value, *, low: int = 0, high: Optional[int] = None
) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (never a bool or a
    float, however round) in ``[low, high]`` — the config-field check."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bounds}, got {value!r}")


def check_finite_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite real number > 0
    (bools and NaN rejected) — the config-field check for durations."""
    if (
        isinstance(value, (bool, np.bool_))
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def check_finite(name: str, array: np.ndarray) -> None:
    """Raise ``ValueError`` if ``array`` contains NaN or infinity."""
    if not np.all(np.isfinite(array)):
        bad = int(np.sum(~np.isfinite(array)))
        raise ValueError(f"{name} contains {bad} non-finite entries")


def check_shape(
    name: str, array: np.ndarray, expected: Sequence[Union[int, None]]
) -> Tuple[int, ...]:
    """Check ``array.shape`` against ``expected`` (``None`` = any size).

    Returns the actual shape for convenience.
    """
    shape = np.shape(array)
    if len(shape) != len(expected):
        raise ValueError(
            f"{name} must have {len(expected)} dimensions, got shape {shape}"
        )
    for axis, (actual, want) in enumerate(zip(shape, expected)):
        if want is not None and actual != want:
            raise ValueError(
                f"{name} axis {axis} must have size {want}, got shape {shape}"
            )
    return shape
