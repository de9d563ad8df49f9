"""Measurement helpers: exact percentiles, medians and failure accounting."""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the counts that make it readable.

    ``tail`` is the number of samples strictly above ``value``; a
    percentile is only trustworthy when ``tail`` is at least ten.
    """

    q: float
    value: float
    samples: int
    tail: int


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """The ``q``-th percentile (0-100), NumPy's default ``linear`` method.

    Infinite samples (failed calls, see :class:`CallLog`) sort last, so a
    percentile that reaches them is infinite.  NumPy's interpolation turns
    ``inf - inf`` into NaN, so they stand in as the largest float.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = np.minimum(np.asarray(samples, dtype=float), sys.float_info.max)
    value = float(np.percentile(ordered, q))
    if value == sys.float_info.max:
        value = math.inf
    tail = int(np.count_nonzero(ordered > value))
    return Percentile(q=q, value=value, samples=len(ordered), tail=tail)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0).value


@dataclass
class CallLog:
    """Times client calls and counts the ones that raise.

    A failed call does not stop the run: it is counted, its first errors
    are kept for the report, and its latency is recorded as ``inf`` so it
    misses any latency limit.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)  # the first few, for the report

    def call(self, fn: Callable, *args) -> tuple:
        """Run ``fn(*args)``; return ``(ok, result, seconds)``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as error:  # a failed call is data, not a crash
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(error).__name__}: {error}")
            return False, None, math.inf
        return True, result, time.perf_counter() - start

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def success_ratio(self) -> float:
        return 1.0 - self.failed_ratio


def finite(value: float) -> float:
    """JSON has no infinity: an infinite latency (a failed call's) is
    reported as the largest float, still worse than any real one."""
    return value if math.isfinite(value) else sys.float_info.max
