"""Shared quantile/histogram math for every latency consumer.

The nearest-rank percentile here (:func:`nearest_rank`, on a sorted
list) is *the* percentile definition of the repo:
:class:`~repro.serve.metrics.LatencyRecorder` and the telemetry
:class:`~repro.telemetry.metrics.MetricsRegistry` both call it, so a
p99 in a serving table and a p99 in a sampled time-series can never
disagree by interpolation scheme.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["Histogram", "nearest_rank", "percentile"]


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``ordered``, already sorted ascending
    (exact, no interpolation)."""
    if not ordered:
        return 0.0
    if q <= 0.0:
        return ordered[0]
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` in any order."""
    return nearest_rank(sorted(values), q)


class Histogram:
    """A value accumulator with nearest-rank quantiles.

    Keeps the raw observations (simulated runs are bounded, and exact
    quantiles beat bucketed approximations for figure reproduction);
    ``observe`` is O(1), quantile reads sort lazily and cache until the
    next observation.
    """

    def __init__(self) -> None:
        self.values: list[float] = []
        self.total = 0.0
        self._sorted: list[float] | None = None

    def observe(self, value: float) -> None:
        self.values.append(value)
        self.total += value
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        if self._sorted is None:
            self._sorted = sorted(self.values)
        return nearest_rank(self._sorted, q)
