"""Shared quantile/histogram math for every latency consumer.

The nearest-rank percentile here is *the* percentile definition of the
repo: :class:`~repro.serve.metrics.LatencyRecorder` and the telemetry
:class:`~repro.telemetry.metrics.MetricsRegistry` both call it, so a
p99 in a serving table and a p99 in a sampled time-series can never
disagree by interpolation scheme.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["Histogram", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (exact, no interpolation)."""
    vals = sorted(values)
    if not vals:
        return 0.0
    if q <= 0.0:
        return vals[0]
    rank = min(len(vals), max(1, math.ceil(q / 100.0 * len(vals))))
    return vals[rank - 1]


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
        vals = self._sorted
        if not vals:
            return 0.0
        if q <= 0.0:
            return vals[0]
        rank = min(len(vals), max(1, math.ceil(q / 100.0 * len(vals))))
        return vals[rank - 1]
