"""Shared quantile math for every latency consumer.

The nearest-rank percentile here (:func:`nearest_rank`, on a sorted
list) is *the* percentile definition of the repo:
:class:`~repro.serve.metrics.LatencyRecorder` and the traced serving
example both call it, so a p99 in a serving table and a p99 read off
the span stream can never disagree by interpolation scheme.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["nearest_rank", "percentile"]


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

