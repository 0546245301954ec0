"""Latency accounting for the serving subsystem.

The :class:`LatencyRecorder` collects one sample per completed request
and reports the tail quantiles serving papers plot (p50/p95/p99) plus a
per-stage breakdown of where the time went:

* ``net`` — request transit to the frontend plus the response transit
  back to the caller (both legs ride the routed ``repro.net`` fabric,
  so congestion shows up here);
* ``queue`` — frontend admission to batch submission (the continuous
  batcher's coalescing window plus any backlog wait);
* ``dispatch`` — batch submission to completion, *minus* device
  compute: controller fan-out, executor prep, gang-scheduler grant
  wait, and PCIe enqueue;
* ``compute`` — the inference step's device time (analytic, from the
  model's cost formulas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.stats import Stats
from repro.telemetry.histogram import nearest_rank, percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.frontend import Request

__all__ = ["LatencyRecorder", "LatencySnapshot", "STAGES"]

#: Stage keys, in pipeline order.
STAGES = ("net", "queue", "dispatch", "compute")


@dataclass(frozen=True)
class LatencySnapshot(Stats):
    """Aggregated view of every request recorded so far."""

    count: int
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    max_us: float
    stage_mean_us: dict[str, float]
    slo_met: int
    slo_missed: int


class LatencyRecorder:
    """Collects per-request latency samples and stage breakdowns."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.stages: dict[str, list[float]] = {s: [] for s in STAGES}
        self.slo_met = 0
        self.slo_missed = 0

    @property
    def count(self) -> int:
        return len(self.latencies)

    def record(self, req: "Request") -> float:
        """Fold one completed request's stamps in; returns its latency."""
        total = req.completed_us - req.arrival_us
        self.latencies.append(total)
        self.stages["net"].append(
            (req.received_us - req.arrival_us) + (req.completed_us - req.done_us)
        )
        self.stages["queue"].append(req.batched_us - req.received_us)
        self.stages["dispatch"].append(
            max(0.0, (req.done_us - req.batched_us) - req.compute_us)
        )
        self.stages["compute"].append(req.compute_us)
        if total <= req.slo_us:
            self.slo_met += 1
        else:
            self.slo_missed += 1
        return total

    def percentile(self, q: float) -> float:
        return percentile(self.latencies, q)

    def snapshot(self) -> LatencySnapshot:
        lat = self.latencies
        ordered = sorted(lat)
        return LatencySnapshot(
            count=len(lat),
            mean_us=sum(lat) / len(lat) if lat else 0.0,
            p50_us=nearest_rank(ordered, 50.0),
            p95_us=nearest_rank(ordered, 95.0),
            p99_us=nearest_rank(ordered, 99.0),
            max_us=ordered[-1] if ordered else 0.0,
            stage_mean_us={
                s: (sum(v) / len(v) if v else 0.0)
                for s, v in self.stages.items()
            },
            slo_met=self.slo_met,
            slo_missed=self.slo_missed,
        )
