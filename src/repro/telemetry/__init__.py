"""repro.telemetry — schedule-neutral, pay-as-you-go observability.

Three cooperating parts over one span stream:

* **Causal span tracing** (:class:`Tracer`, :class:`Span`) — the
  simulator's one trace stream: request/program-scoped spans captured
  passively through the serve frontend, scheduler, dispatch, device
  kernels, ``repro.net``, and resilience layers; exported as
  Chrome-trace/Perfetto JSON, analyzed by the critical-path CLI
  (``python -m repro.telemetry critpath``), and turned into device
  utilization, program shares, interleave granularity and ASCII
  timelines by :mod:`repro.telemetry.timeline`.
* **Metrics registry** (:class:`MetricsRegistry`,
  :class:`MetricsSampler`) — counters/gauges/probes/histograms sampled
  on a recurring sim-time timer into exportable time-series.
* **Flight recorder** (:class:`FlightRecorder`) — a bounded ring of
  recent observations, dumped automatically on ``SanitizerError`` or
  the first typed message loss.

Tracing creates **no** sim events (golden schedules are byte-identical
with tracing on/off); the sampler creates exactly one recurring timer
and is a separate opt-in.
"""

from repro.telemetry.critpath import (
    STAGES,
    RequestPath,
    critical_paths,
    render_report,
    summarize,
)
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.histogram import Histogram, percentile
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    MetricsSampler,
    standard_probes,
)
from repro.telemetry.spans import Span, Tracer

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSampler",
    "RequestPath",
    "STAGES",
    "Span",
    "Tracer",
    "critical_paths",
    "percentile",
    "render_report",
    "standard_probes",
    "summarize",
]
