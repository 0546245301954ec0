"""repro.telemetry — schedule-neutral, pay-as-you-go observability.

Two cooperating parts over one span stream:

* **Causal span tracing** (:class:`Tracer`, :class:`Span`) — the
  simulator's one trace stream: request/program-scoped spans captured
  passively through the serve frontend, scheduler, dispatch, device
  kernels, ``repro.net``, and resilience layers; exported as
  Chrome-trace/Perfetto JSON, analyzed by the critical-path CLI
  (``python -m repro.telemetry critpath``), and turned into device
  utilization, program shares, interleave granularity and ASCII
  timelines by :mod:`repro.telemetry.timeline`.
* **Flight recorder** (:class:`FlightRecorder`) — a bounded ring of
  recent observations, dumped automatically on ``SanitizerError`` (the
  transport's own ``net.lost`` instants land in it like any other).

Neither creates sim events: golden schedules are byte-identical with
telemetry on or off.
"""

from repro.telemetry.critpath import (
    STAGES,
    RequestPath,
    critical_paths,
    render_report,
    summarize,
)
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.histogram import percentile
from repro.telemetry.spans import Span, Tracer

__all__ = [
    "FlightRecorder",
    "RequestPath",
    "STAGES",
    "Span",
    "Tracer",
    "critical_paths",
    "percentile",
    "render_report",
    "summarize",
]
