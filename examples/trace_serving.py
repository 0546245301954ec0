"""Observability quickstart: trace a serving run end to end.

Attaches the ``repro.telemetry`` stack to the serving scenario —
causal span tracing across frontend/scheduler/dispatch/fabric plus a
fault flight recorder — then:

* writes the span stream as Chrome-trace/Perfetto JSON (load it in
  ``ui.perfetto.dev`` or ``chrome://tracing``);
* prints the per-request critical-path decomposition (the same report
  as ``python -m repro.telemetry critpath trace.json``);
* reads request latency metrics off the span stream and dumps the
  flight recorder's bounded ring.

Tracing is schedule-neutral: this run's event schedule is byte-for-byte
the schedule of the untraced run (pinned in tests/test_sim_determinism.py).

Run:  python examples/trace_serving.py [trace.json]
"""

from __future__ import annotations

import sys

from repro.telemetry import (
    FlightRecorder,
    Tracer,
    critical_paths,
    percentile,
    render_report,
)
from repro.workloads.serving import run_serving


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "trace_serving.json"

    # A tracer with an attached flight recorder: every span/instant is
    # shadowed into a bounded ring, dumped automatically post-mortem
    # (SanitizerError at drain, or the first typed message loss).
    flight = FlightRecorder(capacity=64)
    tracer = Tracer(flight=flight)

    result = run_serving(
        arrival="poisson",
        rate_rps=500.0,
        duration_us=200_000.0,     # 0.2 s of simulated traffic
        islands=2,
        hosts_per_island=2,
        devices_per_host=4,
        n_replicas=2,
        max_batch=8,
        max_wait_us=2_000.0,
        slo_us=50_000.0,
        contention=True,
        fail_replica_at=80_000.0,  # a device failure mid-run...
        repair_us=40_000.0,        # ...replayed through recovery
        seed=42,
        tracer=tracer,
    )

    print("== repro.telemetry quickstart ==")
    print(f"completed {result.completed}/{result.arrived} requests; "
          f"p99 {result.p99_us / 1e3:.1f} ms; "
          f"recoveries {result.recoveries}")

    cats: dict[str, int] = {}
    for span in tracer.spans:
        cats[span.cat] = cats.get(span.cat, 0) + 1
    print(f"\ncaptured {len(tracer.spans)} spans in {len(cats)} categories:")
    for cat in sorted(cats):
        print(f"  {cat:<18s} {cats[cat]}")

    path = tracer.write_chrome_trace(out_path)
    print(f"\nPerfetto trace written to {path}")
    print("  -> open in https://ui.perfetto.dev or chrome://tracing")

    # The critical-path analyzer: each completed request's latency
    # decomposed into stages that sum exactly to its end-to-end total.
    paths = critical_paths(tracer.to_chrome_trace())
    print("\n== critical paths (python -m repro.telemetry critpath) ==")
    print(render_report(paths, limit=8))

    # Request metrics read off the span stream after the run (reading
    # spans creates no sim events).  The mean is a running sum, left to
    # right: Python 3.12's sum() is compensated and could move a digit.
    latencies = [span.duration_us for span in tracer.by_cat("serve.request")]
    total = 0.0
    for latency in latencies:
        total += latency
    n = float(len(latencies))
    print("\n== metrics registry ==")
    for name, value in (
        ("serve.request_latency_us.count", n),
        ("serve.request_latency_us.mean", total / n if latencies else 0.0),
        ("serve.request_latency_us.p99", percentile(latencies, 99.0)),
        ("serve.requests", n),
    ):
        print(f"  {name:<32s} {value:,.1f}")

    # The flight recorder ring is always available for a manual dump.
    print()
    flight.dump(reason="example post-run dump", stream=sys.stdout)

    assert result.completed > 0 and paths


if __name__ == "__main__":
    main()
