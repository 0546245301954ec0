"""Multi-tenancy: concurrent clients time-sharing one TPU island (§5.2).

Part 1 reproduces the Figure 8 effect: a single client cannot saturate
the island with small computations, but many concurrent clients drive
utilization toward 100% with no context-switch overhead.

Part 2 reproduces Figure 9: the proportional-share gang scheduler
enforces 1:2:4:8 device-time ratios between four clients, and renders
the per-core ASCII timeline showing the millisecond-scale interleaving.

Run:  python examples/multi_tenant.py
"""

from __future__ import annotations

from repro.telemetry.timeline import (
    interleave_granularity_us,
    kernel_devices,
    kernel_span_range,
    program_share,
    render_timeline,
    utilization_by_device,
)
from repro.workloads.multitenant import run_pathways_multitenant


def saturation_demo() -> None:
    print("== Aggregate throughput vs concurrent clients (0.33 ms steps) ==")
    for n_clients in (1, 4, 16, 64):
        res = run_pathways_multitenant(
            n_clients, compute_time_us=330.0, n_hosts=4, devices_per_host=8,
            iters_per_client=10, with_trace=True, pipelined=True,
        )
        util = utilization_by_device(res.system_handle.sim.tracer)
        mean_util = sum(util.values()) / len(util)
        print(f"  {n_clients:3d} client(s): "
              f"{res.aggregate_computations_per_second:8.0f} computations/s, "
              f"device utilization {mean_util:5.1%}")


def fairness_demo() -> None:
    weights = {f"client{i}": w for i, w in enumerate([1.0, 2.0, 4.0, 8.0])}
    print("\n== Proportional share 1:2:4:8 between four clients ==")
    res = run_pathways_multitenant(
        4, compute_time_us=2000.0, n_hosts=2, devices_per_host=8,
        iters_per_client=25, weights=weights, with_trace=True,
        pipelined=True, scale_iters_by_weight=True,
    )
    trace = res.system_handle.sim.tracer
    lo, hi = kernel_span_range(trace)
    window = (lo + 0.1 * (hi - lo), lo + 0.8 * (hi - lo))
    shares = program_share(trace, window=window)
    total = sum(weights.values())
    for i, w in enumerate([1.0, 2.0, 4.0, 8.0]):
        got = shares.get(f"step_client{i}_solo", 0.0)
        print(f"  client{i}: weight {w:.0f} -> share {got:.3f} "
              f"(target {w / total:.3f})")
    print(f"  interleave granularity: "
          f"{interleave_granularity_us(trace) / 1000:.2f} ms")
    print("\nPer-core timeline, 100 ms window (A/B/C/D = the four clients):")
    zoom = (window[0], window[0] + 100_000.0)
    print(render_timeline(trace, width=100, devices=kernel_devices(trace)[:2], window=zoom))


def main() -> None:
    saturation_demo()
    fairness_demo()


if __name__ == "__main__":
    main()
