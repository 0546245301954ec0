"""Serving quickstart: online inference on the Pathways substrate.

Runs a short open-loop serving scenario end to end — Poisson arrivals
over the routed fabric, SLO admission at the frontend, continuous
batching into gang-scheduled inference programs on two replicas, a
device failure recovered mid-run — and prints the latency percentiles,
the per-stage breakdown, and the typed outcome accounting.

Run:  python examples/serving.py
"""

from __future__ import annotations

from repro.workloads.serving import run_serving


def main() -> None:
    result = run_serving(
        arrival="poisson",
        rate_rps=600.0,            # offered load (requests/second)
        duration_us=300_000.0,     # 0.3 s of simulated traffic
        islands=2,                 # two islands of 2 hosts x 4 TPUs
        hosts_per_island=2,
        devices_per_host=4,
        n_replicas=2,              # one 4-TPU model replica per island
        max_batch=8,               # continuous batching knobs
        max_wait_us=2_000.0,
        slo_us=50_000.0,           # 50 ms end-to-end SLO
        contention=True,           # requests ride the contended fabric
        fail_replica_at=120_000.0, # device failure under replica 0...
        repair_us=50_000.0,        # ...repaired 50 ms later
        seed=42,
    )

    print("== repro.serve quickstart ==")
    print(f"offered load      : {result.offered_rps:,.0f} req/s "
          f"(capacity ~{result.capacity_rps:,.0f} req/s)")
    print(f"arrived           : {result.arrived}")
    print(f"completed         : {result.completed}")
    print(f"rejected (typed)  : {dict(result.rejections) or '{}'}")
    print(f"abandoned         : {result.abandoned}")
    print(f"SLO attainment    : {result.slo_attainment:.1%} "
          f"(SLO {result.slo_us / 1e3:.0f} ms)")
    print(f"latency p50/p95/p99: {result.p50_us / 1e3:.1f} / "
          f"{result.p95_us / 1e3:.1f} / {result.p99_us / 1e3:.1f} ms")
    stages = result.stage_mean_us
    print("mean stage breakdown: "
          + ", ".join(f"{k} {v / 1e3:.2f} ms" for k, v in stages.items()))
    print(f"replica recoveries: {result.recoveries} "
          f"(device failure replayed through the recovery path)")

    assert result.abandoned == 0
    assert result.completed + result.total_rejected == result.arrived
    print("\nEvery request ended in exactly one typed outcome; the device")
    print("failure was remapped and replayed without a single abandon.")


if __name__ == "__main__":
    main()
