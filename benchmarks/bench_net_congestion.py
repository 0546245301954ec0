"""Network congestion: offered load vs goodput, and route-loss recovery.

The scenario family the routed `repro.net` transport opens up (no
previous benchmark could express any of these):

1. **Goodput saturation** — bulk cross-island senders sweep offered load
   past the island-uplink capacity; achieved goodput tracks offered load
   while the uplink has headroom and saturates at exactly
   ``net_island_uplink_gbps`` once oversubscribed.
2. **Dispatch-latency inflation** — a probe tenant's cross-island
   programs share the fabric with the bulk flows; their submit→done
   latency inflates under load (multi-tenant network interference).
3. **Route loss mid-transfer** — a sender host crashes with messages in
   flight: they fail with ``MessageLost``, reliable senders retransmit
   after the host restores, probe programs replay via
   ``retry_on_failure``, and *no NIC or link capacity leaks* (the fabric
   ends idle).
4. **Flow-scale solver work** — the same flow fleet at increasing
   concurrent-flow counts: the fluid solver's affected set stays the
   per-NIC-pair flow count, so flows touched per membership change grow
   with the per-pair population, not the whole fleet.

Scale: config-B-shaped islands (8 hosts x 8 TPUs).
"""

from __future__ import annotations

from repro.bench.harness import Table
from repro.config import DEFAULT_CONFIG
from repro.workloads.netload import run_flow_fleet, run_net_congestion


#: Narrow per-path spine under a wide uplink, so the spine tier is the
#: bottleneck the ECMP sweep spreads (and a path failure perturbs).
_ECMP_CONFIG = DEFAULT_CONFIG.with_overrides(
    net_island_uplink_gbps=100.0, net_spine_gbps=8.0
)


SCALE = dict(hosts_per_island=8, devices_per_host=8, duration_us=150_000.0)


def test_goodput_saturates_at_uplink():

    table = Table(
        "Offered load vs achieved cross-island goodput (uplink-bound)",
        columns=["senders", "offered GB/s", "achieved GB/s", "uplink GB/s", "util"],
    )
    results = []
    for n in [1, 2, 4, 6, 8]:
        r = run_net_congestion(
            n_senders=n,
            streams=2,
            n_probes=0,
            flow_bytes=8 << 20,
            **SCALE,
        )
        results.append(r)
        table.add_row(
            n, r.offered_gbps, r.achieved_gbps, r.uplink_gbps,
            r.achieved_gbps / r.uplink_gbps,
        )
    table.show()

    for r in results:
        # Goodput can never exceed the configured uplink capacity, and
        # the run must leave no capacity behind.
        assert r.achieved_gbps <= r.uplink_gbps * 1.02, r
        assert r.fabric_idle and r.nic_slots_leaked == 0, r
    under = [r for r in results if r.offered_gbps <= r.uplink_gbps]
    over = [r for r in results if r.offered_gbps > r.uplink_gbps]
    # While the uplink has headroom, goodput tracks offered load...
    for r in under:
        assert r.achieved_gbps >= 0.9 * r.offered_gbps, r
    # ...and saturates at the uplink once oversubscribed.
    for r in over:
        assert r.achieved_gbps >= 0.9 * r.uplink_gbps, r


def test_dispatch_latency_inflation_under_background_traffic():
    probes = dict(n_probes=8, probe_elems=1 << 22)
    base = run_net_congestion(n_senders=0, streams=0, **probes, **SCALE)
    loaded = run_net_congestion(
        n_senders=4,
        streams=2,
        flow_bytes=8 << 20,
        **probes,
        **SCALE,
    )

    table = Table(
        "Cross-island probe dispatch latency under background transfers",
        columns=["scenario", "probes", "mean latency (us)", "inflation"],
    )
    table.add_row("unloaded", base.probes_run, base.probe_latency_us, 1.0)
    table.add_row(
        "loaded",
        loaded.probes_run,
        loaded.probe_latency_us,
        loaded.probe_latency_us / base.probe_latency_us,
    )
    table.show()

    assert base.probes_run == probes["n_probes"] and base.probe_failures == 0
    assert loaded.probes_run == probes["n_probes"] and loaded.probe_failures == 0
    # Contention is real: the probe's DCN edge queues behind bulk flows.
    assert loaded.probe_latency_us > 1.3 * base.probe_latency_us


def test_host_crash_mid_transfer_recovers_without_leaking_capacity():
    r = run_net_congestion(
        n_senders=2,
        streams=2,
        flow_bytes=8 << 20,
        n_probes=4,
        probe_elems=1 << 22,
        crash_sender_at=SCALE["duration_us"] * 0.25,
        crash_repair_us=SCALE["duration_us"] * 0.2,
        **SCALE,
    )

    table = Table(
        "Route loss: sender host crash mid-transfer, reliable retransmit",
        columns=[
            "lost msgs", "retransmits", "probes ok", "probe failures",
            "goodput GB/s", "fabric idle", "NIC slots leaked",
        ],
    )
    table.add_row(
        r.messages_lost, r.retransmits, r.probes_run, r.probe_failures,
        r.achieved_gbps, r.fabric_idle, r.nic_slots_leaked,
    )
    table.show()

    # In-flight messages through the dead NIC were lost...
    assert r.messages_lost > 0, r
    # ...reliable senders retransmitted and kept delivering...
    assert r.retransmits > 0 and r.bytes_delivered > 0, r
    # ...probe programs replayed through retry_on_failure...
    assert r.probes_run == 4 and r.probe_failures == 0, r
    # ...and not a byte of link or NIC capacity leaked.
    assert r.fabric_idle and r.nic_slots_leaked == 0, r


def test_ecmp_goodput_scales_with_spine_paths():
    """Cross-island goodput scales with the ECMP path count when the
    spine tier is the bottleneck (per-flow hashing spreads the load)."""

    table = Table(
        "ECMP: cross-island goodput vs spine path count (spine-bound)",
        columns=["spine paths", "achieved GB/s", "per-path GB/s", "fabric idle"],
    )
    results = {}
    for k in [1, 2, 4]:
        r = run_net_congestion(
            n_senders=4,
            streams=2,
            n_probes=0,
            flow_bytes=8 << 20,
            spine_paths=k,
            config=_ECMP_CONFIG,
            **SCALE,
        )
        results[k] = r
        table.add_row(k, r.achieved_gbps, r.achieved_gbps / k, r.fabric_idle)
    table.show()

    spine_gbps = _ECMP_CONFIG.net_spine_gbps
    for k, r in results.items():
        # Per-path capacity bounds goodput; nothing lost or leaked.
        assert r.achieved_gbps <= k * spine_gbps * 1.02, r
        assert r.messages_lost == 0, r
        assert r.fabric_idle and r.nic_slots_leaked == 0, r
    # More paths, more goodput — the multipath point of ECMP.
    assert results[2].achieved_gbps >= 1.5 * results[1].achieved_gbps
    assert results[4].achieved_gbps >= 1.3 * results[2].achieved_gbps
    # The single path itself saturates (the sweep is spine-bound).
    assert results[1].achieved_gbps >= 0.9 * spine_gbps


def test_spine_failure_rebalances_without_message_loss():
    """A mid-run spine-path failure: surviving flows rehash onto the
    remaining paths (no message whose endpoints are alive is lost) and
    goodput recovers above the single-path floor once restored."""
    r = run_net_congestion(
        n_senders=4,
        streams=2,
        n_probes=0,
        flow_bytes=8 << 20,
        spine_paths=2,
        link_down_at=SCALE["duration_us"] * 0.3,
        link_repair_us=SCALE["duration_us"] * 0.3,
        config=_ECMP_CONFIG,
        **SCALE,
    )

    table = Table(
        "Spine-link failure with ECMP: reroute, rebalance, restore",
        columns=[
            "goodput GB/s", "reroutes", "lost msgs", "parked",
            "link faults", "fabric idle", "NIC slots leaked",
        ],
    )
    table.add_row(
        r.achieved_gbps, r.reroutes, r.messages_lost, r.messages_parked,
        r.link_faults, r.fabric_idle, r.nic_slots_leaked,
    )
    table.show()

    # The failure was delivered and flows crossing the dead path moved.
    assert r.link_faults == 1 and r.reroutes > 0, r
    # Zero loss: both endpoints stayed alive, so the fabric survived.
    assert r.messages_lost == 0, r
    # Rebalance recovered goodput above what one path alone sustains.
    assert r.achieved_gbps > 1.1 * _ECMP_CONFIG.net_spine_gbps, r
    # And the drill left no capacity behind.
    assert r.fabric_idle and r.nic_slots_leaked == 0, r


#: Flows touched per membership change for the default 64-host fleet,
#: measured with the incremental solver.  The counters are exact, so a
#: solver change that widens its affected set fails here on any machine.
_TOUCHED_PER_UPDATE_BOUND = {600: 6.74, 1200: 18.56, 2400: 37.43}


def test_flow_scale_solver_touches_only_the_affected_set():
    """Solver work vs concurrent-flow count on the 32-NIC-pair fleet.

    Each membership change re-rates only the flows sharing a link with
    the changed route — here the flows of one NIC pair, about
    ``1/32`` of the live fleet — so the per-update touch count tracks
    the per-pair population.  Those flows form one route class, rated
    once: at most one rate evaluation per change.
    """
    table = Table(
        "Flow-scale sweep: fluid-solver work per membership change",
        columns=["flows", "peak", "updates", "rates", "touched/upd", "bound"],
    )
    for n in [600, 1200, 2400]:
        r = run_flow_fleet(n_flows=n)
        fab = r.fabric
        table.add_row(
            n, r.peak_concurrent_flows, fab.membership_updates,
            fab.rate_recomputes, fab.flows_touched_per_update,
            _TOUCHED_PER_UPDATE_BOUND[n],
        )
        assert fab.idle, n
        assert fab.flows_touched_per_update <= _TOUCHED_PER_UPDATE_BOUND[n], n
        # The affected set is a small slice of the live fleet.
        assert fab.flows_touched_per_update * 8 < r.peak_concurrent_flows, n
        # One route class per NIC pair, so one rate per change.
        assert fab.rate_recomputes <= fab.membership_updates, n
    table.show()
