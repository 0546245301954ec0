"""Cross-island network congestion workload (repro.net scenario family).

Background bulk flows saturate the island uplinks while a probe tenant
keeps dispatching small cross-island programs — the multi-tenant network
interference scenario the routed transport makes expressible:

* **offered load** — ``n_senders`` hosts on island 0 each run ``streams``
  back-to-back bulk transfers to island-1 hosts, offering up to the full
  per-host NIC bandwidth each; the aggregate contends on the island
  uplink (``config.net_island_uplink_gbps``), where goodput saturates;
* **dispatch-latency inflation** — a probe client repeatedly runs a
  two-node program whose edge crosses islands over the same fabric, so
  its data movement queues behind the bulk traffic;
* **route loss** — optionally a sender host crashes mid-transfer (and
  restores later): in-flight messages fail with ``MessageLost``,
  reliable senders retransmit, probe executions replay through
  ``retry_on_failure``, and the run asserts the fabric ends idle (no
  link capacity leaked).

Deterministic: no random draws — flow and probe schedules are fixed by
the arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.net import MessageLost
from repro.resilience import FaultInjector, FaultSchedule, RecoveryManager
from repro.xla.computation import CompiledFunction
from repro.xla.shapes import TensorSpec

__all__ = [
    "FlowFleetResult",
    "NetCongestionResult",
    "run_flow_fleet",
    "run_net_congestion",
]


@dataclass
class NetCongestionResult:
    """Outcome of one congestion run."""

    n_senders: int
    #: Aggregate offered load: every sender can offer its full NIC rate.
    offered_gbps: float
    #: Cross-island goodput actually delivered (GB/s).
    achieved_gbps: float
    #: The uplink capacity goodput saturates at.
    uplink_gbps: float
    bytes_delivered: int
    elapsed_us: float
    #: Mean submit→done latency of the probe programs (µs); 0 if none ran.
    probe_latency_us: float
    probes_run: int
    probe_failures: int
    messages_lost: int
    retransmits: int
    #: True when every fabric link ended with no queued or active flow —
    #: the no-capacity-leak invariant, asserted after crash scenarios.
    fabric_idle: bool
    nic_slots_leaked: int
    crash_injected: bool
    #: ECMP width the run used (``SystemConfig.spine_paths``).
    spine_paths: int = 1
    #: Flows rehashed onto a surviving path after a link fault.
    reroutes: int = 0
    #: Wait-for-restore park episodes (no surviving path existed).
    messages_parked: int = 0
    #: Typed loss buckets from ``transport.stats().lost_by_reason``.
    lost_by_reason: dict[str, int] = field(default_factory=dict)
    #: LINK_DOWN faults the recovery manager delivered.
    link_faults: int = 0
    per_sender_bytes: list[int] = field(default_factory=list)
    #: ``FabricStats`` snapshot — the fluid solver's work counters.
    fabric: Optional[object] = None
    system_handle: Optional[PathwaysSystem] = None


def _sender_stream(
    system: PathwaysSystem,
    src,
    dst,
    flow_bytes: int,
    horizon_us: float,
    reliable: bool,
    stats: dict,
    stagger_us: float = 0.0,
) -> Generator:
    sim = system.sim
    transport = system.transport
    backoff = system.config.net_retransmit_backoff_us
    if stagger_us > 0:
        # Offset this stream's first send so a host's streams pipeline
        # through the store-and-forward hops instead of moving as a
        # convoy (fair-share links keep identical same-start flows in
        # lockstep forever).
        yield sim.timeout(stagger_us)
    while sim.now < horizon_us:
        if reliable:
            ev = transport.send_reliable(src, dst, flow_bytes, max_attempts=16)
        else:
            ev = transport.send(src, dst, flow_bytes)
        try:
            yield ev
        except MessageLost:
            # Lost to a crash; back off (a zero-time retry against a
            # dead host would spin without advancing the clock).
            if backoff > 0:
                yield sim.timeout(backoff)
            continue
        stats["bytes"] += flow_bytes


def _prober(
    system: PathwaysSystem,
    client,
    program,
    arr: np.ndarray,
    n_probes: int,
    interval_us: float,
    resilient: bool,
    stats: dict,
) -> Generator:
    sim = system.sim
    for _ in range(n_probes):
        start = sim.now
        execution = client.submit(
            program,
            (arr,),
            compute_values=False,
            retry_on_failure=resilient,
            max_attempts=16,
        )
        try:
            yield execution.finished if resilient else execution.done
        except Exception:  # noqa: BLE001 - abandoned probe
            stats["failures"] += 1
        else:
            stats["latencies"].append(sim.now - start)
        finally:
            execution.release_results()
        if interval_us > 0:
            yield sim.timeout(interval_us)


def run_net_congestion(
    n_senders: int = 4,
    streams: int = 4,
    hosts_per_island: int = 4,
    devices_per_host: int = 4,
    flow_bytes: int = 4 << 20,
    duration_us: float = 50_000.0,
    contention: bool = True,
    sharing: str = "fair",
    n_probes: int = 5,
    probe_interval_us: float = 5_000.0,
    probe_elems: int = 1 << 22,
    probe_compute_us: float = 200.0,
    crash_sender_at: Optional[float] = None,
    crash_repair_us: float = 8_000.0,
    spine_paths: int = 1,
    link_down_at: Optional[float] = None,
    link_down: Optional[str] = None,
    link_repair_us: float = 8_000.0,
    reliable: Optional[bool] = None,
    config: SystemConfig = DEFAULT_CONFIG,
    debug_names: bool = False,
    log_schedule: bool = False,
    tracer=None,
) -> NetCongestionResult:
    """Two islands; bulk senders on island 0 push to island 1 while a
    probe tenant dispatches cross-island programs.

    ``crash_sender_at`` crashes sender host 0 at that time (restoring
    ``crash_repair_us`` later); senders then default to reliable
    (retransmitting) sends and probes run with ``retry_on_failure``.

    ``link_down_at`` schedules a ``LINK_DOWN`` fault (restored
    ``link_repair_us`` later, 0 = never) against ``link_down`` — default
    spine path 0 — delivered through the first-class
    :class:`~repro.resilience.FaultInjector` path.  With
    ``spine_paths >= 2`` the drill exercises ECMP reroute-on-failure:
    surviving flows rehash onto the remaining paths and no message whose
    endpoints are alive is lost.
    """
    if n_senders > hosts_per_island:
        raise ValueError(
            f"{n_senders} senders exceed island of {hosts_per_island} hosts"
        )
    crash = crash_sender_at is not None
    if reliable is None:
        reliable = crash
    config = config.with_overrides(
        net_contention=contention,
        net_link_sharing=sharing,
        spine_paths=spine_paths,
    )
    system = PathwaysSystem.build(
        ClusterSpec(
            islands=((hosts_per_island, devices_per_host),) * 2, name="netload"
        ),
        config=config,
        debug_names=debug_names,
        log_schedule=log_schedule,
        tracer=tracer,
    )
    recovery = RecoveryManager(system, detection_us=200.0)
    sim = system.sim
    transport = system.transport
    src_hosts = system.cluster.islands[0].hosts
    dst_hosts = system.cluster.islands[1].hosts

    sender_stats = [{"bytes": 0} for _ in range(n_senders)]
    procs = []
    #: One message's end-to-end pipeline span; spreading a host's
    #: streams across it keeps its NIC continuously fed.
    stream_phase_us = (
        flow_bytes / config.dcn_bytes_per_us / max(1, streams)
    )
    for i in range(n_senders):
        src = src_hosts[i]
        dst = dst_hosts[i % len(dst_hosts)]
        for s in range(streams):
            procs.append(
                sim.process(
                    _sender_stream(
                        system, src, dst, flow_bytes, duration_us,
                        reliable, sender_stats[i],
                        stagger_us=s * stream_phase_us,
                    ),
                    name=f"net_sender{i}.{s}" if debug_names else "",
                )
            )

    probe_stats = {"latencies": [], "failures": 0}
    if n_probes > 0:
        client = system.client("probe")
        devs_a = system.make_virtual_device_set().add_slice(
            tpu_devices=2, island_id=0
        )
        devs_b = system.make_virtual_device_set().add_slice(
            tpu_devices=2, island_id=1
        )
        spec = TensorSpec((probe_elems,))
        fa = client.wrap(
            CompiledFunction(
                "probe_a", (spec,), (spec,), fn=None,
                n_shards=2, duration_us=probe_compute_us,
            ),
            devices=devs_a,
        )
        fb = client.wrap(
            CompiledFunction(
                "probe_b", (spec,), (spec,), fn=None,
                n_shards=2, duration_us=probe_compute_us,
            ),
            devices=devs_b,
        )

        @client.program
        def probe(v):
            return (fb(fa(v)),)

        arr = np.zeros(probe_elems, dtype=np.float32)
        probe_program = probe.trace(arr)
        procs.append(
            sim.process(
                _prober(
                    system, client, probe_program, arr, n_probes,
                    probe_interval_us, crash, probe_stats,
                ),
                name="net_prober" if debug_names else "",
            )
        )

    if crash:
        victim = src_hosts[0]
        sim.timeout(crash_sender_at).add_callback(
            lambda ev: recovery.crash_host(victim)
        )
        if crash_repair_us > 0:
            sim.timeout(crash_sender_at + crash_repair_us).add_callback(
                lambda ev: recovery.restore_host(victim)
            )

    if link_down_at is not None:
        target_link = link_down or ("spine" if spine_paths == 1 else "spine[p0]")
        FaultInjector(
            recovery,
            FaultSchedule().link_down(
                link_down_at, target_link, repair_us=link_repair_us
            ),
        )

    start = sim.now
    sim.run_until_triggered(sim.all_of(procs))
    elapsed = sim.now - start

    delivered = sum(s["bytes"] for s in sender_stats)
    latencies = probe_stats["latencies"]
    net = transport.stats()
    nic_slots_leaked = sum(
        h.nic.in_use + h.nic.queue_len for h in system.cluster.hosts
    )
    return NetCongestionResult(
        n_senders=n_senders,
        offered_gbps=n_senders * config.dcn_bandwidth_gbps,
        achieved_gbps=(delivered / elapsed / 1000.0) if elapsed > 0 else 0.0,
        uplink_gbps=config.net_island_uplink_gbps,
        bytes_delivered=delivered,
        elapsed_us=elapsed,
        probe_latency_us=(sum(latencies) / len(latencies)) if latencies else 0.0,
        probes_run=len(latencies),
        probe_failures=probe_stats["failures"],
        messages_lost=net.messages_lost,
        retransmits=net.retransmits,
        fabric_idle=net.fabric.idle,
        nic_slots_leaked=nic_slots_leaked,
        crash_injected=crash,
        spine_paths=spine_paths,
        reroutes=net.reroutes,
        messages_parked=net.messages_parked,
        lost_by_reason=net.lost_by_reason,
        link_faults=recovery.stats().link_faults,
        per_sender_bytes=[s["bytes"] for s in sender_stats],
        fabric=net.fabric,
        system_handle=system,
    )


# ---------------------------------------------------------------------------
# Flow-scale fabric stress (the flow-scale sweep of bench_net_congestion)
# ---------------------------------------------------------------------------

@dataclass
class FlowFleetResult:
    """Outcome of one flow-fleet run."""

    n_flows: int
    #: Max flows simultaneously live on the fabric (from ``FabricStats``).
    peak_concurrent_flows: int
    elapsed_us: float
    events: int
    #: Per-flow simulated delivery time, in send (flow-index) order —
    #: the byte-identity witness the solver-equivalence tests compare
    #: with exact ``==``.
    deliveries: list[float] = field(default_factory=list)
    #: ``FabricStats`` snapshot (solver work counters + leak invariant).
    fabric: Optional[object] = None


def _fleet_flow(
    system: PathwaysSystem, i: int, src, dst, nbytes: int,
    delay_us: float, deliveries: list[float],
) -> Generator:
    sim = system.sim
    if delay_us > 0:
        yield sim.timeout(delay_us)
    yield system.transport.send(src, dst, nbytes)
    deliveries[i] = sim.now


def run_flow_fleet(
    n_flows: int = 2600,
    hosts: int = 64,
    devices_per_host: int = 1,
    flow_bytes: int = 1 << 20,
    arrival_window_us: float = 1_000.0,
    config: SystemConfig = DEFAULT_CONFIG,
    debug_names: bool = False,
) -> FlowFleetResult:
    """Flow-scale fabric stress: thousands of short concurrent flows.

    One island of ``hosts`` hosts, paired off into ``hosts // 2``
    disjoint (sender, receiver) NIC pairs; ``n_flows`` transfers of
    ``flow_bytes`` each arrive open-loop inside ``arrival_window_us``
    (a serving-style arrival burst, spread by a fixed multiplicative
    LCG — deterministic, no RNG state).  The window is much shorter
    than the drain time, so concurrency climbs to thousands of
    simultaneously-live fluid flows, while the solver's affected set
    per membership change stays the per-pair flow count.

    Every membership change only moves rates on one NIC pair, so this
    is the best case for an O(affected) solver *and* the honest one:
    real fleets spread traffic across many endpoint pairs rather than
    converging on one bottleneck.  ``deliveries`` carries the exact
    per-flow delivery times for cross-solver equality checks.
    """
    if hosts < 2 or hosts % 2:
        raise ValueError(f"hosts must be even and >= 2, got {hosts}")
    config = config.with_overrides(
        net_contention=True, net_link_sharing="fair"
    )
    system = PathwaysSystem.build(
        ClusterSpec(islands=((hosts, devices_per_host),), name="flowfleet"),
        config=config,
        debug_names=debug_names,
    )
    sim = system.sim
    island_hosts = system.cluster.islands[0].hosts
    n_pairs = hosts // 2
    deliveries = [0.0] * n_flows
    procs = []
    for i in range(n_flows):
        pair = i % n_pairs
        # Knuth multiplicative hash: a fixed, seedless spread of
        # arrival offsets across the window (no RNG object to thread).
        offset = ((i * 2654435761 + 12345) & 0xFFFFFFFF) / 2**32
        procs.append(
            sim.process(
                _fleet_flow(
                    system, i,
                    island_hosts[2 * pair], island_hosts[2 * pair + 1],
                    flow_bytes, offset * arrival_window_us, deliveries,
                ),
                name=f"fleet_flow{i}" if debug_names else "",
            )
        )
    sim.run_until_triggered(sim.all_of(procs))
    fabric = system.transport.stats().fabric
    return FlowFleetResult(
        n_flows=n_flows,
        peak_concurrent_flows=fabric.peak_concurrent_flows,
        elapsed_us=sim.now,
        events=sim.stats().events_processed,
        deliveries=deliveries,
        fabric=fabric,
    )
