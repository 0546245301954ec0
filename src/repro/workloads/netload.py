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

:func:`attach_netload` attaches the senders and the prober to any
two-island system; ``run_net_congestion`` adds the crash and link drills.

Deterministic: no random draws — flow and probe schedules are fixed by
the arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Generator, Optional

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.dispatch import ExecutionAbandoned
from repro.core.system import PathwaysSystem
from repro.faults import unwrap_fault
from repro.hw.cluster import ClusterSpec
from repro.net import MessageLost
from repro.resilience import FaultInjector, FaultSchedule, RecoveryManager
from repro.xla.computation import CompiledFunction
from repro.xla.shapes import TensorSpec

__all__ = [
    "FlowFleetResult",
    "NetCongestionResult",
    "attach_netload",
    "run_flow_fleet",
    "run_net_congestion",
]

#: Gap between one probe program's completion and the next submit.
_PROBE_INTERVAL_US = 5_000.0
#: Compute time of each of the probe program's two nodes.
_PROBE_COMPUTE_US = 200.0
#: Elements of the probe program's tensor (4 B each): what its
#: cross-island edge moves.
PROBE_ELEMS = 1 << 22
#: Open-loop arrival window of a flow fleet: much shorter than its
#: drain time, so thousands of fluid flows are live at once.
_ARRIVAL_WINDOW_US = 1_000.0


@dataclass
class NetCongestionResult:
    """Outcome of one congestion run.  Bytes and probes are the tenant's
    own; the loss, retransmit, reroute, park, link-fault, idle and leak
    counters are system-wide (every tenant shares the transport)."""

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
    #: Whether the run's drill crashed a sender host.
    crash_injected: bool = False
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
    system: PathwaysSystem, src, dst, flow_bytes: int, horizon_us: float,
    reliable: bool, stats: dict, stagger_us: float,
) -> Generator:
    """Back-to-back sends until ``horizon_us``; returns the end instant."""
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
    return sim.now


def _prober(
    system: PathwaysSystem, client, program, arr: np.ndarray, n_probes: int,
    resilient: bool, stats: dict,
) -> Generator:
    """``n_probes`` probe programs, one interval apart; returns the end instant."""
    sim = system.sim
    for _ in range(n_probes):
        start = sim.now
        execution = client.submit(
            program, (arr,), compute_values=False,
            retry_on_failure=resilient, max_attempts=16,
        )
        try:
            yield execution.done
        except Exception as exc:
            # A typed outcome or a fault loss fails the probe;
            # anything else is a bug.
            if not (isinstance(exc, ExecutionAbandoned) or unwrap_fault(exc)):
                raise
            stats["failures"] += 1
        else:
            stats["latencies"].append(sim.now - start)
        finally:
            execution.release_results()
        yield sim.timeout(_PROBE_INTERVAL_US)
    return sim.now


def attach_netload(
    system: PathwaysSystem,
    n_senders: int = 4,
    streams: int = 4,
    flow_bytes: int = 4 << 20,
    duration_us: float = 50_000.0,
    n_probes: int = 5,
    resilient: bool = False,
) -> SimpleNamespace:
    """Attach bulk senders on island 0 pushing to island 1, then a
    cross-island probe client (:func:`run_net_congestion` documents the
    parameters; ``resilient`` makes senders retransmit and probes retry).

    Returns a handle: ``done`` triggers once every stream has passed its
    horizon and every probe has run; ``result()`` then reports them.
    """
    sim = system.sim
    config = system.config
    src_hosts = system.cluster.islands[0].hosts
    dst_hosts = system.cluster.islands[1].hosts
    sender_stats = [{"bytes": 0} for _ in range(n_senders)]
    #: One message's end-to-end pipeline span; spreading a host's
    #: streams across it keeps its NIC continuously fed.
    stream_phase_us = flow_bytes / config.dcn_bytes_per_us / max(1, streams)
    procs = [
        sim.process(_sender_stream(
            system, src_hosts[i], dst_hosts[i % len(dst_hosts)], flow_bytes,
            duration_us, resilient, sender_stats[i], s * stream_phase_us,
        ))
        for i in range(n_senders)
        for s in range(streams)
    ]

    probe_stats = {"latencies": [], "failures": 0}
    if n_probes > 0:
        client = system.client("probe")
        slices = [
            system.make_virtual_device_set().add_slice(tpu_devices=2, island_id=i)
            for i in (0, 1)
        ]
        spec = TensorSpec((PROBE_ELEMS,))
        fa, fb = (
            client.wrap(
                CompiledFunction(
                    f"probe_{part}", (spec,), (spec,), fn=None,
                    n_shards=2, duration_us=_PROBE_COMPUTE_US,
                ),
                devices=devs,
            )
            for part, devs in zip("ab", slices)
        )

        @client.program
        def probe(v):
            return (fb(fa(v)),)

        arr = np.zeros(PROBE_ELEMS, dtype=np.float32)
        procs.append(sim.process(_prober(
            system, client, probe.trace(arr), arr, n_probes, resilient,
            probe_stats,
        )))
    start = sim.now
    done = sim.all_of(procs)

    def result() -> NetCongestionResult:
        elapsed = max(done.value, default=start) - start
        delivered = sum(s["bytes"] for s in sender_stats)
        latencies = probe_stats["latencies"]
        net = system.transport.stats()
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
            nic_slots_leaked=sum(
                h.nic.in_use + h.nic.queue_len for h in system.cluster.hosts
            ),
            spine_paths=config.spine_paths,
            reroutes=net.reroutes,
            messages_parked=net.messages_parked,
            lost_by_reason=net.lost_by_reason,
            link_faults=system.recovery.stats().link_faults if system.recovery else 0,
            per_sender_bytes=[s["bytes"] for s in sender_stats],
            fabric=net.fabric,
            system_handle=system,
        )

    return SimpleNamespace(done=done, result=result)


def run_net_congestion(
    n_senders: int = 4,
    streams: int = 4,
    hosts_per_island: int = 4,
    devices_per_host: int = 4,
    flow_bytes: int = 4 << 20,
    duration_us: float = 50_000.0,
    n_probes: int = 5,
    crash_sender_at: Optional[float] = None,
    crash_repair_us: float = 8_000.0,
    spine_paths: int = 1,
    link_down_at: Optional[float] = None,
    link_repair_us: float = 8_000.0,
    config: SystemConfig = DEFAULT_CONFIG,
    log_schedule: bool = False,
    tracer=None,
) -> NetCongestionResult:
    """Two islands; bulk senders on island 0 push to island 1 while a
    probe tenant dispatches cross-island programs.

    ``crash_sender_at`` crashes sender host 0 at that time (restoring
    ``crash_repair_us`` later); senders then use reliable
    (retransmitting) sends and probes run with ``retry_on_failure``.

    ``link_down_at`` schedules a ``LINK_DOWN`` fault (restored
    ``link_repair_us`` later, 0 = never) against spine path 0,
    delivered through the first-class
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
    system = PathwaysSystem.build(
        ClusterSpec(islands=((hosts_per_island, devices_per_host),) * 2, name="netload"),
        config=config.with_overrides(net_contention=True, spine_paths=spine_paths),
        log_schedule=log_schedule,
        tracer=tracer,
    )
    recovery = RecoveryManager(system, detection_us=200.0)
    sim = system.sim
    tenant = attach_netload(
        system, n_senders, streams, flow_bytes, duration_us, n_probes,
        resilient=crash,
    )

    if crash:
        victim = system.cluster.islands[0].hosts[0]
        sim.timeout(crash_sender_at).add_callback(
            lambda ev: recovery.crash_host(victim)
        )
        if crash_repair_us > 0:
            sim.timeout(crash_sender_at + crash_repair_us).add_callback(
                lambda ev: recovery.restore_host(victim)
            )

    if link_down_at is not None:
        target_link = "spine" if spine_paths == 1 else "spine[p0]"
        FaultInjector(recovery, FaultSchedule().link_down(
            link_down_at, target_link, repair_us=link_repair_us
        ))

    sim.drain(tenant.done)
    result = tenant.result()
    result.crash_injected = crash
    return result


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


def run_flow_fleet(n_flows: int = 2600) -> FlowFleetResult:
    """Flow-scale fabric stress: thousands of short concurrent flows.

    One island of 64 one-device hosts, paired off into 32 disjoint
    (sender, receiver) NIC pairs; ``n_flows`` transfers of 1 MiB each
    arrive open-loop inside a 1 ms window (a
    serving-style arrival burst, spread by a fixed multiplicative LCG —
    deterministic, no RNG state).  The window is much shorter than the
    drain time, so concurrency climbs to thousands of
    simultaneously-live fluid flows, while the solver's affected set
    per membership change stays the per-pair flow count.

    Every membership change only moves rates on one NIC pair, so this
    is the best case for an O(affected) solver *and* the honest one:
    real fleets spread traffic across many endpoint pairs rather than
    converging on one bottleneck.  ``deliveries`` carries the exact
    per-flow delivery times for cross-solver equality checks.
    """
    system = PathwaysSystem.build(
        ClusterSpec(islands=((64, 1),), name="flowfleet"),
        config=DEFAULT_CONFIG.with_overrides(net_contention=True),
    )
    sim = system.sim
    island_hosts = system.cluster.islands[0].hosts
    n_pairs = 32
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
                    1 << 20, offset * _ARRIVAL_WINDOW_US, deliveries,
                ),
            )
        )
    elapsed_us = sim.drain(sim.all_of(procs))
    fabric = system.transport.stats().fabric
    return FlowFleetResult(
        n_flows=n_flows,
        peak_concurrent_flows=fabric.peak_concurrent_flows,
        elapsed_us=elapsed_us,
        events=sim.stats().events_processed,
        deliveries=deliveries,
        fabric=fabric,
    )
