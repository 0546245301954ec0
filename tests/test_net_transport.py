"""Tests for the routed transport layer (repro.net).

Covers the fabric (routes, fluid fair-share links), the
transport (uncontended fast path, contended traversal, loopback stats,
timeouts, reliable retransmit), route loss on host crash — including
the no-capacity-leak invariants mirroring the PR-3 CPU-slot-leak fix —
and the integration with ``retry_on_failure`` dispatch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from repro.config import DEFAULT_CONFIG
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec, make_cluster
from repro.net import MessageLost, Transport
from repro.net import fabric as fabric_module
from repro.net.fabric import Uplink
from repro.resilience import FaultSchedule, FaultInjector, RecoveryManager
from repro.sim import Simulator
from repro.xla.computation import CompiledFunction
from repro.xla.shapes import TensorSpec

#: 1 MiB serializes for ~83.9us at the default 12.5 GB/s NIC.
MB = 1 << 20


@pytest.fixture
def contended_config():
    return DEFAULT_CONFIG.with_overrides(net_contention=True)


@pytest.fixture
def contended_cluster(sim, contended_config):
    """Two islands of 2 hosts x 2 devices with contention on."""
    return make_cluster(
        sim,
        ClusterSpec(islands=((2, 2), (2, 2)), name="net"),
        config=contended_config,
    )


class TestFabricRoutes:
    def test_intra_island_route_is_two_hops(self, contended_cluster):
        fabric = contended_cluster.fabric
        a, b = contended_cluster.islands[0].hosts
        route = fabric.route(a, b)
        assert [link.name for link in route] == ["nic_tx[h0]", "nic_rx[h1]"]

    def test_cross_island_route_goes_via_uplinks_and_spine(self, contended_cluster):
        fabric = contended_cluster.fabric
        src = contended_cluster.islands[0].hosts[0]
        dst = contended_cluster.islands[1].hosts[1]
        assert [link.name for link in fabric.route(src, dst)] == [
            "nic_tx[h0]",
            "uplink_tx[i0]",
            "spine",
            "uplink_rx[i1]",
            "nic_rx[h3]",
        ]

    def test_loopback_route_is_empty(self, contended_cluster):
        host = contended_cluster.hosts[0]
        assert contended_cluster.fabric.route(host, host) == []

    def test_elastic_island_joins_fabric_lazily(self, contended_config):
        system = PathwaysSystem.build(
            ClusterSpec(islands=((2, 2),), name="grow"), config=contended_config
        )
        island = system.add_island(2, 2)
        route = system.cluster.fabric.route(
            system.cluster.islands[0].hosts[0], island.hosts[0]
        )
        assert len(route) == 5  # fresh uplinks + NICs materialized on demand

    def test_fifo_link_sharing_is_rejected(self, sim, contended_config):
        cfg = contended_config.with_overrides(net_link_sharing="fifo")
        with pytest.raises(ValueError, match="net_link_sharing"):
            make_cluster(sim, ClusterSpec(islands=((2, 2),)), config=cfg)


class TestFluidFairShare:
    def test_single_flow_runs_at_bottleneck_rate(self, sim, contended_cluster):
        transport = contended_cluster.transport
        src = contended_cluster.islands[0].hosts[0]
        dst = contended_cluster.islands[1].hosts[0]
        msg = transport.send(src, dst, 10 * MB)
        sim.run_until_triggered(msg)
        cfg = contended_cluster.config
        # Bottleneck is the NIC (12.5 GB/s < uplink < spine).
        expected = 10 * MB / cfg.dcn_bytes_per_us + cfg.dcn_latency_us
        assert sim.now == pytest.approx(expected, rel=1e-6)
        assert contended_cluster.fabric.idle

    def test_concurrent_flows_share_the_common_link(self, sim, contended_cluster):
        transport = contended_cluster.transport
        src = contended_cluster.islands[0].hosts[0]
        d1, d2 = contended_cluster.islands[1].hosts
        m1 = transport.send(src, d1, 10 * MB)
        m2 = transport.send(src, d2, 10 * MB)
        sim.run_until_triggered(sim.all_of([m1, m2]))
        cfg = contended_cluster.config
        # Both share the src NIC: each runs at half rate, finishing
        # together at twice the lone-flow serialization.
        expected = 2 * 10 * MB / cfg.dcn_bytes_per_us + cfg.dcn_latency_us
        assert sim.now == pytest.approx(expected, rel=1e-6)

    def test_aborted_flow_releases_share_to_survivor(self, sim, contended_cluster):
        transport = contended_cluster.transport
        src = contended_cluster.islands[0].hosts[0]
        d1, d2 = contended_cluster.islands[1].hosts
        survivor = transport.send(src, d1, 10 * MB)
        doomed = transport.send(src, d2, 10 * MB)
        cfg = contended_cluster.config
        lone_serialize = 10 * MB / cfg.dcn_bytes_per_us

        def killer():
            yield sim.timeout(lone_serialize / 2)
            transport._abort(doomed, MessageLost(doomed, "drill"))

        sim.process(killer())
        sim.run_until_triggered(survivor)
        # For half the lone serialization the survivor ran at half rate
        # (1/4 of the bytes moved); the remaining 3/4 move at full rate:
        # 1.25x the lone serialization (vs 2x without the abort).
        expected = 1.25 * lone_serialize + cfg.dcn_latency_us
        assert sim.now == pytest.approx(expected, rel=1e-6)
        assert contended_cluster.fabric.idle

    def test_uplink_bottlenecks_many_senders(self, sim, contended_config):
        # 8 senders x 12.5 GB/s NIC into one 50 GB/s uplink: each flow
        # runs at the 6.25 GB/s uplink share.
        cluster = make_cluster(
            sim,
            ClusterSpec(islands=((8, 1), (8, 1)), name="wide"),
            config=contended_config,
        )
        transport = cluster.transport
        msgs = [
            transport.send(
                cluster.islands[0].hosts[i], cluster.islands[1].hosts[i], 10 * MB
            )
            for i in range(8)
        ]
        sim.run_until_triggered(sim.all_of(msgs))
        cfg = cluster.config
        expected = (
            10 * MB / (cfg.net_island_uplink_bytes_per_us / 8)
            + cfg.dcn_latency_us
        )
        assert sim.now == pytest.approx(expected, rel=1e-6)


class TestLoopbackStats:
    def test_loopback_counted_separately(self, sim, small_cluster):
        """Regression: loopbacks skip the network, so they must not
        inflate ``messages_sent``/``bytes_sent``."""
        dcn = small_cluster.transport
        host = small_cluster.hosts[0]
        other = small_cluster.hosts[1]
        ev = dcn.send(host, host, 1 * MB)
        assert ev.triggered  # instantaneous
        assert dcn.messages_sent == 0 and dcn.bytes_sent == 0
        assert dcn.loopback_messages == 1 and dcn.loopback_bytes == 1 * MB
        dcn.send(host, other, 100)
        assert dcn.messages_sent == 1 and dcn.bytes_sent == 100
        assert dcn.loopback_messages == 1


class TestUncontendedRouteLoss:
    def test_src_crash_mid_serialization_fails_and_frees_nic(
        self, sim, config, small_cluster
    ):
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        msg = dcn.send(a, b, 10 * MB)  # ~839us serialization
        outcome = {}

        def watcher():
            try:
                yield msg
            except MessageLost as exc:
                outcome["exc"] = exc

        def crasher():
            yield sim.timeout(100.0)
            a.crash()

        sim.process(watcher())
        sim.process(crasher())
        sim.run(detect_deadlock=False)
        assert isinstance(outcome["exc"], MessageLost)
        assert a.nic.in_use == 0 and a.nic.queue_len == 0  # no slot leaked
        assert dcn.messages_lost == 1

    def test_src_crash_fails_queued_send_without_leaking_grant(
        self, sim, config, small_cluster
    ):
        """The PR-3 pattern on the NIC: a crash while one send holds the
        NIC and another is queued must fail both and leave the NIC free."""
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        first = dcn.send(a, b, 10 * MB)
        second = dcn.send(a, b, 10 * MB)
        failures = []

        def watcher(ev):
            try:
                yield ev
            except MessageLost as exc:
                failures.append(exc)

        def crasher():
            yield sim.timeout(100.0)
            a.crash()

        sim.process(watcher(first))
        sim.process(watcher(second))
        sim.process(crasher())
        sim.run(detect_deadlock=False)
        assert len(failures) == 2
        assert a.nic.in_use == 0 and a.nic.queue_len == 0
        # After restore, the NIC serves new sends at full speed.
        a.restore()
        fresh = dcn.send(a, b, 1_250_000)
        start = sim.now
        sim.run_until_triggered(fresh)
        assert sim.now - start == pytest.approx(config.dcn_latency_us + 100.0)

    def test_src_crash_loses_queued_send_as_host_crash(self, sim, small_cluster):
        """A send queued behind a NIC holder that is not a message is
        lost by the crash listener's fail_in_flight, with its reason."""
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        a.nic.acquire(lambda: None)  # held by something not a message
        sim.timeout(100.0).add_callback(lambda ev: a.nic.release())
        msg = dcn.send(a, b, 1_250_000)
        sim.timeout(5.0).add_callback(lambda ev: a.crash())
        sim.run(detect_deadlock=False)
        assert dcn.stats().lost_by_reason == {"host-crash": 1}
        assert isinstance(msg._exc, MessageLost)
        assert msg._exc.reason == f"host crash: {a.name}"
        assert a.nic.in_use == 0 and a.nic.queue_len == 0

    def test_src_crash_during_propagation_still_delivers(
        self, sim, config, small_cluster
    ):
        """A message fully serialized out of the NIC is on the wire: the
        sender dying afterwards does not un-send it."""
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        msg = dcn.send(a, b, 1_250_000)  # 100us serialization + 40us wire

        def crasher():
            yield sim.timeout(120.0)  # after serialization, mid-propagation
            a.crash()

        sim.process(crasher())
        sim.run_until_triggered(msg)
        assert msg.ok
        assert sim.now == pytest.approx(140.0)

    def test_dst_crash_during_propagation_loses_message(
        self, sim, config, small_cluster
    ):
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        msg = dcn.send(a, b, 1_250_000)
        outcome = {}

        def watcher():
            try:
                yield msg
            except MessageLost as exc:
                outcome["exc"] = exc

        def crasher():
            yield sim.timeout(120.0)
            b.crash()

        sim.process(watcher())
        sim.process(crasher())
        sim.run(detect_deadlock=False)
        assert isinstance(outcome["exc"], MessageLost)
        assert a.nic.in_use == 0

    def test_send_to_dead_host_fails_fast(self, sim, config, small_cluster):
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        b.crash()
        msg = dcn.send(a, b, 100)
        assert msg.triggered and not msg.ok
        assert dcn.messages_lost == 1

    def test_delivery_timeout_aborts_and_frees_capacity(
        self, sim, config, small_cluster
    ):
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        msg = dcn.send(a, b, 10 * MB, timeout_us=50.0)  # needs ~879us
        outcome = {}

        def watcher():
            try:
                yield msg
            except MessageLost as exc:
                outcome["exc"] = exc

        sim.process(watcher())
        sim.run(detect_deadlock=False)
        assert "timeout" in str(outcome["exc"])
        assert a.nic.in_use == 0


class TestSettledMessageLeavesNoTimer:
    """A delivered message disarms its delivery timeout and its park
    deadline: neither stays queued as a no-op that keeps ``run()``
    going past the delivery."""

    @staticmethod
    def _deliver(sim, transport, src, dst, **kwargs):
        msg = transport.send(src, dst, 4096, **kwargs)
        delivered = []
        msg.add_callback(lambda ev: delivered.append(sim.now))
        return msg, delivered

    @pytest.mark.parametrize("contended", [False, True], ids=["fast", "fabric"])
    def test_delivery_timeout_is_cancelled(self, contended):
        sim = Simulator()
        cfg = DEFAULT_CONFIG.with_overrides(net_contention=contended)
        cluster = make_cluster(
            sim, ClusterSpec(islands=((2, 2),), name="net"), config=cfg
        )
        a, b = cluster.islands[0].hosts
        msg, delivered = self._deliver(
            sim, cluster.transport, a, b, timeout_us=1_000_000.0
        )
        end = sim.run()
        assert msg.ok and delivered == [pytest.approx(40.3, abs=0.05)]
        assert end == sim.now == delivered[0]
        assert sim.stats().pending_timers == 0

    def test_park_deadline_is_cancelled(self):
        sim = Simulator(sanitize=True)
        cfg = DEFAULT_CONFIG.with_overrides(
            net_contention=True, net_park_deadline_us=5_000_000.0
        )
        cluster = make_cluster(
            sim, ClusterSpec(islands=((2, 2), (2, 2)), name="net"), config=cfg
        )
        transport = cluster.transport
        transport.fail_link("spine")
        src, dst = cluster.islands[0].hosts[0], cluster.islands[1].hosts[0]
        msg, delivered = self._deliver(sim, transport, src, dst)
        restore = sim.timer_handle(lambda h: transport.restore_link("spine"))
        restore.schedule(183.6)
        end = sim.run()
        assert msg.ok and transport.stats().messages_parked == 1
        assert delivered == [pytest.approx(223.9, abs=0.05)]
        assert end == sim.now == delivered[0]
        assert sim.stats().pending_timers == 0


class TestReliableSend:
    def test_retransmit_resolves_after_restore(self, sim, config, small_cluster):
        """Host crash mid-transfer fails the message; retransmit after
        the restore delivers — and nothing leaks."""
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        done = dcn.send_reliable(a, b, 10 * MB, max_attempts=32)

        def churn_host():
            yield sim.timeout(100.0)  # mid-serialization
            b.crash()
            yield sim.timeout(2_000.0)
            b.restore()

        sim.process(churn_host())
        sim.run_until_triggered(done)
        assert done.value >= 2  # took at least one retransmit
        assert dcn.retransmits >= 1 and dcn.messages_lost >= 1
        assert dcn.messages_delivered == 1
        assert a.nic.in_use == 0 and a.nic.queue_len == 0

    def test_gives_up_after_max_attempts(self, sim, config, small_cluster):
        dcn = small_cluster.transport
        a, b = small_cluster.hosts[:2]
        b.crash()
        done = dcn.send_reliable(a, b, 100, max_attempts=3)
        outcome = {}

        def watcher():
            try:
                yield done
            except MessageLost as exc:
                outcome["exc"] = exc

        sim.process(watcher())
        sim.run(detect_deadlock=False)
        assert isinstance(outcome["exc"], MessageLost)
        assert dcn.retransmits == 3


def _reliable_run(send_reliable, contended, nbytes, timeout_us, max_attempts,
                  backoff, background, faults):
    """One reliable send from island 0 to island 1 behind ``background``
    plain sends from the same host, under endpoint crash/restore
    ``faults``; returns what the equivalence test compares."""
    config = DEFAULT_CONFIG.with_overrides(
        net_contention=contended, net_retransmit_backoff_us=backoff
    )
    sim = Simulator()
    cluster = make_cluster(
        sim, ClusterSpec(islands=((2, 1), (2, 1)), name="rel"), config=config
    )
    transport = cluster.transport
    src, dst = cluster.islands[0].hosts[0], cluster.islands[1].hosts[0]
    for who, at, down_for in faults:
        host = src if who == "src" else dst
        sim.timeout(at).add_callback(lambda ev, h=host: h.crash())
        sim.timeout(at + down_for).add_callback(lambda ev, h=host: h.restore())
    for _ in range(background):
        transport.send(src, dst, nbytes)
    done = send_reliable(
        transport, src, dst, nbytes, timeout_us=timeout_us, max_attempts=max_attempts
    )
    settled = []

    def record(ev):
        outcome = ev._value if ev._exc is None else ev._exc.category
        settled.append((sim.now, ev._exc is None, outcome))

    done.add_callback(record)
    sim.run()
    return settled, transport.retransmits, dict(transport.lost_by_reason)


class TestReliableSendChain:
    """The callback chain of ``Transport.send_reliable`` against the
    generator it replaced (``oracles.send_reliable``).  Crashes start at
    1us or later: a crash at the call instant would run before the
    generator's first send (its process starts one loop entry later)
    but after the chain's."""

    @settings(max_examples=60, deadline=None)
    @given(
        contended=st.booleans(),
        nbytes=st.integers(min_value=1, max_value=8 * MB),
        timeout_us=st.one_of(st.none(), st.floats(min_value=20.0, max_value=3_000.0)),
        max_attempts=st.integers(min_value=1, max_value=5),
        backoff=st.sampled_from([0.0, 150.0, 500.0]),
        background=st.integers(min_value=0, max_value=2),
        faults=st.lists(
            st.tuples(
                st.sampled_from(["src", "dst"]),
                st.floats(min_value=1.0, max_value=3_000.0),
                st.floats(min_value=1.0, max_value=2_000.0),
            ),
            max_size=3,
        ),
    )
    def test_chain_matches_generator(self, **draw):
        chain = _reliable_run(Transport.send_reliable, **draw)
        assert chain == _reliable_run(oracles.send_reliable, **draw)
        assert chain[0], "the reliable send never settled"


class TestContendedRouteLoss:
    def test_crash_mid_flow_releases_every_hop(self, sim, contended_cluster):
        transport = contended_cluster.transport
        fabric = contended_cluster.fabric
        src = contended_cluster.islands[0].hosts[0]
        dst = contended_cluster.islands[1].hosts[0]
        msg = transport.send(src, dst, 100 * MB)
        # Shares the route at half rate (~1678us): in flight at the crash.
        trailing = transport.send(src, dst, 10 * MB)
        outcome = {}

        def watcher():
            try:
                yield msg
            except MessageLost as exc:
                outcome["exc"] = exc

        def crasher():
            yield sim.timeout(500.0)
            src.crash()

        sim.process(watcher())
        sim.process(crasher())
        sim.run(detect_deadlock=False)
        assert isinstance(outcome["exc"], MessageLost)
        assert isinstance(trailing._exc, MessageLost)
        assert fabric.idle and fabric.active_flows == 0


def _cross_island_program(system, elems=1 << 22):
    """A two-node program whose edge crosses islands over the DCN."""
    client = system.client("tenant")
    devs_a = system.make_virtual_device_set().add_slice(tpu_devices=2, island_id=0)
    devs_b = system.make_virtual_device_set().add_slice(tpu_devices=2, island_id=1)
    spec = TensorSpec((elems,))
    fa = client.wrap(
        CompiledFunction("fa", (spec,), (spec,), fn=None, n_shards=2,
                         duration_us=100.0),
        devices=devs_a,
    )
    fb = client.wrap(
        CompiledFunction("fb", (spec,), (spec,), fn=None, n_shards=2,
                         duration_us=100.0),
        devices=devs_b,
    )

    @client.program
    def f(v):
        return (fb(fa(v)),)

    arr = np.zeros(elems, dtype=np.float32)
    return client, f.trace(arr), arr


class TestDispatchRouteLossRecovery:
    """The ROADMAP item: DCN route loss on host crash feeds retry_on_failure."""

    def _crash_time(self):
        # The producer's 16 MiB DCN transfer runs ~1584..2966us (compute
        # + dispatch before, ~1342us serialization + latency); crash
        # squarely inside it.
        return 2_000.0

    def test_in_flight_transfer_loss_replays_and_completes(self):
        system = PathwaysSystem.build(
            ClusterSpec(islands=((2, 2), (2, 2)), name="loss")
        )
        recovery = RecoveryManager(system, detection_us=100.0)
        client, program, arr = _cross_island_program(system)
        low = client.lower(program)
        dcn_edges = [
            spec
            for node in low.nodes
            for spec in node.incoming
            if spec.route.value == "dcn"
        ]
        assert dcn_edges, "program must actually cross islands"
        src_host = low.nodes[0].group.hosts[0]
        FaultInjector(
            recovery,
            FaultSchedule().host_crash(
                self._crash_time(), src_host.host_id, repair_us=5_000.0
            ),
        )
        execution = client.submit(
            program, (arr,), compute_values=False, retry_on_failure=True
        )
        system.sim.run_until_triggered(execution.done)
        assert execution.done.ok
        assert system.transport.messages_lost >= 1
        assert recovery.messages_lost >= 1
        assert execution.attempts >= 2  # the lost node really replayed
        # Nothing stranded on any NIC.
        assert all(h.nic.in_use == 0 for h in system.cluster.hosts)

    def test_loss_without_retry_surfaces_fault(self):
        system = PathwaysSystem.build(
            ClusterSpec(islands=((2, 2), (2, 2)), name="loss2")
        )
        RecoveryManager(system, detection_us=100.0)
        client, program, arr = _cross_island_program(system)
        low = client.lower(program)
        src_host = low.nodes[0].group.hosts[0]

        def crasher():
            yield system.sim.timeout(self._crash_time())
            src_host.crash()

        system.sim.process(crasher())
        execution = client.submit(program, (arr,), compute_values=False)
        outcome = {}

        def watcher():
            try:
                yield execution.done
            except Exception as exc:  # noqa: BLE001
                outcome["exc"] = exc

        system.sim.process(watcher())
        system.sim.run(detect_deadlock=False)
        from repro.faults import unwrap_fault

        assert unwrap_fault(outcome["exc"]) is not None

    def test_contended_transfer_loss_also_recovers(self):
        system = PathwaysSystem.build(
            ClusterSpec(islands=((2, 2), (2, 2)), name="loss3"),
            config=DEFAULT_CONFIG.with_overrides(net_contention=True),
        )
        recovery = RecoveryManager(system, detection_us=100.0)
        client, program, arr = _cross_island_program(system)
        low = client.lower(program)
        src_host = low.nodes[0].group.hosts[0]
        FaultInjector(
            recovery,
            FaultSchedule().host_crash(
                self._crash_time(), src_host.host_id, repair_us=5_000.0
            ),
        )
        execution = client.submit(
            program, (arr,), compute_values=False, retry_on_failure=True
        )
        system.sim.run_until_triggered(execution.done)
        assert execution.done.ok
        assert system.transport.messages_lost >= 1
        assert system.cluster.fabric.idle  # no link capacity leaked


class TestDeterminism:
    def test_contended_send_schedule_is_deterministic(self):
        def run():
            sim = Simulator(log_schedule=True)
            cluster = make_cluster(
                sim,
                ClusterSpec(islands=((2, 2), (2, 2)), name="det"),
                config=DEFAULT_CONFIG.with_overrides(net_contention=True),
            )
            transport = cluster.transport
            src = cluster.islands[0].hosts
            dst = cluster.islands[1].hosts
            msgs = [
                transport.send(src[i % 2], dst[(i + 1) % 2], (i + 1) * MB)
                for i in range(6)
            ]
            sim.run_until_triggered(sim.all_of(msgs))
            return sim.now, list(sim.schedule_log)

        assert run() == run()


class TestReviewRegressions:
    """Regression coverage for the review findings on this layer."""

    def test_contended_message_on_wire_survives_src_crash(
        self, sim, contended_cluster
    ):
        """A contended message whose flow fully drained (propagating)
        must deliver despite a sender crash — matching the uncontended
        on-the-wire semantics."""
        transport = contended_cluster.transport
        src = contended_cluster.islands[0].hosts[0]
        dst = contended_cluster.islands[1].hosts[0]
        msg = transport.send(src, dst, 1_250_000)  # 100us flow + 40us wire

        def crasher():
            yield sim.timeout(120.0)  # flow done, mid-propagation
            src.crash()

        sim.process(crasher())
        sim.run_until_triggered(msg)
        assert msg.ok
        assert transport.messages_lost == 0


def _utilization(fabric) -> dict[str, float]:
    """Each uplink's busy fraction over the trailing window, by name
    (uplinks are the only links that keep a busy log)."""
    return {
        link.name: link.busy_fraction()
        for link in fabric.links() if isinstance(link, Uplink)
    }


class TestUtilizationSnapshot:
    """Uplink busy fractions and the Transport.stats snapshot (the
    autoscaler's signal, seeding congestion-aware placement)."""

    def test_idle_fabric_reports_zero(self, contended_cluster):
        fabric = contended_cluster.fabric
        src = contended_cluster.islands[0].hosts[0]
        dst = contended_cluster.islands[1].hosts[0]
        fabric.route(src, dst)  # materialize the links
        util = _utilization(fabric)
        assert util and all(v == 0.0 for v in util.values())

    def test_saturated_uplink_reports_full(self, sim, contended_config):
        cluster = make_cluster(
            sim, ClusterSpec(islands=((2, 2), (2, 2)), name="net"),
            config=contended_config,
        )
        transport = cluster.transport
        src = cluster.islands[0].hosts[0]
        dst = cluster.islands[1].hosts[0]

        def sender():
            for _ in range(8):
                yield transport.send(src, dst, 8 * MB)

        proc = sim.process(sender())
        sim.run_until_triggered(proc)
        # Back-to-back flows kept the route busy essentially the whole
        # window; the uplink busy fraction reflects it.
        assert cluster.fabric.uplink_utilization(0) > 0.9
        util = _utilization(cluster.fabric)
        assert util["uplink_tx[i0]"] > 0.9
        # The receiving island's uplink_rx carried the same bytes...
        assert util["uplink_rx[i1]"] > 0.9
        # ...but its egress uplink saw no traffic and stays idle.
        assert cluster.fabric.uplink_tx(1).busy_fraction() == 0.0
        assert cluster.fabric.uplink_utilization(1) > 0.9  # rx side

    def test_sliding_window_forgets_old_traffic(
        self, sim, contended_config, monkeypatch
    ):
        monkeypatch.setattr(fabric_module, "UTIL_WINDOW_US", 10_000.0)
        cluster = make_cluster(
            sim, ClusterSpec(islands=((2, 2), (2, 2)), name="net"),
            config=contended_config,
        )
        transport = cluster.transport
        a = cluster.islands[0].hosts[0]
        b = cluster.islands[1].hosts[0]

        def sender():
            yield transport.send(a, b, 8 * MB)  # ~671us of NIC time

        proc = sim.process(sender())
        sim.run_until_triggered(proc)
        busy_now = cluster.fabric.uplink_tx(0).busy_fraction()
        assert busy_now > 0.5
        # Long after the transfer the window has slid past it entirely.
        sim.process(_idle(sim))
        sim.run()
        assert cluster.fabric.uplink_tx(0).busy_fraction() == 0.0

    def test_transport_stats_snapshot(self, sim, contended_config):
        cluster = make_cluster(
            sim, ClusterSpec(islands=((2, 2), (2, 2)), name="net"),
            config=contended_config,
        )
        transport = cluster.transport
        src = cluster.islands[0].hosts[0]
        dst = cluster.islands[1].hosts[0]

        def sender():
            yield transport.send(src, dst, 1 * MB)
            transport.send(src, src, 64)  # loopback
            yield transport.send(dst, src, 1 * MB)

        proc = sim.process(sender())
        sim.run_until_triggered(proc)
        stats = transport.stats()
        assert stats.messages_sent == 2
        assert stats.messages_delivered == 2
        assert stats.bytes_delivered == 2 * MB
        assert stats.loopback_messages == 1
        assert stats.in_flight == 0
        assert stats.messages_lost == 0
        util = _utilization(cluster.fabric)
        assert 0.0 < max(util.values()) <= 1.0
        assert sorted(util) == [
            "uplink_rx[i0]", "uplink_rx[i1]", "uplink_tx[i0]", "uplink_tx[i1]",
        ]

    def test_stats_track_in_flight(self, sim, contended_config):
        cluster = make_cluster(
            sim, ClusterSpec(islands=((2, 2),), name="net"),
            config=contended_config,
        )
        transport = cluster.transport
        a, b = cluster.islands[0].hosts
        transport.send(a, b, 8 * MB)
        seen = {}

        def probe():
            yield sim.timeout(10.0)
            seen["stats"] = transport.stats()

        proc = sim.process(probe())
        sim.run_until_triggered(proc)
        assert seen["stats"].in_flight == 1
        sim.run()
        assert transport.stats().in_flight == 0


def _idle(sim):
    yield sim.timeout(50_000.0)
