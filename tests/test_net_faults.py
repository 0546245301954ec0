"""Partial-fabric fault tolerance: link faults, ECMP, reroute, park.

The tentpole properties of the survivable fabric:

* link faults are first-class — take-down evicts every crossing flow
  with *exact* capacity release (a downed link holds zero capacity by
  construction and is sanitizer-exempt until restore);
* ``spine_paths > 1`` hashes flows across parallel spine links with a
  seeded CRC (never ``id()``/``hash()``), and a path failure rehashes
  surviving flows onto the remaining paths with their progress intact;
* only *endpoint NIC* death loses a message; a dead middle hop reroutes
  or — with zero surviving paths — parks the flow until a restore (or
  its park deadline);
* the resilience layer delivers ``LINK_DOWN``/``LINK_RESTORE`` through
  the same ``FaultSchedule``/``FaultInjector``/``RecoveryManager``
  machinery as host and device faults.
"""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.resource_manager import ResourceManager
from repro.core.system import PathwaysSystem
from repro.core.virtual_device import VirtualSlice
from repro.hw.cluster import ClusterSpec, make_cluster
from repro.net import MessageLost
from repro.resilience import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    RecoveryManager,
)
from repro.sim import DeadlockError, Simulator, UnsettledWaitersError

TWIN = ClusterSpec(islands=((2, 4), (2, 4)), name="twin")


def _twin(spine_paths=2, sanitize=True, **overrides):
    """A contended two-island cluster and its transport."""
    cfg = DEFAULT_CONFIG.with_overrides(
        net_contention=True,
        spine_paths=spine_paths,
        **overrides,
    )
    sim = Simulator(sanitize=sanitize)
    cluster = make_cluster(sim, TWIN, config=cfg)
    return sim, cluster, cluster.transport


def _endpoints(cluster):
    return cluster.islands[0].hosts[0], cluster.islands[1].hosts[0]


class TestLinkPrimitives:
    def test_link_by_name_resolves_every_tier(self):
        sim, cluster, _ = _twin(spine_paths=2)
        fabric = cluster.fabric
        for name in (
            "nic_tx[h0]", "nic_rx[h3]", "uplink_tx[i0]", "uplink_rx[i1]",
            "spine[p0]", "spine[p1]",
        ):
            assert fabric.link_by_name(name).name == name

    def test_link_by_name_rejects_unknown(self):
        sim, cluster, _ = _twin(spine_paths=2)
        with pytest.raises(KeyError):
            cluster.fabric.link_by_name("backbone[x3]")
        with pytest.raises(KeyError):
            cluster.fabric.link_by_name("spine[p7]")  # out of range

    def test_single_path_spine_keeps_historical_name(self):
        sim, cluster, _ = _twin(spine_paths=1)
        fabric = cluster.fabric
        assert fabric.spine.name == "spine"
        assert fabric.link_by_name("spine") is fabric.spine

    def test_take_down_is_idempotent_and_restore_roundtrips(self):
        sim, cluster, _ = _twin(spine_paths=2)
        fabric = cluster.fabric
        link = fabric.link_by_name("spine[p0]")
        assert fabric.take_down(link) == []
        assert not link.up
        assert fabric.take_down(link) == []  # already down: no-op
        assert [x for x in fabric.links() if not x.up] == [link]
        assert fabric.restore_link(link)
        assert link.up
        assert not fabric.restore_link(link)  # not down: no-op

    def test_down_link_is_exempt_from_busy_links(self):
        sim, cluster, transport = _twin(spine_paths=1)
        src, dst = _endpoints(cluster)
        transport.send(src, dst, 1 << 20)
        sim.run(until=10.0)
        fabric = cluster.fabric
        assert not fabric.idle
        transport.fail_link("spine")  # flow parks; spine evicted exactly
        assert all(l.name != "spine" for l in fabric.busy_links())
        transport.restore_link("spine")
        sim.run()
        assert fabric.idle


class TestEcmpRouting:
    def test_path_choice_is_deterministic(self):
        sim, cluster, _ = _twin(spine_paths=4)
        fabric = cluster.fabric
        src, dst = _endpoints(cluster)
        picks = [fabric.spine_path(src, dst, seq).name for seq in range(64)]
        again = [fabric.spine_path(src, dst, seq).name for seq in range(64)]
        assert picks == again

    def test_flows_spread_across_paths(self):
        sim, cluster, _ = _twin(spine_paths=4)
        fabric = cluster.fabric
        src, dst = _endpoints(cluster)
        used = {fabric.spine_path(src, dst, seq).name for seq in range(64)}
        assert used == {"spine[p0]", "spine[p1]", "spine[p2]", "spine[p3]"}

    def test_ecmp_seed_changes_the_hash(self):
        sim1, cl1, _ = _twin(spine_paths=4)
        sim2, cl2, _ = _twin(spine_paths=4, net_ecmp_seed=99)
        picks1 = [
            cl1.fabric.spine_path(*_endpoints(cl1), seq).name
            for seq in range(64)
        ]
        picks2 = [
            cl2.fabric.spine_path(*_endpoints(cl2), seq).name
            for seq in range(64)
        ]
        assert picks1 != picks2

    def test_failed_path_rehashes_onto_survivors(self):
        sim, cluster, _ = _twin(spine_paths=2)
        fabric = cluster.fabric
        src, dst = _endpoints(cluster)
        fabric.take_down(fabric.link_by_name("spine[p0]"))
        assert all(
            fabric.spine_path(src, dst, seq).name == "spine[p1]"
            for seq in range(32)
        )

    def test_route_is_none_only_with_no_surviving_path(self):
        sim, cluster, _ = _twin(spine_paths=2)
        fabric = cluster.fabric
        src, dst = _endpoints(cluster)
        fabric.take_down(fabric.link_by_name("spine[p0]"))
        assert fabric.route(src, dst, 0) is not None
        fabric.take_down(fabric.link_by_name("spine[p1]"))
        assert fabric.route(src, dst, 0) is None
        fabric.restore_link(fabric.link_by_name("spine[p1]"))
        fabric.take_down(fabric.link_by_name("uplink_tx[i0]"))
        assert fabric.route(src, dst, 0) is None

    def test_down_endpoint_nic_still_returns_a_route(self):
        # Whether a dead NIC loses the message is the transport's call.
        sim, cluster, _ = _twin(spine_paths=2)
        fabric = cluster.fabric
        src, dst = _endpoints(cluster)
        fabric.take_down(fabric.link_by_name(f"nic_rx[h{dst.host_id}]"))
        assert fabric.route(src, dst, 0) is not None


class TestRerouteOnFailure:
    def test_fluid_reroute_keeps_remaining_bytes(self):
        """A rerouted fluid flow resumes with its progress intact: total
        delivery time matches one uninterrupted serialization, not a
        restart from byte zero."""
        sim, cluster, transport = _twin(spine_paths=2)
        src, dst = _endpoints(cluster)
        nbytes = 10 << 20
        cfg = transport.config
        serialize_us = nbytes / cfg.dcn_bytes_per_us  # NIC is the bottleneck
        msg = transport.send(src, dst, nbytes)
        victim_path = None

        def drill():
            yield sim.timeout(serialize_us / 2)
            nonlocal victim_path
            victim_path = msg.route[2].name
            assert transport.fail_link(victim_path) == 1

        sim.process(drill())
        sim.run()
        assert msg.triggered and msg._exc is None
        assert transport.reroutes == 1 and msg.reroutes == 1
        assert msg.route[2].name != victim_path
        # Uninterrupted cost + latency; a restart would pay ~1.5x.
        expected = serialize_us + cfg.dcn_latency_us
        assert sim.now == pytest.approx(expected, rel=0.01)
        assert cluster.fabric.idle

    def test_every_spine_down_parks_then_resumes_remaining_bytes(self):
        """Both spine paths die mid-flow: every flow parks, then resumes
        on the restored path with its progress intact."""
        sim, cluster, transport = _twin(spine_paths=2)
        src, dst = _endpoints(cluster)
        nbytes = 4 << 20
        msgs = [transport.send(src, dst, nbytes) for _ in range(4)]

        def drill():
            yield sim.timeout(400.0)
            transport.fail_link("spine[p0]")
            transport.fail_link("spine[p1]")
            yield sim.timeout(2_000.0)
            transport.restore_link("spine[p1]")

        sim.process(drill())
        sim.run_until_triggered(sim.all_of(msgs))
        assert all(m._exc is None for m in msgs)
        s = transport.stats()
        assert s.messages_lost == 0 and s.messages_parked == 4
        assert cluster.fabric.idle
        # Four flows split the NICs; 400us of progress survives the park.
        cfg = transport.config
        serialize_us = 4 * nbytes / cfg.dcn_bytes_per_us
        expected = 2_400.0 + (serialize_us - 400.0) + cfg.dcn_latency_us
        assert sim.now == pytest.approx(expected, rel=1e-9)

    def test_flows_on_healthy_paths_are_undisturbed(self):
        sim, cluster, transport = _twin(spine_paths=2)
        src, dst = _endpoints(cluster)
        msgs = [transport.send(src, dst, 4 << 20) for _ in range(8)]

        def drill():
            yield sim.timeout(100.0)
            transport.fail_link("spine[p1]")

        sim.process(drill())
        sim.run()
        assert all(m.triggered and m._exc is None for m in msgs)
        survivors = [m for m in msgs if m.reroutes == 0]
        moved = [m for m in msgs if m.reroutes > 0]
        # The hash split the flows, so only the dead path's flows moved.
        assert survivors and moved
        assert transport.reroutes == len(moved)


class TestParkAndRestore:
    def test_parks_until_restore_then_delivers(self):
        sim, cluster, transport = _twin(spine_paths=1)
        src, dst = _endpoints(cluster)
        msg = transport.send(src, dst, 1 << 20)

        def drill():
            yield sim.timeout(10.0)
            transport.fail_link("spine")
            yield sim.timeout(5_000.0)
            assert transport.stats().parked_now == 1
            transport.restore_link("spine")

        sim.process(drill())
        sim.run()
        assert msg.triggered and msg._exc is None
        s = transport.stats()
        assert s.messages_parked == 1 and s.parked_now == 0
        assert s.messages_lost == 0
        assert cluster.fabric.idle

    def test_send_with_no_path_parks_immediately(self):
        sim, cluster, transport = _twin(spine_paths=1)
        src, dst = _endpoints(cluster)
        transport.fail_link("spine")
        msg = transport.send(src, dst, 1 << 20)
        observed = {}

        def drill():
            yield sim.timeout(100.0)
            observed["parked"] = transport.stats().parked_now
            observed["triggered"] = msg.triggered
            transport.restore_link("spine")

        sim.process(drill())
        sim.run()
        assert observed == {"parked": 1, "triggered": False}
        assert msg.triggered and msg._exc is None

    def test_park_deadline_loses_with_typed_category(self):
        sim, cluster, transport = _twin(
            spine_paths=1, net_park_deadline_us=2_000.0
        )
        src, dst = _endpoints(cluster)
        transport.fail_link("spine")
        msg = transport.send(src, dst, 1 << 20)
        sim.run()
        assert isinstance(msg._exc, MessageLost)
        assert msg._exc.category == "park-deadline"
        assert transport.stats().lost_by_reason == {"park-deadline": 1}

    def test_zero_deadline_parks_forever(self):
        sim, cluster, transport = _twin(spine_paths=1, net_park_deadline_us=0.0)
        src, dst = _endpoints(cluster)
        transport.fail_link("spine")
        msg = transport.send(src, dst, 1 << 20)
        observed = {}

        def drill():
            # Far past the default deadline: with 0 there is none.
            yield sim.timeout(10_000_000.0)
            observed["parked"] = transport.stats().parked_now
            observed["triggered"] = msg.triggered
            transport.restore_link("spine")

        sim.process(drill())
        sim.run()
        assert observed == {"parked": 1, "triggered": False}
        assert msg.triggered and msg._exc is None

    def test_repark_gets_a_fresh_deadline(self):
        """The park-token guard: a restore-then-refail cycle must not let
        the first episode's stale deadline kill the second episode."""
        deadline = 2_000.0
        sim, cluster, transport = _twin(
            spine_paths=1, net_park_deadline_us=deadline
        )
        src, dst = _endpoints(cluster)
        transport.fail_link("spine")
        msg = transport.send(src, dst, 64 << 20)  # slow enough to refail

        def drill():
            # Restore just before the first deadline, refail mid-flight,
            # then restore again inside the *second* episode's window.
            yield sim.timeout(deadline * 0.9)
            transport.restore_link("spine")
            yield sim.timeout(deadline * 0.2)
            transport.fail_link("spine")
            yield sim.timeout(deadline * 0.5)
            transport.restore_link("spine")

        sim.process(drill())
        sim.run()
        assert msg.triggered and msg._exc is None
        assert transport.stats().messages_parked == 2


class TestEndpointRule:
    def test_dead_endpoint_nic_loses_the_message(self):
        sim, cluster, transport = _twin(spine_paths=2)
        src, dst = _endpoints(cluster)
        msg = transport.send(src, dst, 8 << 20)

        def drill():
            yield sim.timeout(50.0)
            transport.fail_link(f"nic_rx[h{dst.host_id}]")

        sim.process(drill())
        sim.run()
        assert isinstance(msg._exc, MessageLost)
        assert msg._exc.category == "link-down"
        assert transport.stats().lost_by_reason == {"link-down": 1}
        assert cluster.fabric.idle

    def test_send_into_dead_nic_loses_immediately_after_dispatch(self):
        sim, cluster, transport = _twin(spine_paths=2)
        src, dst = _endpoints(cluster)
        transport.fail_link(f"nic_tx[h{src.host_id}]")
        msg = transport.send(src, dst, 1 << 20)
        sim.run()
        assert isinstance(msg._exc, MessageLost)
        assert msg._exc.category == "link-down"

    def test_loss_categories_are_typed(self):
        sim, cluster, transport = _twin(spine_paths=1)
        src, dst = _endpoints(cluster)
        inflight = transport.send(src, dst, 8 << 20)

        def drill():
            yield sim.timeout(50.0)
            dst.crash()  # in-flight loss: "host-crash"
            at_send = transport.send(src, dst, 1 << 20)
            assert at_send._exc.category == "endpoint-down"

        sim.process(drill())
        sim.run()
        assert inflight._exc.category == "host-crash"
        by = transport.stats().lost_by_reason
        assert by == {"host-crash": 1, "endpoint-down": 1}


class TestFaultScheduleLinks:
    def test_builders_and_validation(self):
        sched = (
            FaultSchedule()
            .link_down(100.0, "spine[p0]", repair_us=50.0)
            .link_restore(500.0, "uplink_tx[i0]")
        )
        assert len(sched) == 2
        assert sched.events[0].kind is FaultKind.LINK_DOWN
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.LINK_DOWN)  # no link name
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.HOST_CRASH, 1, link="spine")


class TestInjectorAndRecovery:
    def _system(self, **overrides):
        cfg = DEFAULT_CONFIG.with_overrides(
            net_contention=True, spine_paths=2, **overrides
        )
        system = PathwaysSystem.build(TWIN, config=cfg)
        return system, RecoveryManager(system, detection_us=200.0)

    def test_injector_delivers_link_faults(self):
        system, recovery = self._system()
        transport = system.transport
        src = system.cluster.islands[0].hosts[0]
        dst = system.cluster.islands[1].hosts[0]
        msgs = [transport.send(src, dst, 8 << 20) for _ in range(6)]
        FaultInjector(
            recovery,
            FaultSchedule().link_down(200.0, "spine[p0]", repair_us=5_000.0),
        )
        system.sim.run()
        assert all(m.triggered and m._exc is None for m in msgs)
        stats = recovery.stats()
        assert stats.link_faults == 1
        assert stats.repairs == 1  # the scheduled restore
        assert stats.epoch == 1
        assert transport.reroutes > 0
        assert system.cluster.fabric.idle

    def test_direct_link_restore_event(self):
        system, recovery = self._system()
        schedule = (
            FaultSchedule()
            .link_down(100.0, "spine[p0]")  # permanent until...
            .link_restore(4_000.0, "spine[p0]")  # ...explicit restore
        )
        FaultInjector(recovery, schedule)
        system.sim.run()
        assert recovery.stats().link_faults == 1
        assert recovery.stats().repairs == 1
        assert system.cluster.fabric.link_by_name("spine[p0]").up


class TestSanitizerWithLinkFaults:
    def test_mid_flow_link_down_drains_clean(self):
        """REPRO_SIM_SANITIZE semantics: a mid-flow spine LINK_DOWN (with
        its reroute and park traffic) must drain with no
        LeakedCapacityError / UnbalancedGrantError — downed links hold
        zero capacity and are exempt until restore."""
        sim, cluster, transport = _twin(spine_paths=2, sanitize=True)
        assert sim.sanitize and sim.sanitizer is not None
        src, dst = _endpoints(cluster)
        msgs = [transport.send(src, dst, 8 << 20) for _ in range(6)]

        def drill():
            yield sim.timeout(300.0)
            transport.fail_link("spine[p0]")
            yield sim.timeout(2_000.0)
            transport.fail_link("spine[p1]")  # now everything parks
            yield sim.timeout(2_000.0)
            transport.restore_link("spine[p1]")

        sim.process(drill())
        sim.run()  # the sanitizer's drain-end sweep runs here
        assert all(m.triggered and m._exc is None for m in msgs)
        assert cluster.fabric.idle

    def test_never_restored_link_is_not_a_leak(self):
        sim, cluster, transport = _twin(spine_paths=2, sanitize=True)
        src, dst = _endpoints(cluster)
        msg = transport.send(src, dst, 4 << 20)

        def drill():
            yield sim.timeout(100.0)
            transport.fail_link("spine[p0]")
            transport.fail_link("spine[p1]")
            yield sim.timeout(1_000.0)
            transport.restore_link("spine[p0]")
            # spine[p1] stays down through the drain-end sweep.

        sim.process(drill())
        sim.run()
        assert msg.triggered and msg._exc is None
        assert not cluster.fabric.link_by_name("spine[p1]").up


class TestTraversalFaultPaths:
    """Fault paths of the contended send's state machine: park, crash,
    timeout, simultaneous take-downs, and the zero-byte flow."""

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_message_parked_forever_is_a_deadlock(self, sanitize):
        """With no park deadline and no restore, the parked send is the
        one blocked entry the deadlock check names."""
        sim, cluster, transport = _twin(
            spine_paths=1, sanitize=sanitize, net_park_deadline_us=0.0
        )
        src, dst = _endpoints(cluster)
        transport.fail_link("spine")
        msg = transport.send(src, dst, 1 << 20)
        with pytest.raises(DeadlockError) as err:
            sim.run()
        assert [entry.name for entry in err.value.blocked] == [f"send {msg.name}"]
        assert msg.name == "msg#1 h0->h2"

    def test_stranded_message_reported_once_by_name(self):
        """The drain-end sweep lists a stranded message once (it is
        tracked under both endpoints) and by name."""
        sim, cluster, transport = _twin(
            spine_paths=1, sanitize=True, net_park_deadline_us=0.0
        )
        src, dst = _endpoints(cluster)
        transport.fail_link("spine")
        first = transport.send(src, dst, 1 << 20)
        second = transport.send(dst, src, 1 << 20)
        with pytest.raises(UnsettledWaitersError) as err:
            sim.run(detect_deadlock=False)
        assert (
            "transport drained with 2 in-flight message(s) neither delivered "
            f"nor failed: {first.name}, {second.name}"
        ) in str(err.value)
        assert transport.stats().in_flight == 2

    def test_host_crash_while_parked_loses_for_good(self):
        sim, cluster, transport = _twin(spine_paths=1)
        src, dst = _endpoints(cluster)
        transport.fail_link("spine")
        msg = transport.send(src, dst, 1 << 20)
        observed = {}

        def drill():
            yield sim.timeout(100.0)
            dst.crash()
            yield sim.timeout(100.0)
            observed["parked"] = transport.stats().parked_now
            assert transport.restore_link("spine")

        sim.process(drill())
        sim.run()
        assert observed == {"parked": 0}
        assert isinstance(msg._exc, MessageLost)
        assert msg._exc.category == "host-crash"
        s = transport.stats()
        assert s.lost_by_reason == {"host-crash": 1}
        assert s.messages_parked == 1 and s.parked_now == 0
        assert s.messages_delivered == 0 and s.in_flight == 0
        assert cluster.fabric.active_flows == 0

    def test_delivery_timeout_fires_while_parked(self):
        sim, cluster, transport = _twin(spine_paths=1)
        src, dst = _endpoints(cluster)
        transport.fail_link("spine")
        msg = transport.send(src, dst, 1 << 20, timeout_us=500.0)
        lost_at = []
        msg.add_callback(lambda ev: lost_at.append(sim.now))

        def drill():
            yield sim.timeout(1_000.0)
            transport.restore_link("spine")

        sim.process(drill())
        sim.run()
        assert lost_at == [500.0]
        assert msg._exc.category == "timeout"
        s = transport.stats()
        assert s.lost_by_reason == {"timeout": 1}
        assert s.messages_parked == 1 and s.parked_now == 0
        assert s.messages_delivered == 0
        assert cluster.fabric.stats().flows_started == 0

    def test_two_links_down_at_one_instant(self):
        """Two spine paths fail in one instant: each take-down's victims
        reroute after both are down, all onto the last path."""
        sim, cluster, transport = _twin(spine_paths=3)
        a, b = cluster.islands[0].hosts, cluster.islands[1].hosts
        msgs = [
            transport.send(a[i % 2], b[(i // 2) % 2], (2 + i) << 20)
            for i in range(8)
        ]
        done = {}
        for i, msg in enumerate(msgs):
            msg.add_callback(lambda ev, i=i: done.setdefault(i, sim.now))

        def drill():
            yield sim.timeout(300.0)
            transport.fail_link("spine[p0]")
            transport.fail_link("spine[p1]")

        sim.process(drill())
        sim.run()
        assert [m.reroutes for m in msgs] == [0, 0, 1, 1, 1, 1, 1, 0]
        assert transport.reroutes == 5
        assert {m.route[2].name for m in msgs} == {"spine[p2]"}
        assert [done[i] for i in range(8)] == [
            711.0886399999999, 1046.63296, 1382.17728, 1633.83552,
            1605.8734933333333, 1913.4557866666667, 2137.152,
            2221.0380800000003,
        ]
        assert transport.stats().messages_lost == 0
        assert cluster.fabric.idle

    def test_zero_byte_send_pays_only_latency(self):
        sim, cluster, transport = _twin(spine_paths=2)
        src, dst = _endpoints(cluster)
        msg = transport.send(src, dst, 0)
        sim.run()
        assert msg.ok and msg.on_wire
        assert sim.now == transport.config.dcn_latency_us
        s = transport.stats()
        assert s.messages_delivered == 1 and s.bytes_delivered == 0
        assert cluster.fabric.stats().flows_started == 0
        assert cluster.fabric.idle


class TestPickIslandDeterminism:
    def test_equal_islands_bind_in_id_order(self):
        """Two same-capacity islands: the bind lands on the lower island
        id regardless of registration-dict history."""
        sim = Simulator()
        cluster = make_cluster(sim, TWIN, config=DEFAULT_CONFIG)
        rm = ResourceManager(sim, cluster, DEFAULT_CONFIG)
        # Scramble registration history: island 0 registered last.
        rm._islands = {1: rm._islands[1], 0: rm._islands[0]}
        assert list(rm._islands) == [1, 0]  # dict order is scrambled...
        group = rm.bind_slice(VirtualSlice(4))
        assert group.island.island_id == 0  # ...but the pick is not

    def test_round_robin_alternates_on_quiet_fabric(self):
        sim = Simulator()
        cluster = make_cluster(sim, TWIN, config=DEFAULT_CONFIG)
        rm = ResourceManager(sim, cluster, DEFAULT_CONFIG)
        picks = [rm.bind_slice(VirtualSlice(2)).island.island_id
                 for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_busy_uplink_repels_new_binds(self):
        """The congestion-aware half: islands 0 and 2 carry cross-island
        traffic on their uplinks, so the next bind prefers island 1 even
        though round-robin (and id order) would pick island 0."""
        cfg = DEFAULT_CONFIG.with_overrides(net_contention=True)
        spec = ClusterSpec(islands=((2, 4),) * 3, name="triple")
        sim = Simulator()
        cluster = make_cluster(sim, spec, config=cfg)
        rm = ResourceManager(sim, cluster, cfg)
        transport = cluster.transport
        src = cluster.islands[0].hosts[0]
        dst = cluster.islands[2].hosts[1]
        transport.send(src, dst, 32 << 20)  # uplinks of islands 0 and 2
        sim.run(until=500.0)
        assert cluster.fabric.uplink_utilization(0) > 0.0
        assert cluster.fabric.uplink_utilization(1) == 0.0
        group = rm.bind_slice(VirtualSlice(2))
        assert group.island.island_id == 1
