"""The runtime sim-sanitizer: typed errors, leak injection, neutrality.

Each test injects one invariant violation the static rules cannot see
(leaks on dynamic paths) and asserts the drain-end sweep raises the
matching typed error.  The final class proves the sanitizer is
schedule-neutral: the golden churn schedule is identical with it on and
off.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

import pytest

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec, make_cluster
from repro.hw.device import CollectiveRendezvous, Device, Kernel, enqueue_gang
from repro.hw.host import Host, prep_hosts
from repro.net.fabric import Fabric, _RouteClass
from repro.net.transport import Transport
from repro.sim import (
    ConservationError,
    DeadlockError,
    DoubleTriggerError,
    LaneStateError,
    LeakedCapacityError,
    PendingTimeoutReadError,
    Resource,
    SanitizerError,
    Simulator,
    UnbalancedGrantError,
    UnsettledWaitersError,
    sanitize_from_env,
)
from repro.workloads.churn import run_churn
from repro.xla.computation import scalar_allreduce_add


class TestFlagPlumbing:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_SANITIZE", raising=False)
        sim = Simulator()
        assert sim.sanitize is False
        assert sim.sanitizer is None

    def test_explicit_on(self):
        sim = Simulator(sanitize=True)
        assert sim.sanitize is True
        assert sim.sanitizer is not None

    @pytest.mark.parametrize(
        "value,expected",
        [("1", True), ("true", True), ("ON", True), ("0", False), ("", False)],
    )
    def test_env_var(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", value)
        assert sanitize_from_env() is expected
        assert Simulator().sanitize is expected

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        assert Simulator(sanitize=False).sanitize is False

    def test_typed_errors_are_runtime_errors(self):
        """Back-compat: code catching the old untyped raises keeps working."""
        for cls in (
            DoubleTriggerError,
            PendingTimeoutReadError,
            UnsettledWaitersError,
            UnbalancedGrantError,
            LeakedCapacityError,
        ):
            assert issubclass(cls, SanitizerError)
            assert issubclass(cls, RuntimeError)


class TestDoubleTrigger:
    def test_double_succeed(self):
        sim = Simulator()
        ev = sim.event(name="once")
        ev.succeed(1)
        with pytest.raises(DoubleTriggerError, match="already triggered"):
            ev.succeed(2)

    def test_succeed_then_fail(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(None)
        with pytest.raises(DoubleTriggerError):
            ev.fail(RuntimeError("late"))


class TestTimeoutTriggeredGuard:
    def test_read_before_firing_raises_under_sanitize(self):
        sim = Simulator(sanitize=True)
        t = sim.timeout(5.0)
        with pytest.raises(PendingTimeoutReadError, match="before it fired"):
            t.triggered  # repro: noqa[RPR004] the bug under test

    def test_read_after_firing_is_fine(self):
        sim = Simulator(sanitize=True)
        t = sim.timeout(5.0)
        sim.run()
        assert t.triggered is True  # repro: noqa[RPR004] fired above

    def test_unsanitized_keeps_prevalued_semantics(self):
        """Without sanitize the historical (footgun) behavior stands —
        the static rule RPR004 is the only guard then."""
        sim = Simulator(sanitize=False)
        t = sim.timeout(5.0)
        assert t.triggered is True  # repro: noqa[RPR004] the footgun itself

    def test_repr_never_raises(self):
        """repr reads state from raw slots, never through the guard."""
        sim = Simulator(sanitize=True)
        assert "timeout" in repr(sim.timeout(5.0))


class TestResourceInvariants:
    def test_leaked_grant_detected(self):
        sim = Simulator(sanitize=True)
        nic = Resource(sim, name="nic", leak_check=True)
        nic.acquire(lambda: None)
        with pytest.raises(UnbalancedGrantError, match="nic"):
            sim.run()

    def test_leaked_nic_slot_names_its_host(self):
        """A host's NIC is named after the host, so a leak report says
        which of many hosts' NICs was left held."""
        sim = Simulator(sanitize=True)
        host = Host(sim, SystemConfig(), host_id=3, island_id=0)
        host.nic.acquire(lambda: None)
        with pytest.raises(UnbalancedGrantError, match=r"'nic\[h3\]'"):
            sim.run()

    def test_held_slot_allowed_without_leak_check(self):
        """Long-lived pools may stay held across a drain; only
        leak-checked resources are grant-audited."""
        sim = Simulator(sanitize=True)
        pool = Resource(sim, name="pool")
        pool.acquire(lambda: None)
        sim.run()

    def test_stranded_waiter_detected(self):
        sim = Simulator(sanitize=True)
        pool = Resource(sim, name="pool")
        pool.acquire(lambda: None)
        pool.acquire(lambda: None)  # queued forever: the holder never releases
        with pytest.raises(UnsettledWaitersError, match="lost wakeup"):
            sim.run()

    def test_release_of_idle_is_typed(self):
        sim = Simulator()
        with pytest.raises(UnbalancedGrantError, match="idle"):
            Resource(sim, name="cpu").release()

    def test_balanced_run_is_clean(self):
        sim = Simulator(sanitize=True)
        cpu = Resource(sim, name="cpu", leak_check=True)

        for _ in range(2):
            cpu.acquire(lambda: sim.timeout(10.0).add_callback(lambda ev: cpu.release()))
        sim.run()
        assert sim.now == 20.0
        assert sim.sanitizer.sweeps == 1

    def test_run_until_skips_drain_check(self):
        """Cut short at ``until``, held slots are expected, not leaks."""
        sim = Simulator(sanitize=True)
        nic = Resource(sim, name="nic", leak_check=True)
        nic.acquire(lambda: None)
        sim.timeout(100.0)
        assert sim.run(until=50.0) == 50.0


class TestFabricAndTransportInvariants:
    def test_leaked_link_capacity_detected(self):
        sim = Simulator(sanitize=True)
        fabric = Fabric(sim, SystemConfig())
        link = fabric.nic_tx(SimpleNamespace(host_id=0))
        link.fluid_enter()  # a flow's share never handed back
        with pytest.raises(LeakedCapacityError, match="nic_tx"):
            sim.run()

    @staticmethod
    def _drained_fabric():
        """A sanitized fabric that carried one flow to completion."""
        sim = Simulator(sanitize=True)
        fabric = Fabric(sim, SystemConfig())
        hosts = [SimpleNamespace(host_id=i, island_id=0) for i in range(2)]
        route = fabric.route(hosts[0], hosts[1])
        fabric.start_flow("a", route, 10_000, lambda: None)
        sim.run()
        assert fabric.idle and not fabric._solver.classes
        return sim, fabric, route

    def test_leaked_route_class_detected(self):
        """A drop path that forgets an emptied route class leaves it in
        the solver and in every route link's index."""
        sim, fabric, route = self._drained_fabric()
        stale = _RouteClass(tuple(route), cid=99, now=sim.now)
        fabric._solver.classes[stale.route] = stale
        for link in route:
            link._fluid[stale] = None
        with pytest.raises(
            LeakedCapacityError, match=r"1 live route class\(es\): nic_tx\[h0\]->nic_rx\[h1\]"
        ) as err:
            sim.run()
        assert "2 fabric link(s) still index route classes" in str(err.value)

    def test_stale_link_index_detected(self):
        """A link still indexing a class the solver already dropped."""
        sim, fabric, route = self._drained_fabric()
        route[1]._fluid[object()] = None
        with pytest.raises(
            LeakedCapacityError,
            match=r"1 fabric link\(s\) still index route classes at drain end: nic_rx\[h1\]",
        ):
            sim.run()

    def test_idle_fabric_is_clean(self):
        sim = Simulator(sanitize=True)
        fabric = Fabric(sim, SystemConfig())
        fabric.nic_tx(SimpleNamespace(host_id=0))
        sim.run()
        assert fabric.idle

    def test_stranded_in_flight_message_detected(self):
        sim = Simulator(sanitize=True)
        config = SystemConfig()
        transport = Transport(sim, config, Fabric(sim, config))
        class _Stuck:
            triggered = False
            name = "m0"

        stuck = _Stuck()
        transport._in_flight[0] = {stuck: None}
        with pytest.raises(UnsettledWaitersError, match="m0"):
            sim.run()

    @staticmethod
    def _send_drill():
        """Three sends on a sanitized two-host cluster: one delivered,
        one lost to the receiver's crash, one loopback."""
        sim = Simulator(sanitize=True)
        cluster = make_cluster(sim, ClusterSpec(islands=((2, 1),)))
        transport = cluster.transport
        a, b = cluster.hosts
        transport.send(a, b, 1_000)
        transport.send(a, b, 10_000_000)  # still serializing at the crash
        transport.send(a, a, 1_000)
        sim.timeout(100.0).add_callback(lambda ev: b.crash())
        return sim, transport

    def test_message_counts_balance_at_drain(self):
        sim, transport = self._send_drill()
        sim.run()
        assert transport.messages_sent == 2 and transport.loopback_messages == 1
        assert transport.messages_delivered == 1 and transport.messages_lost == 1

    @pytest.mark.parametrize("counter", ["messages_delivered", "messages_lost"])
    def test_broken_message_count_detected(self, monkeypatch, counter):
        """Mutation: a settle path that forgets its count breaks
        sent == delivered + lost, and the drain-end sweep says so."""
        settled = Transport._on_settled

        def forgetful(self, ev):
            settled(self, ev)
            if counter == "messages_delivered" and ev._exc is None:
                self.messages_delivered -= 1
            elif counter == "messages_lost" and ev._exc is not None:
                self.messages_lost -= 1

        monkeypatch.setattr(Transport, "_on_settled", forgetful)
        sim, _ = self._send_drill()
        with pytest.raises(ConservationError, match=r"2 message\(s\) sent but"):
            sim.run()


class TestSchedulerInvariants:
    def _paused_island_submission(self):
        system = PathwaysSystem.build(ClusterSpec(islands=((1, 2),), name="paused"))
        client = system.client("c")
        devs = system.make_virtual_device_set().add_slice(tpu_devices=2)
        step = client.wrap(scalar_allreduce_add(2, 10.0, name="step"), devices=devs)
        system.scheduler_for(devs.group.island).pause()
        execution = client.submit(step.solo_program, (0.0,), compute_values=False)
        return system, execution

    def test_node_on_paused_island_is_reported(self, monkeypatch):
        """The node's prep lands and its gang waits for a grant the
        paused island never gives: the drain-end sweep names it (with
        deadlock detection off, which would name the node first)."""
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        system, execution = self._paused_island_submission()
        with pytest.raises(
            UnsettledWaitersError,
            match=re.escape(f"scheduler[0] (paused) drained with 1 gang(s) never "
                            f"granted or evicted: {execution.name}:"),
        ):
            system.sim.run(detect_deadlock=False)

    @pytest.mark.parametrize("sanitize", ["0", "1"])
    def test_node_on_paused_island_is_a_deadlock(self, monkeypatch, sanitize):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", sanitize)
        system, execution = self._paused_island_submission()
        with pytest.raises(DeadlockError, match=re.escape(f"node {execution.name}:")):
            system.sim.run()
        assert not execution.done.triggered
        assert system.scheduler_for(system.cluster.islands[0]).stats().pending == 1


class TestObjectStoreConservation:
    """Every allocation ends freed or live, and each device's HBM holds
    exactly its live objects' shards, across faults too."""

    def _steps(self, recover: bool):
        system = PathwaysSystem.build(ClusterSpec(islands=((2, 4),), name="store"))
        client = system.client("c")
        devs = system.make_virtual_device_set().add_slice(tpu_devices=4)
        step = client.wrap(scalar_allreduce_add(4, 100.0, name="step"), devices=devs)
        if recover:
            from repro.resilience import RecoveryManager

            recovery = RecoveryManager(system)
            victim = devs.group.devices[1]
            system.sim.timeout(50.0).add_callback(lambda ev: recovery.fail_device(victim))
        executions = [
            client.submit(step.solo_program, (0.0,), retry_on_failure=recover)
            for _ in range(3)
        ]
        for execution in executions:
            execution.done.add_callback(lambda ev, e=execution: e.release_results())
        return system, executions

    @pytest.mark.parametrize("recover", [False, True])
    def test_balanced_run_is_clean(self, monkeypatch, recover):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        system, executions = self._steps(recover)
        system.sim.run()
        assert all(e.done.ok for e in executions)
        assert system.object_store.frees == system.object_store.allocations > 0

    def test_a_free_skipping_one_device_is_reported(self, monkeypatch):
        """A free that leaves one shard's bytes reserved."""
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        system, executions = self._steps(recover=False)
        store = system.object_store
        free = type(store)._free

        def leaky_free(self, handle):
            devices = handle.group.devices
            handle.group.devices = devices[1:]
            try:
                free(self, handle)
            finally:
                handle.group.devices = devices

        monkeypatch.setattr(type(store), "_free", leaky_free)
        with pytest.raises(
            ConservationError, match=r"live objects hold 0 bytes on d\d+, whose HBM has \d+"
        ):
            system.sim.run()

    def test_a_lost_handle_is_reported(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        system, executions = self._steps(recover=False)
        system.sim.run()
        system.object_store.frees += 1
        system.sim.timeout(1.0)
        with pytest.raises(
            ConservationError, match=r"object store: \d+ allocations - \d+ frees != \d+ live"
        ):
            system.sim.run()


class TestLaneInvariants:
    """Lockstep lanes: a lane of several devices or hosts is its
    members' only drain or CPU state, and an idle lane holds nothing."""

    @staticmethod
    def _lanes():
        sim = Simulator(sanitize=True)
        hosts = [Host(sim, DEFAULT_CONFIG, h, island_id=0) for h in range(2)]
        devices = []
        for d, host in enumerate(hosts):
            devices.append(Device(sim, DEFAULT_CONFIG, d, island_id=0, coords=(d, 0)))
            host.attach(devices[-1])
        for _ in range(2):
            coll = CollectiveRendezvous(sim, 2, 1.0, launch_us=1.5)
            enqueue_gang(devices, Kernel(sim, 2.0, collective=coll))
            prep_hosts(hosts, 3.0, lambda exc, parts=1: None)
        sim.run()
        return sim, devices, hosts

    def test_drained_lanes_are_clean(self):
        sim, devices, hosts = self._lanes()
        lane, host_lane = devices[0]._lane, hosts[0]._lane
        assert lane is devices[1]._lane and lane.members == tuple(devices)
        assert host_lane is hosts[1]._lane and host_lane.members == tuple(hosts)
        assert sim.sanitizer.sweeps == 1
        assert [d.kernels_run for d in devices] == [2, 2]

    def test_member_holding_its_own_kernel_is_reported(self):
        sim, devices, _ = self._lanes()
        devices[1]._queue.append(Kernel(sim, 1.0))
        with pytest.raises(LaneStateError, match=r"lane d0\+d1: d1 holds drain state"):
            sim.run()

    def test_idle_lane_holding_a_kernel_is_reported(self):
        sim, devices, _ = self._lanes()
        devices[0]._lane._current = Kernel(sim, 1.0)
        with pytest.raises(LaneStateError, match=r"lane d0\+d1 is idle but holds"):
            sim.run()

    def test_member_outside_its_lane_is_reported(self):
        sim, _, hosts = self._lanes()
        hosts[1]._lane = hosts[1]
        with pytest.raises(LaneStateError, match=r"host lane h0\+h1: h1 left it unsplit"):
            sim.run()

    def test_lane_cpu_busy_without_preps_is_reported(self):
        sim, _, hosts = self._lanes()
        hosts[0]._lane._live_preps[object()] = None
        with pytest.raises(LaneStateError, match=r"host lane h0\+h1: CPU busy 0/0 with 1 prep"):
            sim.run()


class TestScheduleNeutrality:
    KWARGS = dict(
        n_clients=2,
        steps_per_client=6,
        compute_time_us=1_000.0,
        slice_devices=4,
        n_hosts=4,
        devices_per_host=4,
        mtbf_us=30_000.0,
        repair_us=20_000.0,
        checkpoint_interval_us=10_000.0,
        state_bytes=1 << 20,
        seed=11,
    )

    def _golden(self, monkeypatch, sanitize: bool):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1" if sanitize else "0")
        result = run_churn(log_schedule=True, **self.KWARGS)
        sim = result.system_handle.sim
        assert sim.sanitize is sanitize
        return [
            (t, seq, re.sub(r"#\d+", "#N", name))
            for seq, (t, name) in enumerate(sim.schedule_log)
        ]

    def test_golden_schedule_identical_with_sanitize_on_and_off(
        self, monkeypatch
    ):
        """The sanitizer never creates events or timers, so the golden
        schedule is byte-identical either way — instrumentation that
        perturbs the thing it watches would be useless."""
        off = self._golden(monkeypatch, sanitize=False)
        on = self._golden(monkeypatch, sanitize=True)
        assert len(off) > 200
        assert off == on
