"""Tests for the fault-tolerance & elasticity subsystem.

Covers the whole failure path: engine process cancellation, device
failure semantics (kernel abort, gang release, fail-fast enqueue,
restart), scheduler eviction & preemption pause/resume, healthy-aware
slice (re)binding, checkpoint cost accounting, fault schedules, and the
end-to-end ``retry_on_failure`` / churn scenarios.
"""

from __future__ import annotations

import dataclasses
import operator
import random

import pytest

from oracles import scalar_poisson_device_failures
from repro.config import DEFAULT_CONFIG
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec, config_b, make_cluster
from repro.hw.device import CollectiveRendezvous, DeviceFailure, Kernel
from repro.hw.host import HostFailure
from repro.models.data_parallel import ElasticDataParallelTrainer
from repro.models.transformer import TransformerConfig
from repro.resilience import (
    CheckpointManager,
    ElasticController,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    RecoveryManager,
)
from repro.resilience.faults import _DRAW_BLOCK
from repro.sim import Simulator
from repro.workloads.churn import run_churn
from repro.xla.computation import scalar_allreduce_add


# -- device failure semantics ----------------------------------------------


class TestDeviceFailure:
    def test_fail_aborts_in_flight_and_queued_kernels(self, sim, small_cluster):
        dev = small_cluster.devices[0]
        k1 = Kernel(sim, duration_us=100.0, tag="running")
        k2 = Kernel(sim, duration_us=100.0, tag="queued")
        dev.enqueue(k1)
        dev.enqueue(k2)
        sim.timeout(10.0).add_callback(lambda ev: dev.fail("test fault"))
        sim.run()
        assert dev.failed
        for k in (k1, k2):
            assert k.done.triggered and not k.done.ok
        with pytest.raises(DeviceFailure):
            k1.done.value

    def test_gang_peers_released_when_member_dies(self, sim, small_cluster):
        devs = small_cluster.devices[:4]
        coll = CollectiveRendezvous(sim, participants=4, duration_us=50.0)
        kernels = [Kernel(sim, duration_us=0.0, collective=coll) for _ in devs]
        for dev, k in zip(devs, kernels):
            dev.enqueue(k)
        sim.timeout(1.0).add_callback(lambda ev: devs[0].fail("gang fault"))
        # Without the abort path this deadlocks (survivors wait forever).
        sim.run()
        assert all(k.done.triggered and not k.done.ok for k in kernels)
        # Healthy peers stay operational: a later kernel still runs.
        k_next = Kernel(sim, duration_us=5.0)
        devs[1].enqueue(k_next)
        sim.run()
        assert k_next.done.ok

    def test_fail_idle_device_aborts_nothing(self, sim, small_cluster):
        dev = small_cluster.devices[0]
        dev.fail("idle fault")
        sim.run()
        assert dev.failed and dev.fail_count == 1
        assert dev.kernels_aborted == 0
        assert dev.hbm.cancellations == 0

    def test_fail_busy_device_carries_reason(self, sim, small_cluster):
        dev = small_cluster.devices[0]
        running = Kernel(sim, duration_us=100.0)
        dev.enqueue(running)
        assert dev.hbm.alloc(dev.hbm.capacity).ok
        waiter = dev.hbm.alloc(1024)
        sim.timeout(10.0).add_callback(lambda ev: dev.fail("busy fault"))
        sim.run()
        assert dev.kernels_aborted == 1 and dev.hbm.cancellations == 1
        for ev in (running.done, waiter):
            assert ev.triggered and not ev.ok
            with pytest.raises(DeviceFailure) as info:
                ev.value
            assert info.value.device_id == dev.device_id
            assert info.value.reason == "busy fault"

    def test_enqueue_to_failed_device_fails_fast(self, sim, small_cluster):
        dev = small_cluster.devices[0]
        dev.fail("down")
        sim.run()
        k = Kernel(sim, duration_us=5.0)
        dev.enqueue(k)
        assert k.done.triggered and not k.done.ok

    def test_restart_brings_device_back_with_empty_queue(self, sim, small_cluster):
        dev = small_cluster.devices[0]
        lost = Kernel(sim, duration_us=100.0)
        dev.enqueue(lost)
        dev.fail("blip")
        sim.run()
        dev.restart()
        assert not dev.failed
        k = Kernel(sim, duration_us=5.0)
        dev.enqueue(k)
        sim.run()
        assert k.done.ok and not lost.done.ok

    def test_host_crash_takes_devices_down(self, sim, small_cluster):
        host = small_cluster.hosts[0]
        host.crash()
        assert all(d.failed for d in host.devices)
        host.restore()
        assert not any(d.failed for d in host.devices)

    def test_all_of_over_already_failed_event_fails_cleanly(self, sim):
        """AllOf built *after* a constituent failed and had its callbacks
        processed must fail the composite, not raise out of the event
        loop (the consumer-release path hits exactly this)."""
        ev = sim.event(name="doomed")
        ev.fail(DeviceFailure(0, "early loss"))
        sim.run(detect_deadlock=False)  # process the failure callbacks
        combo = sim.all_of([ev])
        assert combo.triggered and not combo.ok
        with pytest.raises(DeviceFailure):
            combo.value


class TestRepairUnderHostCrash:
    def test_device_repair_deferred_while_host_down(self, small_system):
        recovery = RecoveryManager(small_system)
        host = small_system.cluster.hosts[0]
        device = host.devices[0]
        recovery.fail_device(device)
        recovery.crash_host(host)
        # A device repair firing while the host is crashed is a no-op...
        recovery.repair_device(device)
        assert device.failed
        # ...and the host's restore brings it back.
        recovery.restore_host(host)
        assert not device.failed


# -- scheduler: eviction, pause/resume, admission races ---------------------


def _mk_scheduler(sim, config=None):
    from repro.core.scheduler import IslandScheduler
    from repro.hw.topology import Island

    cfg = config or DEFAULT_CONFIG
    island = Island(sim, cfg, 0, n_hosts=1, devices_per_host=4)
    return IslandScheduler(sim, island, cfg)


class TestSchedulerEviction:
    def test_evict_fails_pending_grants_on_failed_device(self, sim):
        sched = _mk_scheduler(sim)
        outcomes = {}

        def unit(name, devices, hold):
            req = sched.submit(name, "p", name, cost_us=hold, device_ids=devices)
            try:
                yield req.grant
            except DeviceFailure:
                outcomes[name] = "evicted"
                return
            outcomes[name] = ("granted", sim.now)
            req.enqueued_ack.succeed(None)
            yield sim.timeout(hold)
            sched.complete(req)

        # Saturate device 0's admission slots so "victim" stays pending.
        cfg_depth = DEFAULT_CONFIG.scheduler_queue_depth
        for i in range(cfg_depth):
            sim.process(unit(f"holder{i}", (0,), 500.0))
        sim.process(unit("victim", (0,), 10.0))
        sim.process(unit("survivor", (1,), 10.0))
        sim.timeout(50.0).add_callback(lambda ev: sched.evict_device(0))
        sim.run()
        assert outcomes["victim"] == "evicted"
        assert outcomes["survivor"][0] == "granted"
        assert sched.evictions == 1

    def test_eviction_preserves_relative_order_of_survivors(self, sim):
        """Evicting requests for a dead device must not disturb the
        enqueue order of everything else (the §4.4 invariant)."""
        sched = _mk_scheduler(sim)
        order = []

        def unit(name, devices):
            req = sched.submit(name, "p", name, cost_us=10.0, device_ids=devices)
            try:
                yield req.grant
            except DeviceFailure:
                return
            order.append(name)
            req.enqueued_ack.succeed(None)
            yield sim.timeout(10.0)
            sched.complete(req)

        def scenario():
            # Pause so everything queues up in arrival order first.
            sched.pause()
            yield sim.timeout(1.0)
            for i, dev in enumerate([1, 0, 1, 0, 1]):
                sim.process(unit(f"r{i}", (dev,)))
            yield sim.timeout(1.0)
            sched.evict_device(0)
            sched.resume()

        sim.process(scenario())
        sim.run()
        # r1/r3 (device 0) evicted; survivors keep relative order.
        assert order == ["r0", "r2", "r4"]

    def test_pause_resume_preserves_enqueue_order(self, sim):
        sched = _mk_scheduler(sim)
        order = []

        def unit(name):
            req = sched.submit(name, "p", name, cost_us=5.0, device_ids=())
            yield req.grant
            order.append((name, sim.now))
            req.enqueued_ack.succeed(None)
            yield sim.timeout(5.0)
            sched.complete(req)

        def scenario():
            sim.process(unit("early"))
            yield sim.timeout(1.0)
            sched.pause()
            yield sim.timeout(1.0)
            for i in range(3):
                sim.process(unit(f"during{i}"))
            yield sim.timeout(200.0)
            assert sched.paused
            sched.resume()

        sim.process(scenario())
        sim.run()
        names = [n for n, _ in order]
        assert names == ["early", "during0", "during1", "during2"]
        # Nothing granted while paused.
        during_times = [t for n, t in order if n.startswith("during")]
        assert all(t >= 202.0 for t in during_times)

    def test_admission_accounting_when_complete_races_submit(self, sim):
        """A completion and a new submission arriving at the same
        timestamp must net out: the new request takes the freed slot."""
        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1)
        sched = _mk_scheduler(sim, config=cfg)
        grant_times = {}

        def first():
            req = sched.submit("a", "p", "a", cost_us=100.0, device_ids=(0,))
            yield req.grant
            grant_times["a"] = sim.now
            req.enqueued_ack.succeed(None)
            yield sim.timeout(100.0)
            # complete() and the rival submit land at the same instant.
            sched.complete(req)

        def second():
            yield sim.timeout(100.0 + DEFAULT_CONFIG.scheduler_decision_us)
            req = sched.submit("b", "p", "b", cost_us=10.0, device_ids=(0,))
            yield req.grant
            grant_times["b"] = sim.now
            req.enqueued_ack.succeed(None)
            yield sim.timeout(10.0)
            sched.complete(req)

        sim.process(first())
        sim.process(second())
        sim.run()
        assert "b" in grant_times
        # No slot was leaked: the follow-up is granted promptly, not
        # stuck behind a phantom outstanding entry.
        assert grant_times["b"] <= 100.0 + 3 * DEFAULT_CONFIG.scheduler_decision_us
        assert sched._outstanding == {}


# -- resource manager: healthy-aware binding --------------------------------


class TestHealthyBinding:
    def test_bind_skips_failed_devices(self, small_system):
        island = small_system.cluster.islands[0]
        island.devices[0].fail("dead")
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=4)
        bound_ids = [d.device_id for d in devs.group.devices]
        assert island.devices[0].device_id not in bound_ids

    def test_rebind_lands_on_surviving_hardware(self, small_system):
        devs = small_system.make_virtual_device_set().add_slice(tpu_devices=4)
        doomed = devs.group.devices[0]
        doomed.fail("dead")
        assert devs.needs_remap
        old_version = devs.version
        small_system.resource_manager.rebind_slice(devs)
        assert devs.version == old_version + 1
        assert not devs.needs_remap
        assert doomed.device_id not in [d.device_id for d in devs.group.devices]

    def test_bind_raises_without_healthy_capacity(self, small_system):
        for d in small_system.cluster.devices:
            d.fail("gone")
        with pytest.raises(RuntimeError):
            small_system.make_virtual_device_set().add_slice(tpu_devices=4)

    def test_bind_error_when_only_a_draining_island_has_capacity(
        self, two_island_system
    ):
        rm = two_island_system.resource_manager
        island0, island1 = two_island_system.cluster.islands
        rm.begin_drain(island0.island_id)
        for d in island1.devices[1:]:
            d.fail("gone")
        # The message reports the largest healthy count over all
        # islands, the draining one included.
        with pytest.raises(
            RuntimeError,
            match=r"^no island can host a slice of 4 devices \(largest has 8 healthy\)$",
        ):
            two_island_system.make_virtual_device_set().add_slice(tpu_devices=4)


# -- checkpoint cost model ---------------------------------------------------


class TestCheckpointManager:
    def test_save_charges_driver_and_advances_cut(self, small_system):
        ckpt = CheckpointManager(small_system, 1000.0, state_bytes=1 << 20)
        sim = small_system.sim

        def driver():
            yield sim.timeout(1500.0)
            assert ckpt.due()
            yield from ckpt.save(step=7)

        sim.process(driver())
        sim.run()
        assert ckpt.checkpoints_taken == 1
        assert ckpt.step == 7
        assert ckpt.last_checkpoint_us == pytest.approx(1500.0 + ckpt.write_cost_us())
        assert ckpt.overhead_us == pytest.approx(ckpt.write_cost_us())

    def test_disabled_checkpoint_never_due_and_free_restore(self, small_system):
        ckpt = CheckpointManager(small_system, None, state_bytes=1 << 30)
        assert not ckpt.enabled and not ckpt.due()
        assert ckpt.restore_cost_us() == 0.0

    def test_invalid_interval_rejected(self, small_system):
        with pytest.raises(ValueError):
            CheckpointManager(small_system, 0.0, state_bytes=1)


# -- fault schedules ---------------------------------------------------------


#: Every field of a FaultEvent (its equality compares at_us only).
_fields = operator.attrgetter(*(f.name for f in dataclasses.fields(FaultEvent)))


class TestFaultSchedule:
    def test_poisson_schedule_is_deterministic(self):
        a = FaultSchedule.poisson_device_failures(
            1000.0, 10_000.0, range(8), seed=42, repair_us=100.0
        )
        b = FaultSchedule.poisson_device_failures(
            1000.0, 10_000.0, range(8), seed=42, repair_us=100.0
        )
        assert len(a) > 0
        assert [(e.at_us, e.target) for e in a] == [(e.at_us, e.target) for e in b]
        assert all(e.at_us < 10_000.0 for e in a)

    def test_no_repair_means_at_most_one_failure_per_device(self):
        sched = FaultSchedule.poisson_device_failures(
            100.0, 100_000.0, range(4), seed=1, repair_us=0.0
        )
        targets = [e.target for e in sched]
        assert len(targets) == len(set(targets))

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize(
        "n_devices, repair_us",
        [(13_000, 0.0), (96, 50.0)],
        ids=["one-draw-per-device", "repeated-failures"],
    )
    def test_block_draws_match_scalar_oracle(self, seed, n_devices, repair_us):
        args = (100.0, 20_000.0, range(n_devices))
        got = FaultSchedule.poisson_device_failures(
            *args, seed=seed, repair_us=repair_us
        )
        want = scalar_poisson_device_failures(*args, seed=seed, repair_us=repair_us)
        # Enough draws to refill the block several times.
        assert len(want) > 3 * _DRAW_BLOCK
        assert [_fields(e) for e in got] == [_fields(e) for e in want]

    @pytest.mark.parametrize("seed", [0, 11])
    def test_merged_multi_rate_schedules_match_scalar_oracle(self, seed):
        """As ``run_churn`` merges the spares' schedule with faster ones
        for representative devices: one stable sort of the concatenated
        scalar draws.  The last part repeats the first one's seed on
        other devices, so every one of its times ties with one there,
        and the tie keeps argument order."""
        parts = [
            (100.0, range(0, 40), seed),
            (100.0 / 3, range(40, 48), seed + 7919),
            (100.0 / 8, range(48, 52), seed + 2 * 7919),
            (100.0, range(200, 240), seed),
        ]
        got = FaultSchedule.merge(*(
            FaultSchedule.poisson_device_failures(
                mtbf, 20_000.0, ids, seed=s, repair_us=50.0
            )
            for mtbf, ids, s in parts
        ))
        want = sorted(
            event
            for mtbf, ids, s in parts
            for event in scalar_poisson_device_failures(
                mtbf, 20_000.0, ids, seed=s, repair_us=50.0
            )
        )
        assert [_fields(e) for e in got] == [_fields(e) for e in want]
        ties = sum(a.at_us == b.at_us for a, b in zip(want, want[1:]))
        first = scalar_poisson_device_failures(
            100.0, 20_000.0, range(40), seed=seed, repair_us=50.0
        )
        assert ties >= len(first)

    def test_merge_keeps_added_events(self):
        """Events added by hand (with notice times and link names) merge
        with drawn ones as themselves, ties in argument order."""
        a = (
            FaultSchedule()
            .device_failure(5.0, 1, repair_us=2.0)
            .island_preemption(3.0, 0, 9.0, notice_us=1.0)
        )
        b = FaultSchedule.poisson_device_failures(10.0, 50.0, range(3), seed=1)
        c = FaultSchedule().link_down(5.0, "spine[p0]", repair_us=4.0)
        merged = FaultSchedule.merge(a, b, c)
        want = sorted([*a.events, *b.events, *c.events])
        assert [_fields(e) for e in merged] == [_fields(e) for e in want]
        added = [e for e in merged.events if e.kind is not FaultKind.DEVICE_FAILURE]
        assert added == [a.events[0], c.events[0]]
        assert added[0] is a.events[0] and added[1] is c.events[0]

    def test_tied_times_keep_dataclass_sort_order(self):
        rng = random.Random(3)
        events = [
            FaultEvent(float(rng.randrange(4)), FaultKind.DEVICE_FAILURE, i)
            for i in range(64)
        ]
        rng.shuffle(events)
        # FaultEvent's own ordering compares (at_us,) only; sorted() is
        # stable, so ties keep their input order.
        want = [e.target for e in sorted(events)]
        assert [e.target for e in FaultSchedule(events)] == want
        one_by_one = FaultSchedule()
        for event in events:
            one_by_one.add(event)
        assert [e.target for e in one_by_one] == want

    def test_fault_event_is_frozen(self):
        event = FaultEvent(1.0, FaultKind.DEVICE_FAILURE, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.at_us = 2.0

    def test_preemption_requires_duration(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.ISLAND_PREEMPTION, 0, repair_us=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(at_us=-1.0),
            dict(at_us=0.0, repair_us=-1.0),
            dict(at_us=0.0, notice_us=5.0),
            dict(at_us=0.0, link="spine[p0]"),
        ],
        ids=["negative-time", "negative-repair", "notice", "link-name"],
    )
    def test_invalid_device_failure_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultEvent(kind=FaultKind.DEVICE_FAILURE, **kwargs)

    def test_injector_delivers_in_order(self, small_system):
        recovery = RecoveryManager(small_system)
        d0 = small_system.cluster.devices[0].device_id
        d1 = small_system.cluster.devices[1].device_id
        schedule = (
            FaultSchedule()
            .device_failure(100.0, d0)
            .device_failure(50.0, d1)
        )
        injector = FaultInjector(recovery, schedule)
        small_system.sim.run()
        assert [e.target for e in injector.injected] == [d1, d0]
        assert recovery.device_failures == 2

    def test_adding_to_a_schedule_being_injected_raises(self):
        # Regression: the injector walks the live list, so a mid-run
        # insert ahead of its cursor re-delivered the awaited fault and
        # dropped the new one (injected read [(100, d0), (100, d0)]).
        system = PathwaysSystem.build(config_b(n_hosts=2))
        recovery = RecoveryManager(system)
        d0, d1 = (d.device_id for d in system.cluster.devices[:2])
        schedule = FaultSchedule().device_failure(100.0, d0)
        injector = FaultInjector(recovery, schedule)
        errors = []

        def late_add(_ev):
            try:
                schedule.device_failure(60.0, d1)
            except RuntimeError as exc:
                errors.append(exc)

        system.sim.timeout(50.0).add_callback(late_add)
        system.sim.run()
        assert len(errors) == 1
        assert [(e.at_us, e.target) for e in injector.injected] == [(100.0, d0)]
        assert len(schedule) == 1 and injector.stats().remaining == 0
        assert recovery.device_failures == 1

    def test_adding_before_the_run_is_delivered(self, small_system):
        recovery = RecoveryManager(small_system)
        d0 = small_system.cluster.devices[0].device_id
        d1 = small_system.cluster.devices[1].device_id
        schedule = FaultSchedule().device_failure(100.0, d0)
        injector = FaultInjector(recovery, schedule)
        schedule.device_failure(60.0, d1)
        small_system.sim.run()
        assert [(e.at_us, e.target) for e in injector.injected] == [
            (60.0, d1), (100.0, d0)
        ]

    def test_stop_leaves_no_timer_behind(self, small_system):
        # Regression: stop() only detached the injector's loop, so its
        # pending timeout still fired and advanced the clock to 50 ms.
        sim = small_system.sim
        recovery = RecoveryManager(small_system)
        d0, d1 = (d.device_id for d in small_system.cluster.devices[:2])
        schedule = FaultSchedule().device_failure(1_000.0, d0).device_failure(
            50_000.0, d1
        )
        injector = FaultInjector(recovery, schedule)
        sim.run(until=10_000.0)
        injector.stop()
        sim.run()
        assert sim.now == 10_000.0
        assert sim.stats().pending_timers == 0
        assert [e.target for e in injector.injected] == [d0]


# -- end-to-end recovery -----------------------------------------------------


def _one_tenant(system, n_devices=4, compute_us=2000.0):
    client = system.client("c")
    devs = system.make_virtual_device_set().add_slice(tpu_devices=n_devices)
    step = client.wrap(
        scalar_allreduce_add(n_devices, compute_us, name="step"), devices=devs
    )
    return client, devs, step


class TestRetryOnFailure:
    def test_mid_step_device_loss_is_replayed(self, small_system):
        recovery = RecoveryManager(small_system)
        client, devs, step = _one_tenant(small_system)
        victim = devs.group.devices[0]
        FaultInjector(
            recovery,
            FaultSchedule().device_failure(2500.0, victim.device_id),
        )
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False, retry_on_failure=True
        )
        small_system.sim.run_until_triggered(ex.done, limit=1e7)
        assert ex.done.ok
        assert ex.attempts == 2
        assert recovery.programs_recovered == 1
        assert devs.version == 2  # remapped once
        assert victim.device_id not in [d.device_id for d in devs.group.devices]

    def test_no_recovery_manager_abandons(self, small_system):
        from repro.core.dispatch import ExecutionAbandoned

        client, devs, step = _one_tenant(small_system)
        victim = devs.group.devices[0]
        small_system.sim.timeout(2500.0).add_callback(
            lambda ev: victim.fail("unmanaged")
        )
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False, retry_on_failure=True
        )
        with pytest.raises(ExecutionAbandoned):
            small_system.sim.run_until_triggered(ex.done, limit=1e7)
        assert ex.done.triggered and not ex.done.ok

    def test_island_preemption_waits_and_replays(self):
        system = PathwaysSystem.build(ClusterSpec(islands=((1, 4),), name="solo"))
        recovery = RecoveryManager(system)
        client, devs, step = _one_tenant(system)
        FaultInjector(
            recovery,
            FaultSchedule().island_preemption(1000.0, 0, duration_us=30_000.0),
        )
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False, retry_on_failure=True
        )
        system.sim.run_until_triggered(ex.done, limit=1e8)
        assert ex.done.ok
        # The retry could only land after the preemption ended.
        assert system.sim.now > 31_000.0
        assert recovery.preemptions == 1

    def test_cross_island_migration_on_preemption(self):
        system = PathwaysSystem.build(
            ClusterSpec(islands=((1, 4), (1, 4)), name="twin")
        )
        recovery = RecoveryManager(system)
        client, devs, step = _one_tenant(system)
        home = devs.group.island.island_id
        # Preempt mid-computation (kernels in flight at t=3000) so the
        # gang is genuinely lost rather than merely delayed pre-grant.
        FaultInjector(
            recovery,
            FaultSchedule().island_preemption(3000.0, home, duration_us=1e6),
        )
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False, retry_on_failure=True
        )
        system.sim.run_until_triggered(ex.done, limit=1e7)
        assert ex.done.ok
        # Elasticity: the slice migrated to the other island rather than
        # waiting out the (long) preemption.
        assert devs.group.island.island_id != home
        assert system.sim.now < 1e6


class TestRetryMultiNode:
    def test_producer_lost_while_consumer_waiting_still_recovers(self, two_island_system):
        """Reviewer-found wedge (mirror of the consumer-loss case): the
        consumer's gate fails with ProcessFailed(DeviceFailure) — the
        transfer process's wrapper — and the healthy consumer devices
        must unwrap it and drop the kernel, not die with it (pre-fix the
        whole consumer island's drain loops terminated and recovery
        deadlocked)."""
        system = two_island_system
        recovery = RecoveryManager(system)
        client = system.client("c")
        dset = system.make_virtual_device_set()
        d_a = dset.add_slice(tpu_devices=4, island_id=0)
        d_b = dset.add_slice(tpu_devices=4, island_id=1)
        fa = client.wrap(
            scalar_allreduce_add(4, 5000.0, name="producer"), devices=d_a
        )
        fb = client.wrap(
            scalar_allreduce_add(4, 2000.0, name="consumer"), devices=d_b
        )

        @client.program
        def chain(v):
            return (fb(fa(v)),)

        import numpy as np

        scalar = np.zeros((), dtype=np.float32)
        program = chain.trace(scalar)
        victim = d_a.group.devices[0]  # the PRODUCER dies mid-compute
        FaultInjector(
            recovery, FaultSchedule().device_failure(3000.0, victim.device_id)
        )
        ex = client.submit(
            program, (scalar,), compute_values=False, retry_on_failure=True,
        )
        system.sim.run_until_triggered(ex.done, limit=1e8)
        assert ex.done.ok
        assert ex.attempts >= 2
        # The consumer island's devices survived the poisoned gate.
        assert all(not d.failed for d in two_island_system.cluster.islands[1].devices)

    def test_non_retry_fault_settles_handles_and_done(self, small_system):
        """Reviewer-found wedge: a non-retry execution hitting a fault
        re-raised out of run() without settling handles_ready or the
        undispatched nodes' done events, so OpByOp clients blocked
        forever instead of observing the error."""
        from repro.core.system import DispatchMode

        client, devs, step = _one_tenant(small_system)
        victim = devs.group.devices[0]
        small_system.sim.timeout(2_500.0).add_callback(
            lambda ev: victim.fail("unmanaged")
        )
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False,
            retry_on_failure=False, mode=DispatchMode.SEQUENTIAL,
        )
        with pytest.raises(DeviceFailure):
            small_system.sim.run_until_triggered(ex.handles_ready, limit=1e7)
        done = ex.done
        assert done.triggered and not done.ok

    def test_consumer_lost_while_producer_running_still_recovers(self, two_island_system):
        """Reviewer-found crash: a 2-node chain where the consumer's
        devices die while the producer is still computing used to raise
        DeviceFailure out of the event loop (AllOf over the consumer's
        already-failed done event) instead of replaying."""
        system = two_island_system
        recovery = RecoveryManager(system)
        client = system.client("c")
        dset = system.make_virtual_device_set()
        d_a = dset.add_slice(tpu_devices=4, island_id=0)
        d_b = dset.add_slice(tpu_devices=4, island_id=1)
        fa = client.wrap(
            scalar_allreduce_add(4, 5000.0, name="producer"), devices=d_a
        )
        fb = client.wrap(
            scalar_allreduce_add(4, 2000.0, name="consumer"), devices=d_b
        )

        @client.program
        def chain(v):
            return (fb(fa(v)),)

        import numpy as np

        scalar = np.zeros((), dtype=np.float32)
        program = chain.trace(scalar)
        victim = d_b.group.devices[0]
        # Fail the consumer's device while the producer is mid-compute.
        FaultInjector(
            recovery, FaultSchedule().device_failure(4000.0, victim.device_id)
        )
        ex = client.submit(
            program, (scalar,), compute_values=False, retry_on_failure=True,
        )
        system.sim.run_until_triggered(ex.done, limit=1e8)
        assert ex.done.ok
        assert ex.attempts >= 2

    def test_sequential_mode_double_fault_uses_attempt_budget(self, small_system):
        """Reviewer-found: a second fault striking during a sequential
        replay must consume the max_attempts budget, not abandon."""
        from repro.core.system import DispatchMode

        recovery = RecoveryManager(small_system)
        client, devs, step = _one_tenant(small_system)
        schedule = FaultSchedule()
        # Two separate faults, each mid-computation of an attempt.
        schedule.device_failure(2500.0, devs.group.devices[0].device_id)
        schedule.device_failure(12_000.0, 6, repair_us=0.0)
        FaultInjector(recovery, schedule)
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False,
            retry_on_failure=True, max_attempts=8, mode=DispatchMode.SEQUENTIAL,
        )
        small_system.sim.run_until_triggered(ex.done, limit=1e8)
        assert ex.done.ok
        assert ex.attempts >= 2


class TestHbmWaiterCancellation:
    def test_cancel_removes_waiter_and_regrants(self, sim):
        from repro.hw.device import HbmAllocator

        hbm = HbmAllocator(sim, capacity_bytes=100)
        first = hbm.alloc(90)
        assert first.ok
        big = hbm.alloc(50)        # queued (no space)
        small = hbm.alloc(10)      # queued behind big (FIFO, no overtaking)
        assert not big.triggered and not small.triggered
        # Cancelling the head waiter re-runs the grant scan: without the
        # scan, small would stay blocked behind a ghost head-of-queue.
        assert hbm.cancel(big)
        assert not big.triggered   # silently abandoned (no cause given)
        assert small.ok and hbm.used == 100
        assert hbm.cancellations == 1
        # Cancelling an already-granted event is a no-op.
        assert not hbm.cancel(small)

    def test_device_failure_cancels_hbm_waiters(self, sim, small_cluster):
        dev = small_cluster.devices[0]
        hog = dev.hbm.alloc(dev.hbm.capacity)
        assert hog.ok
        waiter = dev.hbm.alloc(1024)
        assert not waiter.triggered
        dev.fail("dead")
        assert waiter.triggered and not waiter.ok
        with pytest.raises(DeviceFailure):
            waiter.value
        assert dev.hbm.cancellations == 1

    def test_alloc_on_failed_device_fails_fast(self, sim, small_cluster):
        dev = small_cluster.devices[0]
        dev.fail("down")
        ev = dev.hbm.alloc(1024)
        assert ev.triggered and not ev.ok

    def test_stalled_hbm_waiter_regression(self, small_system):
        """Regression for the ROADMAP bug: a prep blocked waiting on a
        failed device's HBM grant stalled its retry loop forever (the
        run deadlocked / timed out pre-fix).  With waiter cancellation
        the loss propagates and the execution recovers onto healthy
        hardware."""
        recovery = RecoveryManager(small_system)
        client, devs, step = _one_tenant(small_system)
        victim = devs.group.devices[0]
        # Fill the victim's HBM so the execution's output alloc queues.
        hog = victim.hbm.alloc(victim.hbm.capacity)
        assert hog.ok
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False, retry_on_failure=True
        )
        small_system.sim.timeout(5_000.0).add_callback(
            lambda ev: recovery.fail_device(victim)
        )
        small_system.sim.run_until_triggered(ex.done, limit=1e7)
        assert ex.done.ok
        assert victim.hbm.cancellations >= 1
        assert victim.device_id not in [d.device_id for d in devs.group.devices]

    def test_partial_grant_rolled_back_on_abort(self, small_system):
        """When a prep aborts mid-grant, shards already granted on the
        victim's healthy gang peers must be freed (no HBM leak)."""
        recovery = RecoveryManager(small_system)
        client, devs, step = _one_tenant(small_system)
        victim = devs.group.devices[0]
        peers = devs.group.devices[1:]
        hog = victim.hbm.alloc(victim.hbm.capacity)
        assert hog.ok
        peer_used_before = [p.hbm.used for p in peers]
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False, retry_on_failure=True
        )
        small_system.sim.timeout(5_000.0).add_callback(
            lambda ev: recovery.fail_device(victim)
        )
        small_system.sim.run_until_triggered(ex.done, limit=1e7)
        ex.release_results()
        # The aborted attempt's partial grants were returned; only the
        # hog remains on the victim.
        assert [p.hbm.used for p in peers] == peer_used_before
        assert victim.hbm.used == victim.hbm.capacity


class TestHostCrashPrepPath:
    def test_prep_on_crashed_host_fails_fast(self, sim, small_cluster):
        host = small_cluster.hosts[0]
        host.crash()
        settled = []
        host.prep_request(10.0, settled.append)
        assert settled == []  # delivered through the loop, not inline
        sim.run(detect_deadlock=False)
        assert len(settled) == 1 and isinstance(settled[0], HostFailure)

    def test_queued_prep_fails_when_host_crashes(self, sim, small_cluster):
        host = small_cluster.hosts[0]
        host.cpu.acquire(  # occupies the serial CPU
            lambda exc: sim.timeout(100.0).add_callback(lambda ev: host.cpu.release())
        )
        settled = []
        host.prep_request(10.0, settled.append)
        sim.timeout(5.0).add_callback(lambda ev: host.crash())
        sim.run(detect_deadlock=False)
        assert len(settled) == 1 and isinstance(settled[0], HostFailure)
        assert host.cpu.queue_len == 0  # no ghost waiter left behind

    def test_crash_interrupts_in_flight_prep(self, sim, small_cluster):
        host = small_cluster.hosts[0]
        settled = []
        host.prep_request(100.0, settled.append)  # holding the CPU at the crash
        sim.timeout(50.0).add_callback(lambda ev: host.crash())
        sim.run(detect_deadlock=False)
        assert len(settled) == 1 and isinstance(settled[0], HostFailure)
        assert host.preps_aborted == 1
        assert host.cpu.in_use == 0  # the slot was released on abort

    def test_crash_aborts_holding_and_queued_preps(self, sim, small_cluster):
        """One prep holds the CPU and two queue behind it: the crash
        aborts all three and fails them in issue order."""
        host = small_cluster.hosts[0]
        failed = []
        for i in range(3):
            host.prep_request(100.0, lambda exc, i=i: failed.append((i, exc)))
        sim.timeout(50.0).add_callback(lambda ev: host.crash())
        sim.run(detect_deadlock=False)
        assert host.preps_aborted == 3
        assert [i for i, _ in failed] == [0, 1, 2]
        assert all(isinstance(exc, HostFailure) for _, exc in failed)
        assert host.cpu.in_use == 0 and host.cpu.queue_len == 0

    def test_host_crash_fails_pending_prep_into_retry(self):
        """Regression for the ROADMAP bug: a crashed host only took its
        devices down — executor prep kept 'running' on the dead CPU and
        completed impossibly.  Now the prep aborts fast and the retry
        path replays on a surviving host."""
        config = DEFAULT_CONFIG.with_overrides(executor_prep_us=5_000.0)
        system = PathwaysSystem.build(
            ClusterSpec(islands=((2, 4),), name="small"), config=config
        )
        recovery = RecoveryManager(system)
        client, devs, step = _one_tenant(system)
        host = devs.group.devices[0].host
        # Crash lands squarely inside the (stretched) prep window.
        system.sim.timeout(3_000.0).add_callback(
            lambda ev: recovery.crash_host(host)
        )
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False, retry_on_failure=True
        )
        system.sim.run_until_triggered(ex.done, limit=1e8)
        assert ex.done.ok
        assert ex.attempts >= 2
        assert host.preps_aborted >= 1
        surviving_hosts = {d.host.host_id for d in devs.group.devices}
        assert host.host_id not in surviving_hosts

    def test_host_failure_names_host(self):
        exc = HostFailure(3, "test")
        assert exc.host_id == 3 and "h3" in str(exc)

    def test_sequential_replay_host_crash_uses_attempt_budget(self):
        """A host crash striking *during* a sequential replay arrives
        wrapped (ProcessFailed around HostFailure); it must consume the
        max_attempts budget like a device loss, not abandon."""
        from repro.core.system import DispatchMode

        config = DEFAULT_CONFIG.with_overrides(executor_prep_us=5_000.0)
        system = PathwaysSystem.build(
            ClusterSpec(islands=((2, 4),), name="small"), config=config
        )
        recovery = RecoveryManager(system)
        client, devs, step = _one_tenant(system)
        h0 = devs.group.devices[0].host
        h1 = next(h for h in system.cluster.hosts if h is not h0)
        schedule = (
            FaultSchedule()
            .host_crash(3_000.0, h0.host_id, repair_us=25_000.0)  # mid attempt 1
            .host_crash(9_000.0, h1.host_id, repair_us=0.0)       # mid replay
        )
        FaultInjector(recovery, schedule)
        ex = client.submit(
            step.solo_program, (0.0,), compute_values=False,
            retry_on_failure=True, mode=DispatchMode.SEQUENTIAL,
        )
        system.sim.run_until_triggered(ex.done, limit=1e8)
        assert ex.done.ok
        assert ex.attempts >= 3


class TestSchedulerReadmit:
    def test_stale_completion_not_applied_after_readmit(self, sim):
        """Regression: a completion for a gang granted *before* its
        device was evicted must not free admission slots of work granted
        *after* the restart (pre-fix this over-admitted past the queue
        depth)."""
        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1)
        sched = _mk_scheduler(sim, config=cfg)
        grants = {}
        reqs = {}

        def unit(name):
            req = sched.submit(name, "p", name, cost_us=10.0, device_ids=(0,))
            reqs[name] = req
            try:
                yield req.grant
            except DeviceFailure:
                return
            grants[name] = sim.now
            req.enqueued_ack.succeed(None)

        def scenario():
            sim.process(unit("a"))
            yield sim.timeout(50.0)
            assert "a" in grants
            sched.evict_device(0)       # device failed
            yield sim.timeout(10.0)
            sched.readmit_device(0)     # device restarted
            sim.process(unit("b"))
            yield sim.timeout(50.0)
            assert "b" in grants
            sched.complete(reqs["a"])   # stale completion arrives late
            sim.process(unit("c"))
            yield sim.timeout(50.0)
            # Depth 1: c must wait for b, not ride the stale slot.
            assert "c" not in grants
            sched.complete(reqs["b"])
            yield sim.timeout(50.0)
            assert "c" in grants
            sched.complete(reqs["c"])

        sim.process(scenario())
        sim.run()
        assert sched.stale_completions == 1

    def test_repair_readmits_restarted_device(self, small_system):
        recovery = RecoveryManager(small_system)
        island = small_system.cluster.islands[0]
        sched = small_system.scheduler_for(island)
        device = island.devices[0]
        recovery.fail_device(device)
        recovery.repair_device(device)
        granted = {}

        def unit():
            req = sched.submit("c", "p", "after-repair", device_ids=(device.device_id,))
            yield req.grant
            granted["t"] = small_system.sim.now
            req.enqueued_ack.succeed(None)
            sched.complete(req)

        small_system.sim.process(unit())
        small_system.sim.run()
        # The restarted device is schedulable again with clean books.
        assert "t" in granted
        assert sched._outstanding == {}
        assert sched.in_flight == 0

    def test_drain_finishes_admitted_and_rejects_new(self, sim):
        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1)
        sched = _mk_scheduler(sim, config=cfg)
        log = []

        def unit(name, hold):
            req = sched.submit(name, "p", name, cost_us=hold, device_ids=(0,))
            try:
                yield req.grant
            except DeviceFailure:
                log.append((name, "rejected"))
                return
            log.append((name, "granted"))
            req.enqueued_ack.succeed(None)
            yield sim.timeout(hold)
            sched.complete(req)

        drained = {}

        def scenario():
            sim.process(unit("running", 100.0))
            yield sim.timeout(10.0)
            sim.process(unit("pending", 10.0))   # admitted, waiting (depth 1)
            yield sim.timeout(10.0)
            drained["ev"] = sched.drain()
            yield sim.timeout(10.0)
            sim.process(unit("late", 10.0))      # submitted after the drain
            yield sim.timeout(500.0)

        sim.process(scenario())
        sim.run()
        # Admitted work (granted AND pending-at-drain) finished in order;
        # the late submission was rejected into the retry path.
        assert ("running", "granted") in log
        assert ("pending", "granted") in log
        assert ("late", "rejected") in log
        assert drained["ev"].triggered and drained["ev"].ok
        assert sched.rejected_draining == 1


def _tiny_model() -> TransformerConfig:
    return TransformerConfig(
        name="tiny", n_layers=2, d_model=64, d_ff=128, n_heads=4,
        vocab_size=1000, seq_len=128,
    )


def _elastic_trainer(system, batch_tokens=32_768, interval_us=2_000.0):
    ckpt = CheckpointManager(system, interval_us, state_bytes=1 << 18)
    trainer = ElasticDataParallelTrainer(
        system,
        _tiny_model(),
        devices_per_replica=4,
        batch_tokens_per_replica=batch_tokens,
        efficiency=0.5,
        checkpoint=ckpt,
    )
    if system.elastic is not None:
        system.elastic.register(trainer)
    return trainer


class TestElasticScaleUp:
    def test_dp_width_grows_after_add_island(self):
        system = PathwaysSystem.build(ClusterSpec(islands=((1, 4),), name="one"))
        RecoveryManager(system)
        ElasticController(system)
        trainer = _elastic_trainer(system)
        eta = 10 * trainer.step_compute_us()
        system.sim.timeout(eta / 3).add_callback(lambda ev: system.add_island(1, 4))
        result = trainer.run(10)
        assert result.useful_steps == 10
        assert result.width_history[0][1] == 1
        assert result.max_width == 2
        t_grow = next(t for t, w in result.width_history if w == 2)
        assert 0.0 < t_grow < result.elapsed_us
        assert result.grows == 1

    def test_growth_preserves_step_semantics(self):
        """Same optimizer trajectory as a fixed-width run: identical step
        index sequence, every step exactly once — only the per-step
        global batch widens."""
        fixed_system = PathwaysSystem.build(ClusterSpec(islands=((1, 4),), name="f"))
        fixed = _elastic_trainer(fixed_system).run(12)

        system = PathwaysSystem.build(ClusterSpec(islands=((1, 4),), name="g"))
        RecoveryManager(system)
        ElasticController(system)
        trainer = _elastic_trainer(system)
        system.sim.timeout(fixed.elapsed_us / 2).add_callback(
            lambda ev: system.add_island(1, 4)
        )
        grown = trainer.run(12)
        assert [i for i, _ in grown.step_log] == [i for i, _ in fixed.step_log]
        assert grown.useful_steps == fixed.useful_steps == 12
        # Widened steps consume more tokens for the same step count.
        assert grown.tokens_processed > fixed.tokens_processed
        widths = [w for _, w in grown.step_log]
        assert widths == sorted(widths)  # grew once, never flapped

    def test_restarted_island_grows_back(self):
        """A failed island returning (end of preemption) is a capacity
        event: the trainer re-grows onto it without operator action."""
        system = PathwaysSystem.build(
            ClusterSpec(islands=((1, 4), (1, 4)), name="twin")
        )
        recovery = RecoveryManager(system)
        ElasticController(system)
        trainer = _elastic_trainer(system)
        FaultInjector(
            recovery,
            FaultSchedule().island_preemption(3_000.0, 1, duration_us=5_000.0),
        )
        result = trainer.run(30)
        assert result.useful_steps == 30
        assert result.losses >= 1          # the abrupt preemption hit
        assert result.grows >= 1           # and the island was re-joined
        assert result.width_history[-1][1] == 2


class TestDrainVsKill:
    def _run(self, notice_us: float):
        system = PathwaysSystem.build(
            ClusterSpec(islands=((1, 4), (1, 4)), name="twin")
        )
        recovery = RecoveryManager(system)
        ElasticController(system)
        trainer = _elastic_trainer(system)
        FaultInjector(
            recovery,
            FaultSchedule().island_preemption(
                3_000.0, 1, duration_us=5_000.0, notice_us=notice_us
            ),
        )
        return trainer.run(30)

    def test_drain_beats_abrupt_preemption(self):
        drained = self._run(notice_us=800.0)
        killed = self._run(notice_us=0.0)
        assert drained.useful_steps == killed.useful_steps == 30
        # Graceful: checkpoint + vacate at the boundary, nothing lost.
        assert drained.drains_honored == 1
        assert drained.rollback_steps == 0
        # Abrupt: mid-step loss, rollback, replay.
        assert killed.losses >= 1
        assert (
            drained.goodput_tokens_per_second > killed.goodput_tokens_per_second
        )

    def test_standalone_drain_handback_and_restore(self):
        system = PathwaysSystem.build(
            ClusterSpec(islands=((1, 4), (1, 4)), name="twin")
        )
        RecoveryManager(system)
        elastic = ElasticController(system)
        trainer = _elastic_trainer(system)
        state = {}
        system.sim.timeout(1_000.0).add_callback(
            lambda ev: state.setdefault("handback", elastic.drain_island(1))
        )
        trainer.run(15)
        handback = state["handback"]
        assert handback.triggered and handback.ok
        assert elastic.handbacks == 1
        assert system.resource_manager.is_draining(1)
        # Hand the island back: admission resumes, the trainer re-grows.
        elastic.restore_island(1)
        assert not system.resource_manager.is_draining(1)
        result = trainer.run(25)
        assert result.width_history[-1][1] == 2
        assert trainer.grows == 1

    def test_pinned_slice_migrates_off_draining_island(self, two_island_system):
        """A slice pinned to a draining island is repinned by recovery:
        the scheduler rejects its next gang, retry_on_failure recovers,
        and the remap lands on the other island instead of abandoning
        (clients only hold virtual device names, so the pin may move)."""
        system = two_island_system
        recovery = RecoveryManager(system)
        elastic = ElasticController(system)
        client = system.client("c")
        devs = system.make_virtual_device_set().add_slice(
            tpu_devices=4, island_id=1
        )
        step = client.wrap(
            scalar_allreduce_add(4, 2000.0, name="step"), devices=devs
        )
        with pytest.warns(UserWarning, match="no registered elastic workload"):
            handback = elastic.drain_island(1)
            ex = client.submit(
                step.solo_program, (0.0,), compute_values=False,
                retry_on_failure=True,
            )
            system.sim.run_until_triggered(ex.done, limit=1e7)
        assert ex.done.ok
        assert recovery.remaps >= 1
        assert devs.island_id is None           # unpinned by recovery
        assert devs.group.island.island_id == 0  # migrated off the drain
        # With the slice gone and the scheduler empty, the handback
        # completed — draining tenants via the recovery path works.
        assert handback.triggered and handback.ok

    def test_preemption_notice_without_elastic_warns(self, small_system):
        """A dropped notice is a silent-degradation hazard: surface it."""
        recovery = RecoveryManager(small_system)
        FaultInjector(
            recovery,
            FaultSchedule().island_preemption(
                100.0, 0, duration_us=1_000.0, notice_us=50.0
            ),
        )
        with pytest.warns(UserWarning, match="no ElasticController"):
            small_system.sim.run()
        # The preemption still executed, at the notice deadline.
        assert recovery.preemptions == 1

    def test_notice_requires_preemption_kind(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.DEVICE_FAILURE, 0, notice_us=10.0)


class TestChurnElasticCapacity:
    def test_mid_run_island_add_absorbs_churn(self):
        """Adding an island mid-run widens the healthy pool remaps draw
        from; the run completes with at least baseline goodput."""
        base = run_churn(
            n_clients=2, steps_per_client=8, mtbf_us=30_000.0,
            checkpoint_interval_us=8_000.0, seed=9, repair_us=200_000.0,
        )
        grown = run_churn(
            n_clients=2, steps_per_client=8, mtbf_us=30_000.0,
            checkpoint_interval_us=8_000.0, seed=9, repair_us=200_000.0,
            add_island_at=(10_000.0, 2, 4),
        )
        assert grown.devices_added == 8
        assert grown.useful_steps == 16 and not grown.abandoned
        system = grown.system_handle
        assert len(system.cluster.islands) == 2
        assert system.cluster.n_devices == 16 + 8


class TestChurnWorkload:
    def test_fault_free_run_completes_everything(self):
        result = run_churn(n_clients=2, steps_per_client=5, mtbf_us=None)
        assert result.useful_steps == 10
        assert result.replayed_steps == 0
        assert result.faults_injected == 0
        assert result.goodput_steps_per_second > 0

    def test_churn_degrades_goodput_but_completes(self):
        ideal = run_churn(n_clients=2, steps_per_client=8, mtbf_us=None)
        churned = run_churn(
            n_clients=2, steps_per_client=8, mtbf_us=60_000.0,
            checkpoint_interval_us=10_000.0, seed=5,
        )
        assert churned.useful_steps == 16
        assert not churned.abandoned
        assert churned.faults_injected > 0
        assert (
            churned.goodput_steps_per_second < ideal.goodput_steps_per_second
        )

    def test_checkpointing_bounds_replay(self):
        no_ckpt = run_churn(
            n_clients=2, steps_per_client=10, mtbf_us=40_000.0,
            checkpoint_interval_us=None, seed=11,
        )
        ckpt = run_churn(
            n_clients=2, steps_per_client=10, mtbf_us=40_000.0,
            checkpoint_interval_us=8_000.0, seed=11,
        )
        assert ckpt.checkpoint_overhead_us > 0
        assert no_ckpt.checkpoint_overhead_us == 0
        # Same fault schedule; snapshots strictly reduce replayed work.
        assert ckpt.replayed_steps <= no_ckpt.replayed_steps
