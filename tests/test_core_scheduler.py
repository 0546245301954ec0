"""Tests for the gang scheduler: ordering, policies, admission control."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.scheduler import (
    DeadlineExceeded,
    GangRequest,
    IslandScheduler,
    ProportionalSharePolicy,
)
from repro.hw.topology import Island
from repro.sim import Simulator


def make_scheduler(sim, policy=None, config=None):
    cfg = config or DEFAULT_CONFIG
    island = Island(sim, cfg, 0, n_hosts=1, devices_per_host=2)
    return IslandScheduler(sim, island, cfg, policy=policy)


def drive(sim, sched, specs):
    """Submit (client, cost, devices) specs; returns grant order list."""
    order = []

    def unit(client, cost, devices):
        req = sched.submit(client, "prog", f"{client}-node", cost_us=cost,
                           device_ids=devices)
        yield req.grant
        order.append(client)
        req.enqueued_ack.succeed(None)
        # Simulate execution taking `cost` before completion.
        yield sim.timeout(cost)
        sched.complete(req)

    for client, cost, devices in specs:
        sim.process(unit(client, cost, devices))
    sim.run()
    return order


class TestFifo:
    def test_grants_in_arrival_order(self, sim):
        sched = make_scheduler(sim)
        order = drive(sim, sched, [(f"c{i}", 10.0, ()) for i in range(5)])
        assert order == [f"c{i}" for i in range(5)]
        assert sched.decisions == 5

    def test_serialized_grants(self, sim):
        """No grant is issued until the previous winner acknowledged its
        enqueue — the global-order guarantee."""
        sched = make_scheduler(sim)
        events = []

        def slow_acker():
            req = sched.submit("slow", "p", "n1", device_ids=())
            yield req.grant
            events.append(("granted", "slow", sim.now))
            yield sim.timeout(100.0)  # holds the scheduler
            req.enqueued_ack.succeed(None)
            sched.complete(req)

        def fast():
            req = sched.submit("fast", "p", "n2", device_ids=())
            yield req.grant
            events.append(("granted", "fast", sim.now))
            req.enqueued_ack.succeed(None)
            sched.complete(req)

        sim.process(slow_acker())
        sim.process(fast())
        sim.run()
        slow_t = [t for e, c, t in events if c == "slow"][0]
        fast_t = [t for e, c, t in events if c == "fast"][0]
        assert fast_t >= slow_t + 100.0


class TestAdmissionControl:
    def test_depth_limits_outstanding_per_device(self, sim):
        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=2)
        sched = make_scheduler(sim, config=cfg)
        grant_times = []

        def unit(i):
            req = sched.submit("c", "p", f"n{i}", cost_us=100.0, device_ids=(0,))
            yield req.grant
            grant_times.append((i, sim.now))
            req.enqueued_ack.succeed(None)
            yield sim.timeout(100.0)
            sched.complete(req)

        for i in range(4):
            sim.process(unit(i))
        sim.run()
        times = dict(grant_times)
        # First two admitted immediately; third waits for a completion.
        assert times[2] >= 100.0
        assert times[3] >= 100.0

    def test_disjoint_devices_not_throttled_together(self, sim):
        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1)
        sched = make_scheduler(sim, config=cfg)
        grant_times = []

        def unit(i, dev):
            req = sched.submit("c", "p", f"n{i}", cost_us=100.0, device_ids=(dev,))
            yield req.grant
            grant_times.append(sim.now)
            req.enqueued_ack.succeed(None)
            yield sim.timeout(100.0)
            sched.complete(req)

        sim.process(unit(0, 0))
        sim.process(unit(1, 1))
        sim.run()
        # Different devices: both granted before any completion.
        assert all(t < 100.0 for t in grant_times)


class TestProportionalShare:
    def test_weighted_pick_ratio(self):
        policy = ProportionalSharePolicy({"a": 1.0, "b": 3.0})
        counts = {"a": 0, "b": 0}
        sim = Simulator()
        for _ in range(400):
            pending = [
                GangRequest("a", "p", "n", sim.event(), sim.event(), cost_us=10.0),
                GangRequest("b", "p", "n", sim.event(), sim.event(), cost_us=10.0),
            ]
            counts[policy.pick(pending).client] += 1
        assert counts["b"] / counts["a"] == pytest.approx(3.0, rel=0.05)

    def test_cost_aware_charging(self):
        """A client running 2x-longer computations gets half the picks at
        equal weight (shares are device-TIME, not unit counts)."""
        policy = ProportionalSharePolicy({"a": 1.0, "b": 1.0})
        sim = Simulator()
        counts = {"a": 0, "b": 0}
        for _ in range(300):
            pending = [
                GangRequest("a", "p", "n", sim.event(), sim.event(), cost_us=20.0),
                GangRequest("b", "p", "n", sim.event(), sim.event(), cost_us=10.0),
            ]
            counts[policy.pick(pending).client] += 1
        assert counts["b"] / counts["a"] == pytest.approx(2.0, rel=0.1)

    def test_late_joiner_starts_at_floor(self):
        policy = ProportionalSharePolicy({"a": 1.0, "b": 1.0})
        sim = Simulator()
        for _ in range(50):
            policy.pick([GangRequest("a", "p", "n", sim.event(), sim.event(), cost_us=10.0)])
        # b arrives late; it must not get 50 consecutive turns to catch up.
        picks = []
        for _ in range(10):
            pending = [
                GangRequest("a", "p", "n", sim.event(), sim.event(), cost_us=10.0),
                GangRequest("b", "p", "n", sim.event(), sim.event(), cost_us=10.0),
            ]
            picks.append(policy.pick(pending).client)
        assert picks.count("a") >= 4

    def test_late_joiner_cannot_monopolize(self):
        """Floor-join hard bound: however long the incumbents have run, a
        late client never gets more than ~one extra consecutive turn of
        catch-up — its pass starts at the current floor, not zero."""
        policy = ProportionalSharePolicy({"a": 1.0, "b": 1.0, "late": 1.0})
        sim = Simulator()

        def req(client):
            return GangRequest(client, "p", "n", sim.event(), sim.event(), cost_us=10.0)

        # Incumbents accumulate a long history.
        for _ in range(500):
            policy.pick([req("a"), req("b")])
        # From the moment "late" joins, count its share over a window.
        picks = [
            policy.pick([req("a"), req("b"), req("late")]).client
            for _ in range(90)
        ]
        late_share = picks.count("late") / len(picks)
        assert late_share == pytest.approx(1 / 3, abs=0.05)
        # And the longest initial run of consecutive "late" grants is
        # bounded (no catch-up burst).
        burst = 0
        for c in picks:
            if c == "late":
                burst += 1
            else:
                break
        assert burst <= 2

    def test_invalid_weight_rejected(self):
        policy = ProportionalSharePolicy()
        with pytest.raises(ValueError):
            policy.set_weight("a", 0.0)

    def test_unknown_client_defaults_to_weight_one(self):
        policy = ProportionalSharePolicy({"known": 2.0})
        sim = Simulator()
        counts = {"known": 0, "unknown": 0}
        for _ in range(300):
            pending = [
                GangRequest("known", "p", "n", sim.event(), sim.event(), cost_us=10.0),
                GangRequest("unknown", "p", "n", sim.event(), sim.event(), cost_us=10.0),
            ]
            counts[policy.pick(pending).client] += 1
        assert counts["known"] / counts["unknown"] == pytest.approx(2.0, rel=0.1)


class TestDeadlineEviction:
    def test_expired_pending_gang_is_evicted(self, sim):
        """A gang still queued when its deadline passes leaves through
        the eviction path: grant fails with DeadlineExceeded, surviving
        work is untouched, and later submissions still grant."""
        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1)
        sched = make_scheduler(sim, config=cfg)
        outcomes = {}

        def hog():
            req = sched.submit("hog", "p", "hog", cost_us=500.0, device_ids=(0,))
            yield req.grant
            req.enqueued_ack.succeed(None)
            yield sim.timeout(500.0)
            sched.complete(req)

        def bounded():
            # Queue depth 1 keeps this pending behind the hog until
            # t=500; its deadline expires at t=100.
            req = sched.submit(
                "late", "p", "late", cost_us=10.0, device_ids=(0,),
                deadline_at_us=100.0,
            )
            try:
                yield req.grant
            except DeadlineExceeded as exc:
                outcomes["late"] = exc
                return
            outcomes["late"] = "granted"
            req.enqueued_ack.succeed(None)
            sched.complete(req)

        def after():
            yield sim.timeout(600.0)
            req = sched.submit("after", "p", "after", cost_us=1.0, device_ids=(0,))
            yield req.grant
            outcomes["after"] = sim.now
            req.enqueued_ack.succeed(None)
            sched.complete(req)

        sim.process(hog())
        sim.process(bounded())
        sim.process(after())
        sim.run()
        assert isinstance(outcomes["late"], DeadlineExceeded)
        assert sched.deadline_evictions == 1
        # The scheduler keeps granting after the eviction.
        assert outcomes["after"] >= 600.0

    def test_deadline_met_has_no_effect(self, sim):
        sched = make_scheduler(sim)
        done = {}

        def unit():
            req = sched.submit(
                "c", "p", "n", cost_us=5.0, device_ids=(0,),
                deadline_at_us=10_000.0,
            )
            yield req.grant
            req.enqueued_ack.succeed(None)
            yield sim.timeout(5.0)
            sched.complete(req)
            done["ok"] = True

        sim.process(unit())
        sim.run()
        assert done["ok"] and sched.deadline_evictions == 0

    def test_granted_gang_not_killed_by_deadline(self, sim):
        """Deadlines bound time-to-grant only: a gang already running on
        its (non-preemptible) devices is never killed."""
        sched = make_scheduler(sim)
        done = {}

        def unit():
            req = sched.submit(
                "c", "p", "n", cost_us=500.0, device_ids=(0,),
                deadline_at_us=50.0,  # expires mid-execution
            )
            yield req.grant
            req.enqueued_ack.succeed(None)
            yield sim.timeout(500.0)
            sched.complete(req)
            done["ok"] = True

        sim.process(unit())
        sim.run()
        assert done["ok"] and sched.deadline_evictions == 0

    def test_client_deadline_threads_to_execution(self):
        """client.submit(deadline_us=...) bounds a whole execution's
        time-to-grant; an expired gang abandons the execution (it is
        not replayed — the deadline would expire again)."""
        from repro.core.dispatch import ExecutionAbandoned
        from repro.core.system import PathwaysSystem
        from repro.hw.cluster import ClusterSpec
        from repro.resilience import RecoveryManager
        from repro.xla.computation import scalar_allreduce_add

        system = PathwaysSystem.build(
            ClusterSpec(islands=((1, 2),), name="deadline"),
            config=DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1),
        )
        RecoveryManager(system)
        client = system.client("tenant")
        devs = system.make_virtual_device_set().add_slice(tpu_devices=2)
        step = client.wrap(
            scalar_allreduce_add(2, 50_000.0, name="hog"), devices=devs
        )
        fast = client.wrap(
            scalar_allreduce_add(2, 10.0, name="fast"), devices=devs
        )
        results = {}

        def driver():
            hog = client.submit(step.solo_program, (0.0,), compute_values=False)
            # Give the hog time to occupy the queue depth, then submit a
            # deadline-bounded execution that cannot be granted in time.
            yield system.sim.timeout(5_000.0)
            bounded = client.submit(
                fast.solo_program,
                (0.0,),
                compute_values=False,
                retry_on_failure=True,
                deadline_us=1_000.0,
            )
            try:
                yield bounded.finished
            except ExecutionAbandoned as exc:
                results["abandoned"] = exc
            yield hog.done

        system.sim.process(driver())
        system.sim.run()
        abandoned = results["abandoned"]
        assert isinstance(abandoned.cause, DeadlineExceeded)
        sched = system._schedulers[0]
        assert sched.deadline_evictions >= 1
        # The typed per-client accounting: one deadline rejection and
        # one abandon, surfaced as counters (no cause string-matching).
        assert client.deadline_rejections == 1
        assert client.executions_abandoned == 1


class TestEarliestDeadlinePolicy:
    def test_latency_class_overtakes_best_effort(self, sim):
        """EDF: pending deadline-carrying gangs grant before deadline-free
        work, nearest deadline first; best-effort falls back to seq."""
        from repro.core.scheduler import EarliestDeadlinePolicy

        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1)
        sched = make_scheduler(sim, policy=EarliestDeadlinePolicy(), config=cfg)
        order = []

        def unit(name, deadline_at, delay):
            yield sim.timeout(delay)
            req = sched.submit(
                name, "p", name, cost_us=10.0, device_ids=(0,),
                deadline_at_us=deadline_at,
            )
            yield req.grant
            order.append(name)
            req.enqueued_ack.succeed(None)
            yield sim.timeout(50.0)
            sched.complete(req)

        # The hog occupies the single admission slot; the others queue
        # up behind it and the policy picks among them.
        sim.process(unit("hog", None, 0.0))
        sim.process(unit("best-effort", None, 1.0))
        sim.process(unit("loose", 100_000.0, 2.0))
        sim.process(unit("tight", 50_000.0, 3.0))
        sim.run()
        assert order == ["hog", "tight", "loose", "best-effort"]


class TestDeadlineDrainInterplay:
    """Deadline eviction × island drain: an expiring pending gang must
    leave exactly once, and its departure must complete the drain."""

    def test_expiry_during_drain_leaves_once_and_completes_drain(self, sim):
        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1)
        sched = make_scheduler(sim, config=cfg)
        outcomes = {}

        def hog():
            req = sched.submit("hog", "p", "hog", cost_us=10.0, device_ids=(0,))
            yield req.grant
            req.enqueued_ack.succeed(None)
            yield sim.timeout(500.0)
            sched.complete(req)

        def bounded():
            # Pending behind the hog; deadline expires at t=100, while
            # the island is already draining (drain starts at t=50).
            req = sched.submit(
                "late", "p", "late", cost_us=10.0, device_ids=(0,),
                deadline_at_us=100.0,
            )
            try:
                yield req.grant
            except DeadlineExceeded as exc:
                outcomes["late"] = exc

        drained = {}

        def drainer():
            yield sim.timeout(50.0)
            ev = sched.drain()
            yield ev
            drained["at"] = sim.now

        sim.process(hog())
        sim.process(bounded())
        sim.process(drainer())
        sim.run()
        # Exactly one departure, through the deadline-eviction path.
        assert isinstance(outcomes["late"], DeadlineExceeded)
        assert sched.deadline_evictions == 1
        assert sched.evictions == 0
        # The drain completed only once the hog finished (the evicted
        # gang no longer blocks it), with no slot accounting left over.
        assert drained["at"] >= 500.0
        assert sched.in_flight == 0
        assert sched._outstanding == {}
        assert sched._pending == []

    def test_slots_stay_consistent_after_drain_cycle(self, sim):
        """After expire-during-drain + undrain, the device's admission
        slots are intact: depth-1 still admits work one gang at a time
        (an over- or double-release would corrupt the counters)."""
        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1)
        sched = make_scheduler(sim, config=cfg)

        def hog():
            req = sched.submit("hog", "p", "hog", cost_us=10.0, device_ids=(0,))
            yield req.grant
            req.enqueued_ack.succeed(None)
            yield sim.timeout(300.0)
            sched.complete(req)

        def bounded():
            req = sched.submit(
                "late", "p", "late", cost_us=10.0, device_ids=(0,),
                deadline_at_us=100.0,
            )
            try:
                yield req.grant
            except DeadlineExceeded:
                pass

        def drainer():
            yield sim.timeout(50.0)
            yield sched.drain()
            sched.undrain()

        sim.process(hog())
        sim.process(bounded())
        sim.process(drainer())
        sim.run()

        granted_at = {}

        def late_unit(name, delay):
            yield sim.timeout(delay)
            req = sched.submit(name, "p", name, cost_us=10.0, device_ids=(0,))
            yield req.grant
            granted_at[name] = sim.now
            req.enqueued_ack.succeed(None)
            yield sim.timeout(100.0)
            sched.complete(req)

        sim.process(late_unit("a", 0.0))
        sim.process(late_unit("b", 1.0))
        sim.run()
        # Depth 1: b waits for a's completion — the slot accounting
        # survived the expiry-during-drain cycle exactly.
        assert granted_at["b"] >= granted_at["a"] + 100.0
        assert sched.deadline_evictions == 1
        assert sched.in_flight == 0

    def test_device_eviction_wins_race_with_deadline(self, sim):
        """A pending gang evicted by device failure is not re-evicted by
        its later deadline timer (no double departure)."""
        from repro.hw.device import DeviceFailure

        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1)
        sched = make_scheduler(sim, config=cfg)
        outcomes = {}

        def hog():
            req = sched.submit("hog", "p", "hog", cost_us=10.0, device_ids=(0,))
            yield req.grant
            req.enqueued_ack.succeed(None)
            yield sim.timeout(500.0)
            sched.complete(req)

        def bounded():
            req = sched.submit(
                "late", "p", "late", cost_us=10.0, device_ids=(0,),
                deadline_at_us=200.0,
            )
            try:
                yield req.grant
            except Exception as exc:  # noqa: BLE001 - captured for assert
                outcomes["late"] = exc

        sim.process(hog())
        sim.process(bounded())
        sim.timeout(100.0).add_callback(lambda ev: sched.evict_device(0))
        sim.run()
        assert isinstance(outcomes["late"], DeviceFailure)
        assert sched.evictions == 1
        assert sched.deadline_evictions == 0


class TestControlDelivery:
    """Control messages apply on delivery only while the grant loop is
    parked on an empty mailbox with nothing pending; otherwise they queue
    and the loop applies them at its next check."""

    def _granted(self, sim, sched, devices, client="a"):
        req = sched.submit(client, "p", f"{client}-node", device_ids=devices)

        def acker():
            yield req.grant
            req.enqueued_ack.succeed(None)

        sim.process(acker())
        return req

    def test_evict_while_parked_applies_before_returning(self, sim):
        sched = make_scheduler(sim)
        req = self._granted(sim, sched, (0, 1))
        sim.run()
        assert sched.in_flight == 1
        processed = sim.events_processed
        sched.evict_device(0)
        # Settled before evict_device returned: no loop wake needed.
        assert sched.in_flight == 0
        sim.run()
        assert sim.events_processed == processed
        sched.complete(req)
        sim.run()
        assert sched.stale_completions == 1

    def test_evict_mid_decision_still_purges_the_gang_being_granted(self, sim):
        # The loop has taken the request off the pending list and is
        # spending scheduler_decision_us on it: an evict applied on
        # delivery would find nothing to purge, and the gang would keep
        # its slots on the failed device.  Queued, it runs after the ack.
        cfg = DEFAULT_CONFIG.with_overrides(scheduler_decision_us=4.0)
        sched = make_scheduler(sim, config=cfg)
        req = self._granted(sim, sched, (0, 1))
        sim.timeout(2.0).add_callback(lambda ev: sched.evict_device(0))
        sim.run()
        assert req.grant.triggered and req.granted_us == 4.0
        assert sched.in_flight == 0
        sched.complete(req)
        sim.run()
        assert sched.stale_completions == 1

    def test_readmit_with_pending_work_wakes_the_loop(self, sim):
        # Depth 1 and device 0 held: "b" is pending but ineligible while
        # the loop is parked.  The readmit frees device 0; applied on
        # delivery it would leave "b" stranded, since only the loop grants.
        cfg = DEFAULT_CONFIG.with_overrides(scheduler_queue_depth=1)
        sched = make_scheduler(sim, config=cfg)
        self._granted(sim, sched, (0,))
        b = self._granted(sim, sched, (0,), client="b")
        sim.run(detect_deadlock=False)
        assert not b.grant.triggered and sched.stats().pending == 1
        readmit_at = sim.now + 50.0
        sim.timeout(50.0).add_callback(lambda ev: sched.readmit_device(0))
        sim.run()
        assert b.grant.triggered
        assert b.granted_us == readmit_at + cfg.scheduler_decision_us
        assert sched.in_flight == 1
