"""The lazy fault injector: differential fuzz, contract pins and checks.

``repro.resilience.FaultInjector`` applies faults and repairs on cold
devices (no slice, kernel, HBM waiter or scheduler request) without a
loop entry, catching their state up from the frozen schedule whenever
something reads it.  The oracle (``tests/oracles.py``) delivers every
fault on a loop entry with one repair timeout each.  Random churn
scenarios, with hand-written host crashes, preemptions and overlapping
device faults on top of the Poisson schedule and one-byte HBM
allocations on random devices (idle ones included), must give the same
results, counters, allocation outcomes, delivery order and final time
under both, and the
lazy run's schedule must be the oracle's with only injector shots and
repair timeouts left out.

The contract tests pin behaviour the eager injector already had, so
they pass with either injector.  ``REPRO_FAULT_FUZZ_EXAMPLES`` sets the
fuzz budget (25 by default; CI's bench job runs 200).
"""

from __future__ import annotations

import dataclasses
import gc
import os
import re
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from repro.core import resource_manager
from repro.core.resource_manager import AGGREGATE_THRESHOLD
from repro.core.system import PathwaysSystem
from repro.hw.cluster import ClusterSpec
from repro.hw.device import DeviceFailure
from repro.resilience import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    RecoveryManager,
)
from repro.sim import (
    DeadlockError,
    LeakedCapacityError,
    UnsettledWaitersError,
    WarmDeviceError,
)
from repro.workloads import churn

EXAMPLES = int(os.environ.get("REPRO_FAULT_FUZZ_EXAMPLES", "25"))


def _jitter(k: int) -> float:
    """A distinct fractional offset for the ``k``-th hand-written time.

    Lazy delivery arms the injector's timer at a different moment than
    a timer walking the whole schedule, so a fault at the *exact*
    instant of a loop entry that is not a fault or repair (say a
    recovery backoff timed from an earlier fault) may run on either
    side of it.  Offsets that differ per time and are not sums of round
    config constants keep such ties out of the comparison.  Ties inside
    the schedule (a fault at another fault's repair instant) have one
    order, and are drawn on purpose."""
    return 0.371 + 0.0731 * k


@st.composite
def churn_scenarios(draw):
    # Slices above the aggregate threshold bind representative devices
    # spread over the island; a 24-device slice on a 32-device island
    # binds 16, whose faults come from the rep-factor-scaled schedule
    # merged into the spares' (the shape of the churn benchmark).  A
    # threshold of 2 makes the small slices aggregate too.
    aggregate_threshold = draw(st.sampled_from([2, AGGREGATE_THRESHOLD]))
    slice_devices = draw(st.sampled_from(
        [2, 4] if aggregate_threshold == AGGREGATE_THRESHOLD else [4, 24]
    ))
    n_hosts = 8 if slice_devices > 16 else 4
    n_clients = draw(st.integers(1, min(3, 4 * n_hosts // slice_devices)))
    extra, probes = [], []
    for k in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, 60)) * 1_000.0 + _jitter(2 * k)
        kind = draw(st.sampled_from(["host", "preempt", "overlap", "tie"]))
        if kind == "tie":
            # A device fault, then its host crashes or its island is
            # preempted at the exact instant its repair lands.
            device = draw(st.integers(0, 15))
            repair = draw(st.sampled_from([5_000.0, 9_000.0]))
            extra.append(FaultEvent(at, FaultKind.DEVICE_FAILURE, device, repair))
            if draw(st.booleans()):
                extra.append(FaultEvent(
                    at + repair, FaultKind.HOST_CRASH, device // 4,
                    draw(st.sampled_from([0.0, 7_000.0])),
                ))
            else:
                extra.append(FaultEvent(
                    at + repair, FaultKind.ISLAND_PREEMPTION, 0, 3_000.0
                ))
        elif kind == "host":
            extra.append(FaultEvent(
                at, FaultKind.HOST_CRASH, draw(st.integers(0, 3)),
                draw(st.sampled_from([0.0, 7_000.0, 30_000.0])),
            ))
        elif kind == "preempt":
            extra.append(FaultEvent(
                at, FaultKind.ISLAND_PREEMPTION, 0,
                draw(st.sampled_from([3_000.0, 12_000.0])),
            ))
        else:
            # A device fault, then another on the same device before
            # its repair lands or at the exact instant it does.
            device = draw(st.integers(0, 15))
            repair = draw(st.sampled_from([5_000.0, 9_000.0]))
            extra.append(FaultEvent(at, FaultKind.DEVICE_FAILURE, device, repair))
            probes.append((at + 0.25, device))
            again = draw(st.sampled_from([1, 2, 3, 4, None]))
            extra.append(FaultEvent(
                at + repair if again is None
                else at + again * 1_000.0 + _jitter(2 * k + 1),
                FaultKind.DEVICE_FAILURE, device,
                draw(st.sampled_from([0.0, 4_000.0])),
            ))
    grow = draw(st.none() | st.tuples(
        st.integers(2, 40).map(lambda k: k * 1_000.0 + _jitter(7)),
        st.integers(1, 2),
        st.sampled_from([2, 4]),
    ))
    # Outside touches: one-byte HBM allocations on any device, idle
    # ones included, as a client staging a buffer would make (and one
    # just after each hand-written device fault, above).
    probes += [
        (draw(st.integers(1, 60)) * 1_000.0 + _jitter(10 + k),
         draw(st.integers(0, 15)))
        for k in range(draw(st.integers(0, 3)))
    ]
    return {
        "kwargs": dict(
            n_clients=n_clients,
            steps_per_client=draw(st.integers(3, 8)),
            compute_time_us=1_000.0,
            slice_devices=slice_devices,
            n_hosts=n_hosts,
            devices_per_host=4,
            mtbf_us=draw(st.sampled_from([15_000.0, 40_000.0, 120_000.0])),
            repair_us=draw(st.sampled_from([3_000.0, 12_000.0, 25_000.0])),
            checkpoint_interval_us=draw(st.none() | st.sampled_from([4_000.0, 9_000.0])),
            state_bytes=1 << 20,
            seed=draw(st.integers(0, 10_000)),
            add_island_at=grow,
        ),
        "aggregate_threshold": aggregate_threshold,
        "extra": extra,
        "probes": probes,
    }


def _probe(device, seen: list) -> None:
    """Allocate one byte on ``device``'s HBM and give it back; record
    whether the allocation failed, was granted or had to queue."""
    hbm = device.hbm
    ev = hbm.alloc(1)
    if ev._exc is not None:
        seen.append((device.sim.now, device.device_id, "failed"))
    elif ev.triggered:
        hbm.free_bytes(1)
        seen.append((device.sim.now, device.device_id, "granted"))
    else:
        hbm.cancel(ev)
        seen.append((device.sim.now, device.device_id, "queued"))


def _run(scenario: dict, injector_cls) -> dict:
    """One churn scenario under ``injector_cls``; everything the two
    injectors must agree on."""
    made, probed = [], []

    def make(recovery, schedule):
        events = [*schedule.events, *scenario["extra"]]
        injector = injector_cls(recovery, FaultSchedule(events))
        made.append(injector)
        sim = recovery.sim
        for at, device_id in scenario["probes"]:
            device = recovery.system.cluster.device(device_id)
            sim.timeout(at).add_callback(
                lambda _ev, d=device: _probe(d, probed)
            )
        return injector

    with pytest.MonkeyPatch.context() as m:
        m.setattr(churn, "FaultInjector", make)
        m.setattr(
            resource_manager, "AGGREGATE_THRESHOLD", scenario["aggregate_threshold"]
        )
        result = churn.run_churn(log_schedule=True, **scenario["kwargs"])
    system = result.system_handle
    [injector] = made
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result) if f.name != "system_handle"
    }
    out = {
        "result": fields,
        "recovery": system.recovery.stats(),
        "injector": injector.stats(),
        "injected": [dataclasses.astuple(e) for e in injector.injected],
        "now": system.sim.now,
        "probed": probed,
        "log": [
            (t, re.sub(r"#\d+", "#N", name)) for t, name in system.sim.schedule_log
        ],
    }
    # Drain what is left: repairs of delivered faults still land.
    try:
        system.sim.run()
        out["drained"] = None
    except DeadlockError as exc:
        out["drained"] = type(exc).__name__
    out["drained_now"] = system.sim.now
    out["drained_recovery"] = system.recovery.stats()
    return out


def _removed_entries(lazy: list, eager: list, repair_names: set) -> list:
    """The entries of ``eager`` missing from ``lazy``, if ``lazy`` is a
    subsequence of it (same times, same order; the lazy injector's
    ``fault-repair`` timer stands for a repair timeout at its instant);
    else fail."""
    removed = []
    j = 0
    for entry in eager:
        if j < len(lazy) and (
            lazy[j] == entry
            or lazy[j] == (entry[0], "fault-repair") and entry[1] in repair_names
        ):
            j += 1
        else:
            removed.append(entry)
    assert j == len(lazy), f"lazy schedule diverges at entry {j}: {lazy[j]}"
    return removed


#: Always run: an idle device fails (lazily), is touched by an HBM
#: allocation at once, and fails again before its repair lands.
_IDLE_TOUCH = {
    "kwargs": dict(
        n_clients=1, steps_per_client=4, compute_time_us=1_000.0,
        slice_devices=2, n_hosts=4, devices_per_host=4, mtbf_us=120_000.0,
        repair_us=12_000.0, checkpoint_interval_us=None, state_bytes=1 << 20,
        seed=1, add_island_at=None,
    ),
    "aggregate_threshold": AGGREGATE_THRESHOLD,
    "extra": [
        FaultEvent(2_000.371, FaultKind.DEVICE_FAILURE, 15, 5_000.0),
        FaultEvent(4_000.4441, FaultKind.DEVICE_FAILURE, 15, 4_000.0),
    ],
    "probes": [(2_000.621, 15)],
}


@settings(max_examples=EXAMPLES, deadline=None)
@example(scenario=_IDLE_TOUCH)
@given(scenario=churn_scenarios())
def test_lazy_injector_matches_the_eager_oracle(scenario):
    lazy = _run(scenario, FaultInjector)
    eager = _run(scenario, oracles.EagerFaultInjector)
    for key in ("result", "recovery", "injector", "injected", "now",
                "probed", "drained", "drained_now", "drained_recovery"):
        assert lazy[key] == eager[key], key
    repair_names = {
        f"timeout({e[3]:g})" for e in eager["injected"] if e[3] > 0
    }
    for _, name in _removed_entries(lazy["log"], eager["log"], repair_names):
        assert name == "fault-injector" or name in repair_names, name


@st.composite
def layouts(draw):
    """A schedule of repeated and overlapping device faults (some on
    devices the injector does not hold, some with repairs too short to
    move the clock), host crashes, exact ties, and a start time."""
    times = st.one_of(
        st.integers(0, 40).map(float),
        st.floats(0.0, 40.0, allow_nan=False),
        st.floats(1e9, 1e9 + 1.0, allow_nan=False),
    )
    events = draw(st.lists(
        st.tuples(times, st.integers(0, 9), st.sampled_from([0.0, 1e-9, 3.0, 25.0]),
                  st.booleans()),
        max_size=40,
    ))
    schedule = [
        FaultEvent(at, FaultKind.DEVICE_FAILURE, target, repair) if device
        else FaultEvent(at, FaultKind.HOST_CRASH, target % 2, repair)
        for at, target, repair, device in events
    ]
    return schedule, draw(st.sampled_from([0.0, 5.0, 1e9]))


#: The second fault's shot is ``t + (at - t)``, one ulp off its time,
#: and the tie after it inherits that shot.
_ROUNDED_SHOT = ([
    FaultEvent(10.72157874293449, FaultKind.DEVICE_FAILURE, 0, 3.0),
    FaultEvent(77.48677759248817, FaultKind.DEVICE_FAILURE, 1, 3.0),
    FaultEvent(77.48677759248817, FaultKind.DEVICE_FAILURE, 1, 25.0),
], 0.0)


@settings(max_examples=4 * EXAMPLES, deadline=None)
@example(layout=_ROUNDED_SHOT)
@given(layout=layouts())
def test_injector_layout_matches_the_loop(layout):
    """Shot instants, forced flags and the last transition, laid out
    with array passes, equal one loop over the events."""
    events, now = layout
    system = PathwaysSystem.build(ClusterSpec(islands=((2, 4),), name="s"))
    recovery = RecoveryManager(system)
    system.sim._now = now
    injector = FaultInjector(recovery, FaultSchedule(events))
    injector._start()
    sorted_events = injector.schedule.events
    shot, forced, last = oracles.fault_layout(sorted_events, now, range(8))
    assert list(injector._shot) == shot
    assert list(injector._forced) == forced
    assert injector._last == last


# -- contract pins (the eager injector's behaviour) ---------------------------


def _idle_schedule(system, seed=3):
    return FaultSchedule.poisson_device_failures(
        mtbf_us=10_000.0,
        horizon_us=100_000.0,
        device_ids=[d.device_id for d in system.cluster.devices],
        seed=seed,
        repair_us=3_000.0,
    )


class TestContract:
    def test_idle_faults_end_at_the_last_repair(self, small_system):
        recovery = RecoveryManager(small_system)
        schedule = _idle_schedule(small_system)
        injector = FaultInjector(recovery, schedule)
        small_system.sim.run()
        events = schedule.events
        assert len(events) > 20
        assert small_system.sim.now == pytest.approx(
            max(e.at_us + e.repair_us for e in events), abs=1e-6
        )
        assert injector.injected == events
        assert recovery.device_failures == len(events)
        assert recovery.repairs == len(events)
        assert recovery.epoch == len(events)
        island = small_system.cluster.islands[0]
        assert island.n_healthy == island.n_devices

    def test_a_delivered_fault_is_repaired_after_stop(self, small_system):
        sim = small_system.sim
        recovery = RecoveryManager(small_system)
        d0, d1 = small_system.cluster.devices[:2]
        schedule = (
            FaultSchedule()
            .device_failure(1_000.0, d0.device_id, repair_us=5_000.0)
            .device_failure(50_000.0, d1.device_id, repair_us=5_000.0)
        )
        injector = FaultInjector(recovery, schedule)
        sim.run(until=2_000.0)
        injector.stop()
        sim.run()
        assert sim.now == 6_000.0
        assert [e.target for e in injector.injected] == [d0.device_id]
        assert recovery.device_failures == 1 and recovery.repairs == 1
        assert not d0.failed and not d1.failed

    @pytest.mark.parametrize(
        "second, down, want",
        [
            # The device fails again at its own repair instant: repaired,
            # then down for the second repair.
            ("device", [(5_999.0, True), (6_000.5, True), (10_999.0, True),
                        (11_000.5, False)],
             dict(device_failures=2, repairs=2, fail_count=2)),
            # Its host crashes at that instant: repaired, then taken down
            # with the host until the host's restore.
            ("host", [(5_999.0, True), (6_000.5, True), (8_999.0, True),
                      (9_000.5, False)],
             dict(device_failures=1, repairs=2, fail_count=2)),
            # Its island is preempted at that instant: the same, until the
            # preemption ends.
            ("preempt", [(5_999.0, True), (6_000.5, True), (7_999.0, True),
                         (8_000.5, False)],
             dict(device_failures=1, repairs=2, fail_count=2)),
        ],
    )
    def test_a_fault_at_a_repair_instant_lands_after_it(
        self, small_system, second, down, want
    ):
        """A repair timeout is armed when its fault is delivered, before
        the injector re-arms for a later fault, so at a shared instant
        the repair runs first."""
        sim = small_system.sim
        recovery = RecoveryManager(small_system)
        d0 = small_system.cluster.devices[0]
        schedule = FaultSchedule().device_failure(
            1_000.0, d0.device_id, repair_us=5_000.0
        )
        if second == "device":
            schedule.device_failure(6_000.0, d0.device_id, repair_us=5_000.0)
        elif second == "host":
            schedule.host_crash(6_000.0, d0.host.host_id, repair_us=3_000.0)
        else:
            schedule.island_preemption(6_000.0, d0.island_id, 2_000.0)
        FaultInjector(recovery, schedule)
        seen = []
        for at, _ in down:
            sim.timeout(at).add_callback(
                lambda _ev: seen.append((sim.now, d0.failed))
            )
        sim.run()
        assert seen == down
        assert recovery.device_failures == want["device_failures"]
        assert recovery.repairs == want["repairs"]
        assert d0.fail_count == want["fail_count"]

    def test_traced_fault_instants(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        system = PathwaysSystem.build(
            ClusterSpec(islands=((2, 4),), name="small"), tracer=tracer
        )
        recovery = RecoveryManager(system)
        schedule = _idle_schedule(system, seed=5)
        schedule.host_crash(20_000.0, 1, repair_us=4_000.0)
        FaultInjector(recovery, schedule)
        system.sim.run()
        got = [
            (s.name, s.start_us, s.end_us, s.args)
            for s in tracer.spans if s.cat == "fault.injected"
        ]
        want = [
            (
                f"fault:{e.kind.value}", e.at_us, e.at_us,
                {"kind": e.kind.value, "target": e.target,
                 "repair_us": e.repair_us},
            )
            for e in schedule.events
        ]
        assert got == want


# -- the lazy path's own guarantees ---------------------------------------------


def _two_idle_faults(system, repair_us=10_000.0):
    """A fault on d0 that is applied lazily, and a later one on d1 that
    holds the schedule's last transition (so it is delivered eagerly)."""
    d0, d1 = system.cluster.devices[:2]
    return d0, (
        FaultSchedule()
        .device_failure(1_000.0, d0.device_id, repair_us=repair_us)
        .device_failure(1_500.0, d1.device_id, repair_us=2 * repair_us)
    )


class TestLazyDelivery:
    def test_idle_faults_take_no_loop_entry(self, small_system):
        sim = small_system.sim
        recovery = RecoveryManager(small_system)
        FaultInjector(recovery, _idle_schedule(small_system))
        sim.run()
        # The first entry, the last fault and its repair.
        assert sim.events_processed == 3

    @pytest.mark.parametrize("touch", ["alloc", "enqueue"])
    def test_a_touch_catches_up_first(self, small_system, touch):
        """A fault already due must be visible to the first touch of a
        cold device, as it is when every fault takes a loop entry."""
        from repro.hw.device import Kernel

        sim = small_system.sim
        recovery = RecoveryManager(small_system)
        d0, schedule = _two_idle_faults(small_system)
        FaultInjector(recovery, schedule)
        sim.run(until=1_200.0)
        if touch == "alloc":
            done = d0.hbm.alloc(64)
        else:
            done = d0.enqueue(Kernel(sim, duration_us=10.0))
        sim.run(until=1_300.0)
        assert done.triggered and isinstance(done._exc, DeviceFailure)

    def test_stop_lets_go_of_the_injector(self, small_system):
        recovery = RecoveryManager(small_system)
        _, schedule = _two_idle_faults(small_system)
        injector = FaultInjector(recovery, schedule)
        small_system.sim.run(until=1_200.0)
        injector.stop()
        ref = weakref.ref(injector)
        del injector
        gc.collect()
        assert ref() is None
        small_system.sim.run()
        assert recovery.repairs == 1

    def test_capacity_subscribers_keep_every_fault_eager(self, small_system):
        sim = small_system.sim
        recovery = RecoveryManager(small_system)
        heard = []
        small_system.resource_manager.subscribe_capacity(
            lambda reason, island: heard.append((sim.now, reason))
        )
        schedule = _idle_schedule(small_system)
        FaultInjector(recovery, schedule)
        sim.run()
        assert heard == sorted(
            (e.at_us + e.repair_us, "repair") for e in schedule.events
        )


class TestSanitizer:
    def test_a_missed_warm_hook_is_reported(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        from repro.hw.device import Kernel

        system = PathwaysSystem.build(ClusterSpec(islands=((2, 4),), name="s"))
        sim = system.sim
        recovery = RecoveryManager(system)
        d0, schedule = _two_idle_faults(system)
        FaultInjector(recovery, schedule)
        sim.run(until=500.0)
        monkeypatch.setattr(FaultInjector, "warm", lambda self, devices: None)
        d0.enqueue(Kernel(sim, duration_us=5_000.0, tag="k0"))
        with pytest.raises(WarmDeviceError, match=r"d0, which held running kernel 'k0'"):
            sim.run(until=2_000.0)

    def test_hbm_waiter_left_at_drain(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        system = PathwaysSystem.build(ClusterSpec(islands=((1, 2),), name="s"))
        hbm = system.cluster.devices[0].hbm
        hbm.alloc(hbm.capacity)
        hbm.alloc(1)
        with pytest.raises(UnsettledWaitersError, match=r"hbm\[d0\] drained with 1"):
            system.sim.run()

    def test_hbm_reservation_out_of_range(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        system = PathwaysSystem.build(ClusterSpec(islands=((1, 2),), name="s"))
        hbm = system.cluster.devices[1].hbm
        hbm.used = hbm.capacity + 1
        with pytest.raises(LeakedCapacityError, match=r"hbm\[d1\] drained"):
            system.sim.run()
