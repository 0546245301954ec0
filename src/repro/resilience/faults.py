"""Fault injection schedules (resilience subsystem).

A :class:`FaultSchedule` is a deterministic list of :class:`FaultEvent`
entries — device failures, host crashes, island preemptions — at
simulated timestamps, optionally with a repair time after which the
target comes back (empty queues, state lost).  Schedules are either
hand-written (tests) or drawn from seeded exponential inter-arrival
distributions (:meth:`FaultSchedule.poisson_device_failures`), which is
how the recovery-overhead benchmark sweeps MTBF.

The :class:`FaultInjector` delivers the schedule to the
:class:`~repro.resilience.recovery.RecoveryManager`: faults that can
touch live state on loop entries, at their instants, and faults and
repairs on idle (*cold*) devices lazily, caught up from the frozen
schedule whenever something reads device health.
"""

from __future__ import annotations

import bisect
import heapq
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, Optional, TYPE_CHECKING

import numpy as np

from repro.sim.sanitize import WarmDeviceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.device import Device
    from repro.resilience.recovery import RecoveryManager

__all__ = ["FaultEvent", "FaultInjector", "FaultKind", "FaultSchedule"]

#: Schedule order: fault time only, ties kept in insertion order — the
#: same stable order as :class:`FaultEvent`'s ``(at_us,)`` comparison,
#: without a Python-level ``__lt__`` call per comparison.
_AT = attrgetter("at_us")

#: Exponential draws per ``Generator.exponential`` call when building a
#: Poisson schedule.  NumPy fills a block element by element from the
#: same bit stream as repeated scalar calls, so the block size changes
#: no draw.
_DRAW_BLOCK = 4096


def _exponentials(rng: np.random.Generator, scale: float) -> Iterator[float]:
    """Endless ``rng.exponential(scale)`` draws, taken in blocks.

    Yields exactly the floats repeated scalar calls would return; the
    generator must be private to one caller, since the unused tail of
    the last block is drawn from it."""
    while True:
        yield from rng.exponential(scale, size=_DRAW_BLOCK).tolist()


class FaultKind(Enum):
    DEVICE_FAILURE = "device_failure"
    HOST_CRASH = "host_crash"
    ISLAND_PREEMPTION = "island_preemption"
    LINK_DOWN = "link_down"
    LINK_RESTORE = "link_restore"


_DEVICE_FAILURE = FaultKind.DEVICE_FAILURE


@dataclass(frozen=True, order=True, slots=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is a device id, host id, or island id depending on
    ``kind``.  ``repair_us > 0`` means the target restarts that long
    after the fault (MTTR); ``repair_us == 0`` means permanent loss
    (island preemptions always resume — their ``repair_us`` is the
    preemption duration and must be positive).

    ``notice_us`` (island preemptions only) models an advance
    *preemption notice*: the event is delivered at ``at_us`` and the
    hardware actually goes away ``notice_us`` later, giving an attached
    :class:`~repro.resilience.elastic.ElasticController` the window to
    drain the island gracefully instead of losing in-flight work.

    ``link`` (link faults only) is the fabric link's stable name
    (``spine[p1]``, ``uplink_tx[i0]``, ``nic_rx[h3]``, ...; see
    :meth:`repro.net.Fabric.link_by_name`); ``target`` is unused for
    link faults.  A ``LINK_DOWN`` with ``repair_us > 0`` restores the
    link that long after the fault.
    """

    at_us: float
    kind: FaultKind = field(compare=False)
    target: int = field(default=0, compare=False)
    repair_us: float = field(default=0.0, compare=False)
    notice_us: float = field(default=0.0, compare=False)
    link: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at_us}")
        if self.repair_us < 0:
            raise ValueError(f"repair time must be >= 0, got {self.repair_us}")
        if self.kind is FaultKind.ISLAND_PREEMPTION and self.repair_us <= 0:
            raise ValueError("island preemption needs a positive duration")
        if self.notice_us < 0:
            raise ValueError(f"notice time must be >= 0, got {self.notice_us}")
        if self.notice_us > 0 and self.kind is not FaultKind.ISLAND_PREEMPTION:
            raise ValueError("advance notice only applies to island preemptions")
        link_fault = self.kind in (FaultKind.LINK_DOWN, FaultKind.LINK_RESTORE)
        if link_fault and not self.link:
            raise ValueError(f"{self.kind.value} needs a link name")
        if self.link and not link_fault:
            raise ValueError("link names only apply to link faults")


class FaultSchedule:
    """An ordered collection of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.events: list[FaultEvent] = sorted(events, key=_AT)
        #: Set once a :class:`FaultInjector` starts walking ``events``:
        #: an insert ahead of its cursor would shift the list under it.
        self._injecting = False

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def add(self, event: FaultEvent) -> "FaultSchedule":
        if self._injecting:
            raise RuntimeError(
                "cannot add to a FaultSchedule an injector is already "
                "delivering; build the whole schedule before the run"
            )
        # Right of any equal-time event: the order append + stable sort gives.
        bisect.insort(self.events, event, key=_AT)
        return self

    def device_failure(
        self, at_us: float, device_id: int, repair_us: float = 0.0
    ) -> "FaultSchedule":
        return self.add(
            FaultEvent(at_us, FaultKind.DEVICE_FAILURE, device_id, repair_us)
        )

    def host_crash(
        self, at_us: float, host_id: int, repair_us: float = 0.0
    ) -> "FaultSchedule":
        return self.add(FaultEvent(at_us, FaultKind.HOST_CRASH, host_id, repair_us))

    def island_preemption(
        self, at_us: float, island_id: int, duration_us: float,
        notice_us: float = 0.0,
    ) -> "FaultSchedule":
        return self.add(
            FaultEvent(
                at_us, FaultKind.ISLAND_PREEMPTION, island_id, duration_us,
                notice_us=notice_us,
            )
        )

    def link_down(
        self, at_us: float, link: str, repair_us: float = 0.0
    ) -> "FaultSchedule":
        return self.add(
            FaultEvent(at_us, FaultKind.LINK_DOWN, repair_us=repair_us, link=link)
        )

    def link_restore(self, at_us: float, link: str) -> "FaultSchedule":
        return self.add(FaultEvent(at_us, FaultKind.LINK_RESTORE, link=link))

    @classmethod
    def poisson_link_flaps(
        cls,
        mtbf_us: float,
        horizon_us: float,
        links: Iterable[str],
        seed: int = 0,
        repair_us: float = 10_000.0,
    ) -> "FaultSchedule":
        """Exponential per-link flap inter-arrivals with mean ``mtbf_us``.

        A *flap* is a ``LINK_DOWN`` that self-restores after
        ``repair_us`` (must be positive: a permanent loss is
        :meth:`link_down` with ``repair_us=0``).  Deterministic for a
        given seed, like :meth:`poisson_device_failures`.
        """
        if mtbf_us <= 0:
            raise ValueError(f"mtbf must be positive, got {mtbf_us}")
        if repair_us <= 0:
            raise ValueError(f"flap repair time must be positive, got {repair_us}")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        for link in links:
            t = float(rng.exponential(mtbf_us))
            while t < horizon_us:
                events.append(
                    FaultEvent(
                        t, FaultKind.LINK_DOWN, repair_us=repair_us, link=link
                    )
                )
                t += repair_us + float(rng.exponential(mtbf_us))
        return cls(events)

    @classmethod
    def poisson_device_failures(
        cls,
        mtbf_us: float,
        horizon_us: float,
        device_ids: Iterable[int],
        seed: int = 0,
        repair_us: float = 0.0,
    ) -> "FaultSchedule":
        """Exponential per-device failure inter-arrivals with mean
        ``mtbf_us``, up to ``horizon_us``.

        Deterministic for a given seed (the paper's simulator rule: all
        randomness from explicitly seeded generators).  A device with
        ``repair_us > 0`` can fail repeatedly; with 0 it fails at most
        once (later draws for it are dropped).
        """
        if mtbf_us <= 0:
            raise ValueError(f"mtbf must be positive, got {mtbf_us}")
        draw = _exponentials(np.random.default_rng(seed), mtbf_us).__next__
        kind = FaultKind.DEVICE_FAILURE
        events: list[FaultEvent] = []
        append = events.append
        for device_id in device_ids:
            t = draw()
            while t < horizon_us:
                append(FaultEvent(t, kind, device_id, repair_us))
                if repair_us <= 0:
                    break
                t += repair_us + draw()
        return cls(events)


class FaultInjector:
    """Delivers a schedule to the recovery manager.

    Most device faults hit a *cold* device: one nothing holds (see
    :meth:`PathwaysSystem.device_holders`: no kernel, HBM waiter or
    down host, no bound slice or capacity subscriber, no island
    scheduler naming it or stalled).  On such a device
    :meth:`RecoveryManager.fail_device` and ``repair_device`` change
    only its up/down state and three counters, and the schedule is
    frozen, so that state is a pure function of time.  The injector
    applies those transitions *lazily*: :meth:`catch_up` walks the
    schedule with one cursor, and a heap of owed repairs, up to
    ``sim.now``, with no loop entry of their own.  At a shared instant
    repairs run before faults, as the repair timeout eager delivery
    arms is armed before the timer of any later fault.

    The rest is delivered *eagerly*, at the instant a timer walking the
    whole schedule would deliver it: every other fault kind through
    :meth:`RecoveryManager.inject`, and device faults and repairs on
    warm devices through ``fail_device`` and ``repair_device``.  One
    timer is armed at the next eager fault, another at the earliest
    repair owed to a warm device.  A device fault landing at or before
    its device's previous repair (or after a permanent loss) is always
    eager, and so are the fault and the repair holding the schedule's
    last transition, so ``sim.run()`` still ends there.

    A device turns warm, caught up, before any touch
    (``Device.enqueue``, ``fail`` or ``restart``, ``HbmAllocator.alloc``,
    slice bind, gang submit, a scheduler stall, a capacity subscriber).
    It turns cold again when its last slice is released, or after one
    of its own eager transitions, if quiescent then; the first injector
    entry classifies every device.  Reading ``Device.failed`` catches
    up; so do ``Island.healthy_devices``, :attr:`injected`,
    :meth:`stats` and the ``RecoveryManager`` counters.
    """

    def __init__(self, recovery: "RecoveryManager", schedule: FaultSchedule):
        self.recovery = recovery
        self.schedule = schedule
        self._injected: list[FaultEvent] = []
        #: Per schedule entry, set up by the first firing: the instant a
        #: timer walking the whole schedule delivers it, and whether it
        #: is always delivered eagerly.
        self._shot_us: Optional[array] = None
        self._forced: Optional[bytearray] = None
        #: The entry holding the schedule's last transition.
        self._last = -1
        #: Devices this injector may hold cold, by id.
        self._devices: dict[int, Device] = {}
        #: Next schedule entry to deliver, and the end of the entries
        #: after it last found lazy (a warmed device may undo that).
        self._cursor = 0
        self._lazy_upto = 0
        #: ``(instant, schedule index)`` of every owed repair, and the
        #: instants of those owed to warm devices, by schedule index.
        self._owed: list[tuple[float, int]] = []
        self._warm_owed: dict[int, float] = {}
        #: Set while the schedule is being walked: hooks re-entered from
        #: an eager delivery neither catch up nor re-arm.
        self._walking = False
        sim = recovery.sim
        #: Armed at the next eager fault, and at the earliest repair
        #: owed to a warm device.
        self._timer = sim.timer_handle(self._fire, name="fault-injector")
        self._repair_timer = sim.timer_handle(self._fire, name="fault-repair")
        self._timer.schedule(sim.now)

    @property
    def injected(self) -> list[FaultEvent]:
        """Faults delivered so far, in schedule order."""
        self.catch_up()
        return self._injected

    def stop(self) -> None:
        """Cancel any not-yet-injected faults.

        Repairs of faults already delivered still land at their times,
        and afterwards nothing in the system refers to the injector."""
        self.catch_up()
        for timer in (self._timer, self._repair_timer):
            timer.cancel()
            timer.action = _stopped
        if self.recovery._fault_clock is not self:
            return
        events = self.schedule.events
        for at, index in sorted(self._owed):
            self._repair_after_stop(events[index], at)
        self._owed, self._warm_owed = [], {}
        for device in self._devices.values():
            device.fault_clock = None
        for island in self.recovery.system.cluster.islands:
            if island._fault_clock is self:
                island._fault_clock = None
        self.recovery._fault_clock = None
        self._devices = {}
        self._shot_us = self._forced = None

    def stats(self):
        """Frozen injector snapshot (unified ``repro.stats`` protocol)."""
        from repro.stats import FaultInjectorStats

        by_kind: dict[str, int] = {}
        for event in self.injected:
            by_kind[event.kind.value] = by_kind.get(event.kind.value, 0) + 1
        return FaultInjectorStats(
            scheduled=len(self.schedule),
            injected=len(self._injected),
            remaining=len(self.schedule) - len(self._injected),
            injected_by_kind=by_kind,
        )

    # -- device classification ------------------------------------------------
    def catch_up(self) -> None:
        """Apply every lazy transition due by ``sim.now``."""
        if not self._walking and self._shot_us is not None:
            self._walk(False)

    def warm(self, devices: Iterable[Device]) -> None:
        """Catch up, then deliver every later transition of ``devices``
        eagerly: they are about to hold live state."""
        cold = [d for d in devices if d.fault_clock is self]
        if cold:
            self.catch_up()
            self._warm(cold)
            if not self._walking:
                self._rearm()

    def warm_ids(self, device_ids: Iterable[int]) -> None:
        """:meth:`warm` by device id (gang submissions name ids)."""
        get = self._devices.get
        self.warm([d for d in map(get, device_ids) if d is not None])

    def settle(self, devices: Iterable[Device]) -> None:
        """Re-classify ``devices`` after a transition or a release:
        quiescent ones turn cold, the rest warm."""
        known = self._devices
        cold, warm = set(), []
        for device, held in self._held_states(
            [d for d in devices if d.device_id in known]
        ):
            if held is None:
                if device.fault_clock is not self:
                    device.fault_clock = self
                    cold.add(device.device_id)
            elif device.fault_clock is self:
                warm.append(device)
        if cold and self._warm_owed:
            events = self.schedule.events
            for index in [
                i for i in self._warm_owed
                if events[i].target in cold and i != self._last
            ]:
                del self._warm_owed[index]
        if warm:
            self._warm(warm)
        if (cold or warm) and not self._walking:
            self._rearm()

    def _held_states(self, devices: list[Device]):
        """``(device, the live state it holds or None)`` per device."""
        return zip(devices, self.recovery.system.device_holders(devices))

    def _warm(self, devices: list[Device]) -> None:
        """Mark ``devices`` warm: their owed repairs become eager."""
        for device in devices:
            device.fault_clock = None
        self._lazy_upto = 0
        if self._owed:
            ids = {d.device_id for d in devices}
            events = self.schedule.events
            for at, index in self._owed:
                if events[index].target in ids:
                    self._warm_owed[index] = at

    def _repair_after_stop(self, event: FaultEvent, at: float) -> None:
        """A timer repairing ``event``'s device at ``at``, with no
        reference to the injector."""
        recovery = self.recovery
        device = self._devices[event.target]
        recovery.sim.timer_handle(
            lambda _timer: recovery.repair_device(device), name="fault-repair"
        ).schedule(at)

    # -- the walk ------------------------------------------------------------------
    def _fire(self, timer) -> None:
        if self._shot_us is None:
            self._start()
        self._walk(True)
        self._rearm()

    def _start(self) -> None:
        """First firing: time the schedule and classify every device."""
        recovery = self.recovery
        schedule = self.schedule
        schedule._injecting = True
        events = schedule.events
        n = len(events)
        shot = array("d", bytes(8 * n))
        forced = bytearray(n)
        ends: dict[int, float] = {}
        last, last_at = -1, -math.inf
        t = recovery.sim.now
        for i, event in enumerate(events):
            at = event.at_us
            if at - t > 0:
                # The instant ``timer.schedule(now + delay)`` arms.
                t = t + (at - t)
            shot[i] = t
            if event.kind is _DEVICE_FAILURE:
                repair_us = event.repair_us
                end = t + repair_us if repair_us > 0 else math.inf
                prev = ends.get(event.target)
                if (prev is not None and t <= prev) or end <= t:
                    forced[i] = 1
                if prev is None or end > prev:
                    ends[event.target] = end
                final = t if end == math.inf else end
                if final >= last_at:
                    last, last_at = i, final
        if last >= 0:
            forced[last] = 1
        self._shot_us, self._forced, self._last = shot, forced, last
        if recovery._fault_clock is not None:
            return  # another injector already holds devices cold
        recovery._fault_clock = self
        cluster = recovery.system.cluster
        for island in cluster.islands:
            island._fault_clock = self
        self._devices = {d.device_id: d for d in cluster.devices}
        for device, held in self._held_states(cluster.devices):
            if held is None:
                device.fault_clock = self

    def _walk(self, deliver: bool) -> None:
        """Apply the transitions due by ``sim.now`` in schedule order:
        lazy ones in place, eager ones when ``deliver``, else stop at
        the first eager one (its own entry at this instant is due)."""
        recovery = self.recovery
        sim = recovery.sim
        now = sim._now
        shot = self._shot_us
        owed = self._owed
        i = self._cursor
        n = len(shot)
        if (i >= n or shot[i] > now) and (not owed or owed[0][0] > now):
            return
        events = self.schedule.events
        forced = self._forced
        warm_owed = self._warm_owed
        devices = self._devices
        get = devices.get
        pop, push = heapq.heappop, heapq.heappush
        record = self._injected.append
        tr = sim.tracer
        check = self._check_cold if sim.sanitize else None
        failed = repaired = 0
        self._walking = True
        try:
            while True:
                # The next transition: an owed repair, or the next fault.
                at = shot[i] if i < n else math.inf
                if owed and owed[0][0] <= at:
                    at, index = owed[0]
                    if at > now:
                        break
                    if index in warm_owed:
                        if not deliver:
                            break
                        pop(owed)
                        del warm_owed[index]
                        recovery.repair_device(devices[events[index].target])
                        continue
                    pop(owed)
                    event = events[index]
                    device = devices[event.target]
                    if check is not None:
                        check(device, event, at)
                    if device.apply_idle_fault(False):
                        repaired += 1
                    continue
                if at > now:
                    break
                event = events[i]
                device = None
                if event.kind is _DEVICE_FAILURE:
                    device = get(event.target)
                if device is not None and device.fault_clock is self and not forced[i]:
                    if check is not None:
                        check(device, event, at)
                    if device.apply_idle_fault(True):
                        failed += 1
                    if event.repair_us > 0:
                        push(owed, (at + event.repair_us, i))
                elif not deliver:
                    break
                elif device is not None:
                    self._cursor = i + 1
                    recovery.fail_device(device, reason="injected fault")
                    if event.repair_us > 0:
                        push(owed, (at + event.repair_us, i))
                        if device.fault_clock is not self or i == self._last:
                            warm_owed[i] = at + event.repair_us
                else:
                    self._cursor = i + 1
                    recovery.inject(event)
                i += 1
                record(event)
                if tr is not None:
                    tr.instant(
                        f"fault:{event.kind.value}",
                        "fault.injected",
                        ts_us=at,
                        track="faults",
                        args={
                            "kind": event.kind.value,
                            "target": event.link or event.target,
                            "repair_us": event.repair_us,
                        },
                    )
        finally:
            self._cursor = i
            self._walking = False
            recovery._epoch += failed
            recovery._device_failures += failed
            recovery._repairs += repaired

    def _rearm(self) -> None:
        """Arm one timer at the next fault that is not lazy, and the
        other at the earliest repair owed to a warm device."""
        shot = self._shot_us
        events = self.schedule.events
        forced = self._forced
        get = self._devices.get
        n = len(shot)
        i = max(self._cursor, self._lazy_upto)
        while i < n and not forced[i]:
            event = events[i]
            if event.kind is not _DEVICE_FAILURE:
                break
            device = get(event.target)
            if device is None or device.fault_clock is not self:
                break
            i += 1
        self._lazy_upto = i
        if i < n:
            self._timer.schedule(shot[i])
        else:
            self._timer.cancel()
        if self._warm_owed:
            self._repair_timer.schedule(min(self._warm_owed.values()))
        else:
            self._repair_timer.cancel()

    def _check_cold(self, device: Device, event: FaultEvent, at: float) -> None:
        """Sanitizer: a lazily applied transition must find its device
        still cold."""
        [(_, held)] = self._held_states([device])
        if held is not None:
            raise WarmDeviceError(
                f"fault at {event.at_us:.3f}us (transition at {at:.3f}us) "
                f"applied lazily to {device.name}, which held {held}"
            )


def _stopped(timer) -> None:  # pragma: no cover - a stopped timer never fires
    pass
