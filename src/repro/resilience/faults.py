"""Fault injection schedules (resilience subsystem).

A :class:`FaultSchedule` is a deterministic, time-ordered set of faults
— device failures, host crashes, island preemptions, link faults — at
simulated timestamps, optionally with a repair time after which the
target comes back (empty queues, state lost).  Schedules are either
hand-written (tests) or drawn from seeded exponential inter-arrival
distributions (:meth:`FaultSchedule.poisson_device_failures`), which is
how the recovery-overhead benchmark sweeps MTBF.  A schedule keeps its
faults as columns; a :class:`FaultEvent` is built only when something
reads one.

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
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, TYPE_CHECKING

import numpy as np

from repro.sim.sanitize import WarmDeviceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.device import Device
    from repro.resilience.recovery import RecoveryManager

__all__ = ["FaultEvent", "FaultInjector", "FaultKind", "FaultSchedule"]

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


#: A :class:`FaultSchedule`'s columns, and the kinds by their code there.
_COLUMNS = ("_at", "_kind", "_target", "_repair")
_KINDS = tuple(FaultKind)
_DEVICE_FAILURE_CODE = _KINDS.index(_DEVICE_FAILURE)


def _view(column) -> np.ndarray:
    """A writable array over a column's buffer."""
    return np.frombuffer(column, dtype=getattr(column, "typecode", np.uint8))


class FaultSchedule:
    """A time-ordered collection of faults, stored as columns.

    Entry ``i`` fails ``_target[i]`` (a device, host or island id) at
    ``_at[i]`` with the fault kind coded ``_kind[i]`` and repair time
    ``_repair[i]``, ordered by time with ties kept in insertion order.
    ``_event`` maps an entry added as a :class:`FaultEvent` to it.
    Poisson schedules are drawn straight into the columns, and their
    events are built only when something reads them (:attr:`events`,
    iteration, :meth:`event`).
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        events = list(events)
        self._at = array("d", [e.at_us for e in events])
        self._kind = bytearray(_KINDS.index(e.kind) for e in events)
        self._target = array("q", [e.target for e in events])
        self._repair = array("d", [e.repair_us for e in events])
        self._event: dict[int, FaultEvent] = dict(enumerate(events))
        #: Set once a :class:`FaultInjector` starts walking the entries:
        #: an insert ahead of its cursor would shift them under it.
        self._injecting = False
        self._sort()

    def _sort(self) -> None:
        """Order the entries by time, ties kept in insertion order."""
        at = _view(self._at)
        if (at[1:] >= at[:-1]).all():
            return
        order = np.argsort(at, kind="stable")
        for name in _COLUMNS:
            column = _view(getattr(self, name))
            column[:] = column[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self._event = {int(rank[i]): e for i, e in self._event.items()}

    def __len__(self) -> int:
        return len(self._at)

    def __iter__(self):
        return iter(self.events)

    @property
    def events(self) -> list[FaultEvent]:
        """Every fault, in schedule order."""
        events = self._event
        if len(events) < len(self):
            events.update((i, self.event(i)) for i in range(len(self)) if i not in events)
        return [events[i] for i in range(len(self))]

    def event(self, index: int) -> FaultEvent:
        """The ``index``-th fault in schedule order."""
        event = self._event.get(index)
        if event is None:
            event = FaultEvent(
                self._at[index], _KINDS[self._kind[index]], self._target[index],
                self._repair[index],
            )
        return event

    def add(self, event: FaultEvent) -> "FaultSchedule":
        if self._injecting:
            raise RuntimeError(
                "cannot add to a FaultSchedule an injector is already "
                "delivering; build the whole schedule before the run"
            )
        # Right of any equal-time event: the order append + stable sort gives.
        index = bisect.bisect_right(self._at, event.at_us)
        row = (event.at_us, _KINDS.index(event.kind), event.target, event.repair_us)
        for name, value in zip(_COLUMNS, row):
            getattr(self, name).insert(index, value)
        self._event = {i + (i >= index): e for i, e in self._event.items()}
        self._event[index] = event
        return self

    @classmethod
    def merge(cls, *schedules: "FaultSchedule") -> "FaultSchedule":
        """Every entry of ``schedules`` in one schedule: by time, ties
        in argument order, then in each schedule's own order."""
        merged = cls()
        for schedule in schedules:
            base = len(merged)
            merged._event.update((base + i, e) for i, e in schedule._event.items())
            for name in _COLUMNS:
                getattr(merged, name).extend(getattr(schedule, name))
        merged._sort()
        return merged

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
        once (later draws for it are dropped).  The times are drawn
        straight into the schedule's columns: no :class:`FaultEvent`
        is built.
        """
        if mtbf_us <= 0:
            raise ValueError(f"mtbf must be positive, got {mtbf_us}")
        if repair_us < 0:
            raise ValueError(f"repair time must be >= 0, got {repair_us}")
        draw = _exponentials(np.random.default_rng(seed), mtbf_us).__next__
        schedule = cls()
        at, target = schedule._at, schedule._target
        for device_id in device_ids:
            t = draw()
            while t < horizon_us:
                at.append(t)
                target.append(device_id)
                if repair_us <= 0:
                    break
                t += repair_us + draw()
        schedule._kind = bytearray([_DEVICE_FAILURE_CODE]) * len(at)
        schedule._repair = array("d", [repair_us]) * len(at)
        schedule._sort()
        return schedule


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
    schedule's columns with one cursor, and a queue of owed repairs, up
    to ``sim.now``, with no loop entry of their own.  At a shared
    instant repairs run before faults, as the repair timeout eager
    delivery arms is armed before the timer of any later fault.

    The rest is delivered *eagerly*, at the instant a timer walking the
    whole schedule would deliver it: every other fault kind through
    :meth:`RecoveryManager.inject`, and device faults and repairs on
    warm devices through ``fail_device`` and ``repair_device``.  One
    timer is armed at the next eager fault, another at the earliest
    repair owed to a warm device.  A device fault landing at or before
    its device's previous repair (or after a permanent loss) is always
    eager, and so are the fault and the repair holding the schedule's
    last transition, so ``sim.run()`` still ends there.  Re-arming
    finds the next eager fault without walking the lazy ones before
    it: the next such *forced* entry, or the next entry of a warm
    device, from a heap over each warm device's entries.

    A device turns warm, caught up, before any touch
    (``Device.enqueue``, ``fail`` or ``restart``, ``HbmAllocator.alloc``,
    slice bind, gang submit, a scheduler stall, a capacity subscriber).
    It turns cold again when its last slice is released, or after one
    of its own eager transitions, if quiescent then; the first injector
    entry classifies every device.  Reading ``Device.failed`` catches
    up; so do ``Island.n_healthy`` and ``healthy_at``, :attr:`injected`,
    :meth:`stats` and the ``RecoveryManager`` counters.
    """

    def __init__(self, recovery: "RecoveryManager", schedule: FaultSchedule):
        self.recovery = recovery
        self.schedule = schedule
        #: Laid out by the first firing, per schedule entry: the instant
        #: a timer walking the whole schedule delivers it, the device it
        #: fails if this injector may hold that device cold, and whether
        #: it is always eager; the entry holding the last transition; the
        #: device faults grouped by device, and each device's span there.
        self._shot: Optional[array] = None
        self._device: list[Optional[Device]] = []
        self._forced = bytearray()
        self._last = -1
        self._by_device = array("q")
        self._entries: dict[int, tuple[int, int]] = {}
        self._max_repair = 0.0
        #: Devices this injector may hold cold, by id.
        self._devices: dict[int, Device] = {}
        #: Next schedule entry to deliver.
        self._cursor = 0
        #: ``(next entry, device id)`` per warm device: a heap whose stale
        #: heads (turned cold, entry passed) :meth:`_rearm` fixes up.
        self._warm_next: list[tuple[int, int]] = []
        #: ``(instant, schedule index, device)`` of every owed repair, in
        #: order (nearly always appended: repairs mostly take one time),
        #: and the instants of those owed to warm devices, by index.
        self._owed: deque[tuple[float, int, Device]] = deque()
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
        """Faults delivered so far: the schedule's first ones."""
        self.catch_up()
        return self.schedule.events[: self._cursor]

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
        repair, timer = self.recovery.repair_device, self.recovery.sim.timer_handle
        for at, _, device in self._owed:
            # No reference to the injector.
            timer(lambda _t, d=device: repair(d), name="fault-repair").schedule(at)
        self._owed, self._warm_owed = deque(), {}
        for device in self._devices.values():
            device.fault_clock = None
        for island in self.recovery.system.cluster.islands:
            if island._fault_clock is self:
                island._fault_clock = None
        self.recovery._fault_clock = None
        self._devices = {}
        self._shot = None

    def stats(self):
        """Frozen injector snapshot (unified ``repro.stats`` protocol)."""
        from repro.stats import FaultInjectorStats

        self.catch_up()
        injected = self._cursor
        by_kind = Counter(self.schedule._kind[:injected])
        return FaultInjectorStats(
            scheduled=len(self.schedule),
            injected=injected,
            remaining=len(self.schedule) - injected,
            injected_by_kind={_KINDS[k].value: n for k, n in by_kind.items()},
        )

    # -- device classification ------------------------------------------------
    def catch_up(self) -> None:
        """Apply every lazy transition due by ``sim.now``."""
        if not self._walking and self._shot is not None:
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
            targets = self.schedule._target
            for index in [
                i for i in self._warm_owed if targets[i] in cold and i != self._last
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
        """Mark ``devices`` warm: their entries and owed repairs turn
        eager."""
        shot, by_device, cursor = self._shot, self._by_device, self._cursor
        # A device whose last applied fault ends, even with the longest
        # repair, before the earliest owed repair owes none.
        owed_from = self._owed[0][0] if self._owed else math.inf
        owing = set()
        for device in devices:
            device.fault_clock = None
            lo, hi = self._entries.get(device.device_id, (0, 0))
            k = bisect.bisect_left(by_device, cursor, lo, hi)
            if k < hi:
                heapq.heappush(self._warm_next, (by_device[k], device.device_id))
            if k > lo and shot[by_device[k - 1]] + self._max_repair >= owed_from:
                owing.add(device)
        if owing:
            for at, index, device in self._owed:
                if device in owing:
                    self._warm_owed[index] = at

    # -- the walk ------------------------------------------------------------------
    def _fire(self, timer) -> None:
        if self._shot is None:
            self._start()
        self._walk(True)
        self._rearm()

    def _start(self) -> None:
        """First firing: lay out the per-entry columns (a few array
        passes) and classify every device."""
        recovery = self.recovery
        schedule = self.schedule
        schedule._injecting = True
        if recovery._fault_clock is None:  # else another injector holds devices cold
            recovery._fault_clock = self
            cluster = recovery.system.cluster
            for island in cluster.islands:
                island._fault_clock = self
            self._devices = {d.device_id: d for d in cluster.devices}
        n = len(schedule)
        now = recovery.sim.now
        # The instants a timer walking the whole schedule fires at, each
        # ``t + (at - t)`` from the last one ``t`` (or ``t`` if ``at`` is
        # not after it): a fixed point, exact since entry i is once entry
        # i - 1 is, in one or two rounds in practice.
        at = _view(schedule._at)
        shot = np.maximum.accumulate(np.maximum(at, now))
        while True:
            prev = np.r_[now, shot[:-1]]
            step = at - prev
            fresh = np.maximum.accumulate(np.where(step > 0, prev + step, prev))
            if np.array_equal(fresh, shot):
                break
            shot = fresh
        del at, prev, step, fresh  # the peak memory of a long schedule
        # Device faults grouped by device, in schedule order within each.
        faults = np.flatnonzero(_view(schedule._kind) == _DEVICE_FAILURE_CODE)
        ids = _view(schedule._target)[faults]
        order = np.argsort(ids, kind="stable")
        faults, ids = faults[order], ids[order]
        bounds = [*np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1)).tolist(), len(faults)]
        starts, stops = bounds[:-1], bounds[1:]
        t = shot[faults]
        end = _view(schedule._repair)[faults]
        end = np.where(end > 0, t + end, np.inf)
        # The latest repair end of the device's earlier faults: the
        # previous one's, unless a device's repair ends go down.
        latest = np.r_[-np.inf, end[:-1]]
        latest[starts] = -np.inf
        if (end < latest).any():
            for lo, hi in zip(starts, stops):
                latest[lo + 1 : hi] = np.maximum.accumulate(end[lo : hi - 1])
        # Lazy unless its device is not ours, it lands by that repair or
        # after a permanent loss, or its repair is too short to move the
        # clock; the fault holding the schedule's last transition (the
        # latest such on a tie) is eager too, so the run ends there.
        owned = [self._devices.get(i) for i in ids[starts].tolist()]
        known = np.repeat(np.not_equal(owned, None), np.diff(bounds))
        lazy = known & (t > latest) & (end > t)
        forced = bytearray(b"\x01") * n
        np.frombuffer(forced, dtype=np.uint8)[faults[lazy]] = 0
        final = np.where(end == np.inf, t, end)
        last = int(faults[final == final.max()].max()) if len(faults) else -1
        if last >= 0:
            forced[last] = 1
        self._entries = dict(zip(ids[starts].tolist(), zip(starts, stops)))
        self._by_device = by_device = array("q", faults.tobytes())
        entry_device: list[Optional[Device]] = [None] * n
        for device, lo, hi in zip(owned, starts, stops):
            if device is not None:
                for i in by_device[lo:hi]:
                    entry_device[i] = device
        self._max_repair = max(schedule._repair, default=0.0)
        # Almost always the schedule's own times: share them then.
        at = schedule._at
        self._shot = at if np.array_equal(shot, _view(at)) else array("d", shot.tobytes())
        self._device, self._forced, self._last = entry_device, forced, last
        devices = list(self._devices.values())
        warm = []
        for device, held in self._held_states(devices):
            if held is None:
                device.fault_clock = self
            else:
                warm.append(device)
        self._warm(warm)

    def _walk(self, deliver: bool) -> None:
        """Apply the transitions due by ``sim.now`` in schedule order:
        lazy ones in place, eager ones when ``deliver``, else stop at
        the first eager one (its own entry at this instant is due)."""
        recovery = self.recovery
        sim = recovery.sim
        now = sim._now
        shot = self._shot
        owed = self._owed
        i = self._cursor
        n = len(shot)
        if (i >= n or shot[i] > now) and (not owed or owed[0][0] > now):
            return
        schedule = self.schedule
        repairs = schedule._repair
        entry_device = self._device
        forced = self._forced
        warm_owed = self._warm_owed
        pop, insort = owed.popleft, bisect.insort
        inf = math.inf
        tr = sim.tracer
        check = self._check_cold if sim.sanitize else None
        failed = repaired = 0
        self._walking = True
        try:
            while True:
                # The next transition: an owed repair, or the next fault.
                at = shot[i] if i < n else inf
                if owed and owed[0][0] <= at:
                    at, index, device = owed[0]
                    if at > now:
                        break
                    if index in warm_owed:
                        if not deliver:
                            break
                        pop()
                        del warm_owed[index]
                        recovery.repair_device(device)
                        continue
                    pop()
                    if check is not None:
                        check(device, index, at)
                    if device.apply_idle_fault(False):
                        repaired += 1
                    continue
                if at > now:
                    break
                device = entry_device[i]
                if not forced[i] and device.fault_clock is self:
                    if check is not None:
                        check(device, i, at)
                    if device.apply_idle_fault(True):
                        failed += 1
                    repair_us = repairs[i]
                    if repair_us > 0:
                        repair = (at + repair_us, i, device)
                        # In order, unless repair times vary.
                        if owed and repair < owed[-1]:
                            insort(owed, repair)
                        else:
                            owed.append(repair)
                elif not deliver:
                    break
                elif device is not None:
                    self._cursor = i + 1
                    recovery.fail_device(device, reason="injected fault")
                    repair_us = repairs[i]
                    if repair_us > 0:
                        repair = (at + repair_us, i, device)
                        if owed and repair < owed[-1]:
                            insort(owed, repair)
                        else:
                            owed.append(repair)
                        if device.fault_clock is not self or i == self._last:
                            warm_owed[i] = at + repair_us
                else:
                    self._cursor = i + 1
                    recovery.inject(schedule.event(i))
                if tr is not None:
                    event = schedule.event(i)
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
                i += 1
        finally:
            self._cursor = i
            self._walking = False
            recovery._epoch += failed
            recovery._device_failures += failed
            recovery._repairs += repaired

    def _rearm(self) -> None:
        """Arm one timer at the next fault that is not lazy (the next
        forced entry or the next entry of a warm device, whichever is
        first), and the other at the earliest repair owed to a warm
        device."""
        shot, by_device, cursor = self._shot, self._by_device, self._cursor
        n = len(shot)
        eager = self._forced.find(1, cursor)
        if eager < 0:
            eager = n
        heap = self._warm_next
        while heap:
            entry, device_id = heap[0]
            if entry < cursor:  # passed: the device's next entry
                lo, hi = self._entries[device_id]
                k = bisect.bisect_left(by_device, cursor, lo, hi)
                entry = by_device[k] if k < hi else n
            if entry == n or self._devices[device_id].fault_clock is self:
                heapq.heappop(heap)  # no entries left, or turned cold
            elif entry != heap[0][0]:
                heapq.heapreplace(heap, (entry, device_id))
            else:
                eager = min(eager, entry)
                break
        if eager < n:
            self._timer.schedule(shot[eager])
        else:
            self._timer.cancel()
        if self._warm_owed:
            self._repair_timer.schedule(min(self._warm_owed.values()))
        else:
            self._repair_timer.cancel()

    def _check_cold(self, device: Device, index: int, at: float) -> None:
        """Sanitizer: a lazily applied transition must find its device
        still cold."""
        [(_, held)] = self._held_states([device])
        if held is not None:
            raise WarmDeviceError(
                f"fault at {self.schedule._at[index]:.3f}us (transition at "
                f"{at:.3f}us) applied lazily to {device.name}, which held {held}"
            )


def _stopped(timer) -> None:  # pragma: no cover - a stopped timer never fires
    pass
