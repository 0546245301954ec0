"""Fault injection schedules (resilience subsystem).

A :class:`FaultSchedule` is a deterministic list of :class:`FaultEvent`
entries — device failures, host crashes, island preemptions — at
simulated timestamps, optionally with a repair time after which the
target comes back (empty queues, state lost).  Schedules are either
hand-written (tests) or drawn from seeded exponential inter-arrival
distributions (:meth:`FaultSchedule.poisson_device_failures`), which is
how the recovery-overhead benchmark sweeps MTBF.

The :class:`FaultInjector` is a daemon process that walks the schedule
and hands each event to the :class:`~repro.resilience.recovery.RecoveryManager`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Generator, Iterable, Iterator, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
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
    """Daemon process delivering a schedule to the recovery manager."""

    def __init__(self, recovery: "RecoveryManager", schedule: FaultSchedule):
        self.recovery = recovery
        self.schedule = schedule
        self.injected: list[FaultEvent] = []
        self._proc = recovery.sim.process(
            self._run(), name="fault-injector", daemon=True
        )

    def stop(self) -> None:
        """Cancel any not-yet-injected faults (engine cancel path)."""
        self._proc.cancel()

    def stats(self):
        """Frozen injector snapshot (unified ``repro.stats`` protocol)."""
        from repro.stats import FaultInjectorStats

        by_kind: dict[str, int] = {}
        for event in self.injected:
            by_kind[event.kind.value] = by_kind.get(event.kind.value, 0) + 1
        return FaultInjectorStats(
            scheduled=len(self.schedule),
            injected=len(self.injected),
            remaining=len(self.schedule) - len(self.injected),
            injected_by_kind=by_kind,
        )

    def _run(self) -> Generator:
        sim = self.recovery.sim
        timeout = sim.timeout
        inject = self.recovery.inject
        record = self.injected.append
        self.schedule._injecting = True
        for event in self.schedule:
            delay = event.at_us - sim._now
            if delay > 0:
                yield timeout(delay)
            inject(event)
            record(event)
            tr = sim.tracer
            if tr is not None:
                tr.instant(
                    f"fault:{event.kind.value}",
                    "fault.injected",
                    track="faults",
                    args={
                        "kind": event.kind.value,
                        "target": event.link or event.target,
                        "repair_us": event.repair_us,
                    },
                )
