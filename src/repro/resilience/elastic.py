"""Elastic scale-up and graceful island drain/handback.

The paper's single-controller design exists so the resource layer can
re-bind virtual slices to changing physical hardware without client
involvement.  The recovery subsystem (PR 1) built the *shrink* half —
failure, eviction, remap.  This module is the *grow* half plus the
graceful alternative to abrupt loss:

* **Scale-up** — when :meth:`ResourceManager.add_island` introduces
  capacity (or failed hardware returns: repair, host restore, end of a
  preemption), the resource manager fires a capacity-change event.  The
  :class:`ElasticController` forwards it to registered elastic
  workloads, which widen onto the new hardware at their next checkpoint
  boundary — binding fresh virtual slices through the resource manager
  and re-entering the island schedulers' consistent enqueue order.

* **Drain / handback** — a *preemption notice* gives the system a
  window before hardware disappears.  Instead of losing in-flight gangs
  (and rolling every tenant back to its last checkpoint), the
  controller stops admission on the island's scheduler (admitted work
  finishes in order; new submissions are rejected into the recovery
  path, which remaps them elsewhere), tells elastic workloads to
  vacate — checkpoint, release their slices, shrink — and completes the
  handback once nothing is bound and nothing is in flight.

Wiring::

    system = PathwaysSystem.build(spec)
    recovery = RecoveryManager(system)
    elastic = ElasticController(system)          # attaches as system.elastic
    elastic.register(trainer)                    # an elastic workload
    serving = attach_serving(system, autoscale=True)   # its autoscaler registers

    # graceful preemption, delivered via the fault schedule:
    schedule.island_preemption(at_us, island_id, duration_us, notice_us=50_000.0)

Elastic workloads implement ``notify_capacity(island_id, reason)`` and
``notify_drain(island_id)`` (both synchronous, typically just recording
the signal for the next step boundary) and call :meth:`vacated` once
they have released their slices on a draining island.
"""

from __future__ import annotations

import warnings

from typing import Optional, TYPE_CHECKING

from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PathwaysSystem

__all__ = ["ElasticController"]


class ElasticController:
    """Mediates capacity growth and graceful island drain for one system.

    Attaches as ``system.elastic``; there is at most one per system.
    """

    def __init__(self, system: "PathwaysSystem"):
        if system.elastic is not None:
            raise RuntimeError("system already has an ElasticController attached")
        self.system = system
        self.sim = system.sim
        #: Registered elastic workloads (notify_capacity / notify_drain /
        #: vacated protocol).
        self.workloads: list = []
        #: island_id -> handback event for drains in progress.
        self._draining: dict[int, Event] = {}
        #: Islands whose scheduler reported empty (drained event fired).
        self._sched_drained: set[int] = set()
        self.drains_started = 0
        self.handbacks = 0
        self.notices = 0
        self.capacity_events = 0
        system.elastic = self
        system.resource_manager.subscribe_capacity(self._on_capacity)
        system.resource_manager.subscribe_release(self._on_release)

    def stats(self):
        """Frozen controller snapshot (unified ``repro.stats`` protocol)."""
        from repro.stats import ElasticStats

        return ElasticStats(
            drains_started=self.drains_started,
            handbacks=self.handbacks,
            notices=self.notices,
            capacity_events=self.capacity_events,
            workloads=len(self.workloads),
            draining_now=sum(
                1 for ev in self._draining.values() if not ev.triggered
            ),
        )

    # -- workload registry ---------------------------------------------------
    def register(self, workload) -> None:
        """Attach an elastic workload; sets ``workload.elastic = self``."""
        if workload not in self.workloads:
            self.workloads.append(workload)
            workload.elastic = self

    # -- capacity growth -----------------------------------------------------
    def _on_capacity(self, reason: str, island_id: int) -> None:
        self.capacity_events += 1
        if island_id in self._draining and reason == "preemption-end":
            # The noticed preemption ran its course: the island is back,
            # so the drain cycle is over — reopen it and let workloads
            # grow back onto it.  _finish_drain notifies the workloads;
            # returning here keeps it exactly one signal per event.
            self._finish_drain(island_id)
            return
        if self.system.resource_manager.is_draining(island_id):
            return  # not usable capacity (yet)
        for workload in list(self.workloads):
            workload.notify_capacity(island_id, reason)

    # -- drain / handback ----------------------------------------------------
    def drain_island(self, island_id: int, deadline_us: Optional[float] = None) -> Event:
        """Gracefully vacate ``island_id``; returns the handback event.

        Stops admission on the island's scheduler (admitted gangs finish
        in order), withdraws the island from new resource-manager
        bindings, and notifies elastic workloads to vacate at their next
        boundary.  The returned event fires once the scheduler is empty
        and no slice remains bound to the island.  ``deadline_us`` only
        arms a warning — the preemption-notice path enforces the actual
        deadline by preempting.
        """
        rm = self.system.resource_manager
        existing = self._draining.get(island_id)
        if existing is not None:
            return existing
        rm.begin_drain(island_id)
        self.drains_started += 1
        island = self.system.cluster.islands[island_id]
        scheduler = self.system.scheduler_for(island)
        handback = self.sim.event(name=lambda: f"handback:{island_id}")
        self._draining[island_id] = handback
        if rm.bound_slices_on(island_id) and not self.workloads:
            warnings.warn(
                f"draining island {island_id} with "
                f"{len(rm.bound_slices_on(island_id))} bound slice(s) but no "
                "registered elastic workload; the drain can only complete if "
                "their owners vacate via the recovery path",
                UserWarning,
                stacklevel=1,
            )
        def _sched_empty(ev: Event) -> None:
            self._sched_drained.add(island_id)
            self._maybe_complete_drain(island_id)

        scheduler.drain().add_callback(_sched_empty)
        for workload in list(self.workloads):
            workload.notify_drain(island_id)
        if deadline_us is not None:
            def _check_deadline(ev: Event) -> None:
                if not handback.triggered:
                    warnings.warn(
                        f"island {island_id} drain missed its "
                        f"{deadline_us:.0f}us deadline; in-flight work will "
                        "be lost to the abrupt path",
                        UserWarning,
                        stacklevel=1,
                    )
            self.sim.timeout(deadline_us).add_callback(_check_deadline)
        return handback

    def vacated(self, island_id: int) -> None:
        """A workload released its slices on a draining island."""
        self._maybe_complete_drain(island_id)

    def _on_release(self, island_id: int) -> None:
        # A slice left the island via ANY path (elastic vacate, recovery
        # remap, plain release): a drain may now be complete.
        if island_id in self._draining:
            self._maybe_complete_drain(island_id)

    def preemption_notice(
        self, island_id: int, notice_us: float, duration_us: float
    ) -> Event:
        """An island will be preempted in ``notice_us`` for
        ``duration_us``: drain now, preempt at the deadline (whatever is
        left is lost abruptly), and let the end-of-preemption capacity
        event grow workloads back.  Returns the drain's handback event.
        """
        self.notices += 1
        handback = self.drain_island(island_id, deadline_us=notice_us)

        def _preempt(ev: Event) -> None:
            recovery = self.system.recovery
            if recovery is None:  # pragma: no cover - defensive
                warnings.warn(
                    f"noticed preemption of island {island_id} has no "
                    "RecoveryManager to execute it; dropping",
                    UserWarning,
                    stacklevel=1,
                )
                return
            recovery.preempt_island(island_id, duration_us)

        self.sim.timeout(notice_us).add_callback(_preempt)
        return handback

    # -- internals -----------------------------------------------------------
    def _maybe_complete_drain(self, island_id: int) -> None:
        handback = self._draining.get(island_id)
        if handback is None or handback.triggered:
            return
        if island_id not in self._sched_drained:
            return
        if self.system.resource_manager.bound_slices_on(island_id):
            return
        self.handbacks += 1
        handback.succeed(None)

    def _finish_drain(self, island_id: int) -> None:
        handback = self._draining.pop(island_id, None)
        self._sched_drained.discard(island_id)
        rm = self.system.resource_manager
        rm.end_drain(island_id)
        island = self.system.cluster.islands[island_id]
        self.system.scheduler_for(island).undrain()
        if handback is not None and not handback.triggered:
            handback.succeed(None)
        for workload in list(self.workloads):
            workload.notify_capacity(island_id, "undrained")
