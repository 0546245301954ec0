"""Reference implementations the equivalence suites compare against.

The simulator runs one timer queue (:class:`repro.sim.CalendarTimerQueue`)
and one fluid solver (:class:`repro.net.fabric.ScopedFluidSolver`).  The
simplest correct shape of each lives here, outside the package, with no
production path that selects it:

* :class:`HeapTimerQueue` — one global ``(when, seq, event)`` heap;
* :class:`DenseFluidSolver` — recompute every live flow on every
  membership change.

``test_timer_queue.py`` and ``test_fluid_solver.py`` swap them in (by
assigning ``sim._queue`` or patching ``repro.net.fabric.ScopedFluidSolver``)
and assert byte-identical results.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.net.fabric import ScopedFluidSolver

__all__ = ["DenseFluidSolver", "HeapTimerQueue"]

_INF = float("inf")


class HeapTimerQueue:
    """The classic timer store: one global ``(time, seq, event)`` heap.

    Same surface as :class:`~repro.sim.CalendarTimerQueue`: ``push(when,
    seq, event)``, ``pop() -> (when, seq, event)`` in exact ``(when,
    seq)`` order, ``discard(when, event)`` for cancelled
    :class:`~repro.sim.TimerHandle` shots, ``min_when`` (``inf`` when
    empty), and ``len``.

    ``len``/``_len`` count **live** entries only.  Cancelled entries are
    tombstones (``event._dead``): removed physically whenever they reach
    the root — the exposed head is always live, so ``min_when`` always
    names the earliest live entry (the drain loop orders the timer queue
    against the zero-delay FIFO with it) — and skipped on contact
    otherwise.
    """

    __slots__ = ("_heap", "_len", "_tombs", "min_when")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._len = 0
        #: Physically-present cancelled entries; sweeps are gated on it,
        #: so payloads without a ``_dead`` attribute are never touched.
        self._tombs = 0
        self.min_when = _INF

    def __len__(self) -> int:
        return self._len

    def push(self, when: float, seq: int, event: Any) -> None:
        heapq.heappush(self._heap, (when, seq, event))
        self._len += 1
        if when < self.min_when:
            self.min_when = when

    def pop(self) -> tuple[float, int, Any]:
        heap = self._heap
        entry = heapq.heappop(heap)
        self._len -= 1
        if self._tombs:
            while heap and heap[0][2]._dead:
                heapq.heappop(heap)
                self._tombs -= 1
        self.min_when = heap[0][0] if heap else _INF
        return entry

    def discard(self, when: float, event: Any) -> None:
        """Logically remove a cancelled entry (``event._dead`` already
        set by the caller).  The root is removed physically — together
        with any tombstones it was shadowing — so ``min_when`` stays
        honest; a non-root entry is already covered by the live root
        and is dropped lazily when a pop reaches it."""
        self._len -= 1
        heap = self._heap
        if heap and heap[0][2] is event:
            heapq.heappop(heap)
            if self._tombs:
                while heap and heap[0][2]._dead:
                    heapq.heappop(heap)
                    self._tombs -= 1
            self.min_when = heap[0][0] if heap else _INF
        else:
            self._tombs += 1


class DenseFluidSolver(ScopedFluidSolver):
    """O(F) recompute-everything per membership change.

    Overrides only the three strategy hooks: every membership change
    touches every live flow, and the next completion is a min-scan over
    all of them.  Flow arithmetic, completion order and the timer
    schedule are inherited, so any schedule difference from the scoped
    solver is a bug in the scoped affected-set walk or its calendar.
    """

    def _membership_changed(self, routes, now: float) -> None:
        self.membership_updates += 1
        flows = self.flows
        self.flows_touched += len(flows)
        for flow in flows.values():
            self._update_flow(flow, now)

    def _collect_due(self, now: float) -> list:
        # Registry order is start order: the completion tie-break.
        return [f for f in self.flows.values() if f.finish_at <= now]

    def _min_finish(self) -> float:
        return min(f.finish_at for f in self.flows.values())
