"""Reference implementations the equivalence suites compare against.

The simulator runs one fluid solver
(:class:`repro.net.fabric.ScopedFluidSolver`) and one fault generator.
The simplest correct shape of each lives here, outside the package, with
no production path that selects it:

* :class:`DenseFluidSolver` — per-flow rates, every live flow
  recomputed on every membership change;
* :func:`scalar_poisson_device_failures` — one scalar exponential draw
  per call and the dataclass-ordered sort, the reference for
  :meth:`repro.resilience.FaultSchedule.poisson_device_failures`.

``test_fluid_solver.py`` swaps the solver in (by patching
``repro.net.fabric.ScopedFluidSolver``) and asserts byte-identical
results; ``test_resilience.py`` compares the fault schedules event for
event.  The timer queue needs no oracle: :class:`repro.sim.TimerQueue`
is itself the plain ``(when, seq)`` heap, and ``test_timer_queue.py``
checks it against a sorted list of the live entries.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.resilience import FaultEvent, FaultKind

__all__ = ["DenseFluidSolver", "scalar_poisson_device_failures"]

_INF = float("inf")


def scalar_poisson_device_failures(
    mtbf_us: float,
    horizon_us: float,
    device_ids: Iterable[int],
    seed: int = 0,
    repair_us: float = 0.0,
) -> list[FaultEvent]:
    """Per-device exponential failure times, one ``rng.exponential``
    call per draw, sorted by :class:`FaultEvent`'s own ``(at_us,)``
    ordering."""
    rng = np.random.default_rng(seed)
    events: list[FaultEvent] = []
    for device_id in device_ids:
        t = float(rng.exponential(mtbf_us))
        while t < horizon_us:
            events.append(
                FaultEvent(t, FaultKind.DEVICE_FAILURE, device_id, repair_us)
            )
            if repair_us <= 0:
                break
            t += repair_us + float(rng.exponential(mtbf_us))
    return sorted(events)


class _Flow:
    """One fluid flow with its own rate, sync time and projection."""

    __slots__ = (
        "key", "route", "remaining", "nbytes", "ev", "rate", "seq",
        "synced_at", "finish_at",
    )

    def __init__(self, key, route, nbytes: int, ev, seq: int, now: float):
        self.key = key
        self.route = route
        self.remaining = float(nbytes)
        self.nbytes = nbytes
        self.ev = ev
        self.rate = 0.0
        #: Start order: the same-instant completion tie-break.
        self.seq = seq
        #: Last time ``remaining`` was integrated (only on rate changes).
        self.synced_at = now
        self.finish_at = _INF


class DenseFluidSolver:
    """Per-flow fair share, every live flow re-rated on every change.

    The same surface :class:`~repro.net.fabric.Fabric` uses of
    :class:`~repro.net.fabric.ScopedFluidSolver` — ``start``, ``abort``,
    ``evict_crossing``, the ``flows`` registry, the ``timer`` and the
    ``FabricStats`` counters — built from nothing but per-flow
    arithmetic: each flow keeps its own rate, sync time and remaining
    bytes, a membership change recomputes every live flow, and the next
    completion is a min-scan.  It shares no code with the production
    solver, so the equivalence suite compares route-class arithmetic
    against per-flow arithmetic.  It keeps no per-link index and no
    route classes (``classes`` stays empty for the drain-end sanitizer).
    """

    def __init__(self, fabric):
        self.sim = fabric.sim
        #: key -> flow, insertion-ordered = start order.
        self.flows: dict = {}
        self.classes: dict = {}
        self.seq = 0
        self.timer = self.sim.timer_handle(self._on_timer, name="net_next_finish")
        self.peak_flows = 0
        self.completed = 0
        self.membership_updates = 0
        self.flows_touched = 0
        self.rate_recomputes = 0

    # -- flow arithmetic -------------------------------------------------
    def _update_flow(self, flow: _Flow, now: float) -> bool:
        """Recompute one flow's rate; on change, integrate progress at
        the old rate and re-project completion."""
        self.rate_recomputes += 1
        rate = min(link.bytes_per_us / link.fluid_flows for link in flow.route)
        if rate == flow.rate:
            return False
        elapsed = now - flow.synced_at
        if elapsed > 0.0:
            flow.remaining -= flow.rate * elapsed
            flow.synced_at = now
        flow.rate = rate
        remaining = flow.remaining
        if remaining < 0.0:
            remaining = 0.0
        flow.finish_at = now + remaining / rate
        return True

    def _sync(self, flow: _Flow, now: float) -> float:
        """Integrate ``remaining`` up to ``now`` without a rate change;
        returns the clamped remaining bytes."""
        elapsed = now - flow.synced_at
        if elapsed > 0.0:
            flow.remaining -= flow.rate * elapsed
            flow.synced_at = now
        remaining = flow.remaining
        return remaining if remaining > 0.0 else 0.0

    def _membership_changed(self, now: float) -> None:
        self.membership_updates += 1
        self.flows_touched += len(self.flows)
        for flow in self.flows.values():
            self._update_flow(flow, now)

    # -- membership ------------------------------------------------------
    def start(self, key, route, nbytes: int, ev) -> None:
        now = self.sim._now
        self.seq += 1
        self.flows[key] = _Flow(key, route, nbytes, ev, self.seq, now)
        self.peak_flows = max(self.peak_flows, len(self.flows))
        for link in route:
            link.fluid_enter()
        self._membership_changed(now)
        self._settle_timer(now)

    def abort(self, key) -> bool:
        flow = self.flows.pop(key, None)
        if flow is None:
            return False
        for link in flow.route:
            link.fluid_exit()
            link.flows_aborted += 1
        now = self.sim._now
        self._membership_changed(now)
        self._settle_timer(now)
        return True

    def evict_crossing(self, link) -> list:
        now = self.sim._now
        return [
            (flow.key, self._sync(flow, now))
            for flow in self.flows.values()
            if link in flow.route
        ]

    # -- completion ------------------------------------------------------
    def _on_timer(self, handle) -> None:
        self._run_completions(self.sim._now)

    def _collect_due(self, now: float) -> list:
        # Registry order is start order: the completion tie-break.
        return [f for f in self.flows.values() if f.finish_at <= now]

    def _run_completions(self, now: float) -> None:
        due = self._collect_due(now)
        while due:
            self.completed += len(due)
            for flow in due:
                del self.flows[flow.key]
                for link in flow.route:
                    link.fluid_exit()
                    link.bytes_carried += flow.nbytes
                    link.flows_completed += 1
                if not flow.ev.triggered:
                    flow.ev.succeed(None)
            self._membership_changed(now)
            due = self._collect_due(now)
        self._settle_timer(now)

    def _settle_timer(self, now: float) -> None:
        if not self.flows:
            self.timer.cancel()
            return
        best = min(f.finish_at for f in self.flows.values())
        if best <= now:
            self._run_completions(now)
            return
        self.timer.schedule(best)
