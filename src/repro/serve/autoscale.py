"""Elastic autoscaling for the serving replica set.

The :class:`Autoscaler` closes the loop between three signals and the
replica pool, acting only at batch boundaries (its periodic tick — a
replica is never resized mid-gang):

* **queue depth** — backlog per routable replica above one full batch
  beyond the in-flight window (``max_batch * max_in_flight``) grows the
  pool; an empty backlog for ``SHRINK_PATIENCE`` consecutive ticks
  retires the least-loaded replica (down to ``min_replicas``);
* **capacity events** — the :class:`~repro.resilience.ElasticController`
  forwards resource-manager capacity changes (island added, repair,
  preemption end); those islands are preferred for the next grow;
* **fabric utilization** — island choice
  (:meth:`~repro.serve.replicas.ReplicaSet.pick_island`) consults
  :meth:`~repro.net.fabric.Fabric.uplink_utilization` over the fabric's
  ``UTIL_WINDOW_US`` sliding window, so new replicas land behind
  idle uplinks (the congestion-aware-placement seed signal).

The autoscaler also implements the elastic-workload protocol: an island
drain (:meth:`notify_drain`) retires every replica living there and
reports ``vacated`` once their slices are released, so serving
participates in the PR-2 drain/handback machinery exactly like elastic
training does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PathwaysSystem
    from repro.serve.frontend import Frontend
    from repro.serve.replicas import Replica, ReplicaSet

__all__ = ["Autoscaler"]

#: Consecutive idle ticks before the autoscaler retires a replica.
SHRINK_PATIENCE = 3


class Autoscaler:
    """Queue-, capacity-, and fabric-driven replica scaling."""

    def __init__(
        self,
        system: "PathwaysSystem",
        frontend: "Frontend",
        replicas: "ReplicaSet",
        min_replicas: int = 1,
        max_replicas: int = 4,
        interval_us: float = 5_000.0,
    ):
        if min_replicas < 0 or max_replicas < max(1, min_replicas):
            raise ValueError(
                f"bad replica bounds [{min_replicas}, {max_replicas}]"
            )
        self.system = system
        self.sim = system.sim
        self.frontend = frontend
        self.replicas = replicas
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.interval_us = interval_us
        #: Grow trigger: one full extra batch of backlog per replica
        #: beyond what the in-flight window absorbs.
        self.grow_backlog_per_replica = float(
            replicas.max_batch * replicas.max_in_flight
        )
        #: (time, action, island_id) decision log.
        self.decisions: list[tuple[float, str, int]] = []
        self.elastic = None
        self._idle_ticks = 0
        #: Frontend arrival count at the last tick: demand while zero
        #: replicas are routable shows up as (instantly rejected)
        #: arrivals, not as a queue, so growth-from-zero keys off this.
        self._last_arrived = frontend.arrived
        #: Islands recent capacity events pointed at (growth preference).
        self._candidates: list[int] = []
        if system.elastic is not None:
            system.elastic.register(self)
        self._timer = self.sim.timer_handle(self._on_tick, name="autoscaler")
        self._timer.schedule(self.sim.now + interval_us)

    # -- elastic-workload protocol (ElasticController callbacks) -------------
    def notify_capacity(self, island_id: int, reason: str) -> None:
        if island_id not in self._candidates:
            self._candidates.append(island_id)

    def notify_drain(self, island_id: int) -> None:
        """Vacate a draining island: retire its replicas, report back."""
        victims = self.replicas.replicas_on(island_id)
        if not victims:
            if self.elastic is not None:
                self.elastic.vacated(island_id)
            return
        events = [self.replicas.retire(r) for r in victims]
        self.decisions.append((self.sim.now, "drain", island_id))

        def _vacated(ev) -> None:
            if self.elastic is not None:
                self.elastic.vacated(island_id)

        self.sim.all_of(events).add_callback(_vacated)

    # -- the control loop -----------------------------------------------------
    def _on_tick(self, timer) -> None:
        self._tick()
        timer.schedule(self.sim.now + self.interval_us)

    def _tick(self) -> None:
        rset = self.replicas
        active = rset.routable()
        pool = len(rset.replicas)  # includes activating + retiring
        backlog = sum(r.backlog for r in active)
        per_replica = backlog / max(1, len(active))
        arrived_since = self.frontend.arrived - self._last_arrived
        self._last_arrived = self.frontend.arrived
        if (
            (not active and (self.frontend.outstanding > 0 or arrived_since > 0))
            or per_replica > self.grow_backlog_per_replica
        ) and pool < self.max_replicas:
            self._grow()
            self._idle_ticks = 0
            return
        if per_replica == 0 and len(active) > self.min_replicas:
            self._idle_ticks += 1
            if self._idle_ticks >= SHRINK_PATIENCE:
                self._shrink(active)
                self._idle_ticks = 0
        else:
            self._idle_ticks = 0

    def _grow(self) -> None:
        prefer = tuple(self._candidates)
        replica = self.replicas.grow(prefer=prefer)
        if replica is not None:
            self._candidates.clear()
            self.decisions.append(
                (self.sim.now, "grow", replica.island_id)
            )

    def _shrink(self, active: list["Replica"]) -> None:
        victim = min(active, key=lambda r: (r.backlog, -r.idx))
        self.replicas.retire(victim)
        self.decisions.append((self.sim.now, "shrink", victim.island_id))

    @property
    def scale_ups(self) -> int:
        return self.replicas.scale_ups

    @property
    def scale_downs(self) -> int:
        return self.replicas.scale_downs
