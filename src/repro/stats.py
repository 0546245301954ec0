"""Unified observability snapshots across every subsystem.

Each subsystem historically exposed ad-hoc counters — raw attribute
pokes like ``frontend.completed``, ``transport.messages_lost``, or
``client.deadline_rejections`` — so every bench and test hard-coded a
different spelling of "how is the system doing?".  This module defines
the one protocol they all share now:

* ``<subsystem>.stats()`` returns a **frozen** dataclass deriving from
  :class:`Stats` — an immutable point-in-time snapshot, safe to stash
  and compare across phases of a run;
* every snapshot serializes uniformly via :meth:`Stats.as_dict`, which
  recurses through nested snapshots (such as the ``TransportStats`` and
  ``LatencySnapshot`` that subsystems define next to their counters),
  mappings, and sequences — ready for JSON artifacts;
* ``PathwaysSystem.stats()`` aggregates the whole stack — engine,
  dispatch counters, per-island schedulers, clients, transport, serving
  frontends, recovery — into a single :class:`SystemStats` tree.

The dataclasses here are deliberately *leaf* definitions: this module
imports no subsystem, so any layer (sim, net, serve, resilience) can
import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Optional

__all__ = [
    "ClientStats",
    "ElasticStats",
    "FabricStats",
    "FaultInjectorStats",
    "RecoveryStats",
    "SchedulerStats",
    "ServeStats",
    "SimStats",
    "Stats",
    "SystemStats",
    "stats_to_dict",
]


def stats_to_dict(value: Any) -> Any:
    """Recursively render a snapshot as plain dicts/lists/scalars.

    Unlike :func:`dataclasses.asdict` this also descends into dataclass
    instances reached through ``object``-typed fields (snapshots defined
    in subsystem modules this leaf module cannot import), so the result
    is always JSON-ready.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: stats_to_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: stats_to_dict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [stats_to_dict(v) for v in value]
    return value


@dataclass(frozen=True)
class Stats:
    """Base protocol: a frozen snapshot with uniform serialization."""

    def as_dict(self) -> dict:
        return stats_to_dict(self)


@dataclass(frozen=True)
class SimStats(Stats):
    """Engine snapshot: clock, event counters, queue population."""

    now_us: float
    events_processed: int
    #: *Live* future (timed) events currently queued — cancelled
    #: ``TimerHandle`` shots are excluded the instant they are
    #: cancelled, so a drained queue reports 0 even mid-run.
    pending_timers: int
    #: Zero-delay events waiting in the immediate FIFO.
    immediate_depth: int
    #: Live (unfinished) generator processes.
    live_processes: int


@dataclass(frozen=True)
class SchedulerStats(Stats):
    """One island scheduler: sequencing and admission counters."""

    island_id: int
    decisions: int
    #: Requests awaiting a grant right now.
    pending: int
    #: Granted-but-unfinished gangs right now.
    live_grants: int
    evictions: int
    deadline_evictions: int
    stale_completions: int
    rejected_draining: int


@dataclass(frozen=True)
class FabricStats(Stats):
    """Fluid fair-share engine observability (``Fabric.stats()``).

    The counters quantify the work the solver did — the flow-scale
    sweep bounds ``flows_touched_per_update`` — while
    ``active_flows``/``idle`` carry the capacity-leak invariant benches
    assert after fault drills.
    """

    active_flows: int
    peak_concurrent_flows: int
    flows_started: int
    flows_completed: int
    #: Membership changes processed (start/abort/completion batches).
    membership_updates: int
    #: Flows examined across all membership changes (the members of
    #: every route class in the affected set of each change).
    flows_touched: int
    #: Min-over-route rate evaluations, one per affected route class
    #: (all flows on one route share a rate).
    rate_recomputes: int
    #: Next-finish timer traffic: re-arms vs cancels vs actual fires.
    timer_rearms: int
    timer_cancels: int
    timer_fires: int
    links: int
    links_down: int
    #: Every flow gone and every link idle (the leak invariant).
    idle: bool

    @property
    def flows_touched_per_update(self) -> float:
        """Mean flows examined per membership change — the O(F) vs
        O(affected) headline number."""
        if not self.membership_updates:
            return 0.0
        return self.flows_touched / self.membership_updates


@dataclass(frozen=True)
class ClientStats(Stats):
    """Per-client outcome counters."""

    name: str
    deadline_rejections: int
    executions_abandoned: int


@dataclass(frozen=True)
class RecoveryStats(Stats):
    """Fault-handling counters from the RecoveryManager."""

    epoch: int
    device_failures: int
    host_crashes: int
    preemptions: int
    repairs: int
    remaps: int
    programs_recovered: int
    messages_lost: int
    #: Fabric links taken down (LINK_DOWN faults and direct
    #: ``take_link_down`` calls); restores count into ``repairs``.
    link_faults: int = 0


@dataclass(frozen=True)
class ElasticStats(Stats):
    """Elastic-controller counters (``ElasticController.stats()``)."""

    drains_started: int
    handbacks: int
    notices: int
    capacity_events: int
    #: Registered elastic workloads right now.
    workloads: int
    #: Islands mid-drain (handback not fired yet).
    draining_now: int


@dataclass(frozen=True)
class FaultInjectorStats(Stats):
    """Fault-schedule delivery progress (``FaultInjector.stats()``)."""

    scheduled: int
    injected: int
    remaining: int
    injected_by_kind: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ServeStats(Stats):
    """One serving frontend: typed outcomes plus latency aggregates.

    ``latency`` is the frontend recorder's ``LatencySnapshot``
    (:func:`stats_to_dict` flattens it uniformly).
    """

    arrived: int
    admitted: int
    completed: int
    abandoned: int
    rejections: dict = field(default_factory=dict)
    latency: Optional[object] = None

    @property
    def rejected(self) -> int:
        return sum(self.rejections.values())


@dataclass(frozen=True)
class SystemStats(Stats):
    """The whole stack in one snapshot (``PathwaysSystem.stats()``)."""

    sim: SimStats
    programs_dispatched: int
    computations_executed: int
    schedulers: tuple = ()
    clients: tuple = ()
    #: ``TransportStats`` of the cross-host transport (None off-cluster).
    net: Optional[object] = None
    #: One :class:`ServeStats` per attached serving frontend.
    serve: tuple = ()
    recovery: Optional[RecoveryStats] = None
