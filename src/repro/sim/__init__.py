"""Discrete-event simulation kernel.

A small, deterministic discrete-event simulator in the style of SimPy.
Pathways components (hosts, devices, networks, schedulers) are
generator processes or callback state machines scheduled by
:class:`Simulator`.

The kernel is deliberately minimal: events, processes, timeouts,
cancellable re-armable timers (:class:`TimerHandle`, which also carries
recurring clocks and service loops: the action re-arms it), composite
events (:class:`AllOf` / :class:`Settled`), counted resources, and
deadlock detection (the simulator reports which processes
and callback chains are blocked when the event queue drains while work
remains).  Future timers wait in one ``(time, seq)`` binary heap,
:class:`TimerQueue`.
"""

from repro.sim.engine import (
    AllOf,
    DeadlockError,
    Event,
    Process,
    ProcessFailed,
    Settled,
    Simulator,
    Timeout,
    TimerHandle,
    TimerQueue,
)
from repro.sim.resources import Resource
from repro.sim.sanitize import (
    ConservationError,
    DoubleTriggerError,
    LaneStateError,
    LeakedCapacityError,
    PendingTimeoutReadError,
    SanitizerError,
    SimSanitizer,
    UnbalancedGrantError,
    UnsettledWaitersError,
    WarmDeviceError,
    sanitize_from_env,
)

__all__ = [
    "AllOf",
    "ConservationError",
    "DeadlockError",
    "DoubleTriggerError",
    "Event",
    "LaneStateError",
    "LeakedCapacityError",
    "PendingTimeoutReadError",
    "Process",
    "ProcessFailed",
    "Resource",
    "SanitizerError",
    "Settled",
    "SimSanitizer",
    "Simulator",
    "Timeout",
    "TimerHandle",
    "TimerQueue",
    "UnbalancedGrantError",
    "UnsettledWaitersError",
    "WarmDeviceError",
    "sanitize_from_env",
]
