"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event simulator in the
style of SimPy.  All Pathways components (hosts, devices, networks,
schedulers) are simulated processes scheduled by :class:`Simulator`.

The kernel is deliberately minimal: events, processes, timeouts,
composite events (:class:`AllOf` / :class:`AnyOf`), counted resources,
FIFO stores, and deadlock detection (the simulator can report which
processes are blocked when the event queue drains while work remains).
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    CalendarTimerQueue,
    DeadlockError,
    Event,
    Interrupt,
    Process,
    ProcessFailed,
    Settled,
    Simulator,
    Ticker,
    Timeout,
    TimerHandle,
)
from repro.sim.resources import Resource, Store
from repro.sim.sanitize import (
    DoubleTriggerError,
    LeakedCapacityError,
    PendingTimeoutReadError,
    SanitizerError,
    SimSanitizer,
    UnbalancedGrantError,
    UnsettledWaitersError,
    sanitize_from_env,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "CalendarTimerQueue",
    "DeadlockError",
    "DoubleTriggerError",
    "Event",
    "Interrupt",
    "LeakedCapacityError",
    "PendingTimeoutReadError",
    "Process",
    "ProcessFailed",
    "Resource",
    "SanitizerError",
    "Settled",
    "SimSanitizer",
    "Simulator",
    "Store",
    "Ticker",
    "Timeout",
    "TimerHandle",
    "UnbalancedGrantError",
    "UnsettledWaitersError",
    "sanitize_from_env",
]
