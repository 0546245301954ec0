"""Core event loop, events, and processes.

Time is a float in **microseconds**.  The unit choice matters: the paper's
quantities of interest (PCIe enqueue ~3 us, DCN RPC ~40 us, computations
0.04 ms - 35 ms) are all conveniently expressed in microseconds without
sub-unit fractions dominating.

Determinism: ties in event time are broken by scheduling order — a FIFO
ring for events scheduled at the current moment, a (time, seq)-ordered
calendar queue for future timeouts — so two runs of the same program
produce identical schedules.  Any randomness must come from explicitly
seeded generators.

Performance: this module is the simulator's hot path (a paper-scale
sweep processes millions of events), so it deliberately trades a little
idiom for speed — `_value`/`_exc` are tested directly instead of going
through the ``triggered``/``ok`` properties, zero-delay occurrences skip
the timer queue entirely, and event *names* are resolved lazily: a
component passes a constant or a zero-argument lambda, never an eager
f-string.  How fast the whole simulator runs, and which layer the wall time goes
to, is measured by ``benchmarks/e2e/``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional, Union

from repro.sim.sanitize import (
    DoubleTriggerError,
    PendingTimeoutReadError,
    SanitizerError,
    SimSanitizer,
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
    "PendingTimeoutReadError",
    "Process",
    "ProcessFailed",
    "Settled",
    "Simulator",
    "Ticker",
    "Timeout",
    "TimerHandle",
]

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()

#: A name is a plain string, or a zero-argument callable resolved (and
#: cached) on first access — so hot paths never pay for f-strings that
#: are only read by error messages and debuggers.
LazyName = Union[str, Callable[[], str]]


class DeadlockError(RuntimeError):
    """Raised by :meth:`Simulator.run` when processes remain blocked.

    This is not merely defensive: the paper's central gang-scheduling
    argument is that *without* a consistent enqueue order, non-preemptible
    accelerators deadlock.  The test suite provokes exactly that deadlock
    and asserts this error is raised.
    """

    def __init__(self, message: str, blocked: Iterable["Process"] = ()):  # noqa: D107
        super().__init__(message)
        self.blocked = list(blocked)


class ProcessFailed(RuntimeError):
    """An exception raised inside a simulated process, with provenance."""

    def __init__(self, process: "Process", cause: BaseException):  # noqa: D107
        super().__init__(f"process {process.name!r} failed: {cause!r}")
        self.process = process
        self.cause = cause


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):  # noqa: D107
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes may wait on.

    An event is *triggered* with either a value (:meth:`succeed`) or an
    exception (:meth:`fail`).  Callbacks registered before triggering run
    when the event is processed by the event loop; callbacks added after
    run immediately.
    """

    __slots__ = ("sim", "_value", "_exc", "callbacks", "_name")

    #: Timer-queue tombstone flag.  Only :class:`TimerHandle` shots are
    #: ever cancelled, but the timer queue checks ``entry._dead`` on
    #: every head they expose, so the flag lives here as a class
    #: attribute: a cheap constant read for the overwhelming majority
    #: of events that can never be cancelled.
    _dead = False

    def __init__(self, sim: "Simulator", name: LazyName = ""):
        self.sim = sim
        self._name = name
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self.callbacks: Optional[list[Callable[[Event], None]]] = []

    # -- naming --------------------------------------------------------
    @property
    def name(self) -> str:
        """Resolved lazily: most events are never asked for their name."""
        n = self._name
        if not n:
            return type(self).__name__.lower()
        if not isinstance(n, str):
            n = self._name = n()
        return n

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._value is not _PENDING and self._exc is None

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise RuntimeError(f"event {self.name!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING or self._exc is not None:
            raise DoubleTriggerError(f"event {self.name!r} already triggered")
        self._value = value
        self.sim._immediate.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not _PENDING or self._exc is not None:
            raise DoubleTriggerError(f"event {self.name!r} already triggered")
        self._exc = exc
        self.sim._immediate.append(self)
        return self

    def succeed_inline(self, value: Any = None) -> "Event":
        """Trigger *and process* in place, skipping the loop entry.

        For completion notifications raised from inside an
        already-running event context (a device finishing a kernel): the
        callbacks would run at the same simulated instant either way, so
        deferring them through the loop only costs a dispatch.  After
        this call the event behaves exactly like one the loop has
        processed (late callbacks run inline).
        """
        if self._value is not _PENDING or self._exc is not None:
            raise DoubleTriggerError(f"event {self.name!r} already triggered")
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)
        return self

    # -- callbacks -----------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks is None:
            # Already processed: run inline (still inside sim loop).
            fn(self)
        else:
            callbacks.append(fn)

    def _process_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # Computed from the raw slots, not the ``triggered`` property:
        # pre-fire Timeouts raise on that read under sanitize mode, and
        # a repr must never raise.
        state = (
            "triggered"
            if (self._value is not _PENDING or self._exc is not None)
            else "pending"
        )
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` microseconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self._name = ""
        self._value = value
        self._exc = None
        self.callbacks = []
        self.delay = delay
        sim._schedule_at(self, delay)

    @property
    def name(self) -> str:
        return self._name or f"timeout({self.delay:g})"

    @property
    def triggered(self) -> bool:
        """Guarded: a Timeout is pre-valued, so the base property is
        ``True`` from construction — *before* the delay elapses.  Code
        asking "has it fired?" through this read is wrong (RPR004);
        under sanitize mode the read raises instead of misleading.
        """
        if self.callbacks is not None and self.sim.sanitize:
            # Callbacks unconsumed == not yet processed by the loop.
            raise PendingTimeoutReadError(
                f"read of .triggered on {self.name!r} before it fired: "
                "Timeouts are pre-valued, so this is always True — "
                "compare sim.now against the arming time instead"
            )
        return self._value is not _PENDING or self._exc is not None


class Ticker(Event):
    """A self-re-arming periodic timer, processed entirely in place.

    Fleet-scale scenarios keep hundreds of thousands of recurring
    clocks alive at once — host heartbeats, per-device telemetry
    scrapes, failure scanners.  Driving each tick through
    ``timeout(...).add_callback(...)`` allocates an event, a callbacks
    list, and a dispatch per tick; a Ticker is *one* event object
    re-armed forever.  Each tick runs ``action(ticker)`` and, unless
    :meth:`stop` was called, re-schedules the same object ``period``
    microseconds ahead — zero per-tick allocation, which also keeps the
    cyclic GC's allocation counters out of the hot loop.

    A Ticker never *triggers* in the Event sense: it cannot be yielded
    on from a process and must not be given callbacks or succeeded;
    ``stop()`` ends it (lazily — a queued occurrence is consumed as a
    no-op).  A ``0`` period re-arms at the same instant via the
    immediate queue, exactly like a zero-delay timeout.
    """

    __slots__ = ("action", "period", "ticks", "stopped")

    def __init__(
        self,
        sim: "Simulator",
        period: float,
        action: Callable[["Ticker"], None],
        name: LazyName = "",
        start_delay: Optional[float] = None,
    ):
        self.sim = sim
        self._name = name
        self._value = _PENDING
        self._exc = None
        self.callbacks = []
        period = float(period)
        if period < 0:
            raise ValueError(f"negative ticker period: {period}")
        self.period = period
        first = period if start_delay is None else start_delay
        self.action = action
        #: Number of times this ticker has fired.
        self.ticks = 0
        self.stopped = False
        if first < 0:
            raise ValueError(f"negative ticker delay: {first}")
        sim._schedule_at(self, first)

    def stop(self) -> None:
        """Stop re-arming after (and including) the next occurrence."""
        self.stopped = True

    def _process_callbacks(self) -> None:
        if self.stopped:
            return
        self.ticks += 1
        self.action(self)
        if not self.stopped:
            # Inline of Simulator._schedule_at: with O(100k) tickers live
            # this is the single hottest re-arm path in fleet runs, and
            # the extra method call is measurable.
            sim = self.sim
            when = sim._now + self.period
            if when <= sim._now:
                sim._immediate.append(self)
            else:
                sim._seq += 1
                sim._queue.push(when, sim._seq, self)


class _TimerShot:
    """One queued occurrence of a :class:`TimerHandle`.

    A fresh shot is pushed per (re-)arm; cancelling flags the shot dead
    so the timer queue can drop it — physically when it is the exposed
    head (keeping ``min_when`` honest), lazily on contact otherwise.
    """

    __slots__ = ("handle", "_dead")

    def __init__(self, handle: "TimerHandle"):
        self.handle = handle
        self._dead = False

    @property
    def name(self) -> str:
        return self.handle.name

    def _process_callbacks(self) -> None:
        # A cancelled shot can still be drained from the zero-delay FIFO
        # (cancellation there is flag-only); it must be a no-op.
        if not self._dead:
            self.handle._fire()


class TimerHandle:
    """A cancellable, re-armable absolute-time timer.

    ``schedule(when)`` arms ``action(handle)`` to run at ``when`` (µs,
    absolute), replacing any previous arm; ``cancel()`` disarms.  Unlike
    the timeout-per-rearm pattern — which strands a dead, generation-
    guarded entry in the timer queue on every change — a handle keeps at
    most one live queue entry and tells the queue to drop the old one,
    so high-churn re-armers (the fabric's next-completion timer) leave
    no garbage behind: after the final cancel the timer queue really is
    empty.

    ``schedule`` at the already-armed time is a no-op that consumes no
    sequence number, so callers may re-assert their target after every
    update without perturbing the schedule.
    """

    __slots__ = (
        "sim", "action", "when", "_shot", "_queued", "_name",
        "fires", "rearms", "cancels",
    )

    def __init__(
        self,
        sim: "Simulator",
        action: Callable[["TimerHandle"], None],
        name: LazyName = "",
    ):
        self.sim = sim
        self.action = action
        self._name = name
        #: Armed target time (``None`` while disarmed).
        self.when: Optional[float] = None
        self._shot: Optional[_TimerShot] = None
        self._queued = False
        #: Observability counters (surfaced by ``FabricStats``).
        self.fires = 0
        self.rearms = 0
        self.cancels = 0

    @property
    def name(self) -> str:
        n = self._name
        if not n:
            return "timer"
        if not isinstance(n, str):
            n = self._name = n()
        return n

    @property
    def armed(self) -> bool:
        return self._shot is not None

    def schedule(self, when: float) -> None:
        """Arm (or re-arm) the timer to fire at absolute time ``when``."""
        if self._shot is not None:
            if when == self.when:
                return
            self._discard()
        self.rearms += 1
        shot = self._shot = _TimerShot(self)
        self.when = when
        sim = self.sim
        if when <= sim._now:
            self._queued = False
            sim._immediate.append(shot)
        else:
            self._queued = True
            sim._seq += 1
            sim._queue.push(when, sim._seq, shot)

    def cancel(self) -> None:
        """Disarm; a no-op when not armed."""
        if self._shot is not None:
            self._discard()
            self.cancels += 1

    def _discard(self) -> None:
        shot = self._shot
        shot._dead = True
        if self._queued:
            self.sim._queue.discard(self.when, shot)
        self._shot = None
        self.when = None

    def _fire(self) -> None:
        self._shot = None
        self.when = None
        self.fires += 1
        self.action(self)


class AllOf(Event):
    """Triggers when every constituent event has succeeded.

    Value is the list of constituent values, in input order.  Fails fast
    if any constituent fails.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        self.sim = sim
        self._name = ""
        self._value = _PENDING
        self._exc = None
        self.callbacks = []
        evs = self._events = list(events)
        remaining = 0
        on_child = self._on_child
        for ev in evs:
            cbs = ev.callbacks
            if cbs is not None:
                # Untriggered, or triggered but not yet processed by the
                # loop: either way its callbacks will still run.
                remaining += 1
                cbs.append(on_child)
        self._remaining = remaining
        if remaining == 0:
            self._finish()

    def _on_child(self, ev: Event) -> None:
        if self._value is not _PENDING or self._exc is not None:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._finish()

    def _finish(self) -> None:
        # A constituent may have failed *and been processed* before this
        # AllOf was constructed; propagate that as a failed event rather
        # than raising out of the constructor / event loop.
        for ev in self._events:
            if ev._exc is not None:
                self.fail(ev._exc)
                return
        self.succeed([ev._value for ev in self._events])


class AnyOf(Event):
    """Triggers when the first constituent event triggers.

    Value is ``(index, value)`` of the first event to fire.
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        self.sim = sim
        self._name = ""
        self._value = _PENDING
        self._exc = None
        self.callbacks = []
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        for idx, ev in enumerate(self._events):
            ev.add_callback(lambda e, i=idx: self._on_child(i, e))

    def _on_child(self, idx: int, ev: Event) -> None:
        if self._value is not _PENDING or self._exc is not None:
            return
        if ev._exc is None:
            self.succeed((idx, ev._value))
        else:
            self.fail(ev._exc)


class Settled(Event):
    """Fires once every input has triggered *either way* — success or
    failure.  Never fails itself; value is ``None``.

    This is the counter-based quiescing barrier behind
    :meth:`Simulator.all_settled`: one callback and one decrement per
    constituent, instead of the waiter-event-per-constituent pattern
    (which allocated N events and pushed N loop entries per barrier).
    """

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        self.sim = sim
        self._name = ""
        self._value = _PENDING
        self._exc = None
        self.callbacks = []
        remaining = 0
        on_child = self._on_child
        for ev in events:
            cbs = ev.callbacks
            if cbs is not None:
                # Not yet processed: its callbacks will still run (an
                # already-processed constituent has settled by definition).
                remaining += 1
                cbs.append(on_child)
        self._remaining = remaining
        if remaining == 0:
            self.succeed(None)

    def _on_child(self, ev: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(None)


class _Bootstrap:
    """Loop entry that starts a :class:`Process` directly.

    Scheduling this lightweight record instead of a dedicated ``init``
    Event saves one event allocation + one loop dispatch per process —
    paper-scale sweeps spawn hundreds of thousands of processes.
    """

    __slots__ = ("process",)

    def __init__(self, process: "Process"):
        self.process = process

    @property
    def name(self) -> str:
        return f"start:{self.process.name}"

    def _process_callbacks(self) -> None:
        p = self.process
        if not p._started and p._value is _PENDING and p._exc is None:
            p._step()


class Process(Event):
    """A simulated activity driven by a Python generator.

    The generator yields :class:`Event` objects; the process resumes when
    the yielded event triggers, receiving the event's value (or having
    the event's exception thrown into it).  A process is itself an event
    that triggers with the generator's return value, so processes can
    wait on each other.
    """

    __slots__ = ("generator", "_waiting_on", "daemon", "cancelled", "_started")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator,
        name: LazyName = "",
        daemon: bool = False,
    ):
        self.sim = sim
        self._name = name
        self._value = _PENDING
        self._exc = None
        self.callbacks = []
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        #: Daemon processes are service loops (device queues, schedulers)
        #: that legitimately idle forever; they are exempt from deadlock
        #: detection.
        self.daemon = daemon
        #: True once :meth:`cancel` has stopped the process.
        self.cancelled = False
        #: True once the generator has been driven (or pre-empted by an
        #: interrupt/cancel before its first step).
        self._started = False
        sim._live_processes[self] = None
        # Bootstrap: start the generator at the current simulation moment
        # (no intermediate init event; the loop entry calls _step).
        sim._immediate.append(_Bootstrap(self))

    @property
    def name(self) -> str:
        n = self._name
        if not n:
            return getattr(self.generator, "__name__", "process")
        if not isinstance(n, str):
            n = self._name = n()
        return n

    def _detach(self) -> None:
        """Stop listening to whatever this process was waiting on."""
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        # Even if the wait target already triggered (its value is in
        # flight), clearing _waiting_on makes the late _resume a no-op —
        # otherwise the stale value would be sent into whatever the
        # generator yields *next*.
        self._waiting_on = None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not _PENDING or self._exc is not None:
            return
        self._detach()
        # A process interrupted before its bootstrap ran never starts
        # normally: the Interrupt is thrown into the fresh generator.
        self._started = True
        kick = Event(self.sim)
        kick.callbacks.append(lambda ev: self._step(throw=Interrupt(cause)))
        kick.succeed()

    def cancel(self, value: Any = None) -> None:
        """Stop the process without raising into it (fault injection's
        cancellable-process path).

        The generator is closed (its ``finally`` blocks run), the process
        leaves deadlock accounting, and the process event *succeeds* with
        ``value`` so waiters observe a clean shutdown rather than a
        failure.
        """
        if self._value is not _PENDING or self._exc is not None:
            return
        self._detach()
        self._started = True
        self.generator.close()
        self.sim._live_processes.pop(self, None)
        self.cancelled = True
        self.succeed(value)

    # -- internals -----------------------------------------------------
    def _resume(self, ev: Event) -> None:
        if (
            self._waiting_on is not ev
            or self._value is not _PENDING
            or self._exc is not None
        ):
            return
        if ev._exc is None:
            self._step(value=ev._value)
        else:
            self._step(throw=ev._exc)

    def _step(self, value: Any = None, throw: Optional[BaseException] = None) -> None:
        self._waiting_on = None
        self._started = True
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.sim._live_processes.pop(self, None)
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - report with provenance
            self.sim._live_processes.pop(self, None)
            self.fail(ProcessFailed(self, exc))
            return
        if not isinstance(target, Event):
            exc = TypeError(f"process {self.name!r} yielded non-event: {target!r}")
            self.generator.close()
            self.sim._live_processes.pop(self, None)
            self.fail(ProcessFailed(self, exc))
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume)


#: "No scheduled timer" sentinel for the timer queue's ``min_when``.
_INF = float("inf")


class CalendarTimerQueue:
    """A bucketed calendar queue over ``(time, seq, event)`` entries.

    Future timeouts land in fixed-width time buckets (a dict keyed by
    ``int(when / width)``), so a push is O(1) — an int multiply and a
    list append — instead of an O(log n) global-heap sift.  Ordering
    machinery only ever runs over *small* populations:

    * ``_bucket_heap`` — a heap of the occupied bucket indices (one
      entry per occupied bucket, not per event);
    * ``_current`` — the minimum bucket, heapified on load (C-speed
      O(k)) and drained in exact ``(when, seq)`` order.  Same-bucket
      pushes during the drain heappush into this small heap.

    Entries beyond the wheel's horizon (``n_buckets * width`` past the
    current window) go to an unsorted **overflow ring** and are
    redistributed when the wheel empties — a rotation.  Because the
    wheel is empty at that point, the overflow *is* the whole pending
    population, so the rotation re-sizes the calendar in the same pass:
    bucket width spreads the population at ``_ROTATE_OCCUPANCY`` entries
    per bucket over its actual time span, and the wheel grows with the
    population so the window keeps covering it.  Skew the span can't
    see (a dense cluster behind a far-future outlier) is corrected on
    load instead: a bucket loaded with more than ``_RESIZE_SPLIT``
    entries shrinks the width and re-buckets (bucket resize on load).
    All resize decisions are pure functions of the pending population,
    so two identical runs resize identically.

    Surface: ``push(when, seq, event)``, ``pop() -> (when, seq, event)``
    in exact ``(when, seq)`` order, ``discard(when, event)`` for
    cancelled :class:`TimerHandle` shots, ``min_when`` (``inf`` when
    empty), and ``len``, which counts **live** entries only.

    The pop stream is exactly that of one global ``(when, seq)`` heap
    (``tests/oracles.py`` keeps such a heap as the reference the
    property tests compare against): the bucket index is monotone in
    ``when``, every bucket entry precedes every overflow entry, and ties
    within a bucket resolve by ``seq`` (sequence numbers are unique, so
    event objects are never compared).
    """

    __slots__ = (
        "_width", "_inv", "_n_buckets", "_min_width", "_max_width",
        "_buckets", "_bucket_heap", "_current", "_current_idx",
        "_overflow", "_horizon", "_len", "_tombs", "min_when", "_free",
    )

    #: A bucket loaded with more entries than this shrinks the width.
    _RESIZE_SPLIT = 64
    #: Rotations re-size for about this many entries per occupied bucket.
    _ROTATE_OCCUPANCY = 16

    def __init__(
        self,
        width: float = 32.0,
        n_buckets: int = 1024,
        min_width: float = 1e-3,
        max_width: float = float(1 << 22),
    ) -> None:
        if width <= 0 or n_buckets < 2:
            raise ValueError("width > 0 and n_buckets >= 2 required")
        self._width = width
        self._inv = 1.0 / width
        self._n_buckets = n_buckets
        self._min_width = min_width
        self._max_width = max_width
        self._buckets: dict[int, list] = {}
        self._bucket_heap: list[int] = []
        self._current: list = []
        self._current_idx = -1
        self._overflow: list = []
        #: First pushes overflow, and the first pop's rotation aligns
        #: the wheel window to the earliest entry — self-initializing.
        self._horizon = 0.0
        self._len = 0
        #: Physically-present cancelled entries.  All tombstone sweeps
        #: are gated on this, so queues that never see a ``discard``
        #: (and property tests pushing raw payloads without a ``_dead``
        #: attribute) never pay for — or even touch — the flag.
        self._tombs = 0
        self.min_when = _INF
        #: Recycled (drained) bucket lists.  Bucket churn without a
        #: freelist creates/destroys thousands of young container
        #: objects per wheel revolution, which drags the cyclic GC into
        #: repeated full-generation scans over every pending entry; at
        #: fleet scale that costs more than the queue work itself.
        self._free: list[list] = []

    def __len__(self) -> int:
        return self._len

    @property
    def width(self) -> float:
        """Current bucket width in µs (adapts to load)."""
        return self._width

    def push(self, when: float, seq: int, event: Any) -> None:
        entry = (when, seq, event)
        self._len += 1
        if when < self.min_when:
            self.min_when = when
        if when >= self._horizon:
            self._overflow.append(entry)
            return
        idx = int(when * self._inv)
        if idx == self._current_idx:
            # Lands in the bucket being drained: join its small heap.
            heapq.heappush(self._current, entry)
            return
        b = self._buckets.get(idx)
        if b is None:
            free = self._free
            if free:
                b = free.pop()
                b.append(entry)
            else:
                b = [entry]
            self._buckets[idx] = b
            heapq.heappush(self._bucket_heap, idx)
        else:
            b.append(entry)

    def pop(self) -> tuple[float, int, Any]:
        cur = self._current
        if not cur or cur[0][0] > self.min_when:
            # The minimum lives in another bucket: before the first pop
            # of a window, a push may land *below* the loaded bucket.
            self._reload()
            cur = self._current
        entry = heapq.heappop(cur)
        # Gated on ``_tombs`` so payloads without a ``_dead`` attribute
        # (queues that never saw a discard) are never touched.
        assert not (self._tombs and entry[2]._dead), "popped a dead entry"
        self._len -= 1
        self._settle()
        return entry

    def discard(self, when: float, event: Any) -> None:
        """Logically remove a cancelled entry (``event._dead`` already
        set by the caller).  The exposed head of the current bucket is
        removed physically — ``min_when`` must always name the earliest
        *live* entry, because the drain loop orders the timer queue
        against the zero-delay FIFO with it — and any other entry is
        dropped lazily when a pop or bucket load reaches it."""
        self._len -= 1
        cur = self._current
        if cur and cur[0][2] is event:
            heapq.heappop(cur)
            # The removal can expose tombstones from earlier non-head
            # discards: sweep them unconditionally — pop() trusts the
            # current head to be live, and _refresh_min() uses it as
            # its scan bound, so a dead head would poison both.
            if self._tombs:
                while cur and cur[0][2]._dead:
                    heapq.heappop(cur)
                    self._tombs -= 1
            if when == self.min_when:
                self._settle()
            elif self._len == 0:
                self._clear_garbage()
            elif not cur:
                # The loaded bucket drained, but the global minimum
                # lives below it (a push landed under the loaded
                # window) and is unaffected; load its bucket so the
                # live-head invariant holds for the next pop.
                self._free.append(cur)
                self._load_next()
            # else: a push landed below the loaded bucket, so the global
            # minimum lives elsewhere and is unaffected by this removal.
            return
        self._tombs += 1
        if self._len == 0:
            self._clear_garbage()
        elif when == self.min_when:
            # The earliest live entry may have been exactly this one,
            # sitting outside the loaded bucket (pre-first-pop overflow,
            # or a push below the loaded window): recompute the minimum
            # over the surviving live population.
            self._refresh_min()

    # -- internals -----------------------------------------------------
    def _settle(self) -> None:
        """Re-establish the live-head invariant after the head of the
        current bucket was removed (popped or discarded)."""
        cur = self._current
        if self._tombs:
            while cur and cur[0][2]._dead:
                heapq.heappop(cur)
                self._tombs -= 1
        if cur:
            self.min_when = cur[0][0]
        elif self._len:
            self._free.append(cur)
            self._load_next()
        else:
            self._clear_garbage()

    def _clear_garbage(self) -> None:
        """No live entries remain: drop cancelled-entry tombstones
        wholesale so an 'empty' queue is physically empty."""
        free = self._free
        cur = self._current
        if cur:
            cur.clear()
        for b in self._buckets.values():
            b.clear()
            free.append(b)
        self._buckets.clear()
        self._bucket_heap.clear()
        self._overflow.clear()
        self._tombs = 0
        self.min_when = _INF

    def _refresh_min(self) -> None:
        """Exact minimum over live entries (rare: only when a discard
        outside the loaded bucket was tied with ``min_when``)."""
        best = _INF
        cur = self._current
        if self._tombs:
            # Defensively re-establish the live-head invariant rather
            # than trusting it: a dead head used as the bound below
            # would hide the true minimum behind a stale-early value.
            while cur and cur[0][2]._dead:
                heapq.heappop(cur)
                self._tombs -= 1
        if cur:
            # The current head is live and bounds everything in ``cur``.
            best = cur[0][0]
        for b in self._buckets.values():
            for e in b:
                if e[0] < best and not e[2]._dead:
                    best = e[0]
        for e in self._overflow:
            if e[0] < best and not e[2]._dead:
                best = e[0]
        self.min_when = best

    def _reload(self) -> None:
        """Unload the current bucket (if any) and load the minimum one."""
        cur = self._current
        if cur:
            # Already heap-ordered, which is fine for a plain bucket
            # list; it is re-heapified on its next load.
            self._buckets[self._current_idx] = cur
            heapq.heappush(self._bucket_heap, self._current_idx)
        self._current = []
        self._current_idx = -1
        self._load_next()

    def _load_next(self) -> None:
        """Load the minimum occupied bucket into ``_current``.

        Caller guarantees entries exist somewhere and ``_current`` is
        empty.  Over-full buckets trigger the halve-and-re-bucket path
        before the load completes.
        """
        while True:
            if not self._buckets:
                self._rotate()
            idx = heapq.heappop(self._bucket_heap)
            bucket = self._buckets.pop(idx)
            if len(bucket) > self._RESIZE_SPLIT and self._width > self._min_width:
                # Bucket resize on load: too many entries share one
                # bucket — shrink the width so this bucket splits down
                # to roughly half the threshold, in ONE re-bucketing
                # pass (repeated halving would re-bucket the whole
                # population per step).
                factor = 2
                target = len(bucket) // (self._RESIZE_SPLIT // 2)
                while factor < target:
                    factor <<= 1
                self._rebucket(bucket, self._width / factor)
                continue
            if len(bucket) > 1:
                heapq.heapify(bucket)
            if self._tombs:
                while bucket and bucket[0][2]._dead:
                    heapq.heappop(bucket)
                    self._tombs -= 1
            if bucket:
                break
            # Every entry was a cancelled timer shot: keep looking.
            self._free.append(bucket)
        self._current = bucket
        self._current_idx = idx
        self.min_when = bucket[0][0]

    def _rebucket(self, pending: list, new_width: float) -> None:
        """Collapse everything into the overflow ring and re-distribute
        at ``new_width`` (deterministic: bucket lists keep push order,
        dict iteration is insertion-ordered)."""
        entries = self._overflow
        entries.extend(pending)
        pending.clear()
        free = self._free
        free.append(pending)
        for b in self._buckets.values():
            entries.extend(b)
            b.clear()
            free.append(b)
        self._buckets.clear()
        self._bucket_heap.clear()
        self._width = max(new_width, self._min_width)
        self._inv = 1.0 / self._width
        self._horizon = 0.0
        self._overflow = entries
        # keep_width: the caller just *chose* this width because the
        # population is skewed; the span heuristic would undo it.
        self._rotate(keep_width=True)

    def _rotate(self, keep_width: bool = False) -> None:
        """Advance the wheel window to the earliest overflow entry and
        redistribute the overflow ring into buckets.

        Only called with an empty wheel and a non-empty overflow, so the
        overflow is the entire pending population — which makes this the
        natural re-sizing point: pick the bucket width that spreads the
        population at ``_ROTATE_OCCUPANCY`` entries per bucket over its
        actual span, and grow the wheel with the population (buckets
        live in a dict, so only occupied ones cost memory).
        """
        overflow = self._overflow
        n = len(overflow)
        if n > 1:
            # Lexicographic min/max of (when, seq, ...) tuples: seq is
            # unique, so [0] is the exact min/max time, C-speed.
            base_when = min(overflow)[0]
            if not keep_width:
                span = max(overflow)[0] - base_when
                if span > 0.0:
                    width = span * self._ROTATE_OCCUPANCY / n
                    if width < self._min_width:
                        width = self._min_width
                    elif width > self._max_width:
                        width = self._max_width
                    self._width = width
                    self._inv = 1.0 / width
        else:
            base_when = overflow[0][0]
        want = 1 << max(n >> 3, 512).bit_length()
        if want > self._n_buckets:
            self._n_buckets = want
        limit_idx = int(base_when * self._inv) + self._n_buckets
        self._horizon = horizon = limit_idx * self._width
        buckets = self._buckets
        bucket_heap = self._bucket_heap
        free = self._free
        keep: list = free.pop() if free else []
        inv = self._inv
        for entry in overflow:
            if entry[0] < horizon:
                idx = int(entry[0] * inv)
                b = buckets.get(idx)
                if b is None:
                    if free:
                        b = free.pop()
                        b.append(entry)
                    else:
                        b = [entry]
                    buckets[idx] = b
                    heapq.heappush(bucket_heap, idx)
                else:
                    b.append(entry)
            else:
                keep.append(entry)
        overflow.clear()
        free.append(overflow)
        self._overflow = keep


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(5.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.value == "done"

    Two scheduling structures back the loop, preserving the classic
    (time, sequence) total order while keeping zero-delay occurrences —
    the overwhelming majority — off the timer queue:

    * ``_immediate`` — a FIFO of events triggered *at the current
      moment*; appended in trigger order, which **is** sequence order.
    * ``_queue`` — a :class:`CalendarTimerQueue` of ``(time, seq,
      event)`` for future timeouts, popped in exact ``(time, seq)``
      order.

    Any timer entry with time equal to ``now`` was necessarily scheduled
    at an earlier moment (zero-delay scheduling never touches the timer
    queue), so it precedes every entry of ``_immediate`` in sequence
    order; the loop therefore drains same-time timer entries first.

    ``log_schedule`` records one ``(time, name)`` tuple per processed event into
    :attr:`schedule_log` — the golden-determinism tests diff these.
    """

    def __init__(
        self,
        log_schedule: bool = False,
        sanitize: Optional[bool] = None,
        tracer=None,
    ) -> None:
        self._now: float = 0.0
        #: Optional :class:`repro.telemetry.Tracer`.  Capture is a
        #: passive append (instrumentation sites read ``sim.now``, never
        #: create events), so schedules are byte-identical with tracing
        #: on/off; ``None`` costs one attribute check per site.
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self)
        if sanitize is None:
            sanitize = sanitize_from_env()
        #: Runtime invariant checking (see :mod:`repro.sim.sanitize`).
        #: Schedule-neutral: golden schedules are byte-identical on/off.
        self.sanitize = bool(sanitize)
        self.sanitizer: Optional[SimSanitizer] = (
            SimSanitizer() if self.sanitize else None
        )
        self._queue = CalendarTimerQueue()
        self._immediate: deque = deque()
        self._seq = 0
        # Insertion-ordered (dict-as-set): deadlock reports and the
        # drain-end stuck scan walk processes in spawn order — a hash
        # set would iterate by object address (RPR002).
        self._live_processes: dict[Process, None] = {}
        #: (now, delay) -> Timeout coalescing cache (see shared_timeout).
        self._shared_timeouts: dict[tuple[float, float], Timeout] = {}
        #: Lazily-created shared completed event (see granted()).
        self._granted: Optional[Event] = None
        #: Total events processed by the loop.
        self.events_processed = 0
        #: ``(time, name)`` per processed event when ``log_schedule``.
        self.schedule_log: Optional[list[tuple[float, str]]] = (
            [] if log_schedule else None
        )

    # -- time ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    # -- factory helpers ---------------------------------------------------
    def event(self, name: LazyName = "") -> Event:
        return Event(self, name=name)

    def completed(self, value: Any = None, name: LazyName = "") -> Event:
        """An event that has already succeeded *and been processed*.

        Unlike ``event().succeed(value)`` — which schedules a loop entry
        so pre-registered callbacks fire in order — a completed event
        runs late-added callbacks inline, exactly like any event the
        loop has already processed.  Hot paths hand these out for
        grants that succeed instantly (e.g. uncontended HBM
        reservations), where a loop entry per grant is pure overhead.
        """
        ev = Event(self, name=name)
        ev._value = value
        ev.callbacks = None
        return ev

    def granted(self) -> Event:
        """The shared valueless completed event.

        Completed events are immutable (late callbacks run inline, no
        state changes), so grant-style notifications that carry no
        meaningful value can all share one instance instead of
        allocating per grant — the per-device HBM reservation path hands
        these out once per (node, device).
        """
        ev = self._granted
        if ev is None:
            ev = self._granted = self.completed(None)
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value=value)

    def shared_timeout(self, delay: float) -> Timeout:
        """A coalesced ``timeout(delay)`` for same-instant waiters.

        Gang-synchronized activities (64 devices entering their launch
        phase on the same generation, 16 hosts starting identical prep
        work) create many timeouts with the same fire time; sharing one
        Timeout turns N heap entries + N loop dispatches into one.  Only
        for plain ``yield``-style waits: the returned event is shared,
        so callers must not attach exclusive state to it.
        """
        if delay <= 0:
            # A zero-delay timeout elapses within the current moment; a
            # shared one could already be processed, which would resume
            # the second waiter a generation early.  Don't coalesce.
            return Timeout(self, delay)
        cached = self._shared_timeouts
        key = (self._now, delay)
        to = cached.get(key)
        if to is None:
            if cached and next(iter(cached))[0] != self._now:
                # Time moved on; drop stale entries so the cache stays tiny.
                cached.clear()
            to = cached[key] = Timeout(self, delay)
        return to

    def ticker(
        self,
        period: float,
        action: Callable[[Ticker], None],
        name: LazyName = "",
        start_delay: Optional[float] = None,
    ) -> Ticker:
        """A recurring timer: ``action(ticker)`` every ``period`` µs
        (allocation-free per tick; see :class:`Ticker`)."""
        return Ticker(self, period, action, name=name, start_delay=start_delay)

    def timer_handle(
        self, action: Callable[[TimerHandle], None], name: LazyName = ""
    ) -> TimerHandle:
        """A cancellable, re-armable absolute-time timer (starts
        disarmed; see :class:`TimerHandle`)."""
        return TimerHandle(self, action, name=name)

    def process(
        self, generator: Generator, name: LazyName = "", daemon: bool = False
    ) -> Process:
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_settled(self, events: Iterable[Event]) -> Settled:
        """An event that fires once every input has triggered *either
        way* — success or failure (``all_of`` fails fast; quiescing a
        failed set of activities must not)."""
        return Settled(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule_at(self, event: Event, delay: float) -> None:
        when = self._now + delay
        if when <= self._now:
            # Sub-resolution delay (or float rounding): behaves like a
            # zero-delay trigger, keeping the sequence order exact.
            self._immediate.append(event)
        else:
            self._seq += 1
            self._queue.push(when, self._seq, event)

    # -- execution -----------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        immediate = self._immediate
        queue = self._queue
        if queue._len and (not immediate or queue.min_when <= self._now):
            when, _, event = queue.pop()
            self._now = when
        else:
            event = immediate.popleft()
        self.events_processed += 1
        if self.schedule_log is not None:
            self.schedule_log.append((self._now, event.name))
        event._process_callbacks()

    def _drain(self, until: Optional[float], waited: Optional[Event]) -> bool:
        """The one drain loop behind :meth:`run` and
        :meth:`run_until_triggered`.

        ``waited=None`` is run-mode: drain until both queues empty, or —
        if ``until`` is set — stop the clock there and return ``False``
        (cut short; pending work remains, so the caller must not
        deadlock-check).  With a ``waited`` event the loop runs until it
        triggers, raising :class:`TimeoutError` past ``until`` and
        :class:`DeadlockError` if the queues drain first.  Returns
        ``True`` when the drain ran to its natural stop condition.
        """
        immediate = self._immediate
        queue = self._queue
        queue_pop = queue.pop
        log = self.schedule_log
        # ``inf`` lets the horizon checks run branch-free when no limit is
        # set: ``min_when > inf`` is never true.
        limit = _INF if until is None else until
        processed = 0
        try:
            while True:
                if waited is None:
                    if not (immediate or queue._len):
                        break
                elif waited._value is not _PENDING or waited._exc is not None:
                    break
                if queue._len and (not immediate or queue.min_when <= self._now):
                    if queue.min_when > limit:
                        if waited is None:
                            self._now = limit
                            return False
                        raise TimeoutError(
                            f"event {waited.name!r} not triggered by t={limit:.3f}us"
                        )
                    when, _, event = queue_pop()
                    self._now = when
                elif immediate:
                    if waited is not None and self._now > limit:
                        raise TimeoutError(
                            f"event {waited.name!r} not triggered by t={limit:.3f}us"
                        )
                    event = immediate.popleft()
                else:
                    # Both queues empty mid-loop: only reachable when a
                    # waited event is still pending.
                    raise DeadlockError(
                        f"event {waited.name!r} can never trigger: queue drained "
                        f"at t={self._now:.3f}us",
                        list(self._live_processes),
                    )
                processed += 1
                if log is not None:
                    log.append((self._now, event.name))
                event._process_callbacks()
        finally:
            self.events_processed += processed
        return True

    def run(
        self,
        until: Optional[float] = None,
        detect_deadlock: bool = True,
    ) -> float:
        """Run until the queue drains or ``until`` (µs) is reached.

        Returns the final simulation time.  If the queue drains while
        processes are still blocked and ``detect_deadlock`` is set,
        raises :class:`DeadlockError` naming the stuck processes.
        """
        if not self._drain(until, None):
            # Cut short at ``until`` with work still pending: blocked
            # processes are expected, not deadlocked.
            return self._now
        stuck = [p for p in self._live_processes if not p.daemon]
        if detect_deadlock and stuck:
            blocked = sorted(stuck, key=lambda p: p.name)
            names = ", ".join(p.name for p in blocked[:8])
            more = "" if len(blocked) <= 8 else f" (+{len(blocked) - 8} more)"
            raise DeadlockError(
                f"simulation deadlocked at t={self._now:.3f}us with "
                f"{len(blocked)} blocked process(es): {names}{more}",
                blocked,
            )
        if self.sanitizer is not None:
            # Natural drain: every instrumented resource/fabric must be
            # quiescent — no stranded waiters, held slots, or link
            # capacity.  Raises a typed SanitizerError naming the leak.
            try:
                self.sanitizer.check_drained(self)
            except SanitizerError:
                tr = self.tracer
                if tr is not None and tr.flight is not None:
                    # Post-mortem: the flight recorder's bounded ring of
                    # recent spans/instants, dumped before the typed
                    # error propagates.
                    tr.flight.dump(reason="SanitizerError at drain")
                raise
        return self._now

    def run_until_triggered(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run just far enough for ``event`` to trigger; return its value."""
        self._drain(limit, event)
        return event.value

    # -- observability ------------------------------------------------------
    def stats(self):
        """Frozen engine snapshot (the unified ``repro.stats`` protocol)."""
        from repro.stats import SimStats

        return SimStats(
            now_us=self._now,
            events_processed=self.events_processed,
            pending_timers=self._queue._len,
            immediate_depth=len(self._immediate),
            live_processes=len(self._live_processes),
        )
