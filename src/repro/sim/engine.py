"""Core event loop, events, and processes.

Time is a float in **microseconds**.  The unit choice matters: the paper's
quantities of interest (PCIe enqueue ~3 us, DCN RPC ~40 us, computations
0.04 ms - 35 ms) are all conveniently expressed in microseconds without
sub-unit fractions dominating.

Determinism: ties in event time are broken by scheduling order — a FIFO
ring for events scheduled at the current moment, a (time, seq)-ordered
binary heap (:class:`TimerQueue`) for future timeouts — so two runs of
the same program produce identical schedules.  Any randomness must come
from explicitly seeded generators.

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
    "DeadlockError",
    "Event",
    "Process",
    "ProcessFailed",
    "Settled",
    "Simulator",
    "Timeout",
    "TimerHandle",
    "TimerQueue",
]

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()

#: A name is a plain string, or a zero-argument callable resolved (and
#: cached) on first access — so hot paths never pay for f-strings that
#: are only read by error messages and debuggers.
LazyName = Union[str, Callable[[], str]]


class DeadlockError(RuntimeError):
    """Raised by :meth:`Simulator.run` when processes (or the callback
    chains that stand in for them) remain blocked.

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
    _silent = False  # see ``Simulator._drain``; never set on an Event

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
        return self._run_inline()

    def fail_inline(self, exc: BaseException) -> "Event":
        """:meth:`succeed_inline` for a failure."""
        if self._value is not _PENDING or self._exc is not None:
            raise DoubleTriggerError(f"event {self.name!r} already triggered")
        self._exc = exc
        return self._run_inline()

    def _run_inline(self) -> "Event":
        # Not _process_callbacks: that is the loop entry, and tools that
        # count loop entries wrap it.
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
        sim._at(sim._now + delay, self)

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


class _TimerShot:
    """One queued occurrence of a :class:`TimerHandle`.

    A fresh shot is pushed per (re-)arm; cancelling flags the shot dead
    so the timer queue can drop it — physically when it is the exposed
    head (keeping ``min_when`` honest), lazily on contact otherwise.
    """

    __slots__ = ("handle", "_dead")
    _silent = False

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
        self._queued = when > self.sim._now
        self.sim._at(when, shot)

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
        self.process._step()


class Process(Event):
    """A simulated activity driven by a Python generator.

    The generator yields :class:`Event` objects; the process resumes when
    the yielded event triggers, receiving the event's value (or having
    the event's exception thrown into it).  A process is itself an event
    that triggers with the generator's return value, so processes can
    wait on each other.  Every process is expected to finish: one still
    blocked when the queues drain is reported as a deadlock.
    """

    __slots__ = ("generator",)

    def __init__(self, sim: "Simulator", generator: Generator, name: LazyName = ""):
        self.sim = sim
        self._name = name
        self._value = _PENDING
        self._exc = None
        self.callbacks = []
        self.generator = generator
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

    # -- internals -----------------------------------------------------
    def _resume(self, ev: Event) -> None:
        if ev._exc is None:
            self._step(value=ev._value)
        else:
            self._step(throw=ev._exc)

    def _step(self, value: Any = None, throw: Optional[BaseException] = None) -> None:
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
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume)


#: "No scheduled timer" sentinel for the timer queue's ``min_when``.
_INF = float("inf")


class TimerQueue:
    """The timer queue: one global binary heap of ``(when, seq, event)``.

    ``push(when, seq, event)``; ``pop() -> (when, seq, event)`` in exact
    ``(when, seq)`` order (sequence numbers are unique, so event objects
    are never compared); ``discard(when, event)`` for cancelled
    :class:`TimerHandle` shots; ``min_when``, the earliest live time
    (``inf`` when empty); and ``len``/``_len``, which count **live**
    entries only.

    Cancelled entries are tombstones (``event._dead``): removed
    physically whenever they reach the root — the exposed head is always
    live, so ``min_when`` always names the earliest live entry (the
    drain loop orders the timer queue against the zero-delay FIFO with
    it) — and skipped on contact otherwise.
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
        entry = heapq.heappop(self._heap)
        self._len -= 1
        self._sweep()
        return entry

    def discard(self, when: float, event: Any) -> None:
        """Logically remove a cancelled entry (``event._dead`` already
        set by the caller).  The root is removed physically — together
        with any tombstones it was shadowing — so ``min_when`` stays
        honest; a non-root entry is already covered by the live root
        and is dropped lazily when a pop reaches it."""
        self._len -= 1
        heap = self._heap
        if heap[0][2] is event:
            heapq.heappop(heap)
            self._sweep()
        else:
            self._tombs += 1

    def _sweep(self) -> None:
        """Drop tombstones exposed at the root and refresh ``min_when``."""
        heap = self._heap
        if self._tombs:
            while heap and heap[0][2]._dead:
                heapq.heappop(heap)
                self._tombs -= 1
        self.min_when = heap[0][0] if heap else _INF


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
    * ``_queue`` — a :class:`TimerQueue` heap of ``(time, seq, event)``
      for future timeouts, popped in exact ``(time, seq)`` order.

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
        self._queue = TimerQueue()
        self._immediate: deque = deque()
        self._seq = 0
        # Insertion-ordered (dict-as-set): deadlock reports and the
        # drain-end stuck scan walk processes in spawn order — a hash
        # set would iterate by object address (RPR002).
        self._live_processes: dict[Process, None] = {}
        #: Callback chains that stand in for processes (a PARALLEL
        #: dispatch's node chains and edge feeds, contended sends):
        #: registered, insertion-ordered, while unsettled, and reported
        #: by the same deadlock checks.  Each has a ``name``.
        self._live_chains: dict[Any, None] = {}
        #: (now, delay) -> Timeout coalescing cache (see shared_timeout).
        self._shared_timeouts: dict[tuple[float, float], Timeout] = {}
        #: Lazily-created shared completed event (see granted()).
        self._granted: Optional[Event] = None
        #: Total events processed by the loop (silent entries excluded).
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

    def timer_handle(
        self, action: Callable[[TimerHandle], None], name: LazyName = ""
    ) -> TimerHandle:
        """A cancellable, re-armable absolute-time timer (starts
        disarmed; see :class:`TimerHandle`)."""
        return TimerHandle(self, action, name=name)

    def process(self, generator: Generator, name: LazyName = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def all_settled(self, events: Iterable[Event]) -> Settled:
        """An event that fires once every input has triggered *either
        way* — success or failure (``all_of`` fails fast; quiescing a
        failed set of activities must not)."""
        return Settled(self, events)

    # -- scheduling --------------------------------------------------------
    def _at(self, when: float, entry: Any) -> None:
        """Queue ``entry`` (anything with ``name``, ``_dead``,
        ``_silent`` and ``_process_callbacks``) at absolute time
        ``when``.  A time not after now (a zero or sub-resolution delay)
        joins the zero-delay FIFO, keeping the sequence order exact."""
        if when <= self._now:
            self._immediate.append(entry)
        else:
            self._seq += 1
            self._queue.push(when, self._seq, entry)

    # -- execution -----------------------------------------------------
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
                    if event._silent:
                        # A timer re-arming itself in the queue's order
                        # (a rendezvous's wire end): not an event.
                        event._process_callbacks()
                        continue
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
                        [*self._live_processes, *self._live_chains],
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
        processes or callback chains are still blocked and
        ``detect_deadlock`` is set, raises :class:`DeadlockError` naming
        them.
        """
        if not self._drain(until, None):
            # Cut short at ``until`` with work still pending: blocked
            # processes are expected, not deadlocked.
            return self._now
        stuck = [*self._live_processes, *self._live_chains]
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

    def drain(self, event: Event) -> float:
        """:meth:`run_until_triggered` (called once, so a wrapper of it
        sees one drain); returns the simulated µs until ``event``."""
        start = self._now
        self.run_until_triggered(event)
        return self._now - start

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
