"""Shared-resource primitives built on the event kernel.

:class:`Resource` is a counted semaphore with FIFO granting — used to
model serial host CPUs, PCIe engines, and bounded HBM allocators.
:class:`Store` is an unbounded-or-bounded FIFO queue of items — used for
message channels and device work queues.

Both grant strictly in request order, which keeps the simulation
deterministic and models the paper's FIFO hardware queues faithfully.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim.engine import Event, Simulator
from repro.sim.sanitize import UnbalancedGrantError

__all__ = ["Resource", "Store"]


class Resource:
    """A counted resource granting up to ``capacity`` concurrent holders.

    ``request()`` returns an :class:`Event` that triggers when the slot is
    granted; the holder must later call ``release()`` exactly once.  The
    ``using()`` helper wraps the acquire/hold/release pattern::

        def task(sim, cpu):
            yield from cpu.using(sim, work_us=10.0)
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: str = "",
        leak_check: bool = False,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        #: Leak-checked resources (host CPUs, NIC slots) must be fully
        #: released at natural drain end; the sim-sanitizer raises
        #: UnbalancedGrantError for any slot still held.  Resources that
        #: legitimately stay held across a run end (long-lived pools)
        #: leave this False — only stranded *waiters* are flagged then.
        self.leak_check = leak_check
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: Cumulative busy time integral, for utilization reporting.
        self._busy_accum = 0.0
        self._last_change = 0.0
        if sim.sanitize and sim.sanitizer is not None:
            sim.sanitizer.watch(self)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def _account(self) -> None:
        now = self.sim.now
        self._busy_accum += self._in_use * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Integral of holders over time (µs·holders) up to now."""
        self._account()
        return self._busy_accum

    def try_acquire(self) -> bool:
        """Take a slot immediately if one is free (no event at all).

        The holder must :meth:`release` exactly as if it had gone
        through :meth:`request`.  Hot callers (executor prep fan-out)
        use this to skip even the completed-event allocation on the
        uncontended path.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._account()
            self._in_use += 1
            return True
        return False

    def request(self) -> Event:
        sim = self.sim
        if self._in_use < self.capacity and not self._waiters:
            # Uncontended acquisition: grant inline with a completed
            # event (no loop entry); the holder proceeds at the same
            # simulated instant either way.
            self._account()
            self._in_use += 1
            return sim.completed(self)
        ev = Event(sim)
        self._waiters.append(ev)
        return ev

    def fail_waiters(self, cause: BaseException) -> int:
        """Fail every queued (not-yet-granted) acquisition with ``cause``.

        Models a serial resource going away (e.g. a crashed host CPU):
        holders are handled separately by their owner, but queued waiters
        would otherwise be granted a slot on dead hardware.  Returns how
        many waiters were failed.
        """
        n = len(self._waiters)
        while self._waiters:
            ev = self._waiters.popleft()
            if not ev.triggered:
                ev.fail(cause)
        return n

    def release(self) -> None:
        if self._in_use <= 0:
            raise UnbalancedGrantError(
                f"release of idle resource {self.name!r}"
            )
        self._account()
        if self._waiters:
            # Hand the slot directly to the next waiter: in_use unchanged.
            ev = self._waiters.popleft()
            ev.succeed(self)
        else:
            self._in_use -= 1

    def _sanitizer_problems(self) -> list[tuple[str, str]]:
        """Drain-end invariants for the sim-sanitizer sweep."""
        problems: list[tuple[str, str]] = []
        pending = sum(1 for ev in self._waiters if not ev.triggered)
        if pending:
            problems.append(
                (
                    "waiters",
                    f"resource {self.name!r} drained with {pending} "
                    "waiter(s) never granted or failed (lost wakeup)",
                )
            )
        if self.leak_check and self._in_use > 0:
            problems.append(
                (
                    "grants",
                    f"resource {self.name!r} drained with {self._in_use} "
                    "slot(s) still held (acquire without release)",
                )
            )
        return problems

    def using(self, sim: Simulator, work_us: float) -> Generator:
        """Acquire, hold for ``work_us``, release.  ``yield from`` this."""
        yield self.request()
        try:
            if work_us > 0:
                yield sim.timeout(work_us)
        finally:
            self.release()


class Store:
    """A FIFO queue of items with blocking ``get`` and optional capacity.

    ``put`` returns an event that triggers when the item is accepted
    (immediately unless the store is full).  ``get`` returns an event
    that triggers with the oldest item.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "store"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def getters_waiting(self) -> int:
        """Consumers blocked in :meth:`get`.  Non-zero only while the
        store is empty: an item arriving then goes straight to a getter."""
        return len(self._getters)

    def push(self, item: Any) -> None:
        """Fire-and-forget :meth:`put` for unbounded stores.

        Skips the acceptance event entirely (hot message paths — the
        gang scheduler's mailbox — never wait on a put).  Raises on a
        bounded store at capacity, where acceptance genuinely blocks.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
            return
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise RuntimeError(
                f"{self.name}: push on a full bounded store (use put)"
            )
        self._items.append(item)

    def put(self, item: Any) -> Event:
        sim = self.sim
        if self._getters:
            # Direct handoff to the oldest waiting consumer.
            getter = self._getters.popleft()
            getter.succeed(item)
            return sim.completed()
        if self.capacity is None or len(self._items) < self.capacity:
            # Accepted immediately: a completed event (most callers
            # never wait on an unbounded put).
            self._items.append(item)
            return sim.completed()
        ev = Event(sim)
        self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        sim = self.sim
        if self._items:
            item = self._items.popleft()
            if self._putters:
                put_ev, pending = self._putters.popleft()
                self._items.append(pending)
                put_ev.succeed(None)
            return sim.completed(item)
        ev = Event(sim)
        self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        if self._putters:
            put_ev, pending = self._putters.popleft()
            self._items.append(pending)
            put_ev.succeed(None)
        return True, item
